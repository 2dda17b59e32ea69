#include "dbwipes/provenance/influence.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>

#include "dbwipes/query/aggregate.h"

namespace dbwipes {

namespace {

Status CheckArgs(const QueryResult& result,
                 const std::vector<size_t>& selected_groups,
                 const InfluenceOptions& options) {
  DBW_RETURN_NOT_OK(result.lineage.CheckCaptured());
  if (options.agg_index >= result.query.aggregates.size()) {
    return Status::OutOfRange("agg_index " +
                              std::to_string(options.agg_index) +
                              " out of range");
  }
  for (size_t g : selected_groups) {
    if (g >= result.num_groups()) {
      return Status::OutOfRange("selected group " + std::to_string(g) +
                                " out of range (result has " +
                                std::to_string(result.num_groups()) +
                                " groups)");
    }
  }
  if (selected_groups.empty()) {
    return Status::InvalidArgument("no suspicious groups selected");
  }
  return Status::OK();
}

/// Per-tuple aggregate argument values for one group's lineage;
/// nullopt = the tuple's argument evaluated to NULL (contributes
/// nothing to the aggregate).
Result<std::vector<std::optional<double>>> ArgValues(
    const Table& table, const AggSpec& spec, std::span<const RowId> rows) {
  std::vector<std::optional<double>> out;
  out.reserve(rows.size());
  for (RowId r : rows) {
    if (!spec.argument) {
      out.push_back(0.0);  // count(*): every row contributes
      continue;
    }
    DBW_ASSIGN_OR_RETURN(Value v, spec.argument->Eval(table, r));
    if (v.is_null()) {
      out.push_back(std::nullopt);
    } else {
      DBW_ASSIGN_OR_RETURN(double d, v.AsDouble());
      out.push_back(d);
    }
  }
  return out;
}

}  // namespace

Result<double> SelectionError(const QueryResult& result,
                              const std::vector<size_t>& selected_groups,
                              const ErrorFn& error_fn,
                              const InfluenceOptions& options) {
  DBW_RETURN_NOT_OK(CheckArgs(result, selected_groups, options));
  std::vector<double> values;
  values.reserve(selected_groups.size());
  for (size_t g : selected_groups) {
    values.push_back(result.AggValue(g, options.agg_index));
  }
  return error_fn(values);
}

Result<std::vector<TupleInfluence>> LeaveOneOutInfluence(
    const Table& table, const QueryResult& result,
    const std::vector<size_t>& selected_groups, const ErrorFn& error_fn,
    const InfluenceOptions& options) {
  DBW_RETURN_NOT_OK(CheckArgs(result, selected_groups, options));
  const AggSpec& spec = result.query.aggregates[options.agg_index];

  // Baseline values of all selected groups.
  std::vector<double> values;
  values.reserve(selected_groups.size());
  for (size_t g : selected_groups) {
    values.push_back(result.AggValue(g, options.agg_index));
  }
  const double err0 = error_fn(values);

  std::vector<TupleInfluence> out;
  std::vector<double> single(1);
  for (size_t si = 0; si < selected_groups.size(); ++si) {
    const size_t g = selected_groups[si];
    const std::span<const RowId> rows = result.lineage[g];
    DBW_ASSIGN_OR_RETURN(std::vector<std::optional<double>> args,
                         ArgValues(table, spec, rows));

    // Rebuild the group's aggregate state once.
    AggregatorPtr agg = MakeAggregator(spec.kind);
    for (const auto& a : args) {
      if (a) agg->Add(*a);
    }

    // Per-group baseline: the metric applied to this group alone.
    single[0] = values[si];
    const double group_err0 = error_fn(single);

    const double saved = values[si];
    for (size_t i = 0; i < rows.size(); ++i) {
      TupleInfluence ti;
      ti.row = rows[i];
      ti.selected_group = si;
      if (!args[i]) {
        // NULL argument: removing the tuple cannot change the
        // aggregate (count(*) excepted, handled above by args = 0.0).
        ti.influence = 0.0;
      } else {
        agg->Remove(*args[i]);
        if (options.per_group) {
          single[0] = agg->Value();
          ti.influence = group_err0 - error_fn(single);
        } else {
          values[si] = agg->Value();
          ti.influence = err0 - error_fn(values);
        }
        agg->Add(*args[i]);
      }
      out.push_back(ti);
    }
    values[si] = saved;
  }

  std::stable_sort(out.begin(), out.end(),
                   [](const TupleInfluence& a, const TupleInfluence& b) {
                     return a.influence > b.influence;
                   });
  return out;
}

Result<std::vector<TupleInfluence>> LeaveOneOutInfluenceBruteForce(
    const Table& table, const QueryResult& result,
    const std::vector<size_t>& selected_groups, const ErrorFn& error_fn,
    const InfluenceOptions& options) {
  DBW_RETURN_NOT_OK(CheckArgs(result, selected_groups, options));
  const AggSpec& spec = result.query.aggregates[options.agg_index];

  std::vector<double> values;
  values.reserve(selected_groups.size());
  for (size_t g : selected_groups) {
    values.push_back(result.AggValue(g, options.agg_index));
  }
  const double err0 = error_fn(values);

  std::vector<TupleInfluence> out;
  std::vector<double> single(1);
  for (size_t si = 0; si < selected_groups.size(); ++si) {
    const size_t g = selected_groups[si];
    const std::span<const RowId> rows = result.lineage[g];
    DBW_ASSIGN_OR_RETURN(std::vector<std::optional<double>> args,
                         ArgValues(table, spec, rows));

    single[0] = values[si];
    const double group_err0 = error_fn(single);

    const double saved = values[si];
    for (size_t i = 0; i < rows.size(); ++i) {
      // Recompute the aggregate over all tuples but i.
      AggregatorPtr agg = MakeAggregator(spec.kind);
      for (size_t j = 0; j < rows.size(); ++j) {
        if (j != i && args[j]) agg->Add(*args[j]);
      }
      TupleInfluence ti;
      ti.row = rows[i];
      ti.selected_group = si;
      if (options.per_group) {
        single[0] = agg->Value();
        ti.influence = group_err0 - error_fn(single);
      } else {
        values[si] = agg->Value();
        ti.influence = err0 - error_fn(values);
      }
      out.push_back(ti);
    }
    values[si] = saved;
  }

  std::stable_sort(out.begin(), out.end(),
                   [](const TupleInfluence& a, const TupleInfluence& b) {
                     return a.influence > b.influence;
                   });
  return out;
}

}  // namespace dbwipes
