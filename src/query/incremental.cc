#include "dbwipes/query/incremental.h"

#include <cmath>

#include "dbwipes/expr/match_kernels.h"

namespace dbwipes {

namespace {

/// Boxes an aggregate's double value into the result-row Value
/// convention (NaN -> NULL, count -> int64).
Value BoxAggValue(const AggSpec& spec, double value) {
  if (std::isnan(value)) return Value::Null();
  if (spec.kind == AggKind::kCount) {
    return Value(static_cast<int64_t>(value));
  }
  return Value(value);
}

}  // namespace

Result<CleanSnapshot> CleanSnapshot::Build(const Table& table,
                                           const QueryResult& result) {
  if (!result.rows) return Status::InvalidArgument("empty query result");
  const size_t num_aggs = result.query.aggregates.size();
  CleanSnapshot snap;
  snap.groups_.resize(result.num_groups());
  for (size_t g = 0; g < result.num_groups(); ++g) {
    const std::vector<RowId>& lineage = result.lineage[g];
    GroupState& gs = snap.groups_[g];
    gs.aggs.reserve(num_aggs);
    gs.values.assign(num_aggs, std::vector<double>(lineage.size(), 0.0));
    gs.contributes.assign(num_aggs,
                          std::vector<uint8_t>(lineage.size(), 0));
    for (size_t ai = 0; ai < num_aggs; ++ai) {
      const AggSpec& spec = result.query.aggregates[ai];
      AggregatorPtr agg = MakeAggregator(spec.kind);
      for (size_t p = 0; p < lineage.size(); ++p) {
        double v = 0.0;  // count(*)
        if (spec.argument) {
          DBW_ASSIGN_OR_RETURN(Value val,
                               spec.argument->Eval(table, lineage[p]));
          if (val.is_null()) continue;  // contributes nothing
          DBW_ASSIGN_OR_RETURN(v, val.AsDouble());
        }
        agg->Add(v);
        gs.values[ai][p] = v;
        gs.contributes[ai][p] = 1;
      }
      gs.aggs.push_back(std::move(agg));
    }
  }
  return snap;
}

Result<QueryResult> IncrementalClean(const Table& table,
                                     const QueryResult& result,
                                     const Predicate& predicate,
                                     const CleanSnapshot* snapshot) {
  if (!result.rows) return Status::InvalidArgument("empty query result");
  if (predicate.empty()) {
    return Status::InvalidArgument("cannot clean with an empty predicate");
  }
  if (snapshot != nullptr &&
      snapshot->num_groups() != result.num_groups()) {
    return Status::InvalidArgument(
        "snapshot was built from a different result");
  }
  // Lineage capture is a precondition; an all-empty lineage with a
  // non-empty result means it was disabled.
  bool any_lineage = false;
  for (const auto& rows : result.lineage) {
    if (!rows.empty()) {
      any_lineage = true;
      break;
    }
  }
  if (!any_lineage && result.num_groups() > 0) {
    return Status::InvalidArgument(
        "result was executed without lineage capture");
  }

  // Kernel-match the cleaning predicate once over the concatenation of
  // every group's lineage: each clause is scanned by a typed batch
  // kernel (chunked over the shared pool for large results), and a
  // group's matches are then bit tests against its slice. A clause
  // that does not compile fails the match with Bind's error for it.
  std::vector<RowId> universe;
  std::vector<size_t> group_offset(result.num_groups(), 0);
  for (size_t g = 0; g < result.num_groups(); ++g) {
    group_offset[g] = universe.size();
    universe.insert(universe.end(), result.lineage[g].begin(),
                    result.lineage[g].end());
  }
  MatchEngine engine(table, std::move(universe));
  DBW_RETURN_NOT_OK(engine.Materialize({&predicate}, ParallelOptions{}));
  DBW_ASSIGN_OR_RETURN(const Bitmap matched_bits,
                       engine.MatchPrepared(predicate));

  const AggregateQuery& query = result.query;
  const size_t num_keys = query.group_by.size();
  const size_t num_aggs = query.aggregates.size();

  QueryResult out;
  out.query = query.WithCleaningPredicate(predicate);
  out.rows = std::make_shared<Table>(result.rows->schema(), "result");

  std::vector<Value> row(num_keys + num_aggs);
  std::vector<size_t> matched_positions;
  for (size_t g = 0; g < result.num_groups(); ++g) {
    const std::vector<RowId>& lineage = result.lineage[g];
    const size_t base = group_offset[g];
    std::vector<RowId> survivors;
    survivors.reserve(lineage.size());
    matched_positions.clear();
    for (size_t p = 0; p < lineage.size(); ++p) {
      if (matched_bits.Test(base + p)) {
        matched_positions.push_back(p);
      } else {
        survivors.push_back(lineage[p]);
      }
    }
    if (survivors.empty()) continue;  // the whole group was cleaned away

    if (matched_positions.empty()) {
      // Untouched group: copy the result row and lineage verbatim.
      DBW_RETURN_NOT_OK(out.rows->AppendRow(result.rows->GetRow(
          static_cast<RowId>(g))));
      out.lineage.push_back(lineage);
      continue;
    }

    for (size_t k = 0; k < num_keys; ++k) {
      row[k] = result.rows->GetValue(static_cast<RowId>(g), k);
    }
    if (snapshot != nullptr) {
      // Delta path: clone the snapshotted aggregator state and remove
      // the matched tuples' cached contributions. No argument
      // evaluation; cost is O(|matched|) per aggregate.
      const CleanSnapshot::GroupState& gs = snapshot->groups_[g];
      for (size_t ai = 0; ai < num_aggs; ++ai) {
        AggregatorPtr agg = gs.aggs[ai]->Clone();
        for (size_t p : matched_positions) {
          if (gs.contributes[ai][p]) agg->Remove(gs.values[ai][p]);
        }
        row[num_keys + ai] = BoxAggValue(query.aggregates[ai], agg->Value());
      }
    } else {
      // Rebuild path: re-aggregate the survivors from scratch.
      for (size_t ai = 0; ai < num_aggs; ++ai) {
        const AggSpec& spec = query.aggregates[ai];
        AggregatorPtr agg = MakeAggregator(spec.kind);
        for (RowId r : survivors) {
          if (!spec.argument) {
            agg->Add(0.0);  // count(*)
            continue;
          }
          DBW_ASSIGN_OR_RETURN(Value v, spec.argument->Eval(table, r));
          if (v.is_null()) continue;
          DBW_ASSIGN_OR_RETURN(double d, v.AsDouble());
          agg->Add(d);
        }
        row[num_keys + ai] = BoxAggValue(spec, agg->Value());
      }
    }
    DBW_RETURN_NOT_OK(out.rows->AppendRow(row));
    out.lineage.push_back(std::move(survivors));
  }
  return out;
}

Result<QueryResult> IncrementalClean(const Table& table,
                                     const QueryResult& result,
                                     const Predicate& predicate) {
  return IncrementalClean(table, result, predicate, nullptr);
}

}  // namespace dbwipes
