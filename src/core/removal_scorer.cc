#include "dbwipes/core/removal_scorer.h"

#include <algorithm>
#include <functional>

#include "dbwipes/common/trace.h"
#include "dbwipes/core/removal.h"

namespace dbwipes {

Result<RemovalScorer> RemovalScorer::Create(
    const Table& table, const QueryResult& result,
    const std::vector<size_t>& selected_groups, size_t agg_index,
    const std::vector<RowId>& suspects, const ExecContext& ctx) {
  DBW_FAULT(ctx, "scorer/create");
  DBW_TRACE_SPAN("scorer/create");
  DBW_RETURN_NOT_OK(result.lineage.CheckCaptured());
  if (agg_index >= result.query.aggregates.size()) {
    return Status::OutOfRange("agg_index out of range");
  }
  const AggSpec& spec = result.query.aggregates[agg_index];

  if (std::adjacent_find(suspects.begin(), suspects.end(),
                         std::greater_equal<RowId>()) != suspects.end()) {
    return Status::InvalidArgument("suspect set is not strictly ascending");
  }

  RemovalScorer scorer;
  scorer.suspects_ = suspects;
  scorer.entries_.assign(suspects.size(), Entry{});

  scorer.base_.reserve(selected_groups.size());
  scorer.base_values_.reserve(selected_groups.size());
  for (size_t gi = 0; gi < selected_groups.size(); ++gi) {
    DBW_RETURN_NOT_OK(ctx.CheckContinue());
    const size_t g = selected_groups[gi];
    if (g >= result.num_groups()) {
      return Status::OutOfRange("selected group out of range");
    }
    AggregatorPtr agg = MakeAggregator(spec.kind);
    // A group's rows ascend, like F, so each row's position in F is
    // searched for from where the last one was found.
    auto at = suspects.begin();
    // Same fold order as the from-scratch path (ValuesAfterRemoval),
    // so unaffected groups reproduce its values bit for bit.
    for (RowId r : result.lineage[g]) {
      double removable_value;
      if (!spec.argument) {
        removable_value = 0.0;  // count(*)
      } else {
        DBW_ASSIGN_OR_RETURN(Value v, spec.argument->Eval(table, r));
        if (v.is_null()) continue;  // no contribution; removal is a no-op
        DBW_ASSIGN_OR_RETURN(removable_value, v.AsDouble());
      }
      agg->Add(removable_value);
      at = std::lower_bound(at, suspects.end(), r);
      if (at == suspects.end() || *at != r) continue;
      Entry& e = scorer.entries_[at - suspects.begin()];
      if (e.group != kNoGroup) {
        // A base row feeding two selected groups would make per-row
        // deltas ambiguous; group-by partitions rows, so this cannot
        // happen with well-formed lineage.
        return Status::InvalidArgument(
            "suspect row appears in multiple selected groups' lineage");
      }
      e.group = static_cast<uint32_t>(gi);
      e.value = removable_value;
    }
    scorer.base_values_.push_back(agg->Value());
    scorer.base_.push_back(std::move(agg));
  }
  return scorer;
}

template <typename ForEachMatched>
std::vector<double> RemovalScorer::ValuesImpl(
    const ForEachMatched& for_each) const {
  // Lazily cloned state for affected groups only; untouched groups
  // read the cached base value.
  std::vector<AggregatorPtr> scratch(base_.size());
  for_each([&](size_t suspect_idx) {
    const Entry& e = entries_[suspect_idx];
    if (e.group == kNoGroup) return;
    AggregatorPtr& agg = scratch[e.group];
    if (!agg) agg = base_[e.group]->Clone();
    agg->Remove(e.value);
  });
  std::vector<double> values(base_.size());
  for (size_t g = 0; g < base_.size(); ++g) {
    values[g] = scratch[g] ? scratch[g]->Value() : base_values_[g];
  }
  return values;
}

std::vector<double> RemovalScorer::ValuesAfterRemoval(
    const Bitmap& matched) const {
  return ValuesImpl([&](const auto& apply) { matched.ForEachSet(apply); });
}

std::vector<double> RemovalScorer::ValuesAfterRemovalRows(
    const std::vector<RowId>& rows) const {
  return ValuesImpl([&](const auto& apply) {
    for (RowId r : rows) {
      auto at = std::lower_bound(suspects_.begin(), suspects_.end(), r);
      if (at != suspects_.end() && *at == r) apply(at - suspects_.begin());
    }
  });
}

RemovalScorer::Errors RemovalScorer::ErrorsAfterParts(
    const ErrorMetric& metric, const std::vector<Bitmap>& parts,
    const std::vector<size_t>& offsets) const {
  DBW_DCHECK(parts.size() == offsets.size());
  const std::vector<double> values = ValuesImpl([&](const auto& apply) {
    for (size_t p = 0; p < parts.size(); ++p) {
      const size_t offset = offsets[p];
      parts[p].ForEachSet([&](size_t i) { apply(offset + i); });
    }
  });
  return {metric.Error(values), PerGroupError(metric, values)};
}

RemovalScorer::Errors RemovalScorer::ErrorsAfterRows(
    const ErrorMetric& metric, const std::vector<RowId>& rows) const {
  const std::vector<double> values = ValuesAfterRemovalRows(rows);
  return {metric.Error(values), PerGroupError(metric, values)};
}

}  // namespace dbwipes
