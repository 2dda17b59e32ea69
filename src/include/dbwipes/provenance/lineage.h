#ifndef DBWIPES_PROVENANCE_LINEAGE_H_
#define DBWIPES_PROVENANCE_LINEAGE_H_

#include <string>
#include <vector>

#include "dbwipes/expr/ast.h"

namespace dbwipes {

/// \brief Coarse-grained provenance: the operator graph of a query.
///
/// The paper's motivating strawman — returned so users can see that
/// every input went through the same Scan -> Filter -> GroupBy ->
/// Aggregate pipeline, which is precisely why coarse provenance cannot
/// explain an aggregate anomaly.
struct OperatorNode {
  std::string name;        // e.g. "GroupBy"
  std::string detail;      // e.g. "keys: sensorid, window"
  std::vector<size_t> inputs;  // indices of upstream nodes
};

struct OperatorGraph {
  std::vector<OperatorNode> nodes;

  /// Multi-line rendering, one node per line with its inputs.
  std::string ToString() const;
};

/// Builds the (linear) operator graph for a single-block aggregate
/// query.
OperatorGraph DescribeQueryPlan(const AggregateQuery& query);

}  // namespace dbwipes

#endif  // DBWIPES_PROVENANCE_LINEAGE_H_
