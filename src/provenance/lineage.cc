#include "dbwipes/provenance/lineage.h"

#include "dbwipes/common/string_util.h"

namespace dbwipes {

std::string OperatorGraph::ToString() const {
  std::string out;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const OperatorNode& n = nodes[i];
    out += "[" + std::to_string(i) + "] " + n.name;
    if (!n.detail.empty()) out += " (" + n.detail + ")";
    if (!n.inputs.empty()) {
      std::vector<std::string> ins;
      for (size_t in : n.inputs) ins.push_back(std::to_string(in));
      out += " <- " + Join(ins, ", ");
    }
    out += "\n";
  }
  return out;
}

OperatorGraph DescribeQueryPlan(const AggregateQuery& query) {
  OperatorGraph g;
  g.nodes.push_back({"Scan", "table: " + query.table_name, {}});
  size_t prev = 0;
  if (query.where && query.where->kind() != BoolExpr::Kind::kTrue) {
    g.nodes.push_back({"Filter", query.where->ToString(), {prev}});
    prev = g.nodes.size() - 1;
  }
  if (!query.group_by.empty()) {
    g.nodes.push_back({"GroupBy", "keys: " + Join(query.group_by, ", "),
                       {prev}});
    prev = g.nodes.size() - 1;
  }
  std::vector<std::string> aggs;
  for (const AggSpec& a : query.aggregates) aggs.push_back(a.ToString());
  g.nodes.push_back({"Aggregate", Join(aggs, ", "), {prev}});
  g.nodes.push_back({"Result", "", {g.nodes.size() - 1}});
  return g;
}

}  // namespace dbwipes
