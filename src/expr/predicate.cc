#include "dbwipes/expr/predicate.h"

#include <algorithm>
#include <map>

#include "dbwipes/common/string_util.h"

namespace dbwipes {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kIn:
      return "IN";
    case CompareOp::kContains:
      return "CONTAINS";
  }
  return "?";
}

Result<CompareOp> NegateOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kNe;
    case CompareOp::kNe:
      return CompareOp::kEq;
    case CompareOp::kLt:
      return CompareOp::kGe;
    case CompareOp::kLe:
      return CompareOp::kGt;
    case CompareOp::kGt:
      return CompareOp::kLe;
    case CompareOp::kGe:
      return CompareOp::kLt;
    case CompareOp::kIn:
    case CompareOp::kContains:
      return Status::InvalidArgument("op has no single-clause negation");
  }
  return Status::InvalidArgument("unknown op");
}

bool Clause::Matches(const Value& v) const {
  if (v.is_null()) return false;
  switch (op) {
    case CompareOp::kEq:
      return v == literal;
    case CompareOp::kNe:
      return !(v == literal);
    case CompareOp::kLt:
      return v < literal;
    case CompareOp::kLe:
      // Single comparison; under Value's total order `v <= l` is
      // exactly `!(l < v)`. (For NaN operands neither < holds, so a
      // NaN satisfies kLe/kGe but not kLt/kGt — the clause scans
      // implement the same convention.)
      return !(literal < v);
    case CompareOp::kGt:
      return literal < v;
    case CompareOp::kGe:
      return !(v < literal);
    case CompareOp::kIn:
      for (const Value& x : in_set) {
        if (v == x) return true;
      }
      return false;
    case CompareOp::kContains:
      if (!v.is_string() || !literal.is_string()) return false;
      return v.str().find(literal.str()) != std::string::npos;
  }
  return false;
}

std::string Clause::ToString() const {
  if (op == CompareOp::kIn) {
    std::vector<std::string> parts;
    parts.reserve(in_set.size());
    for (const Value& v : in_set) parts.push_back(v.ToString());
    return attribute + " IN (" + Join(parts, ", ") + ")";
  }
  return attribute + " " + CompareOpToString(op) + " " + literal.ToString();
}

std::string Clause::CanonicalString() const {
  if (op == CompareOp::kIn) {
    std::vector<std::string> parts;
    parts.reserve(in_set.size());
    for (const Value& v : in_set) parts.push_back(v.ToString());
    std::sort(parts.begin(), parts.end());
    return attribute + " IN (" + Join(parts, ", ") + ")";
  }
  return ToString();
}

Predicate Predicate::And(const Predicate& other) const {
  std::vector<Clause> merged = clauses_;
  merged.insert(merged.end(), other.clauses_.begin(), other.clauses_.end());
  return Predicate(std::move(merged));
}

Predicate Predicate::Simplify() const {
  // Per attribute, keep the tightest lower bound, tightest upper bound,
  // and deduplicate everything else.
  struct Bounds {
    bool has_lower = false;
    Value lower;
    bool lower_strict = false;
    bool has_upper = false;
    Value upper;
    bool upper_strict = false;
  };
  std::map<std::string, Bounds> bounds;
  std::vector<Clause> others;
  std::vector<std::string> seen;

  for (const Clause& c : clauses_) {
    const bool is_lower = c.op == CompareOp::kGt || c.op == CompareOp::kGe;
    const bool is_upper = c.op == CompareOp::kLt || c.op == CompareOp::kLe;
    if (is_lower || is_upper) {
      Bounds& b = bounds[c.attribute];
      const bool strict = c.op == CompareOp::kGt || c.op == CompareOp::kLt;
      if (is_lower) {
        if (!b.has_lower || b.lower < c.literal ||
            (b.lower == c.literal && strict && !b.lower_strict)) {
          b.has_lower = true;
          b.lower = c.literal;
          b.lower_strict = strict;
        }
      } else {
        if (!b.has_upper || c.literal < b.upper ||
            (b.upper == c.literal && strict && !b.upper_strict)) {
          b.has_upper = true;
          b.upper = c.literal;
          b.upper_strict = strict;
        }
      }
      continue;
    }
    const std::string key = c.CanonicalString();
    if (std::find(seen.begin(), seen.end(), key) == seen.end()) {
      seen.push_back(key);
      others.push_back(c);
    }
  }

  std::vector<Clause> out;
  for (const Clause& c : others) {
    // Keep attribute order stable: emit range clauses at the position
    // of the first clause mentioning the attribute, after the others.
    out.push_back(c);
  }
  for (const auto& [attr, b] : bounds) {
    if (b.has_lower) {
      out.push_back(Clause::Make(
          attr, b.lower_strict ? CompareOp::kGt : CompareOp::kGe, b.lower));
    }
    if (b.has_upper) {
      out.push_back(Clause::Make(
          attr, b.upper_strict ? CompareOp::kLt : CompareOp::kLe, b.upper));
    }
  }
  return Predicate(std::move(out));
}

Result<bool> Predicate::Matches(const Table& table, RowId row) const {
  for (const Clause& c : clauses_) {
    DBW_ASSIGN_OR_RETURN(size_t idx, table.schema().GetIndex(c.attribute));
    if (!c.Matches(table.column(idx).GetValue(row))) return false;
  }
  return true;
}

std::string Predicate::ToString() const {
  if (clauses_.empty()) return "TRUE";
  std::vector<std::string> parts;
  parts.reserve(clauses_.size());
  for (const Clause& c : clauses_) parts.push_back(c.ToString());
  return Join(parts, " AND ");
}

std::string Predicate::CanonicalString() const {
  if (clauses_.empty()) return "TRUE";
  std::vector<std::string> parts;
  parts.reserve(clauses_.size());
  for (const Clause& c : clauses_) parts.push_back(c.CanonicalString());
  std::sort(parts.begin(), parts.end());
  return Join(parts, " AND ");
}

}  // namespace dbwipes
