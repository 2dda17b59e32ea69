#ifndef DBWIPES_EXPR_PREDICATE_H_
#define DBWIPES_EXPR_PREDICATE_H_

#include <string>
#include <vector>

#include "dbwipes/common/result.h"
#include "dbwipes/storage/table.h"

namespace dbwipes {

/// Comparison operators usable in clauses.
enum class CompareOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kIn,        // attribute value is in a literal set
  kContains,  // string attribute contains a substring
};

const char* CompareOpToString(CompareOp op);
/// kLt <-> kGe etc. kIn and kContains have no single-clause negation
/// (error).
Result<CompareOp> NegateOp(CompareOp op);

/// \brief One atomic condition `attr OP literal` (or `attr IN (...)`).
struct Clause {
  std::string attribute;
  CompareOp op = CompareOp::kEq;
  /// Literal for the binary ops and kContains (must be a string there).
  Value literal;
  /// Literal set for kIn.
  std::vector<Value> in_set;

  static Clause Make(std::string attr, CompareOp op, Value lit) {
    Clause c;
    c.attribute = std::move(attr);
    c.op = op;
    c.literal = std::move(lit);
    return c;
  }
  static Clause In(std::string attr, std::vector<Value> values) {
    Clause c;
    c.attribute = std::move(attr);
    c.op = CompareOp::kIn;
    c.in_set = std::move(values);
    return c;
  }

  /// True when `v` satisfies the clause: the definition every match
  /// path in DBWipes follows (CompileClause compiles each clause to
  /// exactly this answer per cell). NULL never matches. Comparisons use
  /// Value's order, so a literal of another type is answered too, e.g.
  /// every number is below every string.
  bool Matches(const Value& v) const;

  /// SQL-ish rendering, e.g. `temp >= 100`, `memo CONTAINS 'SPOUSE'`.
  std::string ToString() const;

  /// Canonical text used for semantic deduplication (sorts IN sets).
  std::string CanonicalString() const;

  bool operator==(const Clause& other) const {
    return CanonicalString() == other.CanonicalString();
  }
};

/// \brief Conjunction of clauses — the unit DBWipes returns to the
/// user ("sensorid = 15 AND time >= 11:00").
class Predicate {
 public:
  Predicate() = default;
  explicit Predicate(std::vector<Clause> clauses)
      : clauses_(std::move(clauses)) {}

  static Predicate True() { return Predicate(); }

  bool empty() const { return clauses_.empty(); }
  size_t num_clauses() const { return clauses_.size(); }
  const std::vector<Clause>& clauses() const { return clauses_; }

  void AddClause(Clause c) { clauses_.push_back(std::move(c)); }

  /// Conjunction of this and other.
  Predicate And(const Predicate& other) const;

  /// Merges clauses on the same attribute (tightest range, duplicate
  /// removal). Returns the simplified copy; detection of contradictions
  /// is left to evaluation (an unsatisfiable predicate matches nothing).
  Predicate Simplify() const;

  /// Row-at-a-time boxed evaluation by attribute lookup, the oracle of
  /// the clause scans; for many rows use FilterBitmap (bool_expr.h) or
  /// a MatchEngine (match_kernels.h).
  Result<bool> Matches(const Table& table, RowId row) const;

  /// `a = 1 AND b >= 2`; "TRUE" when empty.
  std::string ToString() const;
  /// Order-independent canonical form for dedup.
  std::string CanonicalString() const;

  bool operator==(const Predicate& other) const {
    return CanonicalString() == other.CanonicalString();
  }

 private:
  std::vector<Clause> clauses_;
};

}  // namespace dbwipes

#endif  // DBWIPES_EXPR_PREDICATE_H_
