#ifndef DBWIPES_EXPR_BOOL_EXPR_H_
#define DBWIPES_EXPR_BOOL_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "dbwipes/common/bitmap.h"
#include "dbwipes/common/result.h"
#include "dbwipes/expr/fused_kernels.h"
#include "dbwipes/expr/predicate.h"
#include "dbwipes/storage/table.h"

namespace dbwipes {

/// \brief Boolean filter expression tree: comparisons combined with
/// AND / OR / NOT. This is what a WHERE clause parses into and what
/// cleaning rewrites manipulate (`old_where AND NOT predicate`).
///
/// Evaluation (FilterBitmap) is two-valued: a comparison is
/// Clause::Matches, so one touching a NULL cell is false, and NOT is
/// plain negation. (Documented divergence from SQL three-valued logic;
/// it makes "remove tuples matching P" keep rows whose attribute is
/// NULL, which is the conservative choice for cleaning. A NULL
/// literal is the least Value, not UNKNOWN: `x != NULL` matches every
/// row whose x is not NULL; see DESIGN.md §5d.)
class BoolExpr {
 public:
  enum class Kind { kTrue, kComparison, kAnd, kOr, kNot };

  virtual ~BoolExpr() = default;
  virtual Kind kind() const = 0;
  virtual Status Validate(const Schema& schema) const = 0;
  virtual std::string ToString() const = 0;
};

using BoolExprPtr = std::shared_ptr<const BoolExpr>;

/// Constant TRUE (the empty WHERE clause).
class TrueExpr final : public BoolExpr {
 public:
  Kind kind() const override { return Kind::kTrue; }
  Status Validate(const Schema&) const override { return Status::OK(); }
  std::string ToString() const override { return "TRUE"; }
};

/// A single clause (attr op literal) as a BoolExpr leaf.
class ComparisonExpr final : public BoolExpr {
 public:
  explicit ComparisonExpr(Clause clause) : clause_(std::move(clause)) {}

  Kind kind() const override { return Kind::kComparison; }
  Status Validate(const Schema& schema) const override;
  std::string ToString() const override { return clause_.ToString(); }

  const Clause& clause() const { return clause_; }

 private:
  Clause clause_;
};

class AndExpr final : public BoolExpr {
 public:
  AndExpr(BoolExprPtr left, BoolExprPtr right)
      : left_(std::move(left)), right_(std::move(right)) {}

  Kind kind() const override { return Kind::kAnd; }
  Status Validate(const Schema& schema) const override;
  std::string ToString() const override;

  const BoolExprPtr& left() const { return left_; }
  const BoolExprPtr& right() const { return right_; }

 private:
  BoolExprPtr left_;
  BoolExprPtr right_;
};

class OrExpr final : public BoolExpr {
 public:
  OrExpr(BoolExprPtr left, BoolExprPtr right)
      : left_(std::move(left)), right_(std::move(right)) {}

  Kind kind() const override { return Kind::kOr; }
  Status Validate(const Schema& schema) const override;
  std::string ToString() const override;

  const BoolExprPtr& left() const { return left_; }
  const BoolExprPtr& right() const { return right_; }

 private:
  BoolExprPtr left_;
  BoolExprPtr right_;
};

class NotExpr final : public BoolExpr {
 public:
  explicit NotExpr(BoolExprPtr child) : child_(std::move(child)) {}

  Kind kind() const override { return Kind::kNot; }
  Status Validate(const Schema& schema) const override;
  std::string ToString() const override;

  const BoolExprPtr& child() const { return child_; }

 private:
  BoolExprPtr child_;
};

// Builders.
BoolExprPtr MakeTrue();
BoolExprPtr MakeComparison(Clause clause);
BoolExprPtr MakeAnd(BoolExprPtr a, BoolExprPtr b);
BoolExprPtr MakeOr(BoolExprPtr a, BoolExprPtr b);
BoolExprPtr MakeNot(BoolExprPtr a);

/// Converts a conjunctive Predicate into the equivalent BoolExpr.
BoolExprPtr PredicateToBoolExpr(const Predicate& pred);

/// Lowers `expr` to the bitmap of the `universe` positions whose rows
/// it matches (bit i = row universe.row(i) passes), the vectorized
/// WHERE. Each comparison leaf is one clause scan at ResolveSimdTier()
/// (CompileClause + EvalFusedWords), which answers every literal type
/// as Clause::Matches does; AND, OR and NOT are word operations, NOT
/// masked to the universe. Fails only where `expr` does not Validate
/// against the table's schema. Also the one-shot match of a Predicate
/// (via PredicateToBoolExpr), which has nothing to cache.
Result<Bitmap> FilterBitmap(const BoolExpr& expr, const Table& table,
                            const ScanUniverse& universe);

}  // namespace dbwipes

#endif  // DBWIPES_EXPR_BOOL_EXPR_H_
