#include "dbwipes/expr/bool_expr.h"

#include "dbwipes/expr/match_kernels.h"

namespace dbwipes {

Status ComparisonExpr::Validate(const Schema& schema) const {
  return schema.GetIndex(clause_.attribute).status();
}

Status AndExpr::Validate(const Schema& schema) const {
  DBW_RETURN_NOT_OK(left_->Validate(schema));
  return right_->Validate(schema);
}

std::string AndExpr::ToString() const {
  return "(" + left_->ToString() + " AND " + right_->ToString() + ")";
}

Status OrExpr::Validate(const Schema& schema) const {
  DBW_RETURN_NOT_OK(left_->Validate(schema));
  return right_->Validate(schema);
}

std::string OrExpr::ToString() const {
  return "(" + left_->ToString() + " OR " + right_->ToString() + ")";
}

Status NotExpr::Validate(const Schema& schema) const {
  return child_->Validate(schema);
}

std::string NotExpr::ToString() const {
  return "NOT " + child_->ToString();
}

BoolExprPtr MakeTrue() { return std::make_shared<TrueExpr>(); }
BoolExprPtr MakeComparison(Clause clause) {
  return std::make_shared<ComparisonExpr>(std::move(clause));
}
BoolExprPtr MakeAnd(BoolExprPtr a, BoolExprPtr b) {
  return std::make_shared<AndExpr>(std::move(a), std::move(b));
}
BoolExprPtr MakeOr(BoolExprPtr a, BoolExprPtr b) {
  return std::make_shared<OrExpr>(std::move(a), std::move(b));
}
BoolExprPtr MakeNot(BoolExprPtr a) {
  return std::make_shared<NotExpr>(std::move(a));
}

BoolExprPtr PredicateToBoolExpr(const Predicate& pred) {
  if (pred.empty()) return MakeTrue();
  BoolExprPtr out;
  for (const Clause& c : pred.clauses()) {
    BoolExprPtr leaf = MakeComparison(c);
    out = out ? MakeAnd(std::move(out), std::move(leaf)) : std::move(leaf);
  }
  return out;
}

namespace {

/// One FilterBitmap call: the tree walk plus the validity bitmaps its
/// numeric leaves share, built once per column.
class WhereLowering {
 public:
  WhereLowering(const Table& table, const ScanUniverse& universe)
      : table_(table),
        universe_(universe),
        tier_(ResolveSimdTier()),
        validity_(universe) {}

  Result<Bitmap> Lower(const BoolExpr& expr) {
    switch (expr.kind()) {
      case BoolExpr::Kind::kTrue: {
        Bitmap all(universe_.size);
        all.SetAll();
        return all;
      }
      case BoolExpr::Kind::kComparison:
        return Leaf(static_cast<const ComparisonExpr&>(expr).clause());
      case BoolExpr::Kind::kAnd: {
        const auto& e = static_cast<const AndExpr&>(expr);
        DBW_ASSIGN_OR_RETURN(Bitmap out, Lower(*e.left()));
        DBW_ASSIGN_OR_RETURN(Bitmap right, Lower(*e.right()));
        out.AndWith(right);
        return out;
      }
      case BoolExpr::Kind::kOr: {
        const auto& e = static_cast<const OrExpr&>(expr);
        DBW_ASSIGN_OR_RETURN(Bitmap out, Lower(*e.left()));
        DBW_ASSIGN_OR_RETURN(Bitmap right, Lower(*e.right()));
        out.OrWith(right);
        return out;
      }
      case BoolExpr::Kind::kNot: {
        DBW_ASSIGN_OR_RETURN(
            Bitmap out, Lower(*static_cast<const NotExpr&>(expr).child()));
        out.Complement();
        return out;
      }
    }
    return Status::RuntimeError("unknown filter node");
  }

 private:
  Result<Bitmap> Leaf(const Clause& clause) {
    DBW_ASSIGN_OR_RETURN(ClauseScan scan, CompileClause(clause, table_));
    Bitmap out(universe_.size);
    EvalFusedWords(scan, validity_.For(scan), tier_, universe_, 0,
                   out.num_words(), &out);
    return out;
  }

  const Table& table_;
  const ScanUniverse& universe_;
  const SimdTier tier_;
  ValidityCache validity_;
};

}  // namespace

Result<Bitmap> FilterBitmap(const BoolExpr& expr, const Table& table,
                            const ScanUniverse& universe) {
  return WhereLowering(table, universe).Lower(expr);
}

}  // namespace dbwipes
