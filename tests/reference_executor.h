#ifndef DBWIPES_TESTS_REFERENCE_EXECUTOR_H_
#define DBWIPES_TESTS_REFERENCE_EXECUTOR_H_

// The row-at-a-time query executor that ExecuteQuery replaced, kept
// as the oracle the vectorized executor is compared against: boxed
// WHERE evaluation per row, vector<Value> group keys, boxed aggregate
// arguments. It keeps the old NaN-key behavior (each NaN row its own
// group, sorted by a comparator that is not a strict weak order), so
// oracles leave NaN keys out.

#include "dbwipes/common/result.h"
#include "dbwipes/expr/bool_expr.h"
#include "dbwipes/query/executor.h"

namespace dbwipes::reference {

/// Whether `expr` matches `row`: Clause::Matches per comparison, with
/// short-circuit AND and OR.
Result<bool> Eval(const BoolExpr& expr, const Table& table, RowId row);

/// ExecuteQuery, one boxed row at a time.
Result<QueryResult> ExecuteQuery(const AggregateQuery& query,
                                 const Table& table,
                                 const ExecOptions& options = {});

}  // namespace dbwipes::reference

#endif  // DBWIPES_TESTS_REFERENCE_EXECUTOR_H_
