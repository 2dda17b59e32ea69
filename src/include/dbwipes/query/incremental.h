#ifndef DBWIPES_QUERY_INCREMENTAL_H_
#define DBWIPES_QUERY_INCREMENTAL_H_

#include "dbwipes/expr/predicate.h"
#include "dbwipes/query/executor.h"

namespace dbwipes {

/// Applies a cleaning predicate to an existing result *incrementally*:
/// tuples matching `predicate` are deleted from the groups they fed,
/// untouched groups are copied verbatim, and groups that lose every
/// tuple disappear — byte for byte what re-executing
/// `query AND NOT predicate` would produce (a law checked by tests),
/// but without re-evaluating the WHERE clause, re-hashing group keys,
/// or re-sorting. An affected group is re-aggregated over its
/// survivors in lineage order, which is the executor's scan order.
///
/// This is the engine behind the "click a predicate" loop: the demo
/// re-ran the query against PostgreSQL on every click; with captured
/// lineage the update is proportional to the affected groups.
/// DBWipes::Clean calls it whenever `result` is current. Requires
/// `result` to have been executed with lineage capture against
/// `table`.
///
/// The returned result's `query` carries the rewrite
/// (`WithCleaningPredicate`) and its version stamp is `result`'s, so
/// downstream display and further cleaning compose as usual.
Result<QueryResult> IncrementalClean(const Table& table,
                                     const QueryResult& result,
                                     const Predicate& predicate);

}  // namespace dbwipes

#endif  // DBWIPES_QUERY_INCREMENTAL_H_
