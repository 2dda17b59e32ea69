// Property tests for conjunctions over the clause-scan kernels: on
// randomized tables (nulls, NaN doubles, absent string literals,
// literals of the other type) a batch-materialized MatchPrepared bitmap
// must agree bit-for-bit with the per-clause word-AND of ClauseBitmap
// and boxed Predicate::Matches, across shard slicings S ∈ {1, 2, 3, 7}
// and at both SIMD tiers (DBWIPES_SIMD=off must be bit-identical to the
// dispatched tier).
// A staleness case covers the engine's snapshot check.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "dbwipes/common/random.h"
#include "dbwipes/expr/fused_kernels.h"
#include "dbwipes/expr/match_kernels.h"
#include "dbwipes/expr/predicate.h"

namespace dbwipes {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// int64 (10% null), double (10% null, 10% NaN among non-nulls),
/// string from a small dictionary (10% null).
Table RandomTable(Rng* rng, size_t rows) {
  Table t(Schema{{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString}},
          "t");
  const char* cats[] = {"red", "green", "blue", "red-ish"};
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row(3);
    row[0] = rng->Bernoulli(0.1) ? Value::Null()
                                 : Value(rng->UniformInt(-5, 5));
    if (rng->Bernoulli(0.1)) {
      row[1] = Value::Null();
    } else {
      row[1] = Value(rng->Bernoulli(0.1) ? kNaN : rng->Normal(0, 2));
    }
    row[2] = rng->Bernoulli(0.1)
                 ? Value::Null()
                 : Value(std::string(cats[rng->UniformInt(4u)]));
    DBW_CHECK_OK(t.AppendRow(row));
  }
  return t;
}

constexpr CompareOp kBinaryOps[] = {CompareOp::kEq, CompareOp::kNe,
                                    CompareOp::kLt, CompareOp::kLe,
                                    CompareOp::kGt, CompareOp::kGe};

/// A clause whose literal is not of its column's type, or NULL: string
/// truth tables from Clause::Matches, numeric IN sets that drop members
/// of the other type, and constants scanned as comparisons against NaN.
Clause IllTypedClause(Rng* rng) {
  const CompareOp op = kBinaryOps[rng->UniformInt(6u)];
  switch (rng->UniformInt(6u)) {
    case 0:  // ordered comparison on a string column
      return Clause::Make("s", op, Value("c"));
    case 1:
      return Clause::Make("s", op, Value(int64_t{5}));
    case 2:
      return Clause::Make(rng->Bernoulli(0.5) ? "i" : "d", op, Value("x"));
    case 3:
      return Clause::In(rng->Bernoulli(0.5) ? "i" : "d",
                        {Value("a"), Value(int64_t{1}), Value::Null()});
    case 4:
      return Clause::Make(rng->Bernoulli(0.5) ? "i" : "d",
                          CompareOp::kContains, Value("1"));
    default:
      return Clause::Make(rng->Bernoulli(0.5) ? "d" : "s", op, Value::Null());
  }
}

/// Clause mix that exercises every scan body: int64/double compares
/// (including NaN-literal probes, where kLe/kGe/kNe accept NaN),
/// dictionary eq/ne with literals present in and absent from the
/// dictionary, IN over codes and numerics, CONTAINS, and
/// IllTypedClause.
Clause RandomClause(Rng* rng) {
  switch (rng->UniformInt(9u)) {
    case 0:
      return Clause::Make("i", kBinaryOps[rng->UniformInt(6u)],
                          Value(rng->UniformInt(-5, 5)));
    case 1:  // double literal against the int64 column (widening path)
      return Clause::Make("i", kBinaryOps[rng->UniformInt(6u)],
                          Value(rng->UniformDouble(-5.5, 5.5)));
    case 2:
      return Clause::Make("d", kBinaryOps[rng->UniformInt(6u)],
                          Value(rng->Normal(0, 2)));
    case 3:  // NaN literal: kLe/kGe/kNe are NaN-tolerant by design
      return Clause::Make("d", kBinaryOps[rng->UniformInt(6u)], Value(kNaN));
    case 4:
      return Clause::Make("s", rng->Bernoulli(0.5) ? CompareOp::kEq
                                                   : CompareOp::kNe,
                          Value(rng->Bernoulli(0.7) ? "red" : "missing"));
    case 5:
      return Clause::In("s", {Value("green"), Value("blue"),
                              Value("missing")});
    case 6:
      return Clause::In("i", {Value(int64_t{0}), Value(2.0),
                              Value(int64_t{-3})});
    case 7:
      return Clause::Make("s", CompareOp::kContains,
                          Value(rng->Bernoulli(0.5) ? "red" : "ee"));
    default:
      return IllTypedClause(rng);
  }
}

/// Boxed Predicate::Matches over `rows`: bit i answers rows[i].
Bitmap BoxedBits(const Predicate& pred, const Table& t,
                 const std::vector<RowId>& rows) {
  Bitmap out(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (*pred.Matches(t, rows[i])) out.Set(i);
  }
  return out;
}

std::vector<RowId> FullUniverse(const Table& t) {
  std::vector<RowId> rows;
  for (RowId r = 0; r < t.num_rows(); ++r) rows.push_back(r);
  return rows;
}

/// The word-AND oracle: the AND of each clause's cached bitmap.
Bitmap WordAnd(MatchEngine* engine, const Predicate& pred) {
  Bitmap out(engine->rows().size());
  out.SetAll();
  for (const Clause& c : pred.clauses()) {
    auto bits = engine->ClauseBitmap(c);
    DBW_CHECK(bits.ok()) << c.ToString() << ": " << bits.status().ToString();
    out.AndWith(**bits);
  }
  return out;
}

/// Engine forced to the portable scalar tier regardless of the CPU.
std::unique_ptr<MatchEngine> ScalarEngine(const Table& t,
                                          std::vector<RowId> rows) {
  setenv("DBWIPES_SIMD", "off", 1);
  auto e = std::make_unique<MatchEngine>(t, std::move(rows));
  unsetenv("DBWIPES_SIMD");
  return e;
}

class FusedEquivalence : public ::testing::TestWithParam<uint64_t> {};

// Random conjunctions, one at a time: batch == word-AND == boxed.
TEST_P(FusedEquivalence, AgreesWithWordAndAndBoxedPaths) {
  Rng rng(GetParam());
  Table t = RandomTable(&rng, 500);
  std::vector<RowId> rows = FullUniverse(t);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Clause> clauses;
    const size_t n = 2 + rng.UniformInt(3u);  // K in {2, 3, 4}
    for (size_t i = 0; i < n; ++i) clauses.push_back(RandomClause(&rng));
    Predicate pred(clauses);

    MatchEngine batch(t, rows);
    DBW_CHECK_OK(batch.Materialize({&pred}));
    auto bm = batch.MatchPrepared(pred);
    ASSERT_TRUE(bm.ok()) << pred.ToString() << ": " << bm.status().ToString();

    MatchEngine plain(t, rows);
    ASSERT_TRUE(*bm == WordAnd(&plain, pred)) << pred.ToString();

    ASSERT_TRUE(*bm == BoxedBits(pred, t, rows)) << pred.ToString();
  }
}

// A batch sharing clauses across predicates: every predicate agrees
// with both oracles, and the clause counters obey their law over a
// mixed workload.
TEST_P(FusedEquivalence, SharedClauseBatchesAgreeAndObeyCounterLaw) {
  Rng rng(GetParam() ^ 0x5EEDu);
  Table t = RandomTable(&rng, 700);
  std::vector<RowId> rows = FullUniverse(t);

  std::vector<Clause> pool;
  for (int i = 0; i < 10; ++i) pool.push_back(RandomClause(&rng));
  std::vector<Predicate> storage;
  for (int i = 0; i < 30; ++i) {
    std::vector<Clause> cs;
    const size_t n = 1 + rng.UniformInt(3u);  // K in {1, 2, 3}
    for (size_t j = 0; j < n; ++j) {
      cs.push_back(rng.Bernoulli(0.5) ? pool[rng.UniformInt(10u)]
                                      : RandomClause(&rng));
    }
    storage.push_back(Predicate(cs));
  }
  std::vector<const Predicate*> preds;
  size_t occurrences = 0;
  for (const Predicate& p : storage) {
    preds.push_back(&p);
    occurrences += p.num_clauses();
  }

  MatchEngine batch(t, rows);
  MatchEngine plain(t, rows);
  DBW_CHECK_OK(batch.Materialize(preds));

  // One lookup per clause occurrence; each miss caches one distinct
  // clause, and the shared pool guarantees hits.
  EXPECT_EQ(batch.clause_lookups(), occurrences);
  EXPECT_EQ(batch.cache_misses(), batch.num_cached_clauses());
  EXPECT_GT(batch.cache_hits(), 0u);

  for (const Predicate* p : preds) {
    auto bm = batch.MatchPrepared(*p);
    ASSERT_TRUE(bm.ok()) << p->ToString();
    ASSERT_TRUE(*bm == WordAnd(&plain, *p)) << p->ToString();
    ASSERT_TRUE(*bm == BoxedBits(*p, t, rows)) << p->ToString();
  }

  // Re-materializing the same batch is pure hits: no new bitmaps.
  const size_t misses = batch.cache_misses();
  const size_t hits = batch.cache_hits();
  DBW_CHECK_OK(batch.Materialize(preds));
  EXPECT_EQ(batch.cache_misses(), misses);
  EXPECT_EQ(batch.cache_hits(), hits + occurrences);
}

// Slicing the universe into S contiguous shard slices and evaluating
// each slice with its own engine must reproduce the global
// bitmap bit-for-bit, at every shard count.
TEST_P(FusedEquivalence, ShardSlicesConcatenateToGlobalBitmap) {
  Rng rng(GetParam() ^ 0x51A6u);
  Table t = RandomTable(&rng, 777);  // not a multiple of 64: tail words
  std::vector<RowId> rows = FullUniverse(t);

  std::vector<Predicate> storage;
  for (int i = 0; i < 12; ++i) {
    storage.push_back(Predicate({RandomClause(&rng), RandomClause(&rng),
                                 RandomClause(&rng)}));
  }
  std::vector<const Predicate*> preds;
  for (const Predicate& p : storage) preds.push_back(&p);

  MatchEngine global(t, rows);
  DBW_CHECK_OK(global.Materialize(preds));

  for (size_t shards : {size_t{1}, size_t{2}, size_t{3}, size_t{7}}) {
    std::vector<std::unique_ptr<MatchEngine>> slices;
    std::vector<size_t> offsets;
    const size_t per = (rows.size() + shards - 1) / shards;
    for (size_t s = 0; s < shards; ++s) {
      const size_t lo = std::min(rows.size(), s * per);
      const size_t hi = std::min(rows.size(), lo + per);
      offsets.push_back(lo);
      slices.push_back(std::make_unique<MatchEngine>(
          t, std::vector<RowId>(rows.begin() + lo, rows.begin() + hi)));
      DBW_CHECK_OK(slices.back()->Materialize(preds));
    }
    for (const Predicate* p : preds) {
      auto gb = global.MatchPrepared(*p);
      ASSERT_TRUE(gb.ok()) << p->ToString();
      for (size_t s = 0; s < shards; ++s) {
        auto sb = slices[s]->MatchPrepared(*p);
        ASSERT_TRUE(sb.ok()) << p->ToString();
        for (size_t j = 0; j < sb->num_bits(); ++j) {
          ASSERT_EQ(sb->Test(j), gb->Test(offsets[s] + j))
              << p->ToString() << " shards=" << shards << " slice=" << s
              << " local=" << j;
        }
      }
    }
  }
}

// The forced-scalar tier must be bit-identical to whatever tier the
// dispatcher picked (AVX2 on this container) — same bitmaps, word for
// word, on the same random workload.
TEST_P(FusedEquivalence, ForcedScalarTierIsBitIdenticalToDispatchedTier) {
  Rng rng(GetParam() ^ 0xC0DEu);
  Table t = RandomTable(&rng, 900);
  std::vector<RowId> rows = FullUniverse(t);

  std::vector<Predicate> storage;
  for (int i = 0; i < 20; ++i) {
    std::vector<Clause> cs;
    const size_t n = 2 + rng.UniformInt(2u);
    for (size_t j = 0; j < n; ++j) cs.push_back(RandomClause(&rng));
    storage.push_back(Predicate(cs));
  }
  std::vector<const Predicate*> preds;
  for (const Predicate& p : storage) preds.push_back(&p);

  MatchEngine dispatched(t, rows);
  auto scalar = ScalarEngine(t, rows);
  EXPECT_EQ(scalar->simd_tier(), SimdTier::kScalar);
  DBW_CHECK_OK(dispatched.Materialize(preds));
  DBW_CHECK_OK(scalar->Materialize(preds));
  for (const Predicate* p : preds) {
    auto db = dispatched.MatchPrepared(*p);
    auto sb = scalar->MatchPrepared(*p);
    ASSERT_TRUE(db.ok() && sb.ok()) << p->ToString();
    ASSERT_TRUE(*db == *sb)
        << p->ToString() << " dispatched tier "
        << SimdTierName(dispatched.simd_tier());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedEquivalence,
                         ::testing::Values(11u, 47u, 4242u));

// ---------- staleness ----------

TEST(FusedAnytime, StalenessIsDetectedBeforeFusedEvaluation) {
  Table t(Schema{{"i", DataType::kInt64}, {"d", DataType::kDouble}}, "t");
  DBW_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value(0.5)}));
  DBW_CHECK_OK(t.AppendRow({Value(int64_t{2}), Value(1.5)}));
  MatchEngine engine(t, {0, 1});
  Predicate pred({Clause::Make("i", CompareOp::kGe, Value(int64_t{1})),
                  Clause::Make("d", CompareOp::kLt, Value(1.0))});
  DBW_CHECK_OK(engine.Materialize({&pred}));
  ASSERT_TRUE(engine.MatchPrepared(pred).ok());

  DBW_CHECK_OK(t.AppendRow({Value(int64_t{3}), Value(2.5)}));
  auto stale = engine.MatchPrepared(pred);
  ASSERT_FALSE(stale.ok());  // snapshot invalidated, no bitmap read
}

}  // namespace
}  // namespace dbwipes
