// Tests of the RetrievalEngine subsystem: batch/single parity across all
// three filter scorers and thread counts, early-abandon ScoreTopP
// equivalence with the full scan, parameter validation, and incremental
// Insert/Remove.
#include "src/retrieval/retrieval_engine.h"

#include <gtest/gtest.h>

#include "src/core/trainer.h"
#include "src/embedding/fastmap.h"
#include "src/retrieval/embedder_adapters.h"
#include "src/retrieval/exact_knn.h"
#include "src/retrieval/filter_refine.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace qse {
namespace {

// --- ScoreTopP vs Score + SmallestK parity ------------------------------

EmbeddedDatabase RandomDb(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  EmbeddedDatabase db(d);
  db.Resize(n);
  for (size_t i = 0; i < n; ++i) {
    double* row = db.mutable_row(i);
    for (size_t j = 0; j < d; ++j) row[j] = rng.Uniform(0, 1);
  }
  return db;
}

void ExpectTopPMatchesFullScan(const FilterScorer& scorer,
                               const EmbeddedDatabase& db, const Vector& q,
                               size_t p) {
  std::vector<double> scores;
  scorer.Score(q, db, &scores);
  std::vector<ScoredIndex> expected = SmallestK(scores, p);
  std::vector<ScoredIndex> got = scorer.ScoreTopP(q, db, p);
  ASSERT_EQ(got.size(), expected.size()) << "p=" << p;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, expected[i].index) << "p=" << p << " i=" << i;
    // Bit-identical: the fused kernel accumulates in the same order.
    EXPECT_EQ(got[i].score, expected[i].score) << "p=" << p << " i=" << i;
  }
}

TEST(ScoreTopPTest, L2MatchesFullScanAcrossP) {
  EmbeddedDatabase db = RandomDb(200, 37, 1);  // d not a block multiple.
  Rng rng(2);
  Vector q(37);
  for (double& v : q) v = rng.Uniform(0, 1);
  L2Scorer scorer;
  for (size_t p : {1u, 2u, 7u, 50u, 200u, 500u}) {
    ExpectTopPMatchesFullScan(scorer, db, q, p);
  }
}

TEST(ScoreTopPTest, L1MatchesFullScanAcrossP) {
  EmbeddedDatabase db = RandomDb(150, 16, 3);
  Rng rng(4);
  Vector q(16);
  for (double& v : q) v = rng.Uniform(0, 1);
  L1Scorer scorer;
  for (size_t p : {1u, 10u, 150u}) {
    ExpectTopPMatchesFullScan(scorer, db, q, p);
  }
}

TEST(ScoreTopPTest, ExactUnderTiedScores) {
  // Duplicated rows force exact score ties; the early-abandon pass must
  // break them by row index exactly like SmallestK.
  EmbeddedDatabase db = EmbeddedDatabase::FromRows(
      {{1, 1}, {0, 0}, {1, 1}, {0, 0}, {2, 2}, {0, 0}});
  L1Scorer scorer;
  Vector q = {0, 0};
  std::vector<ScoredIndex> top = scorer.ScoreTopP(q, db, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].index, 1u);
  EXPECT_EQ(top[1].index, 3u);
  EXPECT_EQ(top[2].index, 5u);
  ExpectTopPMatchesFullScan(scorer, db, q, 3);
  ExpectTopPMatchesFullScan(scorer, db, q, 4);
}

TEST(ScoreTopPTest, QuerySensitiveMatchesFullScan) {
  auto oracle = test::MakePlaneOracle(80, 7);
  BoostMapConfig config;
  config.num_triples = 500;
  config.k1 = 3;
  config.boost.rounds = 16;
  config.boost.embeddings_per_round = 12;
  auto artifacts = TrainBoostMap(oracle, test::Iota(20), test::Iota(30, 20),
                                 config);
  ASSERT_TRUE(artifacts.ok());
  QseEmbedderAdapter adapter(&artifacts->model);
  std::vector<size_t> db_ids = test::Iota(60);
  EmbeddedDatabase db = EmbedDatabase(adapter, oracle, db_ids);
  QuerySensitiveScorer scorer(&artifacts->model);
  for (size_t query_id : {70u, 71u, 75u}) {
    Vector fq = artifacts->model.Embed(
        [&](size_t o) { return oracle.Distance(query_id, o); });
    for (size_t p : {1u, 5u, 20u, 60u}) {
      ExpectTopPMatchesFullScan(scorer, db, fq, p);
    }
  }
}

// --- Batch / single parity across scorers and thread counts -------------

struct Stack {
  ObjectOracle<Vector> oracle;
  std::vector<size_t> db_ids;
  std::vector<size_t> query_ids;
};

Stack MakeStack(size_t n_db, size_t n_query, uint64_t seed) {
  auto oracle = test::MakePlaneOracle(n_db + n_query, seed);
  return {std::move(oracle), test::Iota(n_db), test::Iota(n_query, n_db)};
}

/// Checks RetrieveBatch == per-query Retrieve for one embedder/scorer
/// pair, across thread counts, comparing neighbors and cost accounting
/// exactly.
void ExpectBatchMatchesSingle(const Stack& s, const Embedder& embedder,
                              const FilterScorer& scorer, size_t k,
                              size_t p) {
  EmbeddedDatabase db = EmbedDatabase(embedder, s.oracle, s.db_ids);
  RetrievalEngine engine(&embedder, &scorer, &db, s.db_ids);

  std::vector<DxToDatabaseFn> queries;
  for (size_t query_id : s.query_ids) {
    queries.push_back([&oracle = s.oracle, query_id](size_t id) {
      return oracle.Distance(query_id, id);
    });
  }

  std::vector<RetrievalResponse> singles;
  for (const auto& dx : queries) {
    auto r = engine.Retrieve({dx, RetrievalOptions(k, p)});
    ASSERT_TRUE(r.ok()) << r.status();
    singles.push_back(std::move(r).value());
  }

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    auto batch = engine.RetrieveBatch(queries, test::Opts(k, p, threads));
    ASSERT_TRUE(batch.ok()) << batch.status();
    ASSERT_EQ(batch->size(), singles.size());
    for (size_t qi = 0; qi < singles.size(); ++qi) {
      const RetrievalResponse& a = singles[qi];
      const RetrievalResponse& b = (*batch)[qi];
      EXPECT_EQ(a.exact_distances, b.exact_distances)
          << "threads=" << threads << " qi=" << qi;
      EXPECT_EQ(a.embedding_distances, b.embedding_distances);
      ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
      for (size_t i = 0; i < a.neighbors.size(); ++i) {
        EXPECT_EQ(a.neighbors[i].index, b.neighbors[i].index);
        EXPECT_EQ(a.neighbors[i].score, b.neighbors[i].score);
      }
    }
  }
}

TEST(RetrieveBatchParityTest, QuerySensitiveScorer) {
  Stack s = MakeStack(80, 12, 11);
  BoostMapConfig config;
  config.num_triples = 600;
  config.k1 = 3;
  config.boost.rounds = 16;
  config.boost.embeddings_per_round = 12;
  std::vector<size_t> sample(s.db_ids.begin(), s.db_ids.begin() + 30);
  auto artifacts = TrainBoostMap(s.oracle, sample, sample, config);
  ASSERT_TRUE(artifacts.ok());
  QseEmbedderAdapter adapter(&artifacts->model);
  QuerySensitiveScorer scorer(&artifacts->model);
  ExpectBatchMatchesSingle(s, adapter, scorer, 3, 15);
}

TEST(RetrieveBatchParityTest, L2ScorerWithFastMap) {
  Stack s = MakeStack(70, 10, 12);
  FastMapOptions options;
  options.dims = 3;
  FastMapModel model = BuildFastMap(s.oracle, s.db_ids, options);
  L2Scorer scorer;
  ExpectBatchMatchesSingle(s, model, scorer, 2, 12);
}

// Parameter validation (k = 0, p = 0, empty database, oversized p,
// invalid priority) lives in the cross-surface parameterized suite:
// tests/request_validation_test.cc.

struct EngineFixture {
  Stack s = MakeStack(40, 4, 21);
  FastMapOptions options;
  FastMapModel model;
  L2Scorer scorer;
  EmbeddedDatabase db;
  RetrievalEngine engine;

  EngineFixture()
      : options([] {
          FastMapOptions o;
          o.dims = 2;
          return o;
        }()),
        model(BuildFastMap(s.oracle, s.db_ids, options)),
        db(EmbedDatabase(model, s.oracle, s.db_ids)),
        engine(&model, &scorer, &db, s.db_ids) {}

  DxToDatabaseFn QueryDx(size_t query_id) const {
    return [&oracle = s.oracle, query_id](size_t id) {
      return oracle.Distance(query_id, id);
    };
  }
};

// --- Incremental Insert / Remove ----------------------------------------

TEST(RetrievalEngineTest, InsertMatchesOfflineEmbedding) {
  // Build the engine over the first 30 objects, insert 10 more online:
  // the result must equal embedding all 40 offline.
  Stack s = MakeStack(40, 4, 22);
  FastMapOptions options;
  options.dims = 2;
  FastMapModel model = BuildFastMap(s.oracle, s.db_ids, options);
  L2Scorer scorer;

  std::vector<size_t> first(s.db_ids.begin(), s.db_ids.begin() + 30);
  EmbeddedDatabase db = EmbedDatabase(model, s.oracle, first);
  RetrievalEngine engine(&model, &scorer, &db, first);
  for (size_t id = 30; id < 40; ++id) {
    ASSERT_TRUE(engine
                    .Insert(id,
                            [&](size_t o) {
                              return o == id ? 0.0
                                             : s.oracle.Distance(id, o);
                            })
                    .ok());
  }
  EXPECT_EQ(engine.size(), 40u);

  EmbeddedDatabase offline = EmbedDatabase(model, s.oracle, s.db_ids);
  for (size_t row = 0; row < 40; ++row) {
    EXPECT_EQ(db.RowVector(row), offline.RowVector(row)) << "row " << row;
  }

  // Retrieval over the grown engine equals exact k-NN at p = n.
  auto r = engine.Retrieve(
      {[&](size_t id) { return s.oracle.Distance(42, id); },
       RetrievalOptions(3, engine.size())});
  ASSERT_TRUE(r.ok());
  auto exact = ExactKnn(s.oracle, 42, s.db_ids, 3);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r->neighbors[i].index, exact[i].index);
  }
}

TEST(RetrievalEngineTest, DuplicateInsertRejected) {
  EngineFixture f;
  Status s = f.engine.Insert(0, f.QueryDx(40));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(RetrievalEngineTest, RemoveUnknownIdIsNotFound) {
  EngineFixture f;
  Status s = f.engine.Remove(999);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(RetrievalEngineTest, RemoveKeepsMappingConsistent) {
  Stack s = MakeStack(20, 2, 23);
  FastMapOptions options;
  options.dims = 2;
  FastMapModel model = BuildFastMap(s.oracle, s.db_ids, options);
  L2Scorer scorer;
  EmbeddedDatabase db = EmbedDatabase(model, s.oracle, s.db_ids);
  EmbeddedDatabase reference = db;  // Copy before mutation.
  RetrievalEngine engine(&model, &scorer, &db, s.db_ids);

  // Remove a middle id and the last id.
  ASSERT_TRUE(engine.Remove(5).ok());
  ASSERT_TRUE(engine.Remove(19).ok());
  EXPECT_EQ(engine.size(), 18u);

  // Every surviving row must still carry its own embedding.
  for (size_t row = 0; row < engine.size(); ++row) {
    size_t id = engine.db().id_of(row);
    EXPECT_NE(id, 5u);
    EXPECT_NE(id, 19u);
    EXPECT_EQ(db.RowVector(row), reference.RowVector(id))
        << "row " << row << " id " << id;
  }

  // Retrieval at p = n equals exact k-NN over the surviving ids.
  std::vector<size_t> live_ids = engine.db_ids();
  auto r = engine.Retrieve(
      {[&](size_t id) { return s.oracle.Distance(20, id); },
       RetrievalOptions(1, engine.size())});
  ASSERT_TRUE(r.ok());
  auto exact = ExactKnnExternal(
      [&](size_t id) { return s.oracle.Distance(20, id); }, live_ids, 1);
  EXPECT_EQ(engine.db_id_of(r->neighbors[0].index),
            live_ids[exact[0].index]);
}

TEST(RetrievalEngineTest, NeighborsAreDatabaseIdsAfterInteriorRemoves) {
  // Ids descend while rows ascend (odd object ids 79, 77, ..., 1), and
  // interior removes move rows around: a neighbor index that was a row
  // would name the wrong object.  Neighbors are database ids and
  // db_id_of is the identity.
  constexpr size_t kN = 40;
  ObjectOracle<Vector> oracle = test::MakePlaneOracle(2 * kN + 1, 27);
  std::vector<size_t> ids;
  for (size_t row = 0; row < kN; ++row) ids.push_back(2 * (kN - row) - 1);
  FastMapOptions options;
  options.dims = 3;
  FastMapModel model = BuildFastMap(oracle, ids, options);
  L2Scorer scorer;
  EmbeddedDatabase db = EmbedDatabase(model, oracle, ids);
  RetrievalEngine engine(&model, &scorer, &db, ids);
  for (size_t id : {73u, 45u, 29u, 79u}) {
    ASSERT_TRUE(engine.Remove(id).ok()) << id;
  }

  const size_t query = 2 * kN;  // Even: not a database object.
  auto dx = [&](size_t id) { return oracle.Distance(query, id); };
  auto r = engine.Retrieve({dx, RetrievalOptions(6, engine.size())});
  ASSERT_TRUE(r.ok()) << r.status();
  std::vector<size_t> live_ids = engine.db_ids();
  std::vector<ScoredIndex> exact = ExactKnnExternal(dx, live_ids, 6);
  ASSERT_EQ(r->neighbors.size(), exact.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(r->neighbors[i].index, live_ids[exact[i].index]) << i;
    EXPECT_EQ(r->neighbors[i].score, exact[i].score) << i;
    EXPECT_EQ(engine.db_id_of(r->neighbors[i].index), r->neighbors[i].index);
  }
}

// --- Remove's swap-with-last bookkeeping edge cases ---------------------

/// Asserts row <-> id maps are mutually consistent and every row still
/// carries the embedding of its id.
void ExpectConsistentMapping(const RetrievalEngine& engine,
                             const EmbeddedDatabase& reference) {
  for (size_t row = 0; row < engine.size(); ++row) {
    size_t id = engine.db().id_of(row);
    EXPECT_EQ(engine.db().RowVector(row), reference.RowVector(id))
        << "row " << row << " id " << id;
  }
}

TEST(RetrievalEngineTest, RemoveLastRowMovesNothing) {
  Stack s = MakeStack(10, 1, 24);
  FastMapOptions options;
  options.dims = 2;
  FastMapModel model = BuildFastMap(s.oracle, s.db_ids, options);
  L2Scorer scorer;
  EmbeddedDatabase db = EmbedDatabase(model, s.oracle, s.db_ids);
  EmbeddedDatabase reference = db;
  RetrievalEngine engine(&model, &scorer, &db, s.db_ids);

  // Id 9 occupies the last row; SwapRemove's "moved" row is the removed
  // row itself and no other mapping may change.
  ASSERT_TRUE(engine.Remove(9).ok());
  EXPECT_EQ(engine.size(), 9u);
  for (size_t row = 0; row < engine.size(); ++row) {
    EXPECT_EQ(engine.db().id_of(row), row);  // Untouched prefix.
  }
  ExpectConsistentMapping(engine, reference);
}

TEST(RetrievalEngineTest, RemoveUntilEmptyThenFailsCleanly) {
  Stack s = MakeStack(6, 1, 25);
  FastMapOptions options;
  options.dims = 2;
  FastMapModel model = BuildFastMap(s.oracle, s.db_ids, options);
  L2Scorer scorer;
  EmbeddedDatabase db = EmbedDatabase(model, s.oracle, s.db_ids);
  EmbeddedDatabase reference = db;
  RetrievalEngine engine(&model, &scorer, &db, s.db_ids);

  // Drain in an order that exercises both branches repeatedly: middle
  // (swap happens), then last (no swap), until nothing is left.
  for (size_t id : {2u, 5u, 0u, 4u, 1u, 3u}) {
    ASSERT_TRUE(engine.Remove(id).ok()) << id;
    ExpectConsistentMapping(engine, reference);
  }
  EXPECT_EQ(engine.size(), 0u);
  EXPECT_TRUE(engine.db_ids().empty());

  auto r = engine.Retrieve(
      {[&](size_t id) { return s.oracle.Distance(6, id); },
       RetrievalOptions(1, 1)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  Status again = engine.Remove(2);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kNotFound);
}

TEST(RetrievalEngineTest, ReinsertingRemovedIdWorks) {
  Stack s = MakeStack(12, 2, 26);
  FastMapOptions options;
  options.dims = 2;
  FastMapModel model = BuildFastMap(s.oracle, s.db_ids, options);
  L2Scorer scorer;
  EmbeddedDatabase db = EmbedDatabase(model, s.oracle, s.db_ids);
  EmbeddedDatabase reference = db;
  RetrievalEngine engine(&model, &scorer, &db, s.db_ids);

  // Remove an id whose row gets recycled by the swap, then re-insert it:
  // it must land in a fresh row with its original embedding, and the id
  // must be unique again (a second insert is rejected).
  ASSERT_TRUE(engine.Remove(3).ok());
  EXPECT_EQ(engine.size(), 11u);
  auto dx = [&](size_t o) { return o == 3 ? 0.0 : s.oracle.Distance(3, o); };
  ASSERT_TRUE(engine.Insert(3, dx).ok());
  EXPECT_EQ(engine.size(), 12u);
  ExpectConsistentMapping(engine, reference);
  Status dup = engine.Insert(3, dx);
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);

  // Remove/re-insert cycling through the *last* row too.
  size_t last_id = engine.db().id_of(engine.size() - 1);
  ASSERT_TRUE(engine.Remove(last_id).ok());
  auto dx_last = [&](size_t o) {
    return o == last_id ? 0.0 : s.oracle.Distance(last_id, o);
  };
  ASSERT_TRUE(engine.Insert(last_id, dx_last).ok());
  ExpectConsistentMapping(engine, reference);
}

}  // namespace
}  // namespace qse
