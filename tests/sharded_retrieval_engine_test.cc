// Tests of the sharded serving layer: scatter/gather retrieval must be
// bit-identical to the monolithic RetrievalEngine at equal p — same
// database ids, same exact-distance scores, same cost accounting — across
// shard counts, scatter thread counts, both assignment policies, and
// after interleaved Insert/Remove.
#include "src/serving/sharded_retrieval_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "src/core/trainer.h"
#include "src/embedding/fastmap.h"
#include "src/retrieval/embedder_adapters.h"
#include "src/retrieval/filter_refine.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace qse {
namespace {

struct Stack {
  ObjectOracle<Vector> oracle;
  std::vector<size_t> db_ids;
  std::vector<size_t> query_ids;
};

Stack MakeStack(size_t n_db, size_t n_query, uint64_t seed) {
  auto oracle = test::MakePlaneOracle(n_db + n_query, seed);
  return {std::move(oracle), test::Iota(n_db), test::Iota(n_query, n_db)};
}

DxToDatabaseFn QueryDx(const Stack& s, size_t query_id) {
  return [&oracle = s.oracle, query_id](size_t id) {
    return oracle.Distance(query_id, id);
  };
}

/// Asserts that a sharded result equals a monolithic result on ids,
/// scores and costs.
void ExpectSameResult(const RetrievalEngine& mono,
                      const RetrievalResponse& expected,
                      const RetrievalResponse& sharded, const char* context) {
  EXPECT_EQ(expected.exact_distances, sharded.exact_distances) << context;
  EXPECT_EQ(expected.embedding_distances, sharded.embedding_distances)
      << context;
  ASSERT_EQ(expected.neighbors.size(), sharded.neighbors.size()) << context;
  for (size_t i = 0; i < expected.neighbors.size(); ++i) {
    EXPECT_EQ(mono.db_id_of(expected.neighbors[i].index),
              sharded.neighbors[i].index)
        << context << " i=" << i;
    // Bit-identical: both refine steps evaluate the same dx on the same
    // candidate set.
    EXPECT_EQ(expected.neighbors[i].score, sharded.neighbors[i].score)
        << context << " i=" << i;
  }
}

/// Full parity sweep of one embedder/scorer pair: shard counts x thread
/// counts x p values, Retrieve and RetrieveBatch.
void ExpectShardedMatchesMono(const Stack& s, const Embedder& embedder,
                              const FilterScorer& scorer, size_t k) {
  EmbeddedDatabase db = EmbedDatabase(embedder, s.oracle, s.db_ids);
  RetrievalEngine mono(&embedder, &scorer, &db, s.db_ids);

  std::vector<DxToDatabaseFn> queries;
  for (size_t query_id : s.query_ids) queries.push_back(QueryDx(s, query_id));

  for (size_t num_shards : {1u, 2u, 7u}) {
    for (size_t threads : {1u, 2u, 4u}) {
      ShardedEngineOptions options;
      options.num_shards = num_shards;
      ShardedRetrievalEngine sharded(&embedder, &scorer, db, s.db_ids,
                                     options);
      ASSERT_EQ(sharded.size(), mono.size());
      ASSERT_EQ(sharded.num_shards(), num_shards);

      for (size_t p : {size_t{1}, size_t{5}, size_t{20}, s.db_ids.size()}) {
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          auto want = mono.Retrieve({queries[qi], RetrievalOptions(k, p)});
          auto got =
              sharded.Retrieve({queries[qi], test::Opts(k, p, threads)});
          ASSERT_TRUE(want.ok() && got.ok());
          std::string context = "S=" + std::to_string(num_shards) +
                                " threads=" + std::to_string(threads) +
                                " p=" + std::to_string(p) +
                                " q=" + std::to_string(qi);
          ExpectSameResult(mono, *want, *got, context.c_str());
        }
        // Batch parity: each entry bit-identical to its single Retrieve.
        auto batch = sharded.RetrieveBatch(queries, test::Opts(k, p, threads));
        ASSERT_TRUE(batch.ok());
        ASSERT_EQ(batch->size(), queries.size());
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          auto want = mono.Retrieve({queries[qi], RetrievalOptions(k, p)});
          ASSERT_TRUE(want.ok());
          ExpectSameResult(mono, *want, (*batch)[qi], "batch");
        }
      }
    }
  }
}

TEST(ShardedParityTest, L2ScorerWithFastMap) {
  Stack s = MakeStack(70, 8, 31);
  FastMapOptions options;
  options.dims = 3;
  FastMapModel model = BuildFastMap(s.oracle, s.db_ids, options);
  L2Scorer scorer;
  ExpectShardedMatchesMono(s, model, scorer, 3);
}

TEST(ShardedParityTest, QuerySensitiveScorer) {
  Stack s = MakeStack(60, 6, 32);
  BoostMapConfig config;
  config.num_triples = 500;
  config.k1 = 3;
  config.boost.rounds = 16;
  config.boost.embeddings_per_round = 12;
  std::vector<size_t> sample(s.db_ids.begin(), s.db_ids.begin() + 25);
  auto artifacts = TrainBoostMap(s.oracle, sample, sample, config);
  ASSERT_TRUE(artifacts.ok());
  QseEmbedderAdapter adapter(&artifacts->model);
  QuerySensitiveScorer scorer(&artifacts->model);
  ExpectShardedMatchesMono(s, adapter, scorer, 3);
}

TEST(ShardedParityTest, ExactUnderTiedFilterScores) {
  // Duplicated rows force exact filter-score ties; with the monolithic
  // engine's rows in ascending-id order, the merge must break ties by id
  // exactly like the monolithic scan breaks them by row.
  std::vector<Vector> rows = {{0, 0}, {1, 1}, {0, 0}, {1, 1},
                              {0, 0}, {2, 2}, {1, 1}, {0, 0}};
  EmbeddedDatabase db = EmbeddedDatabase::FromRows(rows);
  std::vector<size_t> ids = test::Iota(rows.size());

  // An embedder that maps any query to the origin: every duplicate row
  // also ties in the refine step (dx below is constant per id bucket).
  struct OriginEmbedder : Embedder {
    size_t dims() const override { return 2; }
    size_t EmbeddingCost() const override { return 0; }
    Vector Embed(const DxToDatabaseFn&, size_t* n) const override {
      if (n != nullptr) *n = 0;
      return {0.0, 0.0};
    }
  } embedder;
  L1Scorer scorer;
  RetrievalEngine mono(&embedder, &scorer, &db, ids);
  DxToDatabaseFn dx = [&](size_t id) { return rows[id][0]; };

  for (size_t num_shards : {2u, 3u, 7u}) {
    ShardedEngineOptions options;
    options.num_shards = num_shards;
    ShardedRetrievalEngine sharded(&embedder, &scorer, db, ids, options);
    for (size_t p : {1u, 3u, 4u, 8u}) {
      auto want = mono.Retrieve({dx, RetrievalOptions(p, p)});
      auto got = sharded.Retrieve({dx, RetrievalOptions(p, p)});
      ASSERT_TRUE(want.ok() && got.ok());
      std::string context =
          "S=" + std::to_string(num_shards) + " p=" + std::to_string(p);
      ExpectSameResult(mono, *want, *got, context.c_str());
    }
  }
}

// --- Parity after interleaved Insert / Remove ---------------------------

TEST(ShardedParityTest, InterleavedInsertRemoveKeepsParity) {
  Stack s = MakeStack(60, 6, 34);
  FastMapOptions fm;
  fm.dims = 3;
  FastMapModel model = BuildFastMap(s.oracle, s.db_ids, fm);
  L2Scorer scorer;

  // Both engines start from the first 40 objects.
  std::vector<size_t> first(s.db_ids.begin(), s.db_ids.begin() + 40);
  EmbeddedDatabase db = EmbedDatabase(model, s.oracle, first);
  RetrievalEngine mono(&model, &scorer, &db, first);
  ShardedEngineOptions options;
  options.num_shards = 7;
  ShardedRetrievalEngine sharded(&model, &scorer, db, first, options);

  // Apply the same interleaved mutation sequence to both.
  auto dx_for = [&](size_t id) {
    return [&oracle = s.oracle, id](size_t o) {
      return o == id ? 0.0 : oracle.Distance(id, o);
    };
  };
  std::vector<std::pair<bool, size_t>> ops = {
      {true, 40}, {true, 41}, {false, 5},  {true, 42}, {false, 41},
      {false, 0}, {true, 43}, {true, 44},  {false, 39}, {true, 45},
  };
  for (const auto& [is_insert, id] : ops) {
    if (is_insert) {
      ASSERT_TRUE(mono.Insert(id, dx_for(id)).ok()) << id;
      ASSERT_TRUE(sharded.Insert(id, dx_for(id)).ok()) << id;
    } else {
      ASSERT_TRUE(mono.Remove(id).ok()) << id;
      ASSERT_TRUE(sharded.Remove(id).ok()) << id;
    }
    ASSERT_EQ(mono.size(), sharded.size());
  }

  // Distinct plane points: no exact-score ties, so parity holds even
  // though the monolithic engine's row order is now scrambled.
  for (size_t query_id : s.query_ids) {
    for (size_t p : {size_t{1}, size_t{7}, size_t{20}, mono.size()}) {
      auto want = mono.Retrieve({QueryDx(s, query_id), RetrievalOptions(3, p)});
      auto got =
          sharded.Retrieve({QueryDx(s, query_id), RetrievalOptions(3, p)});
      ASSERT_TRUE(want.ok() && got.ok());
      std::string context =
          "q=" + std::to_string(query_id) + " p=" + std::to_string(p);
      ExpectSameResult(mono, *want, *got, context.c_str());
    }
  }
}

// --- Routing, validation and stats --------------------------------------

struct ShardedFixture {
  Stack s = MakeStack(40, 4, 35);
  FastMapOptions fm;
  FastMapModel model;
  L2Scorer scorer;
  EmbeddedDatabase db;
  ShardedRetrievalEngine engine;

  explicit ShardedFixture(ShardedEngineOptions options = MakeOptions())
      : fm([] {
          FastMapOptions o;
          o.dims = 2;
          return o;
        }()),
        model(BuildFastMap(s.oracle, s.db_ids, fm)),
        db(EmbedDatabase(model, s.oracle, s.db_ids)),
        engine(&model, &scorer, db, s.db_ids, options) {}

  static ShardedEngineOptions MakeOptions() {
    ShardedEngineOptions o;
    o.num_shards = 4;
    return o;
  }
};

TEST(ShardedRetrievalEngineTest, HashRoutingIsDeterministic) {
  ShardedFixture a;
  ShardedFixture b;
  for (size_t id : a.s.db_ids) {
    size_t sa = a.engine.ShardOf(id);
    EXPECT_EQ(sa, b.engine.ShardOf(id)) << id;
    ASSERT_LT(sa, a.engine.num_shards());
    // Every id lives where ShardOf says it does.
    std::vector<size_t> held = a.engine.shard(sa).db_ids();
    EXPECT_NE(std::find(held.begin(), held.end(), id), held.end()) << id;
  }
  // The hash route is a pure function of the id, even for ids never
  // seen.
  EXPECT_EQ(a.engine.ShardOf(12345), HashShardOf(12345, 4));
}

// Option validation and p clamping for both engines live in the
// cross-surface parameterized suite: tests/request_validation_test.cc.

TEST(ShardedRetrievalEngineTest, EmptyEngineFailsRetrieveAndDrainsEmpty) {
  ShardedFixture f;
  ShardedEngineOptions options;
  options.num_shards = 3;
  ShardedRetrievalEngine empty(&f.model, &f.scorer, options);
  EXPECT_EQ(empty.size(), 0u);
  auto r = empty.Retrieve({QueryDx(f.s, 40), RetrievalOptions(1, 5)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);

  // Fill through Insert, drain through Remove, fail again.
  for (size_t id : {1u, 2u, 3u}) {
    ASSERT_TRUE(empty
                    .Insert(id,
                            [&](size_t o) {
                              return o == id
                                         ? 0.0
                                         : f.s.oracle.Distance(id, o);
                            })
                    .ok());
  }
  EXPECT_EQ(empty.size(), 3u);
  for (size_t id : {1u, 2u, 3u}) ASSERT_TRUE(empty.Remove(id).ok());
  EXPECT_EQ(empty.size(), 0u);
  r = empty.Retrieve({QueryDx(f.s, 40), RetrievalOptions(1, 5)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ShardedRetrievalEngineTest, DuplicateInsertAndUnknownRemove) {
  ShardedFixture f;
  Status dup = f.engine.Insert(0, QueryDx(f.s, 40));
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);
  Status gone = f.engine.Remove(999);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.code(), StatusCode::kNotFound);
}

TEST(ShardedRetrievalEngineTest, StatsCoverEveryShardAndSumToP) {
  ShardedFixture f;
  const size_t p = 15;
  RetrievalOptions with_stats(3, p);
  with_stats.want_stats = true;
  auto r = f.engine.Retrieve({QueryDx(f.s, 41), with_stats});
  ASSERT_TRUE(r.ok());
  const std::vector<ShardScanStats>& stats = r->shard_stats;
  ASSERT_EQ(stats.size(), f.engine.num_shards());
  size_t rows = 0, candidates = 0;
  std::vector<size_t> sizes = f.engine.shard_sizes();
  for (size_t s = 0; s < stats.size(); ++s) {
    EXPECT_EQ(stats[s].rows, sizes[s]);
    EXPECT_LE(stats[s].candidates, p);
    rows += stats[s].rows;
    candidates += stats[s].candidates;
  }
  EXPECT_EQ(rows, f.engine.size());
  // The merged top-p has exactly min(p, n) entries, each owned by one
  // shard.
  EXPECT_EQ(candidates, std::min(p, f.engine.size()));
  EXPECT_EQ(r->exact_distances - r->embedding_distances, candidates);
}

TEST(ShardedRetrievalEngineTest, BackendInterfaceServesBothEngines) {
  // The polymorphic swap the serving layer is built for: the same driver
  // code runs against either backend and returns the same database ids.
  ShardedFixture f;
  RetrievalEngine mono(&f.model, &f.scorer, &f.db, f.s.db_ids);
  auto serve = [&](const RetrievalBackend& backend) {
    auto r = backend.Retrieve({QueryDx(f.s, 42), RetrievalOptions(3, 10)});
    EXPECT_TRUE(r.ok());
    std::vector<size_t> ids;
    for (const ScoredIndex& n : r->neighbors) {
      ids.push_back(backend.db_id_of(n.index));
    }
    return ids;
  };
  EXPECT_EQ(serve(mono), serve(f.engine));
}

TEST(ShardedRetrievalEngineTest, ComposedOverFilledEnginesRoutesEveryId) {
  // Mutations route by the stateless HashShardOf, so ids the composed
  // shards held before composition are as removable as ids inserted
  // through the sharded engine, and duplicates are still refused by the
  // owning shard.
  ShardedFixture f;
  constexpr size_t kShards = 2;
  std::vector<std::vector<size_t>> ids(kShards);
  for (size_t id : f.s.db_ids) ids[HashShardOf(id, kShards)].push_back(id);
  std::vector<EmbeddedDatabase> dbs;
  for (const std::vector<size_t>& shard_ids : ids) {
    dbs.push_back(EmbedDatabase(f.model, f.s.oracle, shard_ids));
  }
  std::vector<std::shared_ptr<RetrievalBackend>> shards;
  for (size_t s = 0; s < kShards; ++s) {
    shards.push_back(std::make_shared<RetrievalEngine>(&f.model, &f.scorer,
                                                       &dbs[s], ids[s]));
  }
  ShardedRetrievalEngine composed(&f.model, shards);
  const size_t n = f.s.db_ids.size();
  ASSERT_EQ(composed.size(), n);

  const size_t victim = f.s.db_ids[7];
  ASSERT_TRUE(composed.Remove(victim).ok());
  EXPECT_EQ(composed.size(), n - 1);
  auto r = composed.Retrieve({QueryDx(f.s, 41), RetrievalOptions(n, n)});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->neighbors.size(), n - 1);
  for (const ScoredIndex& nb : r->neighbors) EXPECT_NE(nb.index, victim);

  const size_t present = f.s.db_ids[8];
  Status dup = composed.Insert(present, QueryDx(f.s, present));
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(composed.size(), n - 1);
  Status again = composed.Remove(victim);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace qse
