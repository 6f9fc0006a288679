// Parity of the batch-tiled filter scan: a batch of queries scanned in
// one pass over the rows must answer every query bit-identically to the
// query scanned alone.  Covered at the scorer level (ScoreTopPBatch vs
// ScoreTopP, including the base class's per-query default) and end to
// end (RetrieveBatch vs Retrieve) for the L1, L2 and query-sensitive
// scorers at every filter precision, on the monolithic engine and the
// sharded engine with S in {1, 2, 3} plus a composed engine with an
// empty shard, at B in {1, 3, 8, 17} with thread counts that split the
// scan into query groups.
//
// The database is large enough that every precision streams several
// tiles (256 float64 dims: 256 rows per 512 KB tile; int8: 2048), its
// 256 dims span four of the kernels' 64-dim early-abandon blocks, so
// each query's own threshold history decides its abandons, and a
// query-sensitive model built by hand gives one query a negative weight
// A_i(q), which takes the unpruned exact scan inside a tiled batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/core/qs_embedding.h"
#include "src/core/training_context.h"
#include "src/core/weak_classifier.h"
#include "src/obs/quality_monitor.h"
#include "src/retrieval/embedder_adapters.h"
#include "src/retrieval/filter_refine.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/serving/sharded_retrieval_engine.h"
#include "tests/test_util.h"

namespace qse {
namespace {

constexpr size_t kDb = 5000;
constexpr size_t kDims = 256;
constexpr size_t kQueries = 17;
/// The query given a negative weight; inside every batch of B >= 3.
constexpr size_t kNegativeQuery = 1;
constexpr size_t kK = 5;
constexpr FilterPrecision kPrecisions[] = {FilterPrecision::kExact64,
                                           FilterPrecision::kFilter32,
                                           FilterPrecision::kFilter8};

/// A query-sensitive model over kDims reference coordinates (one per
/// database object 0..kDims-1), with positive weights everywhere except
/// coordinate 0 for queries whose coordinate-0 value lies in
/// [negative_lo, negative_hi].
QuerySensitiveEmbedding ReferenceModel(const TrainingContext& ctx,
                                       double negative_lo,
                                       double negative_hi) {
  std::vector<WeakClassifier> rounds;
  for (uint32_t c = 0; c < kDims; ++c) {
    WeakClassifier wc;
    wc.spec.type = Embedding1DSpec::Type::kReference;
    wc.spec.c1 = c;
    wc.alpha = 0.5 + 0.01 * c;
    rounds.push_back(wc);
  }
  WeakClassifier negative;
  negative.spec.type = Embedding1DSpec::Type::kReference;
  negative.spec.c1 = 0;
  negative.lo = negative_lo;
  negative.hi = negative_hi;
  negative.alpha = -5.0;
  rounds.push_back(negative);
  return QuerySensitiveEmbedding::FromTraining(ctx, rounds,
                                               /*query_sensitive=*/true);
}

struct ParityStack {
  ObjectOracle<Vector> oracle = test::MakePlaneOracle(kDb + kQueries, 31);
  std::vector<size_t> db_ids = test::Iota(kDb);
  TrainingContext ctx = TrainingContext::Build(oracle, test::Iota(kDims),
                                               test::Iota(2, kDims));
  QuerySensitiveEmbedding model;
  QseEmbedderAdapter embedder{&model};
  EmbeddedDatabase db{kDims};
  std::vector<Vector> embedded_queries;

  ParityStack() {
    // The negative interval is pinned to the chosen query's own
    // coordinate-0 value, which no other query shares.
    const double f = oracle.Distance(kDb + kNegativeQuery, 0);
    model = ReferenceModel(ctx, f, f);
    db = EmbedDatabase(embedder, oracle, db_ids);
    db.EnableFilterShadows(kShadowFloat32 | kShadowInt8);
    for (size_t q = 0; q < kQueries; ++q) {
      embedded_queries.push_back(embedder.Embed(Query(q)));
    }
  }

  DxToDatabaseFn Query(size_t q) const {
    return [this, q](size_t id) { return oracle.Distance(kDb + q, id); };
  }
};

const ParityStack& Stack() {
  static const ParityStack* stack = new ParityStack();
  return *stack;
}

TEST(BatchScanParityTest, OnlyTheChosenQueryHasANegativeWeight) {
  const ParityStack& s = Stack();
  ASSERT_EQ(s.model.dims(), kDims);
  for (size_t q = 0; q < kQueries; ++q) {
    Vector w = s.model.QueryWeights(s.embedded_queries[q]);
    const bool negative =
        std::any_of(w.begin(), w.end(), [](double x) { return x < 0.0; });
    EXPECT_EQ(negative, q == kNegativeQuery) << "query " << q;
  }
}

/// Forwards only the per-query virtuals, so ScoreTopPBatch takes the
/// base class's loop — the shape of a decorating scorer.
class ForwardingScorer : public FilterScorer {
 public:
  explicit ForwardingScorer(const FilterScorer* inner) : inner_(inner) {}
  void Score(const Vector& q, const EmbeddedDatabase::View& db,
             std::vector<double>* scores) const override {
    inner_->Score(q, db, scores);
  }
  std::vector<ScoredIndex> ScoreTopP(const Vector& q,
                                     const EmbeddedDatabase::View& db,
                                     size_t p, FilterPrecision precision,
                                     FilterScanStats* stats) const override {
    return inner_->ScoreTopP(q, db, p, precision, stats);
  }

 private:
  const FilterScorer* inner_;
};

void ExpectScorerBatchMatchesSingles(const FilterScorer& scorer,
                                     const std::string& name) {
  const ParityStack& s = Stack();
  for (FilterPrecision precision : kPrecisions) {
    for (size_t p : {1u, 40u, 20000u}) {
      SCOPED_TRACE(name + " " + FilterPrecisionName(precision) +
                   " p=" + std::to_string(p));
      std::vector<FilterScanStats> batch_stats;
      std::vector<std::vector<ScoredIndex>> batch = scorer.ScoreTopPBatch(
          s.embedded_queries, s.db, p, precision, &batch_stats);
      ASSERT_EQ(batch.size(), kQueries);
      ASSERT_EQ(batch_stats.size(), kQueries);
      for (size_t q = 0; q < kQueries; ++q) {
        FilterScanStats stats;
        std::vector<ScoredIndex> single =
            scorer.ScoreTopP(s.embedded_queries[q], s.db, p, precision, &stats);
        EXPECT_EQ(batch[q], single) << "query " << q;
        EXPECT_EQ(batch_stats[q].rows_visited, stats.rows_visited);
        EXPECT_EQ(batch_stats[q].rows_pruned, stats.rows_pruned);
      }
    }
  }
}

TEST(BatchScanParityTest, ScorersMatchPerQueryScans) {
  const ParityStack& s = Stack();
  L1Scorer l1;
  L2Scorer l2;
  QuerySensitiveScorer qs(&s.model);
  ExpectScorerBatchMatchesSingles(l1, "L1");
  ExpectScorerBatchMatchesSingles(l2, "L2");
  ExpectScorerBatchMatchesSingles(qs, "QS");
  ForwardingScorer forwarding(&qs);
  ExpectScorerBatchMatchesSingles(forwarding, "forwarding QS");
}

void ExpectSameResponse(const RetrievalResponse& a, const RetrievalResponse& b,
                        const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(a.neighbors, b.neighbors);
  EXPECT_EQ(a.exact_distances, b.exact_distances);
  EXPECT_EQ(a.embedding_distances, b.embedding_distances);
  ASSERT_EQ(a.shard_stats.size(), b.shard_stats.size());
  for (size_t s = 0; s < a.shard_stats.size(); ++s) {
    EXPECT_EQ(a.shard_stats[s].rows, b.shard_stats[s].rows);
    EXPECT_EQ(a.shard_stats[s].candidates, b.shard_stats[s].candidates);
  }
}

/// RetrieveBatch(queries[0..B))[i] == Retrieve(queries[i]) for every B,
/// thread count and precision at one p.
void ExpectBatchesMatchSingles(const RetrievalBackend& backend, size_t p,
                               const std::string& name) {
  const ParityStack& s = Stack();
  std::vector<DxToDatabaseFn> queries;
  for (size_t q = 0; q < kQueries; ++q) queries.push_back(s.Query(q));
  for (FilterPrecision precision : kPrecisions) {
    RetrievalOptions options(kK, p);
    options.want_stats = true;
    options.filter_precision = precision;
    const std::string config = name + " " + FilterPrecisionName(precision) +
                               " p=" + std::to_string(p);
    std::vector<RetrievalResponse> singles;
    for (const DxToDatabaseFn& dx : queries) {
      StatusOr<RetrievalResponse> r = backend.Retrieve({dx, options});
      ASSERT_TRUE(r.ok()) << config << ": " << r.status();
      singles.push_back(std::move(r).value());
    }
    for (size_t b : {1u, 3u, 8u, 17u}) {
      const std::vector<DxToDatabaseFn> batch(queries.begin(),
                                              queries.begin() + b);
      for (size_t threads : {1u, 4u}) {
        options.num_threads = threads;
        StatusOr<std::vector<RetrievalResponse>> got =
            backend.RetrieveBatch(batch, options);
        ASSERT_TRUE(got.ok()) << config << ": " << got.status();
        ASSERT_EQ(got->size(), b);
        for (size_t q = 0; q < b; ++q) {
          ExpectSameResponse(singles[q], (*got)[q],
                             config + " B=" + std::to_string(b) + " threads=" +
                                 std::to_string(threads) + " query " +
                                 std::to_string(q));
        }
      }
    }
  }
}

/// Every engine shape over one scorer.
void ExpectEnginesMatch(const FilterScorer& scorer, const std::string& name) {
  const ParityStack& s = Stack();
  EmbeddedDatabase mono_db = s.db;
  RetrievalEngine mono(&s.embedder, &scorer, &mono_db, s.db_ids);
  // 20000 exceeds every shard's rows and the whole database.
  for (size_t p : {40u, 20000u}) {
    ExpectBatchesMatchSingles(mono, p, name + " mono");
  }
  for (size_t shards : {1u, 2u, 3u}) {
    ShardedEngineOptions options;
    options.num_shards = shards;
    options.filter_shadows = kShadowFloat32 | kShadowInt8;
    ShardedRetrievalEngine sharded(&s.embedder, &scorer, s.db, s.db_ids,
                                   options);
    for (size_t p : {40u, 20000u}) {
      ExpectBatchesMatchSingles(
          sharded, p, name + " S=" + std::to_string(shards));
    }
  }
  EmbeddedDatabase empty_db(kDims);
  ShardedRetrievalEngine with_empty(
      &s.embedder,
      {std::make_shared<RetrievalEngine>(&s.embedder, &scorer, &mono_db,
                                         s.db_ids),
       std::make_shared<RetrievalEngine>(&s.embedder, &scorer, &empty_db,
                                         std::vector<size_t>{})});
  ExpectBatchesMatchSingles(with_empty, 40, name + " with an empty shard");
}

TEST(BatchScanParityTest, L1EnginesMatchPerQueryRetrieve) {
  L1Scorer scorer;
  ExpectEnginesMatch(scorer, "L1");
}

TEST(BatchScanParityTest, L2EnginesMatchPerQueryRetrieve) {
  L2Scorer scorer;
  ExpectEnginesMatch(scorer, "L2");
}

TEST(BatchScanParityTest, QuerySensitiveEnginesMatchPerQueryRetrieve) {
  QuerySensitiveScorer scorer(&Stack().model);
  ExpectEnginesMatch(scorer, "QS");
}

TEST(BatchScanParityTest, OnePassPinsOneSnapshotForTheBatch) {
  const ParityStack& s = Stack();
  L2Scorer scorer;
  EmbeddedDatabase db = s.db;
  RetrievalEngine engine(&s.embedder, &scorer, &db, s.db_ids);
  obs::MetricRegistry registry;
  obs::QualityMonitorOptions monitor_options;
  monitor_options.registry = &registry;
  obs::QualityMonitor monitor(monitor_options);
  RetrievalOptions options(kK, 40);
  options.audit_monitor = &monitor;
  StatusOr<std::vector<ScanCandidatesResult>> scans =
      engine.ScanCandidatesBatch(s.embedded_queries, options);
  ASSERT_TRUE(scans.ok()) << scans.status();
  ASSERT_EQ(scans->size(), kQueries);
  for (const ScanCandidatesResult& r : *scans) {
    ASSERT_NE(r.pinned, nullptr);
    EXPECT_EQ(r.pinned, scans->front().pinned);
    EXPECT_EQ(r.rows, kDb);
  }
  for (size_t q = 0; q < kQueries; ++q) {
    StatusOr<ScanCandidatesResult> single =
        engine.ScanCandidates(s.embedded_queries[q], options);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(single->candidates, (*scans)[q].candidates);
    EXPECT_EQ(single->rows_pruned, (*scans)[q].rows_pruned);
  }
}

}  // namespace
}  // namespace qse
