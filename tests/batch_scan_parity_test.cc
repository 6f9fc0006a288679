// Parity of the batch-tiled filter scan: a batch of queries scanned in
// one pass over the rows must answer every query bit-identically to the
// query scanned alone.  Covered at the scorer level (ScoreTopPBatch vs
// ScoreTopP, including the base class's per-query default) and end to
// end (RetrieveBatch vs Retrieve) for the L1, L2 and query-sensitive
// scorers at every filter precision, on the monolithic engine and the
// sharded engine with S in {1, 2, 3} plus a composed engine with an
// empty shard, at B in {1, 3, 8, 17} with thread counts that split the
// scan into query groups.  Over the wire, a batch is one kScan frame and
// one server pass per shard: the remote stub, a sharded engine over two
// remote shards and a hedged replica set must answer exactly like the
// local engine.
//
// The database is large enough that every precision streams several
// tiles (256 float64 dims: 256 rows per 512 KB tile; int8: 2048), its
// 256 dims span four of the kernels' 64-dim early-abandon blocks, so
// each query's own threshold history decides its abandons, and a
// query-sensitive model built by hand gives one query a negative weight
// A_i(q), whose lane never abandons and scores at float64 inside the
// tiled pass — exactly SmallestK(Score(q), p).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/core/qs_embedding.h"
#include "src/core/training_context.h"
#include "src/core/weak_classifier.h"
#include "src/net/hedged_backend.h"
#include "src/net/remote_backend.h"
#include "src/net/retrieval_server.h"
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
/// The coordinate its weight is negative on: the last, so the negative
/// term sits in the kernels' last 64-dim abandon block, and it outweighs
/// all the others, so a lane that abandoned on the earlier blocks'
/// partial sums would drop rows the final term pulls back under the
/// threshold.
constexpr uint32_t kNegativeCoordinate = kDims - 1;
constexpr size_t kK = 5;
constexpr FilterPrecision kPrecisions[] = {FilterPrecision::kExact64,
                                           FilterPrecision::kFilter32,
                                           FilterPrecision::kFilter8};

/// A query-sensitive model over kDims reference coordinates (one per
/// database object 0..kDims-1), with positive weights everywhere except
/// kNegativeCoordinate for queries whose value there lies in
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
  negative.spec.c1 = kNegativeCoordinate;
  negative.lo = negative_lo;
  negative.hi = negative_hi;
  negative.alpha = -500.0;
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
    // The negative interval is pinned to the chosen query's own value
    // at that coordinate, which no other query shares.
    const double f = oracle.Distance(kDb + kNegativeQuery, kNegativeCoordinate);
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

TEST(BatchScanParityTest, NegativeWeightQueryMatchesFullScanAtEveryP) {
  // The negative-weight lane replaces a separate full-scan fallback;
  // pin that fallback's answers: bit-identical to SmallestK over the
  // full float64 ranking, alone or in a batch, at every precision.
  const ParityStack& s = Stack();
  QuerySensitiveScorer qs(&s.model);
  const Vector& q = s.embedded_queries[kNegativeQuery];
  std::vector<double> scores;
  qs.Score(q, s.db, &scores);
  for (FilterPrecision precision : kPrecisions) {
    // ScoreTopPTest's p list.
    for (size_t p : {1u, 2u, 7u, 50u, 200u, 500u}) {
      SCOPED_TRACE(std::string(FilterPrecisionName(precision)) +
                   " p=" + std::to_string(p));
      const std::vector<ScoredIndex> want = SmallestK(scores, p);
      EXPECT_EQ(qs.ScoreTopP(q, s.db, p, precision), want);
      std::vector<std::vector<ScoredIndex>> batch =
          qs.ScoreTopPBatch(s.embedded_queries, s.db, p, precision);
      EXPECT_EQ(batch[kNegativeQuery], want);
    }
  }
}

/// An engine over the parity objects `ids`, embedded afresh, served over
/// loopback TCP, and the remote stub that reaches it.
struct ServedShard {
  EmbeddedDatabase db;
  std::unique_ptr<RetrievalEngine> engine;
  std::unique_ptr<net::RetrievalServer> server;
  std::shared_ptr<net::RemoteRetrievalBackend> stub;

  ServedShard(const FilterScorer* scorer, std::vector<size_t> ids,
              net::RetrievalServerOptions options = {},
              net::RemoteBackendOptions stub_options = {})
      : db(EmbedDatabase(Stack().embedder, Stack().oracle, ids)) {
    db.EnableFilterShadows(kShadowFloat32 | kShadowInt8);
    engine = std::make_unique<RetrievalEngine>(&Stack().embedder, scorer, &db,
                                               std::move(ids));
    server = std::make_unique<net::RetrievalServer>(engine.get(), options);
    QSE_CHECK(server->Start(0).ok());
    stub = std::make_shared<net::RemoteRetrievalBackend>(
        &Stack().embedder, "127.0.0.1", server->port(), stub_options);
  }
};

/// The parity database split over `shards` served shards by HashShardOf.
std::vector<std::unique_ptr<ServedShard>> ServeShards(
    const FilterScorer* scorer, size_t shards) {
  std::vector<std::vector<size_t>> ids(shards);
  for (size_t id : Stack().db_ids) ids[HashShardOf(id, shards)].push_back(id);
  std::vector<std::unique_ptr<ServedShard>> served;
  for (size_t s = 0; s < shards; ++s) {
    served.push_back(std::make_unique<ServedShard>(scorer, ids[s]));
  }
  return served;
}

void ExpectSameScans(const std::vector<ScanCandidatesResult>& got,
                     const std::vector<ScanCandidatesResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t q = 0; q < want.size(); ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    EXPECT_EQ(got[q].candidates, want[q].candidates);
    EXPECT_EQ(got[q].rows, want[q].rows);
    EXPECT_EQ(got[q].rows_pruned, want[q].rows_pruned);
  }
}

TEST(BatchScanParityTest, RemoteScanBatchMatchesTheLocalEngine) {
  const ParityStack& s = Stack();
  QuerySensitiveScorer scorer(&s.model);
  ServedShard shard(&scorer, s.db_ids);
  for (FilterPrecision precision : kPrecisions) {
    RetrievalOptions options(kK, 40);
    options.filter_precision = precision;
    // B = 3 and 17 carry the negative-weight query.
    for (size_t b : {1u, 3u, 17u}) {
      SCOPED_TRACE(std::string(FilterPrecisionName(precision)) +
                   " B=" + std::to_string(b));
      const std::vector<Vector> batch(s.embedded_queries.begin(),
                                      s.embedded_queries.begin() + b);
      StatusOr<std::vector<ScanCandidatesResult>> want =
          shard.engine->ScanCandidatesBatch(batch, options);
      StatusOr<std::vector<ScanCandidatesResult>> got =
          shard.stub->ScanCandidatesBatch(batch, options);
      ASSERT_TRUE(want.ok() && got.ok()) << want.status() << got.status();
      ExpectSameScans(*got, *want);
      // The stub's single-query scan is its batch of one.
      StatusOr<ScanCandidatesResult> single =
          shard.stub->ScanCandidates(batch.back(), options);
      ASSERT_TRUE(single.ok()) << single.status();
      ExpectSameScans({*single}, {want->back()});
    }
  }
}

TEST(BatchScanParityTest, RemoteShardedRetrieveBatchMatchesMono) {
  const ParityStack& s = Stack();
  QuerySensitiveScorer scorer(&s.model);
  EmbeddedDatabase mono_db = s.db;
  RetrievalEngine mono(&s.embedder, &scorer, &mono_db, s.db_ids);
  std::vector<std::unique_ptr<ServedShard>> shards = ServeShards(&scorer, 2);
  ShardedRetrievalEngine remote(&s.embedder,
                                {shards[0]->stub, shards[1]->stub});
  std::vector<DxToDatabaseFn> queries;
  for (size_t q = 0; q < kQueries; ++q) queries.push_back(s.Query(q));
  for (size_t p : {40u, 20000u}) {
    RetrievalOptions options(kK, p);
    for (size_t threads : {1u, 4u}) {
      options.num_threads = threads;
      StatusOr<std::vector<RetrievalResponse>> got =
          remote.RetrieveBatch(queries, options);
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_EQ(got->size(), kQueries);
      for (size_t q = 0; q < kQueries; ++q) {
        StatusOr<RetrievalResponse> want =
            mono.Retrieve({queries[q], options, /*trace=*/nullptr});
        ASSERT_TRUE(want.ok()) << want.status();
        ExpectSameResponse(*want, (*got)[q],
                           "p=" + std::to_string(p) + " threads=" +
                               std::to_string(threads) + " query " +
                               std::to_string(q));
      }
    }
  }
}

TEST(BatchScanParityTest, OneBatchIsOneKScanAndOnePassPerShard) {
  const ParityStack& s = Stack();
  QuerySensitiveScorer scorer(&s.model);
  std::vector<std::unique_ptr<ServedShard>> shards = ServeShards(&scorer, 2);
  ShardedRetrievalEngine remote(&s.embedder,
                                {shards[0]->stub, shards[1]->stub});
  std::vector<DxToDatabaseFn> queries;
  for (size_t q = 0; q < kQueries; ++q) queries.push_back(s.Query(q));
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  obs::Counter* requests = registry.GetCounter("qse_net_server_requests_total");
  obs::Histogram* batch_queries = registry.GetHistogram(
      "qse_engine_filter_batch_queries", obs::ExponentialBoundaries(1, 2, 10));
  const uint64_t requests_before = requests->Value();
  const obs::HistogramSnapshot before = batch_queries->Snapshot();
  RetrievalOptions options(kK, 40);
  options.num_threads = 1;  // one query group per shard
  ASSERT_TRUE(remote.RetrieveBatch(queries, options).ok());
  const obs::HistogramSnapshot after = batch_queries->Snapshot();
  // One kScan frame per shard, and each server scanned all B queries in
  // one pass.
  EXPECT_EQ(requests->Value() - requests_before, 2u);
  EXPECT_EQ(after.count - before.count, 2u);
  EXPECT_EQ(after.sum - before.sum, 2.0 * kQueries);
}

TEST(BatchScanParityTest, ExpiredBudgetFailsTheWholeRemoteBatch) {
  const ParityStack& s = Stack();
  QuerySensitiveScorer scorer(&s.model);
  const std::vector<Vector> batch(s.embedded_queries.begin(),
                                  s.embedded_queries.begin() + 3);

  // Spent before the send: the client refuses to ship the frame.
  ServedShard shard(&scorer, s.db_ids);
  RetrievalOptions expired(kK, 40);
  expired.deadline = RetrievalClock::now() - std::chrono::milliseconds(1);
  StatusOr<std::vector<ScanCandidatesResult>> result =
      shard.stub->ScanCandidatesBatch(batch, expired);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  // Spent in flight: the server answers the whole frame with
  // kDeadlineExceeded and no candidate lists.
  auto sock = net::Socket::Connect("127.0.0.1", shard.server->port(),
                                   net::TransportOptions{});
  ASSERT_TRUE(sock.ok());
  net::WireRequest request;
  request.op = net::WireOp::kScan;
  request.deadline_budget_ns = 1;
  request.options = RetrievalOptions(kK, 40);
  request.num_queries = batch.size();
  for (const Vector& q : batch) {
    request.query.insert(request.query.end(), q.begin(), q.end());
  }
  ASSERT_TRUE(sock->SendFrame(net::EncodeRequest(request)).ok());
  StatusOr<std::string> frame = sock->RecvFrame();
  ASSERT_TRUE(frame.ok());
  net::WireResponse response;
  ASSERT_TRUE(net::DecodeResponse(*frame, &response).ok());
  EXPECT_EQ(response.code, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(response.lists.empty());
  EXPECT_TRUE(response.neighbors.empty());

  // Spent while the server drags its feet: whichever side notices first
  // fails the batch.
  net::RetrievalServerOptions slow;
  slow.debug_delay_every_n = 1;
  slow.debug_delay = std::chrono::milliseconds(300);
  net::RemoteBackendOptions no_retry;
  no_retry.retry_reads = false;
  ServedShard slow_shard(&scorer, s.db_ids, slow, no_retry);
  RetrievalOptions tight(kK, 40);
  tight.deadline = RetrievalOptions::DeadlineIn(std::chrono::milliseconds(50));
  result = slow_shard.stub->ScanCandidatesBatch(batch, tight);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(BatchScanParityTest, HedgedReplicaBatchMatchesPerQueryScans) {
  const ParityStack& s = Stack();
  QuerySensitiveScorer scorer(&s.model);
  ServedShard a(&scorer, s.db_ids), b(&scorer, s.db_ids);
  net::HedgedReplicaBackend hedged(&s.embedder, {a.stub, b.stub});
  RetrievalOptions options(kK, 40);
  for (size_t n : {1u, 3u, 17u}) {
    SCOPED_TRACE("B=" + std::to_string(n));
    const std::vector<Vector> batch(s.embedded_queries.begin(),
                                    s.embedded_queries.begin() + n);
    StatusOr<std::vector<ScanCandidatesResult>> got =
        hedged.ScanCandidatesBatch(batch, options);
    ASSERT_TRUE(got.ok()) << got.status();
    std::vector<ScanCandidatesResult> singles;
    for (const Vector& q : batch) {
      StatusOr<ScanCandidatesResult> single = hedged.ScanCandidates(q, options);
      ASSERT_TRUE(single.ok()) << single.status();
      singles.push_back(std::move(single).value());
    }
    ExpectSameScans(*got, singles);
    StatusOr<std::vector<ScanCandidatesResult>> local =
        a.engine->ScanCandidatesBatch(batch, options);
    ASSERT_TRUE(local.ok());
    ExpectSameScans(*got, *local);
  }
}

TEST(BatchScanParityTest, HedgedReplicaBatchHedgesASlowReplica) {
  const ParityStack& s = Stack();
  QuerySensitiveScorer scorer(&s.model);
  net::RetrievalServerOptions slow;
  slow.debug_delay_every_n = 1;
  slow.debug_delay = std::chrono::milliseconds(300);
  ServedShard slow_replica(&scorer, s.db_ids, slow), fast(&scorer, s.db_ids);
  net::HedgedBackendOptions options;
  options.initial_hedge_delay = std::chrono::milliseconds(10);
  options.min_hedge_delay = std::chrono::milliseconds(1);
  obs::Counter* fired =
      obs::MetricRegistry::Global().GetCounter("qse_hedged_fired_total");
  obs::Counter* wins =
      obs::MetricRegistry::Global().GetCounter("qse_hedged_wins_total");
  const uint64_t fired_before = fired->Value();
  const uint64_t wins_before = wins->Value();
  {
    // The first call's primary is replica 0, the slow one.
    net::HedgedReplicaBackend hedged(&s.embedder,
                                     {slow_replica.stub, fast.stub}, options);
    const auto start = std::chrono::steady_clock::now();
    StatusOr<std::vector<ScanCandidatesResult>> got =
        hedged.ScanCandidatesBatch(s.embedded_queries,
                                   RetrievalOptions(kK, 40));
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                  .count(),
              250);
    StatusOr<std::vector<ScanCandidatesResult>> local =
        fast.engine->ScanCandidatesBatch(s.embedded_queries,
                                         RetrievalOptions(kK, 40));
    ASSERT_TRUE(local.ok());
    ExpectSameScans(*got, *local);
  }  // waits for the slow straggler
  EXPECT_EQ(fired->Value() - fired_before, 1u);
  EXPECT_EQ(wins->Value() - wins_before, 1u);
}

/// `dx` with every call counted in `calls`.
DxToDatabaseFn Counted(DxToDatabaseFn dx, std::atomic<size_t>* calls) {
  return [dx = std::move(dx), calls](size_t id) {
    calls->fetch_add(1);
    return dx(id);
  };
}

TEST(BatchScanParityTest, HedgedRetrieveSpendsExactlyTheDistancesItReports) {
  // Only the scan is hedged: the query is embedded once and refined once
  // on the caller's thread, so the slow primary's losing attempt spends
  // no exact distance, neither before the call returns nor after.
  const ParityStack& s = Stack();
  QuerySensitiveScorer scorer(&s.model);
  net::RetrievalServerOptions slow;
  slow.debug_delay_every_n = 1;
  slow.debug_delay = std::chrono::milliseconds(300);
  ServedShard slow_replica(&scorer, s.db_ids, slow), fast(&scorer, s.db_ids);
  net::HedgedBackendOptions options;
  options.initial_hedge_delay = std::chrono::milliseconds(10);
  options.min_hedge_delay = std::chrono::milliseconds(1);
  const RetrievalOptions ro(kK, 40);
  std::atomic<size_t> dx_calls{0};
  size_t reported = 0;
  {
    // The first call's primary is replica 0, the slow one.
    net::HedgedReplicaBackend hedged(&s.embedder,
                                     {slow_replica.stub, fast.stub}, options);
    StatusOr<RetrievalResponse> got =
        hedged.Retrieve({Counted(s.Query(0), &dx_calls), ro});
    ASSERT_TRUE(got.ok()) << got.status();
    reported = got->exact_distances;
    EXPECT_EQ(reported, s.embedder.EmbeddingCost() + 40);
    EXPECT_EQ(dx_calls.load(), reported);
    StatusOr<RetrievalResponse> want = fast.engine->Retrieve({s.Query(0), ro});
    ASSERT_TRUE(want.ok()) << want.status();
    EXPECT_EQ(got->neighbors, want->neighbors);
  }  // waits for the slow straggler
  EXPECT_EQ(dx_calls.load(), reported);
}

TEST(BatchScanParityTest, HedgedRetrieveBatchIsOneKScan) {
  const ParityStack& s = Stack();
  QuerySensitiveScorer scorer(&s.model);
  ServedShard a(&scorer, s.db_ids), b(&scorer, s.db_ids);
  // A hedge timer no loopback scan outlasts: the batch is one attempt.
  net::HedgedBackendOptions options;
  options.initial_hedge_delay = std::chrono::seconds(60);
  options.max_hedge_delay = std::chrono::seconds(60);
  net::HedgedReplicaBackend hedged(&s.embedder, {a.stub, b.stub}, options);
  std::vector<DxToDatabaseFn> queries;
  for (size_t q = 0; q < kQueries; ++q) queries.push_back(s.Query(q));
  obs::Counter* requests = obs::MetricRegistry::Global().GetCounter(
      "qse_net_server_requests_total");
  RetrievalOptions ro(kK, 40);
  ro.num_threads = 1;  // one query group
  const uint64_t requests_before = requests->Value();
  StatusOr<std::vector<RetrievalResponse>> got =
      hedged.RetrieveBatch(queries, ro);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(requests->Value() - requests_before, 1u);
  ASSERT_EQ(got->size(), kQueries);
  for (size_t q = 0; q < kQueries; ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    StatusOr<RetrievalResponse> want = a.engine->Retrieve({queries[q], ro});
    ASSERT_TRUE(want.ok()) << want.status();
    EXPECT_EQ((*got)[q].neighbors, want->neighbors);
    EXPECT_EQ((*got)[q].exact_distances, want->exact_distances);
  }
}

TEST(BatchScanParityTest, HedgedInsertEmbedsOnceAndBroadcastsTheRow) {
  const ParityStack& s = Stack();
  QuerySensitiveScorer scorer(&s.model);
  ServedShard a(&scorer, s.db_ids), b(&scorer, s.db_ids);
  net::HedgedReplicaBackend hedged(&s.embedder, {a.stub, b.stub});
  // Query object kDb + 2 joins the database under its own id.
  const size_t id = kDb + 2;
  std::atomic<size_t> dx_calls{0};
  ASSERT_TRUE(hedged.Insert(id, Counted(s.Query(2), &dx_calls)).ok());
  EXPECT_EQ(dx_calls.load(), s.embedder.EmbeddingCost());
  for (const ServedShard* replica : {&a, &b}) {
    const EmbeddedDatabase& db = replica->engine->db();
    ASSERT_EQ(db.size(), kDb + 1);
    EXPECT_EQ(db.id_of(kDb), id);
    EXPECT_EQ(db.RowVector(kDb), s.embedded_queries[2]);
  }
}

}  // namespace
}  // namespace qse
