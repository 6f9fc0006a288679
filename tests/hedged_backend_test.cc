// Hedged replica fan-out tests, against fake in-process replicas whose
// latency and failures the test scripts: first response wins, errors
// fail over immediately (a dead replica causes zero caller-visible
// failures), hedges fire for slow replicas, and writes broadcast.
#include "src/net/hedged_backend.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

namespace qse {
namespace net {
namespace {

/// A scriptable replica: fixed scan result, configurable delay and
/// failure switch, call counting.
class FakeReplica : public RetrievalBackend {
 public:
  explicit FakeReplica(size_t id) : id_(id) {}

  mutable std::atomic<int> scan_calls{0};
  std::atomic<int> insert_calls{0};
  std::atomic<int> remove_calls{0};
  std::atomic<bool> fail{false};
  std::atomic<int> delay_ms{0};

  StatusOr<ScanCandidatesResult> ScanCandidates(
      const Vector& embedded_query,
      const RetrievalOptions& options) const override {
    (void)embedded_query;
    (void)options;
    ++scan_calls;
    if (delay_ms.load() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms.load()));
    }
    if (fail.load()) return Status::Unavailable("replica down");
    ScanCandidatesResult result;
    result.candidates = {{id_, 0.5}};  // identifies which replica served
    result.rows = 1;
    return result;
  }

  StatusOr<RetrievalResponse> Retrieve(
      const RetrievalRequest& request) const override {
    (void)request;
    if (fail.load()) return Status::Unavailable("replica down");
    RetrievalResponse response;
    response.neighbors = {{id_, 0.5}};
    return response;
  }

  StatusOr<std::vector<RetrievalResponse>> RetrieveBatch(
      const std::vector<DxToDatabaseFn>& queries,
      const RetrievalOptions& options) const override {
    (void)options;
    std::vector<RetrievalResponse> out(queries.size());
    for (auto& r : out) r.neighbors = {{id_, 0.5}};
    return out;
  }

  Status Insert(size_t db_id, const DxToDatabaseFn& dx) override {
    (void)db_id;
    (void)dx;
    ++insert_calls;
    return fail.load() ? Status::Unavailable("replica down") : Status::OK();
  }

  Status InsertEmbedded(size_t db_id, const Vector& row) override {
    (void)db_id;
    (void)row;
    ++insert_calls;
    return fail.load() ? Status::Unavailable("replica down") : Status::OK();
  }

  Status Remove(size_t db_id) override {
    (void)db_id;
    ++remove_calls;
    return fail.load() ? Status::Unavailable("replica down") : Status::OK();
  }

  size_t size() const override { return fail.load() ? 0 : 10 + id_; }
  size_t db_id_of(size_t neighbor_index) const override {
    return neighbor_index;
  }

 private:
  size_t id_;
};

/// Embeds every object as the one-dimensional origin, spending no exact
/// distances: the fake replicas ignore the query.
class OriginEmbedder : public Embedder {
 public:
  size_t dims() const override { return 1; }
  Vector Embed(const DxToDatabaseFn& dx,
               size_t* num_exact = nullptr) const override {
    (void)dx;
    if (num_exact != nullptr) *num_exact = 0;
    return {0.0};
  }
  size_t EmbeddingCost() const override { return 0; }
};

struct Fixture {
  OriginEmbedder embedder;
  std::vector<std::shared_ptr<FakeReplica>> fakes;
  std::unique_ptr<HedgedReplicaBackend> hedged;

  explicit Fixture(size_t n, HedgedBackendOptions options = {}) {
    std::vector<std::shared_ptr<RetrievalBackend>> replicas;
    for (size_t i = 0; i < n; ++i) {
      fakes.push_back(std::make_shared<FakeReplica>(i));
      replicas.push_back(fakes.back());
    }
    hedged = std::make_unique<HedgedReplicaBackend>(
        &embedder, std::move(replicas), options);
  }
};

RetrievalOptions ScanOpts() { return RetrievalOptions(1, 1); }

TEST(HedgedBackendTest, HealthyReplicasRoundRobinAndAllSucceed) {
  Fixture fx(2);
  for (int i = 0; i < 10; ++i) {
    auto scan = fx.hedged->ScanCandidates({0.0}, ScanOpts());
    ASSERT_TRUE(scan.ok()) << scan.status().message();
    ASSERT_EQ(scan->candidates.size(), 1u);
  }
  // Round-robin primaries: both replicas served some calls, and no
  // hedges fired for instant responses.
  EXPECT_GT(fx.fakes[0]->scan_calls.load(), 0);
  EXPECT_GT(fx.fakes[1]->scan_calls.load(), 0);
  EXPECT_EQ(fx.fakes[0]->scan_calls.load() + fx.fakes[1]->scan_calls.load(),
            10);
}

TEST(HedgedBackendTest, DeadReplicaCausesZeroCallerFailures) {
  Fixture fx(2);
  fx.fakes[0]->fail = true;  // one replica hard down
  for (int i = 0; i < 20; ++i) {
    auto scan = fx.hedged->ScanCandidates({0.0}, ScanOpts());
    ASSERT_TRUE(scan.ok()) << "call " << i << ": "
                           << scan.status().message();
    // Every response came from the live replica.
    ASSERT_EQ(scan->candidates.size(), 1u);
    EXPECT_EQ(scan->candidates[0].index, 1u);
  }
}

TEST(HedgedBackendTest, AllReplicasDownSurfacesTheError) {
  Fixture fx(3);
  for (auto& fake : fx.fakes) fake->fail = true;
  auto scan = fx.hedged->ScanCandidates({0.0}, ScanOpts());
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kUnavailable);
}

TEST(HedgedBackendTest, HedgeFiresAgainstSlowReplicaAndFastOneWins) {
  HedgedBackendOptions options;
  options.initial_hedge_delay = std::chrono::milliseconds(10);
  options.min_hedge_delay = std::chrono::milliseconds(1);
  Fixture fx(2, options);
  fx.fakes[0]->delay_ms = 200;
  fx.fakes[1]->delay_ms = 0;

  // Force replica 0 primary: round-robin starts at 0 for the first call.
  auto start = std::chrono::steady_clock::now();
  auto scan = fx.hedged->ScanCandidates({0.0}, ScanOpts());
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(scan.ok());
  // The fast replica's hedge won well before the slow primary finished.
  EXPECT_EQ(scan->candidates[0].index, 1u);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            150);
  // Both replicas were attempted: primary plus one hedge.
  EXPECT_EQ(fx.fakes[0]->scan_calls.load(), 1);
  EXPECT_EQ(fx.fakes[1]->scan_calls.load(), 1);
}

TEST(HedgedBackendTest, HedgingDisabledWaitsOutTheSlowReplica) {
  HedgedBackendOptions options;
  options.enable_hedging = false;
  options.initial_hedge_delay = std::chrono::milliseconds(5);
  Fixture fx(2, options);
  fx.fakes[0]->delay_ms = 100;
  auto scan = fx.hedged->ScanCandidates({0.0}, ScanOpts());
  ASSERT_TRUE(scan.ok());
  // Served by the slow primary itself; the other replica was never
  // consulted.
  EXPECT_EQ(scan->candidates[0].index, 0u);
  EXPECT_EQ(fx.fakes[1]->scan_calls.load(), 0);
}

TEST(HedgedBackendTest, WritesBroadcastToAllReplicas) {
  Fixture fx(3);
  ASSERT_TRUE(fx.hedged->InsertEmbedded(1, {0.0}).ok());
  ASSERT_TRUE(fx.hedged->Remove(1).ok());
  for (auto& fake : fx.fakes) {
    EXPECT_EQ(fake->insert_calls.load(), 1);
    EXPECT_EQ(fake->remove_calls.load(), 1);
  }
  // A failing replica's error is reported but the rest still apply.
  fx.fakes[1]->fail = true;
  Status status = fx.hedged->InsertEmbedded(2, {0.0});
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(fx.fakes[0]->insert_calls.load(), 2);
  EXPECT_EQ(fx.fakes[2]->insert_calls.load(), 2);
}

TEST(HedgedBackendTest, SizeIsMaxOverReplicas) {
  Fixture fx(2);  // sizes 10 and 11
  EXPECT_EQ(fx.hedged->size(), 11u);
  fx.fakes[1]->fail = true;  // reports 0 when down
  EXPECT_EQ(fx.hedged->size(), 10u);
}

TEST(HedgedBackendTest, DestructionWaitsForStragglers) {
  // The losing slow attempt still runs when the winner returns; the
  // backend's destructor must block until it finishes rather than let
  // it touch freed state.  TSan (this suite runs under it in CI) would
  // flag a violation.
  HedgedBackendOptions options;
  options.initial_hedge_delay = std::chrono::milliseconds(5);
  options.min_hedge_delay = std::chrono::milliseconds(1);
  auto fx = std::make_unique<Fixture>(2, options);
  fx->fakes[0]->delay_ms = 80;
  auto scan = fx->hedged->ScanCandidates({0.0}, ScanOpts());
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->candidates[0].index, 1u);
  fx.reset();  // destructor waits for the slow straggler
}

TEST(HedgedBackendTest, RetrieveAndBatchGoThroughTheHedgeDriver) {
  Fixture fx(2);
  fx.fakes[0]->fail = true;
  RetrievalRequest request;
  request.dx = [](size_t) { return 0.0; };
  request.options = RetrievalOptions(1, 1);
  auto result = fx.hedged->Retrieve(request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->neighbors[0].index, 1u);

  std::vector<DxToDatabaseFn> queries(4, [](size_t) { return 0.0; });
  auto batch = fx.hedged->RetrieveBatch(queries, RetrievalOptions(1, 1));
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 4u);
  for (const auto& r : *batch) {
    EXPECT_EQ(r.neighbors[0].index, 1u);
  }
}

}  // namespace
}  // namespace net
}  // namespace qse
