// The overlapped scatter over remote shards: a sharded engine starts
// every shard's kScan before it waits on any, so with one retrieve
// thread both servers scan at the same time.  Covered here:
//  * overlap, proven without timing: each server's scan waits at a
//    rendezvous both shards must reach, which a client that waits out
//    one shard's round trip before sending the next never satisfies;
//  * parity: RetrieveBatch over two remote shards equals the monolithic
//    engine's Retrieve id for id, including batches the stub splits into
//    several kScan frames;
//  * failure: a stopped shard fails the batch with its own status, a
//    pending scan dropped unread never leaves its connection in the
//    pool, and the restarted shard serves the next batch;
//  * retry and deadline: a lost answer is re-asked once, and a spent
//    budget fails with kDeadlineExceeded.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/embedding/fastmap.h"
#include "src/net/remote_backend.h"
#include "src/net/retrieval_server.h"
#include "src/net/socket_transport.h"
#include "src/net/wire_codec.h"
#include "src/obs/metric_registry.h"
#include "src/retrieval/filter_refine.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/serving/sharded_retrieval_engine.h"
#include "tests/test_util.h"

namespace qse {
namespace {

constexpr size_t kDb = 3000;
constexpr size_t kQueries = 17;
constexpr size_t kK = 5;
constexpr size_t kShards = 2;
/// A p this large makes the stub split a batch into frames of two
/// queries: kMaxScanCandidatesPerFrame / kHugeP == 2.
constexpr size_t kHugeP = net::kMaxScanCandidatesPerFrame / 2;

struct Universe {
  ObjectOracle<Vector> oracle = test::MakePlaneOracle(kDb + kQueries, 71);
  std::vector<size_t> db_ids = test::Iota(kDb);
  FastMapModel model = [this] {
    FastMapOptions options;
    options.dims = 3;
    return BuildFastMap(oracle, db_ids, options);
  }();
  L2Scorer scorer;

  DxToDatabaseFn Query(size_t q) const {
    return [this, q](size_t id) { return oracle.Distance(kDb + q, id); };
  }
  std::vector<DxToDatabaseFn> Queries(size_t count) const {
    std::vector<DxToDatabaseFn> queries;
    for (size_t q = 0; q < count; ++q) queries.push_back(Query(q));
    return queries;
  }
};

const Universe& U() {
  static const Universe* universe = new Universe();
  return *universe;
}

net::TransportOptions Transport() {
  net::TransportOptions options;
  options.connect_timeout = std::chrono::milliseconds(1000);
  // Longer than the rendezvous timeout, so a serial client fails on the
  // rendezvous's own message rather than on its read timeout.
  options.read_timeout = std::chrono::milliseconds(10000);
  options.write_timeout = std::chrono::milliseconds(2000);
  return options;
}

net::RemoteBackendOptions StubOptions() {
  net::RemoteBackendOptions options;
  options.transport = Transport();
  return options;
}

/// Two parties meet here: Arrive() returns true once both have arrived,
/// false when the other does not come within 5 s.  Reusable: each pair
/// of arrivals is one generation.
class Rendezvous {
 public:
  bool Arrive() {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t generation = generation_;
    if (++waiting_ == 2) {
      waiting_ = 0;
      ++generation_;
      cv_.notify_all();
      return true;
    }
    if (cv_.wait_for(lock, std::chrono::seconds(5),
                     [&] { return generation_ != generation; })) {
      return true;
    }
    --waiting_;
    return false;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t waiting_ = 0;
  uint64_t generation_ = 0;
};

/// Forwards to `inner`, but every scan first waits at `rendezvous`.
class RendezvousBackend : public RetrievalBackend {
 public:
  RendezvousBackend(RetrievalBackend* inner, Rendezvous* rendezvous)
      : inner_(inner), rendezvous_(rendezvous) {}

  StatusOr<RetrievalResponse> Retrieve(
      const RetrievalRequest& request) const override {
    return inner_->Retrieve(request);
  }
  StatusOr<std::vector<RetrievalResponse>> RetrieveBatch(
      const std::vector<DxToDatabaseFn>& queries,
      const RetrievalOptions& options) const override {
    return inner_->RetrieveBatch(queries, options);
  }
  StatusOr<std::vector<ScanCandidatesResult>> ScanCandidatesBatch(
      const std::vector<Vector>& embedded_queries,
      const RetrievalOptions& options) const override {
    if (!rendezvous_->Arrive()) {
      return Status::DeadlineExceeded(
          "the other shard's scan never arrived: the scans did not overlap");
    }
    return inner_->ScanCandidatesBatch(embedded_queries, options);
  }
  Status Insert(size_t db_id, const DxToDatabaseFn& dx) override {
    return inner_->Insert(db_id, dx);
  }
  Status Remove(size_t db_id) override { return inner_->Remove(db_id); }
  size_t size() const override { return inner_->size(); }

 private:
  RetrievalBackend* inner_;
  Rendezvous* rendezvous_;
};

/// One shard of the universe: its slice of the ids, embedded, behind a
/// loopback RetrievalServer, and the remote stub that reaches it.
struct ServedShard {
  EmbeddedDatabase db;
  std::unique_ptr<RetrievalEngine> engine;
  std::unique_ptr<RendezvousBackend> rendezvous;
  /// What the server serves: the engine, or the rendezvous over it.
  RetrievalBackend* served = nullptr;
  std::unique_ptr<net::RetrievalServer> server;
  std::shared_ptr<net::RemoteRetrievalBackend> stub;

  ServedShard(const std::vector<size_t>& ids, Rendezvous* meet,
              net::RetrievalServerOptions server_options)
      : db(EmbedDatabase(U().model, U().oracle, ids)) {
    engine =
        std::make_unique<RetrievalEngine>(&U().model, &U().scorer, &db, ids);
    served = engine.get();
    if (meet != nullptr) {
      rendezvous = std::make_unique<RendezvousBackend>(engine.get(), meet);
      served = rendezvous.get();
    }
    server_options.transport = Transport();
    server = std::make_unique<net::RetrievalServer>(served, server_options);
    QSE_CHECK(server->Start(0).ok());
    stub = std::make_shared<net::RemoteRetrievalBackend>(
        &U().model, "127.0.0.1", server->port(), StubOptions());
  }

  /// Stops the server and serves the same engine again on the same port.
  void Restart() {
    const uint16_t port = server->port();
    server.reset();
    net::RetrievalServerOptions options;
    options.transport = Transport();
    server = std::make_unique<net::RetrievalServer>(served, options);
    QSE_CHECK(server->Start(port).ok());
  }
};

/// The universe split over kShards served shards by HashShardOf, and the
/// sharded engine composed over their stubs.
struct RemoteCluster {
  std::vector<std::unique_ptr<ServedShard>> shards;
  std::unique_ptr<ShardedRetrievalEngine> engine;

  explicit RemoteCluster(Rendezvous* meet = nullptr,
                         net::RetrievalServerOptions server_options = {}) {
    std::vector<std::vector<size_t>> ids(kShards);
    for (size_t id : U().db_ids) ids[HashShardOf(id, kShards)].push_back(id);
    std::vector<std::shared_ptr<RetrievalBackend>> stubs;
    for (size_t s = 0; s < kShards; ++s) {
      shards.push_back(
          std::make_unique<ServedShard>(ids[s], meet, server_options));
      stubs.push_back(shards.back()->stub);
    }
    engine =
        std::make_unique<ShardedRetrievalEngine>(&U().model, std::move(stubs));
  }
};

/// The monolithic reference engine over the whole universe.
struct Mono {
  EmbeddedDatabase db = EmbedDatabase(U().model, U().oracle, U().db_ids);
  RetrievalEngine engine{&U().model, &U().scorer, &db, U().db_ids};
};

void ExpectMatchesMono(const Mono& mono,
                       const std::vector<DxToDatabaseFn>& queries,
                       const RetrievalOptions& options,
                       const StatusOr<std::vector<RetrievalResponse>>& got,
                       const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    StatusOr<RetrievalResponse> want =
        mono.engine.Retrieve({queries[q], options, /*trace=*/nullptr});
    ASSERT_TRUE(want.ok()) << want.status();
    EXPECT_EQ((*got)[q].neighbors, want->neighbors) << "query " << q;
    EXPECT_EQ((*got)[q].exact_distances, want->exact_distances)
        << "query " << q;
  }
}

TEST(ShardedRemoteScatterTest, OneThreadScansBothShardsAtOnce) {
  Rendezvous meet;
  RemoteCluster cluster(&meet);
  Mono mono;
  const std::vector<DxToDatabaseFn> queries = U().Queries(kQueries);
  RetrievalOptions options(kK, 40);
  options.num_threads = 1;
  // Each server's scan returns only once the other server's scan has
  // started, so a client that waited out shard 0 before sending to
  // shard 1 would fail here after 5 s.
  ExpectMatchesMono(mono, queries, options,
                    cluster.engine->RetrieveBatch(queries, options),
                    "RetrieveBatch");
  // A single Retrieve over one thread overlaps the same way.
  StatusOr<RetrievalResponse> single =
      cluster.engine->Retrieve({queries[3], options, /*trace=*/nullptr});
  ASSERT_TRUE(single.ok()) << single.status();
  StatusOr<RetrievalResponse> want =
      mono.engine.Retrieve({queries[3], options, /*trace=*/nullptr});
  ASSERT_TRUE(want.ok()) << want.status();
  EXPECT_EQ(single->neighbors, want->neighbors);
}

TEST(ShardedRemoteScatterTest, RetrieveBatchMatchesMonoIdForId) {
  RemoteCluster cluster;
  Mono mono;
  obs::Counter* rpcs =
      obs::MetricRegistry::Global().GetCounter("qse_remote_rpcs_total");
  for (size_t p : {size_t{40}, kHugeP}) {
    for (size_t b : {1u, 3u, 17u}) {
      const std::vector<DxToDatabaseFn> queries = U().Queries(b);
      for (size_t threads : {1u, 4u}) {
        RetrievalOptions options(kK, p);
        options.num_threads = threads;
        const uint64_t rpcs_before = rpcs->Value();
        ExpectMatchesMono(mono, queries, options,
                          cluster.engine->RetrieveBatch(queries, options),
                          "p=" + std::to_string(p) + " B=" +
                              std::to_string(b) + " threads=" +
                              std::to_string(threads));
        if (p == kHugeP && threads == 1) {
          // Frames of two queries: one kScan per frame per shard.
          EXPECT_EQ(rpcs->Value() - rpcs_before, kShards * ((b + 1) / 2));
        }
      }
    }
  }
}

TEST(ShardedRemoteScatterTest, StoppedShardFailsTheBatchThenRecovers) {
  RemoteCluster cluster;
  Mono mono;
  const std::vector<DxToDatabaseFn> queries = U().Queries(kQueries);
  RetrievalOptions options(kK, 40);
  options.num_threads = 1;
  ExpectMatchesMono(mono, queries, options,
                    cluster.engine->RetrieveBatch(queries, options),
                    "before the stop");

  cluster.shards[1]->server->Stop();
  StatusOr<std::vector<RetrievalResponse>> failed =
      cluster.engine->RetrieveBatch(queries, options);
  ASSERT_FALSE(failed.ok());
  // The batch fails with the stopped shard's own status.
  StatusOr<std::vector<ScanCandidatesResult>> shard_alone =
      cluster.shards[1]->stub->ScanCandidatesBatch({Vector(3, 0.0)}, options);
  ASSERT_FALSE(shard_alone.ok());
  EXPECT_EQ(failed.status().code(), shard_alone.status().code());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);

  cluster.shards[1]->Restart();
  ExpectMatchesMono(mono, queries, options,
                    cluster.engine->RetrieveBatch(queries, options),
                    "after the restart");
}

TEST(ShardedRemoteScatterTest, UnreadAnswersNeverReturnToThePool) {
  RemoteCluster cluster;
  const ServedShard& shard = *cluster.shards[0];
  const std::vector<Vector> first = {Vector{0.1, 0.2, 0.3}};
  const std::vector<Vector> second = {Vector{-0.4, 0.5, 0.6},
                                      Vector{0.7, -0.8, 0.9}};
  RetrievalOptions options(kK, 40);
  StatusOr<std::vector<ScanCandidatesResult>> want_first =
      shard.engine->ScanCandidatesBatch(first, options);
  StatusOr<std::vector<ScanCandidatesResult>> want_second =
      shard.engine->ScanCandidatesBatch(second, options);
  ASSERT_TRUE(want_first.ok() && want_second.ok());

  // Two scans in flight on one stub, collected out of order: each
  // answer arrives on its own connection.
  PendingScan a = shard.stub->StartScanCandidatesBatch(first, options);
  PendingScan b = shard.stub->StartScanCandidatesBatch(second, options);
  StatusOr<std::vector<ScanCandidatesResult>> got_second = b.Wait();
  StatusOr<std::vector<ScanCandidatesResult>> got_first = a.Wait();
  ASSERT_TRUE(got_first.ok() && got_second.ok());
  ASSERT_EQ(got_first->size(), 1u);
  ASSERT_EQ(got_second->size(), 2u);
  EXPECT_EQ(got_first->front().candidates, want_first->front().candidates);
  EXPECT_EQ((*got_second)[1].candidates, (*want_second)[1].candidates);

  // A scan dropped unread closes its connection: had it been pooled,
  // the next call would read the dropped scan's answer.
  for (int round = 0; round < 3; ++round) {
    {
      PendingScan dropped =
          shard.stub->StartScanCandidatesBatch(first, options);
    }
    StatusOr<std::vector<ScanCandidatesResult>> next =
        shard.stub->ScanCandidatesBatch(second, options);
    ASSERT_TRUE(next.ok()) << next.status();
    ASSERT_EQ(next->size(), 2u);
    EXPECT_EQ((*next)[0].candidates, (*want_second)[0].candidates);
    EXPECT_EQ((*next)[1].candidates, (*want_second)[1].candidates);
  }
}

/// A loopback relay in front of a server that loses the first answer:
/// it reads the first connection's request and closes the connection
/// unanswered, then relays one request/answer over a second connection.
class LoseFirstAnswerRelay {
 public:
  explicit LoseFirstAnswerRelay(uint16_t target_port) {
    StatusOr<net::ServerSocket> listener =
        net::ServerSocket::Listen(0, Transport());
    QSE_CHECK(listener.ok());
    listener_ = std::move(listener).value();
    thread_ = std::thread([this, target_port] { Run(target_port); });
  }
  ~LoseFirstAnswerRelay() {
    listener_.Shutdown();
    thread_.join();
  }
  uint16_t port() const { return listener_.port(); }

 private:
  void Run(uint16_t target_port) {
    StatusOr<net::Socket> lost = listener_.Accept();
    if (!lost.ok() || !lost->RecvFrame().ok()) return;
    lost->Close();
    StatusOr<net::Socket> client = listener_.Accept();
    if (!client.ok()) return;
    StatusOr<std::string> request = client->RecvFrame();
    StatusOr<net::Socket> upstream =
        net::Socket::Connect("127.0.0.1", target_port, Transport());
    if (!request.ok() || !upstream.ok()) return;
    if (!upstream->SendFrame(*request).ok()) return;
    StatusOr<std::string> answer = upstream->RecvFrame();
    if (answer.ok()) (void)client->SendFrame(*answer);
  }

  net::ServerSocket listener_;
  std::thread thread_;
};

TEST(ShardedRemoteScatterTest, LostAnswerIsReaskedOnce) {
  RemoteCluster cluster;
  const ServedShard& shard = *cluster.shards[0];
  LoseFirstAnswerRelay relay(shard.server->port());
  net::RemoteRetrievalBackend stub(&U().model, "127.0.0.1", relay.port(),
                                   StubOptions());
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  obs::Counter* retries = registry.GetCounter("qse_remote_rpc_retries_total");
  obs::Counter* errors = registry.GetCounter("qse_remote_rpc_errors_total");
  const uint64_t retries_before = retries->Value();
  const uint64_t errors_before = errors->Value();

  const std::vector<Vector> batch = {Vector{0.1, 0.2, 0.3},
                                     Vector{-0.4, 0.5, 0.6}};
  RetrievalOptions options(kK, 40);
  StatusOr<std::vector<ScanCandidatesResult>> want =
      shard.engine->ScanCandidatesBatch(batch, options);
  PendingScan pending = stub.StartScanCandidatesBatch(batch, options);
  StatusOr<std::vector<ScanCandidatesResult>> got = pending.Wait();
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->size(), 2u);
  EXPECT_EQ((*got)[0].candidates, (*want)[0].candidates);
  EXPECT_EQ((*got)[1].candidates, (*want)[1].candidates);
  EXPECT_EQ(retries->Value() - retries_before, 1u);
  EXPECT_EQ(errors->Value() - errors_before, 0u);
}

TEST(ShardedRemoteScatterTest, SpentBudgetFailsTheBatch) {
  const std::vector<DxToDatabaseFn> queries = U().Queries(3);
  {
    // Spent before the send: no frame leaves.
    RemoteCluster cluster;
    RetrievalOptions expired(kK, 40);
    expired.num_threads = 1;
    expired.deadline = RetrievalClock::now() - std::chrono::milliseconds(1);
    StatusOr<std::vector<RetrievalResponse>> result =
        cluster.engine->RetrieveBatch(queries, expired);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  }
  // Spent while both servers drag their feet: the overlapped receive
  // notices and fails the batch.
  net::RetrievalServerOptions slow;
  slow.debug_delay_every_n = 1;
  slow.debug_delay = std::chrono::milliseconds(300);
  RemoteCluster cluster(nullptr, slow);
  RetrievalOptions tight(kK, 40);
  tight.num_threads = 1;
  tight.deadline = RetrievalOptions::DeadlineIn(std::chrono::milliseconds(50));
  StatusOr<std::vector<RetrievalResponse>> result =
      cluster.engine->RetrieveBatch(queries, tight);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace qse
