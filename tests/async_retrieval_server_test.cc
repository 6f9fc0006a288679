// Tests of the async serving front end: every admitted, non-expired
// request must come back bit-identical to a direct
// RetrievalBackend::Retrieve — over both engines, multiple worker counts
// and batch shapes, and randomized multi-threaded submit interleavings —
// and every rejected/shed/expired/cancelled request must surface the
// right status code.  Nothing is ever silently dropped.  Admission is
// strict-priority (high dequeues first, low sheds first) with per-tenant
// quotas, asserted deterministically below.
#include "src/server/async_retrieval_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "src/embedding/fastmap.h"
#include "src/retrieval/filter_refine.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/serving/sharded_retrieval_engine.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace qse {
namespace {

using namespace std::chrono_literals;

/// One workload shared by all server tests: plane points under L2,
/// FastMap-embedded, served monolithic and sharded.
struct ServingStack {
  ObjectOracle<Vector> oracle;
  std::vector<size_t> db_ids;
  std::vector<size_t> query_ids;
  FastMapModel model;
  L2Scorer scorer;
  EmbeddedDatabase db;
  RetrievalEngine mono;
  ShardedRetrievalEngine sharded;

  static FastMapModel BuildModel(const ObjectOracle<Vector>& oracle,
                                 const std::vector<size_t>& db_ids) {
    FastMapOptions options;
    options.dims = 3;
    return BuildFastMap(oracle, db_ids, options);
  }

  static ShardedEngineOptions ShardOptions() {
    ShardedEngineOptions options;
    options.num_shards = 3;
    return options;
  }

  explicit ServingStack(size_t n_db = 60, size_t n_query = 10,
                        uint64_t seed = 41)
      : oracle(test::MakePlaneOracle(n_db + n_query, seed)),
        db_ids(test::Iota(n_db)),
        query_ids(test::Iota(n_query, n_db)),
        model(BuildModel(oracle, db_ids)),
        db(EmbedDatabase(model, oracle, db_ids)),
        mono(&model, &scorer, &db, db_ids),
        sharded(&model, &scorer, db, db_ids, ShardOptions()) {}

  DxToDatabaseFn QueryDx(size_t query_id) const {
    return [this, query_id](size_t id) {
      return oracle.Distance(query_id, id);
    };
  }
};

void ExpectSameResult(const RetrievalResponse& want,
                      const RetrievalResponse& got,
                      const std::string& context) {
  EXPECT_EQ(want.exact_distances, got.exact_distances) << context;
  EXPECT_EQ(want.embedding_distances, got.embedding_distances) << context;
  ASSERT_EQ(want.neighbors.size(), got.neighbors.size()) << context;
  for (size_t i = 0; i < want.neighbors.size(); ++i) {
    EXPECT_EQ(want.neighbors[i].index, got.neighbors[i].index)
        << context << " i=" << i;
    EXPECT_EQ(want.neighbors[i].score, got.neighbors[i].score)
        << context << " i=" << i;
  }
}

/// A dx wrapper that blocks inside the backend until released — pins a
/// worker deterministically so queueing behavior can be observed.
struct WorkerGate {
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  std::atomic<size_t> entered{0};

  DxToDatabaseFn Gated(DxToDatabaseFn inner) {
    return [this, inner](size_t id) {
      if (entered.fetch_add(1) == 0) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [this] { return released; });
      }
      return inner(id);
    };
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
  }
};

/// Pins the single worker with a gated request and then stuffs the
/// batcher + dispatch pipeline with `plugs` sacrificial requests, so
/// every subsequent Submit stays in the admission queue until the gate
/// releases.  Requires max_batch = 1 and num_workers = 1.  Waits until
/// the admission queue is observably empty again.
struct PinnedPipeline {
  WorkerGate gate;
  Future<StatusOr<RetrievalResponse>> gated;
  std::vector<Future<StatusOr<RetrievalResponse>>> plugs;

  PinnedPipeline(AsyncRetrievalServer* server, const ServingStack& s,
                 RetrievalOptions options, size_t num_plugs = 2) {
    gated = server->Submit({gate.Gated(s.QueryDx(s.query_ids[0])), options});
    while (gate.entered.load() == 0) std::this_thread::sleep_for(1ms);
    for (size_t i = 0; i < num_plugs; ++i) {
      plugs.push_back(server->Submit({s.QueryDx(s.query_ids[1]), options}));
    }
    // The batcher parks one plug in the dispatch queue and holds the
    // other in hand, blocked; wait until the admission queue drains so
    // later submits deterministically queue behind the pinned pipeline.
    while (server->stats().queue_depth > 0) std::this_thread::sleep_for(1ms);
  }
};

// --- The tentpole guarantee: bit-identical to direct Retrieve ----------

TEST(AsyncServerParityTest, RandomizedInterleavingsOverBothEngines) {
  ServingStack s;
  const size_t k = 3;
  struct Backend {
    const char* name;
    const RetrievalBackend* backend;
  };
  const Backend backends[] = {{"mono", &s.mono}, {"sharded", &s.sharded}};

  for (const Backend& b : backends) {
    for (size_t num_workers : {1u, 2u, 4u}) {
      for (size_t max_batch : {1u, 8u}) {
        AsyncServerOptions options;
        options.num_workers = num_workers;
        options.max_batch = max_batch;
        options.retrieve_threads = 1;
        options.queue_capacity = 256;
        AsyncRetrievalServer server(b.backend, options);

        // 3 submitter threads, each submitting every query at a shuffled
        // (query, p) order with jittered pacing and a rotating priority:
        // the admission queue sees a different interleaving every
        // config, and lanes must not change any result.
        struct Expectation {
          size_t query_id;
          size_t p;
          Future<StatusOr<RetrievalResponse>> future;
        };
        std::mutex mu;
        std::vector<Expectation> pending;
        std::vector<std::thread> submitters;
        for (size_t t = 0; t < 3; ++t) {
          submitters.emplace_back([&, t] {
            Rng rng(1000 * num_workers + 100 * max_batch + t);
            std::vector<std::pair<size_t, size_t>> work;
            for (size_t query_id : s.query_ids) {
              for (size_t p : {size_t{1}, size_t{7}, s.db_ids.size()}) {
                work.emplace_back(query_id, p);
              }
            }
            for (size_t i = work.size(); i > 1; --i) {
              std::swap(work[i - 1], work[rng.UniformInt(0, i - 1)]);
            }
            size_t seq = 0;
            for (const auto& [query_id, p] : work) {
              RetrievalOptions ro(k, p);
              ro.priority = static_cast<RequestPriority>(seq++ % 3);
              auto future = server.Submit({s.QueryDx(query_id), ro});
              {
                std::lock_guard<std::mutex> lock(mu);
                pending.push_back({query_id, p, std::move(future)});
              }
              if (rng.UniformInt(0, 3) == 0) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(rng.UniformInt(0, 200)));
              }
            }
          });
        }
        for (auto& t : submitters) t.join();
        server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);

        for (const Expectation& e : pending) {
          auto want = b.backend->Retrieve(
              {s.QueryDx(e.query_id), RetrievalOptions(k, e.p)});
          ASSERT_TRUE(want.ok());
          const StatusOr<RetrievalResponse>& got = e.future.Get();
          ASSERT_TRUE(got.ok()) << got.status();
          ExpectSameResult(*want, *got,
                           std::string(b.name) +
                               " workers=" + std::to_string(num_workers) +
                               " max_batch=" + std::to_string(max_batch) +
                               " q=" + std::to_string(e.query_id) +
                               " p=" + std::to_string(e.p));
        }
        ServerStats stats = server.stats();
        EXPECT_EQ(stats.submitted, pending.size());
        EXPECT_EQ(stats.admitted, pending.size());
        EXPECT_EQ(stats.completed, pending.size());
        EXPECT_EQ(stats.rejected, 0u);
        EXPECT_EQ(stats.shed, 0u);
        EXPECT_EQ(stats.expired, 0u);
        EXPECT_EQ(stats.cancelled, 0u);
        size_t lane_submitted = 0, lane_completed = 0;
        for (const LaneStats& lane : stats.lanes) {
          lane_submitted += lane.submitted;
          lane_completed += lane.completed;
        }
        EXPECT_EQ(lane_submitted, pending.size());
        EXPECT_EQ(lane_completed, pending.size());
      }
    }
  }
}

TEST(AsyncServerParityTest, BlockingRetrieveMatchesBackend) {
  ServingStack s;
  AsyncRetrievalServer server(&s.mono);
  auto want =
      s.mono.Retrieve({s.QueryDx(s.query_ids[0]), RetrievalOptions(2, 10)});
  auto got =
      server.Retrieve({s.QueryDx(s.query_ids[0]), RetrievalOptions(2, 10)});
  ASSERT_TRUE(want.ok() && got.ok());
  ExpectSameResult(*want, *got, "blocking");
}

TEST(AsyncServerParityTest, MixedOptionsInOneBurstStayExact) {
  // Requests with different (k, p, want_stats) coalesce into the same
  // micro-batch but must execute as separate backend groups; priority
  // and deadline do not split groups (they don't change results).
  ServingStack s;
  AsyncServerOptions options;
  options.max_batch = 16;
  options.max_batch_delay = 20ms;  // Force coalescing of the whole burst.
  AsyncRetrievalServer server(&s.sharded, options);
  struct Case {
    size_t query_id;
    RetrievalOptions ro;
    Future<StatusOr<RetrievalResponse>> future;
  };
  std::vector<Case> cases;
  size_t i = 0;
  for (size_t query_id : s.query_ids) {
    RetrievalOptions ro(1 + i % 3, 5 + 7 * (i % 2));
    ro.want_stats = i % 4 == 0;
    ro.priority = static_cast<RequestPriority>(i % 3);
    ro.deadline = RetrievalOptions::DeadlineIn(10s);
    cases.push_back({query_id, ro, server.Submit({s.QueryDx(query_id), ro})});
    ++i;
  }
  for (Case& c : cases) {
    auto want = s.sharded.Retrieve({s.QueryDx(c.query_id), c.ro});
    ASSERT_TRUE(want.ok());
    const auto& got = c.future.Get();
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectSameResult(*want, *got, "mixed q=" + std::to_string(c.query_id));
    ASSERT_EQ(got->shard_stats.size(), want->shard_stats.size());
    for (size_t sh = 0; sh < got->shard_stats.size(); ++sh) {
      EXPECT_EQ(got->shard_stats[sh].rows, want->shard_stats[sh].rows);
      EXPECT_EQ(got->shard_stats[sh].candidates,
                want->shard_stats[sh].candidates);
    }
    if (c.ro.want_stats) {
      EXPECT_EQ(got->shard_stats.size(), s.sharded.num_shards());
    } else {
      EXPECT_TRUE(got->shard_stats.empty());
    }
  }
}

// --- Admission control --------------------------------------------------

TEST(AsyncServerTest, OverflowRejectsWithResourceExhausted) {
  ServingStack s;
  AsyncServerOptions options;
  options.queue_capacity = 2;
  options.max_batch = 1;
  options.num_workers = 1;
  AsyncRetrievalServer server(&s.mono, options);

  WorkerGate gate;
  RetrievalOptions ro(1, 5);
  // First request pins the single worker inside the backend; the pipeline
  // (batcher + dispatch slot) and then the 2-slot admission queue fill up
  // behind it.  Same-priority traffic cannot shed itself, so overflow
  // refuses the incoming request.
  auto gated =
      server.Submit({gate.Gated(s.QueryDx(s.query_ids[0])), ro});
  std::vector<Future<StatusOr<RetrievalResponse>>> rest;
  const size_t kExtra = 12;
  for (size_t i = 0; i < kExtra; ++i) {
    rest.push_back(server.Submit({s.QueryDx(s.query_ids[1]), ro}));
    std::this_thread::sleep_for(2ms);  // Let the batcher drain what it can.
  }
  size_t rejected = 0;
  for (const auto& f : rest) {
    if (f.ready() && !f.Get().ok()) {
      EXPECT_EQ(f.Get().status().code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u) << "a 2-slot queue must shed a 12-request burst";
  EXPECT_EQ(server.stats().rejected, rejected);

  gate.Release();
  server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
  // Everyone admitted completed fine; everyone rejected saw the status.
  ASSERT_TRUE(gated.Get().ok());
  auto want =
      s.mono.Retrieve({s.QueryDx(s.query_ids[1]), RetrievalOptions(1, 5)});
  ASSERT_TRUE(want.ok());
  for (const auto& f : rest) {
    const auto& got = f.Get();
    if (got.ok()) {
      ExpectSameResult(*want, *got, "admitted after overflow");
    } else {
      EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
    }
  }
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, stats.admitted + stats.rejected);
  EXPECT_EQ(stats.admitted, stats.completed);
  EXPECT_EQ(stats.shed, 0u);  // Same-priority overflow never evicts.
}

// --- Priority lanes -----------------------------------------------------

TEST(AsyncServerPriorityTest, HighLaneDequeuesFirst) {
  ServingStack s;
  AsyncServerOptions options;
  options.queue_capacity = 64;
  options.max_batch = 1;  // One request per batch: pop order observable.
  options.num_workers = 1;
  AsyncRetrievalServer server(&s.mono, options);
  RetrievalOptions base(1, 5);
  PinnedPipeline pinned(&server, s, base);

  // With the pipeline pinned, queue a mixed burst: low first so FIFO
  // order alone would serve it first, then high, then normal.
  std::mutex mu;
  std::vector<size_t> completion_lanes;
  auto tracked = [&](RequestPriority priority) {
    RetrievalOptions ro = base;
    ro.priority = priority;
    server.Submit({s.QueryDx(s.query_ids[2]), ro})
        .OnReady([&mu, &completion_lanes,
                  priority](const StatusOr<RetrievalResponse>& r) {
          ASSERT_TRUE(r.ok()) << r.status();
          std::lock_guard<std::mutex> lock(mu);
          completion_lanes.push_back(static_cast<size_t>(priority));
        });
  };
  for (size_t i = 0; i < 6; ++i) tracked(RequestPriority::kLow);
  for (size_t i = 0; i < 4; ++i) tracked(RequestPriority::kHigh);
  for (size_t i = 0; i < 2; ++i) tracked(RequestPriority::kNormal);

  pinned.gate.Release();
  server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);

  // Strict priority: every high completes before every normal, every
  // normal before every low — despite the lows being submitted first.
  std::vector<size_t> expected = {0, 0, 0, 0, 1, 1, 2, 2, 2, 2, 2, 2};
  EXPECT_EQ(completion_lanes, expected);
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.lanes[0].completed, 4u);
  EXPECT_EQ(stats.lanes[1].completed, 2u + 3u);  // + gated and plugs.
  EXPECT_EQ(stats.lanes[2].completed, 6u);
  EXPECT_EQ(stats.shed, 0u);
}

TEST(AsyncServerPriorityTest, OverflowShedsLowestLaneFirst) {
  ServingStack s;
  AsyncServerOptions options;
  options.queue_capacity = 4;
  options.max_batch = 1;
  options.num_workers = 1;
  AsyncRetrievalServer server(&s.mono, options);
  RetrievalOptions base(1, 5);
  PinnedPipeline pinned(&server, s, base);

  RetrievalOptions low = base;
  low.priority = RequestPriority::kLow;
  RetrievalOptions high = base;
  high.priority = RequestPriority::kHigh;

  // Fill the 4-slot queue with low-priority work.
  std::vector<Future<StatusOr<RetrievalResponse>>> lows;
  for (size_t i = 0; i < 4; ++i) {
    lows.push_back(server.Submit({s.QueryDx(s.query_ids[2]), low}));
  }
  for (const auto& f : lows) EXPECT_FALSE(f.ready());

  // High arrivals evict lows youngest-first — the victim is always the
  // most recent admission, the one with the least queueing sunk into it.
  // One high at a time pins the order: the first sheds lows[3] and only
  // lows[3]; the second sheds lows[2].
  std::vector<Future<StatusOr<RetrievalResponse>>> highs;
  highs.push_back(server.Submit({s.QueryDx(s.query_ids[3]), high}));
  ASSERT_TRUE(lows[3].ready());
  EXPECT_FALSE(lows[2].ready());
  highs.push_back(server.Submit({s.QueryDx(s.query_ids[3]), high}));
  ASSERT_TRUE(lows[2].ready());
  EXPECT_EQ(lows[3].Get().status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(lows[3].Get().status().message().find("shed"),
            std::string::npos);
  EXPECT_FALSE(lows[0].ready());
  EXPECT_FALSE(lows[1].ready());

  // Two more highs evict the remaining lows; a fifth finds nothing
  // below it and is refused itself (a different message: not shed).
  for (size_t i = 0; i < 2; ++i) {
    highs.push_back(server.Submit({s.QueryDx(s.query_ids[3]), high}));
  }
  auto refused = server.Submit({s.QueryDx(s.query_ids[3]), high});
  ASSERT_TRUE(refused.ready());
  EXPECT_EQ(refused.Get().status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(refused.Get().status().message().find("queue full"),
            std::string::npos);

  ServerStats mid = server.stats();
  EXPECT_EQ(mid.shed, 4u);
  EXPECT_EQ(mid.lanes[2].shed, 4u);
  EXPECT_EQ(mid.lanes[0].shed, 0u);
  EXPECT_EQ(mid.rejected, 1u);

  pinned.gate.Release();
  server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
  for (const auto& f : highs) EXPECT_TRUE(f.Get().ok());
  ServerStats stats = server.stats();
  EXPECT_TRUE(CheckServerStatsInvariant(stats));
  EXPECT_EQ(stats.lanes[0].queue_depth, 0u);
}

// --- Tenant quotas ------------------------------------------------------

TEST(AsyncServerTenantTest, OverQuotaTenantRejectedWhileOthersAdmit) {
  ServingStack s;
  AsyncServerOptions options;
  options.queue_capacity = 16;
  options.max_batch = 1;
  options.num_workers = 1;
  options.tenant_quotas = {{"alpha", 0.5}, {"beta", 0.125}};
  AsyncRetrievalServer server(&s.mono, options);
  RetrievalOptions alpha(1, 5);
  alpha.tenant_id = "alpha";
  PinnedPipeline pinned(&server, s, alpha);

  RetrievalOptions beta(1, 5);
  beta.tenant_id = "beta";
  // beta's share: floor(0.125 * 16) = 2 queue slots.
  std::vector<Future<StatusOr<RetrievalResponse>>> betas;
  for (size_t i = 0; i < 4; ++i) {
    betas.push_back(server.Submit({s.QueryDx(s.query_ids[2]), beta}));
  }
  EXPECT_FALSE(betas[0].ready());
  EXPECT_FALSE(betas[1].ready());
  for (size_t i : {2u, 3u}) {
    ASSERT_TRUE(betas[i].ready()) << i;
    EXPECT_EQ(betas[i].Get().status().code(),
              StatusCode::kResourceExhausted);
    EXPECT_NE(betas[i].Get().status().message().find("quota"),
              std::string::npos);
  }

  // alpha (and the quota-free queue) still admits while beta is capped.
  std::vector<Future<StatusOr<RetrievalResponse>>> alphas;
  for (size_t i = 0; i < 3; ++i) {
    alphas.push_back(server.Submit({s.QueryDx(s.query_ids[3]), alpha}));
  }
  for (const auto& f : alphas) EXPECT_FALSE(f.ready());

  ServerStats mid = server.stats();
  ASSERT_EQ(mid.tenants.size(), 2u);
  EXPECT_EQ(mid.tenants[0].tenant_id, "alpha");
  EXPECT_EQ(mid.tenants[1].tenant_id, "beta");
  EXPECT_EQ(mid.tenants[1].limit, 2u);
  EXPECT_EQ(mid.tenants[1].admitted, 2u);
  EXPECT_EQ(mid.tenants[1].rejected, 2u);
  EXPECT_EQ(mid.tenants[0].rejected, 0u);

  pinned.gate.Release();
  server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
  for (const auto& f : alphas) EXPECT_TRUE(f.Get().ok());
  EXPECT_TRUE(betas[0].Get().ok());
  EXPECT_TRUE(betas[1].Get().ok());
}

TEST(AsyncServerTenantTest, QuotaFreesAsTenantWorkDrains) {
  // A tenant refused at its cap admits again once its queued work is
  // served: the quota caps occupancy, not lifetime request count.
  ServingStack s;
  AsyncServerOptions options;
  options.queue_capacity = 8;
  options.tenant_quotas = {{"solo", 0.125}};  // 1 slot.
  AsyncRetrievalServer server(&s.mono, options);
  RetrievalOptions solo(1, 5);
  solo.tenant_id = "solo";
  for (size_t round = 0; round < 3; ++round) {
    auto r = server.Retrieve({s.QueryDx(s.query_ids[round]), solo});
    ASSERT_TRUE(r.ok()) << "round " << round << ": " << r.status();
  }
  ServerStats stats = server.stats();
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].admitted, 3u);
  EXPECT_EQ(stats.tenants[0].rejected, 0u);
}

// --- Deadlines ----------------------------------------------------------

TEST(AsyncServerTest, ExpiredInQueueGetsDeadlineExceededAtDequeue) {
  ServingStack s;
  AsyncRetrievalServer server(&s.mono);
  RetrievalOptions ro(1, 5);
  ro.deadline = RetrievalClock::now() - 1ms;  // Already dead on arrival.
  auto f = server.Submit({s.QueryDx(s.query_ids[0]), ro});
  const auto& got = f.Get();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(got.status().message().find("admission queue"),
            std::string::npos);
  server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
  EXPECT_EQ(server.stats().expired, 1u);
  EXPECT_EQ(server.stats().lanes[1].expired, 1u);  // kNormal lane.
  EXPECT_EQ(server.stats().completed, 0u);
}

TEST(AsyncServerTest, ExpiredInDispatchGetsDeadlineExceededBeforeRefine) {
  // Deadlines read MonotonicClock, so a fake clock expires the request
  // by decree instead of a 450ms real sleep: the worker stays pinned,
  // virtual time jumps past the deadline, and the pre-refine check
  // fires no matter how slow or fast the host is.  max_batch_delay is 0
  // here — the batcher never waits on real time — so faking the clock
  // cannot stall the pipeline.
  ScopedFakeClock fake;
  ServingStack s;
  AsyncServerOptions options;
  options.max_batch = 1;
  options.num_workers = 1;
  options.queue_capacity = 16;
  AsyncRetrievalServer server(&s.mono, options);

  WorkerGate gate;
  RetrievalOptions slow(1, 5);
  auto gated = server.Submit({gate.Gated(s.QueryDx(s.query_ids[0])), slow});
  // Wait until the worker is actually inside the backend, so the next
  // request is dequeued immediately and then waits in the dispatch
  // pipeline behind the pinned worker.
  while (gate.entered.load() == 0) std::this_thread::sleep_for(1ms);

  RetrievalOptions tight(1, 5);
  tight.deadline = RetrievalClock::now() + 200ms;
  RetrievalRequest doomed_req{s.QueryDx(s.query_ids[1]), tight};
#ifndef QSE_DISABLE_TRACING
  // A pre-attached trace makes the pipeline position observable: the
  // batcher stamps "batch_form" only after the dequeue-time deadline
  // check passed, so waiting for that span leaves no race between the
  // dequeue check and the clock advance below.
  auto trace = std::make_shared<obs::RequestTrace>();
  doomed_req.trace = trace;
#endif
  auto doomed = server.Submit(std::move(doomed_req));
#ifndef QSE_DISABLE_TRACING
  auto past_dequeue_check = [&] {
    for (const obs::TraceSpan& span : trace->spans()) {
      if (std::string(span.name) == "batch_form") return true;
    }
    return false;
  };
  while (!past_dequeue_check()) std::this_thread::sleep_for(1ms);
#else
  // Tracing compiled out: wait for the admission queue to drain, then
  // give the batcher a real-time moment to run the dequeue check it
  // performs right after popping.
  while (server.stats().queue_depth != 0) std::this_thread::sleep_for(1ms);
  std::this_thread::sleep_for(50ms);
#endif
  fake.clock().Advance(400ms);  // Deadline passes while pipelined.
  gate.Release();

  const auto& got = doomed.Get();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(got.status().message().find("refine"), std::string::npos);
  ASSERT_TRUE(gated.Get().ok());
  server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
  EXPECT_EQ(server.stats().expired, 1u);
}

// --- Adaptive micro-batching -------------------------------------------

TEST(AsyncServerTest, BatchingWindowCoalescesABurst) {
  ServingStack s;
  AsyncServerOptions options;
  options.max_batch = 5;
  // Wide window for slow hosts: dispatch happens the moment the 5th
  // request lands (max_batch reached), so the window's length only has
  // to cover the submission loop, not add latency.
  options.max_batch_delay = 250ms;
  AsyncRetrievalServer server(&s.mono, options);
  RetrievalOptions ro(1, 5);
  std::vector<Future<StatusOr<RetrievalResponse>>> futures;
  for (size_t i = 0; i < 5; ++i) {
    futures.push_back(server.Submit({s.QueryDx(s.query_ids[i]), ro}));
  }
  for (const auto& f : futures) EXPECT_TRUE(f.Get().ok());
  server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
  // All five submitted within the window and max_batch == 5: exactly one
  // dispatched batch, of size 5.
  ServerStats stats = server.stats();
  ASSERT_EQ(stats.batch_size_histogram.size(), 5u);
  EXPECT_EQ(stats.batch_size_histogram[4], 1u);
  for (size_t i = 0; i + 1 < 5; ++i) {
    EXPECT_EQ(stats.batch_size_histogram[i], 0u) << i;
  }
}

TEST(AsyncServerTest, GreedyBatchingGrowsUnderBacklogOnly) {
  // With no window, an idle server dispatches singletons; a backlog
  // behind a pinned worker coalesces.
  ServingStack s;
  AsyncServerOptions options;
  options.max_batch = 16;
  options.num_workers = 1;
  options.queue_capacity = 64;
  AsyncRetrievalServer server(&s.mono, options);

  RetrievalOptions ro(1, 5);
  // Idle phase: one at a time, waiting each out.
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        server.Retrieve({s.QueryDx(s.query_ids[0]), RetrievalOptions(1, 5)})
            .ok());
  }
  ServerStats idle = server.stats();
  EXPECT_EQ(idle.batch_size_histogram[0], 3u) << "idle => singleton batches";

  // Backlog phase: pin the worker, pile up a burst, release.
  WorkerGate gate;
  auto gated = server.Submit({gate.Gated(s.QueryDx(s.query_ids[0])), ro});
  while (gate.entered.load() == 0) std::this_thread::sleep_for(1ms);
  std::vector<Future<StatusOr<RetrievalResponse>>> burst;
  for (size_t i = 0; i < 12; ++i) {
    burst.push_back(server.Submit({s.QueryDx(s.query_ids[1]), ro}));
  }
  std::this_thread::sleep_for(20ms);  // Burst settles behind the worker.
  gate.Release();
  for (const auto& f : burst) EXPECT_TRUE(f.Get().ok());
  ASSERT_TRUE(gated.Get().ok());
  server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);

  ServerStats stats = server.stats();
  size_t multi = 0;
  for (size_t i = 1; i < stats.batch_size_histogram.size(); ++i) {
    multi += stats.batch_size_histogram[i];
  }
  EXPECT_GT(multi, 0u) << "backlog must produce at least one multi-batch";
  size_t weighted = 0;
  for (size_t i = 0; i < stats.batch_size_histogram.size(); ++i) {
    weighted += (i + 1) * stats.batch_size_histogram[i];
  }
  EXPECT_EQ(weighted, stats.completed);
}

// --- Shutdown -----------------------------------------------------------

TEST(AsyncServerTest, DrainCompletesEverythingThenRejectsNewWork) {
  ServingStack s;
  AsyncServerOptions options;
  options.max_batch = 4;
  AsyncRetrievalServer server(&s.mono, options);
  RetrievalOptions ro(2, 10);
  std::vector<Future<StatusOr<RetrievalResponse>>> futures;
  for (size_t query_id : s.query_ids) {
    futures.push_back(server.Submit({s.QueryDx(query_id), ro}));
  }
  server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
  for (const auto& f : futures) {
    ASSERT_TRUE(f.ready()) << "Shutdown must resolve every future";
    EXPECT_TRUE(f.Get().ok());
  }
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, futures.size());
  EXPECT_EQ(stats.queue_depth, 0u);

  auto late = server.Submit({s.QueryDx(s.query_ids[0]), ro});
  ASSERT_TRUE(late.ready());
  EXPECT_EQ(late.Get().status().code(), StatusCode::kFailedPrecondition);
}

TEST(AsyncServerTest, CancelAnswersQueuedWorkWithoutExecutingIt) {
  ServingStack s;
  AsyncServerOptions options;
  options.max_batch = 1;
  options.num_workers = 1;
  options.queue_capacity = 32;
  AsyncRetrievalServer server(&s.mono, options);

  WorkerGate gate;
  RetrievalOptions ro(1, 5);
  auto in_flight = server.Submit({gate.Gated(s.QueryDx(s.query_ids[0])), ro});
  while (gate.entered.load() == 0) std::this_thread::sleep_for(1ms);
  std::vector<Future<StatusOr<RetrievalResponse>>> queued;
  for (size_t i = 0; i < 8; ++i) {
    queued.push_back(server.Submit({s.QueryDx(s.query_ids[1]), ro}));
  }

  std::thread shutdown(
      [&] { server.Shutdown(AsyncRetrievalServer::DrainMode::kCancel); });
  std::this_thread::sleep_for(20ms);
  gate.Release();  // Unpin the worker so Shutdown can join.
  shutdown.join();

  // The in-flight request finished normally; everything queued behind it
  // was answered with the shutdown status, deterministically.
  EXPECT_TRUE(in_flight.Get().ok());
  for (const auto& f : queued) {
    ASSERT_TRUE(f.ready());
    EXPECT_EQ(f.Get().status().code(), StatusCode::kFailedPrecondition);
  }
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.cancelled, queued.size());
  EXPECT_EQ(stats.completed, 1u);
  // The lane breakdown sees the cancellations too (all traffic kNormal).
  EXPECT_EQ(stats.lanes[1].cancelled, queued.size());
  EXPECT_EQ(stats.lanes[1].completed, 1u);
  EXPECT_TRUE(CheckServerStatsInvariant(stats));
}

TEST(AsyncServerTest, DestructorDrains) {
  ServingStack s;
  Future<StatusOr<RetrievalResponse>> future;
  {
    AsyncRetrievalServer server(&s.mono);
    future =
        server.Submit({s.QueryDx(s.query_ids[0]), RetrievalOptions(1, 5)});
  }
  ASSERT_TRUE(future.ready());
  EXPECT_TRUE(future.Get().ok());
}

// --- Error propagation and stats ---------------------------------------

TEST(AsyncServerTest, BackendErrorsPropagateAsCompleted) {
  // An empty backend fails FailedPrecondition inside RetrieveBatch; the
  // server delivers that status and counts the request as completed (the
  // backend answered — it is not an admission failure).
  ServingStack s;
  ShardedEngineOptions shard_options;
  shard_options.num_shards = 2;
  ShardedRetrievalEngine empty(&s.model, &s.scorer, shard_options);
  AsyncRetrievalServer server(&empty);
  auto got =
      server.Retrieve({s.QueryDx(s.query_ids[0]), RetrievalOptions(1, 5)});
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
  server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
  EXPECT_EQ(server.stats().completed, 1u);
}

TEST(AsyncServerTest, StatsInvariantsHoldAfterMixedTraffic) {
  ServingStack s;
  AsyncServerOptions options;
  options.queue_capacity = 16;  // Roomy: only the invalid submit rejects.
  options.max_batch = 2;
  AsyncRetrievalServer server(&s.mono, options);
  RetrievalOptions ok(1, 5);
  RetrievalOptions dead = ok;
  dead.deadline = RetrievalClock::now() - 1ms;
  RetrievalOptions invalid(0, 5);

  std::vector<Future<StatusOr<RetrievalResponse>>> futures;
  for (size_t i = 0; i < 6; ++i) {
    futures.push_back(server.Submit(
        {s.QueryDx(s.query_ids[i % 4]), i % 3 == 2 ? dead : ok}));
  }
  futures.push_back(server.Submit({s.QueryDx(s.query_ids[0]), invalid}));
  for (const auto& f : futures) f.Wait();
  server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, futures.size());
  EXPECT_TRUE(CheckServerStatsInvariant(stats));
  EXPECT_EQ(stats.rejected, 1u);   // The invalid submit.
  EXPECT_EQ(stats.expired, 2u);    // i = 2 and i = 5.
  EXPECT_EQ(stats.queue_depth, 0u);
  // The lane breakdown tiles the global counters (all traffic kNormal).
  EXPECT_EQ(stats.lanes[1].submitted, futures.size() - 1);
  EXPECT_EQ(stats.lanes[1].expired, 2u);
  EXPECT_EQ(stats.lanes[1].completed, stats.completed);
  EXPECT_EQ(stats.lanes[0].submitted, 0u);
  EXPECT_EQ(stats.lanes[2].submitted, 0u);
}

}  // namespace
}  // namespace qse
