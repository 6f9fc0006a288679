// Tests for the background quality monitor: Page-Hinkley drift detector
// behavior (stationary / abrupt / gradual / hysteresis clear / recurrent
// re-alarm), exact audit math at p = n, queue shedding under a stalled
// worker, engine and server integration, end-to-end drift detection on a
// drifting oracle, and audits racing concurrent mutation (TSan target).
#include "src/obs/quality_monitor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "bench/drift_scenarios.h"
#include "src/data/drift_generator.h"
#include "src/embedding/fastmap.h"
#include "src/net/hedged_backend.h"
#include "src/retrieval/filter_refine.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/server/async_retrieval_server.h"
#include "src/serving/sharded_retrieval_engine.h"
#include "tests/test_util.h"

namespace qse {
namespace obs {
namespace {

// --- PageHinkleyDetector ------------------------------------------------

TEST(PageHinkleyTest, StationarySignalNeverAlarms) {
  PageHinkleyDetector detector;
  // Deterministic small oscillation around 0.9: the delta tolerance must
  // absorb it indefinitely.
  for (int i = 0; i < 2000; ++i) {
    detector.Update(0.9 + (i % 2 == 0 ? 0.005 : -0.005));
    ASSERT_FALSE(detector.alarmed()) << "sample " << i;
  }
}

TEST(PageHinkleyTest, NotArmedBeforeMinSamples) {
  PageHinkleyOptions options;
  options.min_samples = 16;
  PageHinkleyDetector detector(options);
  // A catastrophic drop right away: the cumulative gap blows past lambda
  // immediately, but the test must stay unarmed until min_samples.
  for (int i = 0; i < 8; ++i) detector.Update(1.0);
  for (int i = 8; i < 15; ++i) {
    detector.Update(0.0);
    EXPECT_FALSE(detector.alarmed()) << "sample " << i;
  }
  detector.Update(0.0);  // 16th sample: armed, and the gap is huge.
  EXPECT_TRUE(detector.alarmed());
}

TEST(PageHinkleyTest, AbruptDropAlarmsWithinExpectedLatency) {
  PageHinkleyDetector detector;  // delta 0.01, lambda 1.0
  for (int i = 0; i < 64; ++i) {
    detector.Update(0.95);
    ASSERT_FALSE(detector.alarmed());
  }
  // Drop of ~0.4: lambda / drop ~ 3 samples.  Update must return true
  // exactly once, on the raising sample.
  int state_changes = 0;
  int samples_to_alarm = 0;
  for (int i = 0; i < 10 && !detector.alarmed(); ++i) {
    if (detector.Update(0.55)) ++state_changes;
    ++samples_to_alarm;
  }
  EXPECT_TRUE(detector.alarmed());
  EXPECT_EQ(state_changes, 1);
  EXPECT_LE(samples_to_alarm, 5);
}

TEST(PageHinkleyTest, GradualRampAlarmsBeforeBottomingOut) {
  PageHinkleyDetector detector;
  for (int i = 0; i < 64; ++i) detector.Update(0.9);
  // 0.9 -> 0.5 over 200 steps (0.002/step): slower than abrupt but the
  // deficit still accumulates past lambda well before the ramp ends.
  bool alarmed_mid_ramp = false;
  for (int i = 0; i < 200; ++i) {
    detector.Update(0.9 - 0.002 * (i + 1));
    if (detector.alarmed()) {
      alarmed_mid_ramp = true;
      break;
    }
  }
  EXPECT_TRUE(alarmed_mid_ramp);
}

TEST(PageHinkleyTest, ClearsAfterStabilizingAndRealarmsOnNextShift) {
  PageHinkleyOptions options;
  options.clear_after = 32;
  options.mean_window = 32;
  PageHinkleyDetector detector(options);
  for (int i = 0; i < 64; ++i) detector.Update(0.95);
  while (!detector.alarmed()) detector.Update(0.55);

  // The signal stabilizes at the new level: the running mean re-converges
  // (time constant mean_window) and clear_after healthy samples clear the
  // alarm, re-baselining the detector.
  bool cleared = false;
  for (int i = 0; i < 300 && !cleared; ++i) {
    if (detector.Update(0.55) && !detector.alarmed()) cleared = true;
  }
  ASSERT_TRUE(cleared);
  EXPECT_EQ(detector.samples(), 0u);  // fully re-baselined

  // Recurrent drift: a second shift below the NEW baseline must alarm
  // again — the detector compares against 0.55 now, not 0.95.
  for (int i = 0; i < 64; ++i) {
    detector.Update(0.55);
    ASSERT_FALSE(detector.alarmed());
  }
  for (int i = 0; i < 20 && !detector.alarmed(); ++i) detector.Update(0.15);
  EXPECT_TRUE(detector.alarmed());
}

// --- QualityMonitor audit math ------------------------------------------

struct MonitorStack {
  ObjectOracle<Vector> oracle;
  std::vector<size_t> db_ids;
  FastMapModel model;
  L2Scorer scorer;
  EmbeddedDatabase db;
  std::unique_ptr<RetrievalEngine> mono;
  std::unique_ptr<ShardedRetrievalEngine> sharded;

  MonitorStack(size_t n, size_t num_queries, size_t dims, uint64_t seed)
      : oracle(test::MakePlaneOracle(n + num_queries, seed)),
        db_ids(test::Iota(n)),
        model([&] {
          FastMapOptions options;
          options.dims = dims;
          options.seed = seed + 1;
          return BuildFastMap(oracle, db_ids, options);
        }()),
        db(EmbedDatabase(model, oracle, db_ids)) {
    mono = std::make_unique<RetrievalEngine>(&model, &scorer, &db, db_ids);
    ShardedEngineOptions options;
    options.num_shards = 3;
    sharded = std::make_unique<ShardedRetrievalEngine>(&model, &scorer, db,
                                                       db_ids, options);
  }

  DxToDatabaseFn Query(size_t q) {
    return [this, q](size_t id) { return oracle.Distance(q, id); };
  }
};

TEST(QualityMonitorTest, ShouldSampleHonorsCadence) {
  MetricRegistry registry;
  QualityMonitorOptions options;
  options.sample_every_n = 4;
  options.registry = &registry;
  QualityMonitor monitor(options);
  std::vector<bool> decisions;
  for (int i = 0; i < 12; ++i) decisions.push_back(monitor.ShouldSample());
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(decisions[i], i % 4 == 0) << "tick " << i;
  }
}

TEST(QualityMonitorTest, ExactServingAuditsPerfectlyAtPEqualsN) {
  // p = n degenerates filter-and-refine to exact brute force, so every
  // audit must find recall 1, zero displacement, zero score error, and —
  // the bit-identity acceptance — zero mismatches.
  constexpr size_t kN = 60;
  MonitorStack stack(kN, 10, 4, 11);
  MetricRegistry registry;
  QualityMonitorOptions qopts;
  qopts.sample_every_n = 1;
  qopts.registry = &registry;
  QualityMonitor monitor(qopts);
  RetrievalOptions options = test::Opts(5, kN);
  options.audit_monitor = &monitor;
  for (size_t q = kN; q < kN + 10; ++q) {
    auto r = stack.mono->Retrieve({stack.Query(q), options});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  monitor.Flush();
  QualityMonitorStats stats = monitor.stats();
  EXPECT_EQ(stats.sampled, 10u);
  EXPECT_EQ(stats.completed, 10u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.mismatches, 0u);
  EXPECT_EQ(stats.alarms, 0u);
  EXPECT_FALSE(stats.drift_alarm);
  EXPECT_DOUBLE_EQ(stats.recall_at_k, 1.0);
  EXPECT_DOUBLE_EQ(stats.rank_displacement, 0.0);
  EXPECT_DOUBLE_EQ(stats.score_error, 0.0);
}

TEST(QualityMonitorTest, ShardedEngineAuditsPerfectlyAtPEqualsN) {
  constexpr size_t kN = 90;
  MonitorStack stack(kN, 8, 4, 13);
  MetricRegistry registry;
  QualityMonitorOptions qopts;
  qopts.sample_every_n = 1;
  qopts.registry = &registry;
  QualityMonitor monitor(qopts);
  RetrievalOptions options = test::Opts(5, kN);
  options.audit_monitor = &monitor;
  for (size_t q = kN; q < kN + 8; ++q) {
    auto r = stack.sharded->Retrieve({stack.Query(q), options});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  monitor.Flush();
  QualityMonitorStats stats = monitor.stats();
  EXPECT_EQ(stats.completed, 8u);
  EXPECT_EQ(stats.mismatches, 0u);
  EXPECT_DOUBLE_EQ(stats.recall_at_k, 1.0);
  EXPECT_DOUBLE_EQ(stats.score_error, 0.0);
}

TEST(QualityMonitorTest, ComposedShardedEngineAuditsOnlyPinnedShards) {
  // Local engines passed in as shard backends hand their pinned
  // snapshots back to a sampled request, so the composed engine audits
  // them; a shard that pins nothing (here a replica set, which strips
  // the audit request like a remote stub) turns audits off instead of
  // scoring a partial database.
  constexpr size_t kN = 70;
  constexpr size_t kShards = 2;
  MonitorStack stack(kN, 6, 4, 23);
  std::vector<std::vector<size_t>> ids(kShards);
  for (size_t id : stack.db_ids) ids[HashShardOf(id, kShards)].push_back(id);
  std::vector<EmbeddedDatabase> dbs;
  std::vector<std::shared_ptr<RetrievalBackend>> engines;
  for (const std::vector<size_t>& shard_ids : ids) {
    dbs.push_back(EmbedDatabase(stack.model, stack.oracle, shard_ids));
  }
  for (size_t s = 0; s < kShards; ++s) {
    engines.push_back(std::make_shared<RetrievalEngine>(
        &stack.model, &stack.scorer, &dbs[s], ids[s]));
  }
  ShardedRetrievalEngine local(&stack.model, engines);
  ShardedRetrievalEngine unpinned(
      &stack.model,
      {engines[0], std::make_shared<net::HedgedReplicaBackend>(
                       std::vector<std::shared_ptr<RetrievalBackend>>{
                           engines[1]})});

  MetricRegistry registry;
  QualityMonitorOptions qopts;
  qopts.sample_every_n = 1;
  qopts.registry = &registry;
  QualityMonitor monitor(qopts);
  RetrievalOptions options = test::Opts(5, kN);
  options.audit_monitor = &monitor;
  for (size_t q = kN; q < kN + 6; ++q) {
    ASSERT_TRUE(local.Retrieve({stack.Query(q), options}).ok());
    ASSERT_TRUE(unpinned.Retrieve({stack.Query(q), options}).ok());
  }
  monitor.Flush();
  QualityMonitorStats stats = monitor.stats();
  EXPECT_EQ(stats.sampled, 6u);
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.mismatches, 0u);
  EXPECT_DOUBLE_EQ(stats.recall_at_k, 1.0);
}

TEST(QualityMonitorTest, BatchAuditsScoreTheSnapshotTheirPassPinned) {
  // RetrieveBatch scans the database once for the whole batch; a sampled
  // request inside it must be audited against the snapshot that pass
  // pinned, not the live rows.  The worker is parked while the batch
  // runs, and half the database is removed before it resumes: an audit
  // of the live rows would find a different exact top-k.
  constexpr size_t kN = 60;
  constexpr size_t kBatch = 8;
  MonitorStack stack(kN, kBatch, 4, 43);
  MetricRegistry registry;
  QualityMonitorOptions qopts;
  qopts.sample_every_n = 2;
  qopts.registry = &registry;
  QualityMonitor monitor(qopts);

  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  AuditTask blocker;
  blocker.k = 1;
  blocker.served = {{0, 0.0}};
  blocker.snapshots.push_back(
      std::make_shared<EmbeddedDatabase::Snapshot>(stack.db.snapshot()));
  blocker.dx = [&](size_t) {
    entered.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return 0.0;
  };
  monitor.SubmitAudit(std::move(blocker));
  while (!entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::vector<DxToDatabaseFn> queries;
  for (size_t q = kN; q < kN + kBatch; ++q) queries.push_back(stack.Query(q));
  // p = n: every served answer is the exact top-k of the pinned rows.
  RetrievalOptions options = test::Opts(5, kN, /*num_threads=*/1);
  options.audit_monitor = &monitor;
  auto batch = stack.mono->RetrieveBatch(queries, options);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  for (size_t id = 0; id < kN; id += 2) {
    ASSERT_TRUE(stack.mono->Remove(id).ok());
  }
  release.store(true);
  monitor.Flush();
  QualityMonitorStats stats = monitor.stats();
  EXPECT_EQ(stats.sampled, 1 + kBatch / 2);
  EXPECT_EQ(stats.completed, 1 + kBatch / 2);
  EXPECT_EQ(stats.mismatches, 0u);
}

TEST(QualityMonitorTest, AttachingMonitorDoesNotChangeResults) {
  constexpr size_t kN = 80;
  MonitorStack stack(kN, 6, 4, 17);
  MetricRegistry registry;
  QualityMonitorOptions qopts;
  qopts.sample_every_n = 1;
  qopts.registry = &registry;
  QualityMonitor monitor(qopts);
  RetrievalOptions plain = test::Opts(5, 20);
  RetrievalOptions audited = plain;
  audited.audit_monitor = &monitor;
  for (size_t q = kN; q < kN + 6; ++q) {
    auto a = stack.mono->Retrieve({stack.Query(q), plain});
    auto b = stack.mono->Retrieve({stack.Query(q), audited});
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a.value().neighbors.size(), b.value().neighbors.size());
    for (size_t i = 0; i < a.value().neighbors.size(); ++i) {
      EXPECT_EQ(a.value().neighbors[i].index, b.value().neighbors[i].index);
      EXPECT_EQ(a.value().neighbors[i].score, b.value().neighbors[i].score);
    }
  }
  monitor.Flush();
  EXPECT_EQ(monitor.stats().completed, 6u);
}

TEST(QualityMonitorTest, NarrowFilterShowsUpInQualityMetrics) {
  // A 1-d embedding of the plane with p = k leaves the filter plenty of
  // room to miss true neighbors: across enough queries the audits must
  // record imperfection (that imperfection is the signal the monitor
  // exists to measure).
  constexpr size_t kN = 200;
  MonitorStack stack(kN, 24, 1, 19);
  MetricRegistry registry;
  QualityMonitorOptions qopts;
  qopts.sample_every_n = 1;
  qopts.window = 64;
  qopts.registry = &registry;
  QualityMonitor monitor(qopts);
  RetrievalOptions options = test::Opts(10, 10);
  options.audit_monitor = &monitor;
  for (size_t q = kN; q < kN + 24; ++q) {
    auto r = stack.mono->Retrieve({stack.Query(q), options});
    ASSERT_TRUE(r.ok());
  }
  monitor.Flush();
  QualityMonitorStats stats = monitor.stats();
  EXPECT_EQ(stats.completed, 24u);
  EXPECT_GT(stats.mismatches, 0u);
  EXPECT_LT(stats.recall_at_k, 1.0);
  EXPECT_GT(stats.recall_at_k, 0.0);
  EXPECT_GT(stats.rank_displacement, 0.0);
}

TEST(QualityMonitorTest, FullQueueShedsInsteadOfBlocking) {
  MonitorStack stack(8, 1, 2, 23);
  MetricRegistry registry;
  QualityMonitorOptions qopts;
  qopts.queue_capacity = 1;
  qopts.registry = &registry;
  QualityMonitor monitor(qopts);

  // A dx that parks the worker until released, so the queue state is
  // deterministic: task 1 occupies the worker, task 2 the only slot, and
  // tasks 3 and 4 must shed without blocking this thread.
  std::atomic<int> entered{0};
  std::atomic<bool> release{false};
  auto make_task = [&](bool blocking) {
    AuditTask task;
    task.k = 1;
    task.served = {{0, 0.0}};
    task.snapshots.push_back(
        std::make_shared<EmbeddedDatabase::Snapshot>(stack.db.snapshot()));
    if (blocking) {
      task.dx = [&](size_t) {
        entered.fetch_add(1);
        while (!release.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return 0.0;
      };
    } else {
      task.dx = [](size_t) { return 0.0; };
    }
    return task;
  };
  monitor.SubmitAudit(make_task(true));
  while (entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  monitor.SubmitAudit(make_task(false));  // fills the single slot
  monitor.SubmitAudit(make_task(false));  // shed
  monitor.SubmitAudit(make_task(false));  // shed
  QualityMonitorStats mid = monitor.stats();
  EXPECT_EQ(mid.sampled, 4u);
  EXPECT_EQ(mid.shed, 2u);
  release.store(true);
  monitor.Flush();
  QualityMonitorStats stats = monitor.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.shed, 2u);
}

TEST(QualityMonitorTest, SubmitAfterShutdownShedsCleanly) {
  MonitorStack stack(8, 1, 2, 29);
  MetricRegistry registry;
  QualityMonitorOptions qopts;
  qopts.registry = &registry;
  QualityMonitor monitor(qopts);
  monitor.Shutdown();
  AuditTask task;
  task.k = 1;
  task.served = {{0, 0.0}};
  task.snapshots.push_back(
      std::make_shared<EmbeddedDatabase::Snapshot>(stack.db.snapshot()));
  task.dx = [](size_t) { return 0.0; };
  monitor.SubmitAudit(std::move(task));
  QualityMonitorStats stats = monitor.stats();
  EXPECT_EQ(stats.sampled, 1u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(QualityMonitorTest, EmptySnapshotAuditIsANoOpCompletion) {
  MetricRegistry registry;
  QualityMonitorOptions qopts;
  qopts.registry = &registry;
  QualityMonitor monitor(qopts);
  AuditTask task;  // no snapshots: nothing to audit against
  task.k = 3;
  task.dx = [](size_t) { return 0.0; };
  monitor.SubmitAudit(std::move(task));
  monitor.Flush();
  QualityMonitorStats stats = monitor.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.mismatches, 0u);
}

// --- server integration -------------------------------------------------

TEST(QualityMonitorTest, ServerOffersMonitorToEveryRequest) {
  constexpr size_t kN = 80;
  MonitorStack stack(kN, 16, 4, 31);
  MetricRegistry registry;
  QualityMonitorOptions qopts;
  qopts.sample_every_n = 2;
  qopts.registry = &registry;
  QualityMonitor monitor(qopts);
  AsyncServerOptions options;
  options.quality_monitor = &monitor;
  AsyncRetrievalServer server(stack.mono.get(), options);
  std::vector<Future<StatusOr<RetrievalResponse>>> futures;
  for (size_t q = kN; q < kN + 16; ++q) {
    futures.push_back(server.Submit({stack.Query(q), test::Opts(5, kN)}));
  }
  for (auto& f : futures) ASSERT_TRUE(f.Get().ok());
  server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
  monitor.Flush();
  QualityMonitorStats stats = monitor.stats();
  // 1-in-2 sampling over 16 requests: exactly 8 ticks fire (the tick
  // counter is the monitor's own, shared across workers).
  EXPECT_EQ(stats.sampled, 8u);
  EXPECT_EQ(stats.completed + stats.shed, stats.sampled);
  EXPECT_EQ(stats.mismatches, 0u);  // p = n
}

// --- end-to-end drift detection -----------------------------------------

TEST(QualityDriftTest, FrozenEmbeddingAlarmsOnAbruptDrift) {
  // The tentpole scenario end to end: embed at step 0, let the true
  // distances step-change at the onset, audit every query — the alarm
  // must raise within a bounded number of post-onset audits, and the
  // windowed recall must actually have degraded.
  constexpr size_t kN = 500;
  constexpr size_t kQueries = 32;
  constexpr size_t kOnset = 24;
  DriftingPointOracle oracle(kN + kQueries, 2,
                             bench::AbruptDrift(kOnset, 0.35), 37);
  std::vector<size_t> db_ids = test::Iota(kN);
  FastMapOptions fopts;
  fopts.dims = 4;
  fopts.seed = 38;
  FastMapModel model = BuildFastMap(oracle, db_ids, fopts);
  L2Scorer scorer;
  EmbeddedDatabase db = EmbedDatabase(model, oracle, db_ids);
  RetrievalEngine engine(&model, &scorer, &db, db_ids);

  MetricRegistry registry;
  QualityMonitorOptions qopts;
  qopts.sample_every_n = 1;
  qopts.window = 8;
  qopts.registry = &registry;
  QualityMonitor monitor(qopts);
  RetrievalOptions options = test::Opts(5, 25);
  options.audit_monitor = &monitor;

  double recall_before = 0.0;
  size_t alarm_step = 0;
  for (size_t step = 0; step < 200; ++step) {
    oracle.SetStep(step);
    size_t q = kN + step % kQueries;
    auto r = engine.Retrieve(
        {[&oracle, q](size_t id) { return oracle.Distance(q, id); },
         options});
    ASSERT_TRUE(r.ok());
    monitor.Flush();
    if (step + 1 == kOnset) recall_before = monitor.stats().recall_at_k;
    if (monitor.drift_alarmed()) {
      alarm_step = step;
      break;
    }
  }
  QualityMonitorStats stats = monitor.stats();
  ASSERT_TRUE(stats.drift_alarm) << "no alarm within 200 audited queries";
  EXPECT_EQ(stats.alarms, 1u);
  EXPECT_GE(alarm_step, kOnset);
  EXPECT_LE(alarm_step - kOnset, 64u);
  EXPECT_LT(stats.recall_at_k, recall_before);
}

// --- audits under concurrent mutation (TSan target) ---------------------

TEST(QualityMonitorConcurrencyTest, AuditsRaceMutationsSafely) {
  // Query threads sample audits (pinning snapshots) while a mutator
  // removes and re-inserts rows: the audits score the pinned views, so
  // every completed audit at p = n must still be exact, and TSan must
  // see no races between worker, queriers and mutator.
  constexpr size_t kN = 120;
  MonitorStack stack(kN, 16, 4, 41);
  MetricRegistry registry;
  QualityMonitorOptions qopts;
  qopts.sample_every_n = 1;
  qopts.queue_capacity = 8;  // small on purpose: shedding races too
  qopts.registry = &registry;
  QualityMonitor monitor(qopts);

  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    size_t id = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (stack.mono->Remove(id).ok()) {
        auto dx = [&stack, id](size_t other) {
          return id == other ? 0.0 : stack.oracle.Distance(id, other);
        };
        ASSERT_TRUE(stack.mono->Insert(id, dx).ok());
      }
      id = (id + 7) % kN;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::vector<std::thread> queriers;
  for (int t = 0; t < 2; ++t) {
    queriers.emplace_back([&, t] {
      RetrievalOptions options = test::Opts(5, kN);
      options.audit_monitor = &monitor;
      for (size_t i = 0; i < 60; ++i) {
        size_t q = kN + (t * 60 + i) % 16;
        auto r = stack.mono->Retrieve({stack.Query(q), options});
        ASSERT_TRUE(r.ok());
      }
    });
  }
  for (auto& t : queriers) t.join();
  stop.store(true, std::memory_order_relaxed);
  mutator.join();
  monitor.Flush();
  monitor.Shutdown();
  QualityMonitorStats stats = monitor.stats();
  EXPECT_EQ(stats.sampled, 120u);
  EXPECT_EQ(stats.completed + stats.shed, stats.sampled);
  // Audits run against the snapshots the serving path pinned, so
  // mutation concurrency must not manufacture mismatches at p = n.
  EXPECT_EQ(stats.mismatches, 0u);
}

}  // namespace
}  // namespace obs
}  // namespace qse
