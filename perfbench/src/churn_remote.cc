// churn_remote: writes beside reads on the production topology.  The async
// server feeds a ShardedRetrievalEngine composed over two remote stubs;
// each stub talks over loopback TCP to an in-process RetrievalServer that
// serves a DurableBackend over a RetrievalEngine, logging every mutation
// to its own write-ahead log with an fsync per record.  Reads run as a
// closed loop; Inserts and Removes, alternating so n stays constant, as
// an open loop at a fixed rate.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <numeric>
#include <thread>

#include "perfbench/src/analysis.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/vectors.h"
#include "perfbench/src/workloads.h"
#include "src/net/remote_backend.h"
#include "src/net/retrieval_server.h"
#include "src/net/wire_codec.h"
#include "src/obs/metric_registry.h"
#include "src/persist/durability.h"
#include "src/persist/durable_backend.h"
#include "src/retrieval/embedder_adapters.h"
#include "src/retrieval/filter_refine.h"
#include "src/serving/sharded_retrieval_engine.h"
#include "src/util/parallel.h"
#include "src/util/random.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using qse::persist::DurabilityManager;
using qse::persist::DurableBackend;

// 20 000 rows of d = 64 float64 (10 MB) stay in cache from query to
// query; at 100 000 rows (51 MB) the scans flipped between cache and
// memory speed with the host's other load, moving per-query cost by
// tens of percent between identical runs.
constexpr size_t kDbSize = 20000;
constexpr size_t kInsertPool = 20000;
constexpr size_t kNumQueries = 2000;
constexpr size_t kRecallQueries = 200;
// Reads per untraced phase, so p99 has ten samples beyond it.
constexpr size_t kMinReads = 1000;
constexpr size_t kShards = 2;
// With one scanning thread, a reader and a writer hold at most two
// connections per shard: four in all.  The whole window forms one batch,
// which the scanning thread serves query by query, so a read waits for
// its batch: 16 queries (about 16 ms) make a batch long beside the
// millisecond stalls a shared host inflicts, which set the p99 of a
// 4-query window and moved it by a quarter from run to run.
constexpr size_t kWindow = 16;
constexpr size_t kRetrieveThreads = 1;
constexpr size_t kK = 10;
constexpr size_t kP = 100;
// Writes per second, half Inserts and half Removes.
constexpr double kWriteRate = 50;
// A few auto-snapshots per shard per run.
constexpr size_t kSnapshotEveryRecords = 100;
constexpr int kRecoveries = 5;
constexpr size_t kAnswerChecks = 8;
// A working pipeline scores 0.6-0.95 here, a broken one (wrong ids, lost
// rows) near 0.
constexpr double kMinRecall = 0.3;

struct Shard {
  std::string dir;
  std::unique_ptr<qse::EmbeddedDatabase> db;
  std::unique_ptr<DurabilityManager> manager;
  // The serving objects, rebuilt for the traced phase.
  std::unique_ptr<qse::RetrievalEngine> engine;
  std::unique_ptr<TracedBackend> engine_traced;
  std::unique_ptr<DurableBackend> durable;
  std::unique_ptr<TracedBackend> durable_traced;
  std::unique_ptr<qse::net::RetrievalServer> server;
  std::shared_ptr<qse::net::RemoteRetrievalBackend> remote;
  std::shared_ptr<TracedBackend> remote_traced;

  // The stub the front uses for this shard.
  qse::RetrievalBackend* stub() const {
    return remote_traced != nullptr
               ? static_cast<qse::RetrievalBackend*>(remote_traced.get())
               : remote.get();
  }
};

struct Cluster {
  qse::BoostMapArtifacts trained;
  std::unique_ptr<qse::QseEmbedderAdapter> embedder;
  std::unique_ptr<qse::QuerySensitiveScorer> scorer;
  std::vector<Shard> shards;
  std::unique_ptr<qse::ShardedRetrievalEngine> sharded;
  std::unique_ptr<TracedBackend> traced_front;
  std::unique_ptr<qse::AsyncRetrievalServer> server;

  // Stops and drops every serving object, front to back; the shard
  // databases and their logs stay.
  void StopServing() {
    server.reset();
    traced_front.reset();
    sharded.reset();
    for (Shard& s : shards) {
      s.remote_traced.reset();
      s.remote.reset();
      s.server.reset();
      s.durable_traced.reset();
      s.durable.reset();
      s.engine_traced.reset();
      s.engine.reset();
    }
  }
  ~Cluster() { StopServing(); }
};

// Removes the run's log directory however the run ends.
struct ScratchDir {
  std::string path;
  explicit ScratchDir(std::string p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
};

qse::persist::DurabilityOptions LogOptions(const std::string& dir) {
  qse::persist::DurabilityOptions options;
  options.dir = dir;
  options.fsync = qse::persist::FsyncPolicy::kEveryRecord;
  options.snapshot_every_records = kSnapshotEveryRecords;
  return options;
}

void Serve(Cluster* c, const qse::Embedder* embedder,
           const qse::FilterScorer* scorer, bool traced) {
  c->StopServing();
  std::vector<std::shared_ptr<qse::RetrievalBackend>> stubs;
  for (size_t i = 0; i < c->shards.size(); ++i) {
    Shard& s = c->shards[i];
    const int32_t shard = static_cast<int32_t>(i);
    s.engine = std::make_unique<qse::RetrievalEngine>(embedder, scorer,
                                                      s.db.get(), s.db->ids());
    qse::RetrievalBackend* inner = s.engine.get();
    if (traced) {
      s.engine_traced = std::make_unique<TracedBackend>(
          inner, BackendKinds{Kind::kEngineScan, Kind::kInsert, Kind::kRemove},
          shard);
      inner = s.engine_traced.get();
    }
    s.durable = std::make_unique<DurableBackend>(
        inner, embedder, s.manager.get(),
        std::vector<const qse::EmbeddedDatabase*>{s.db.get()});
    qse::RetrievalBackend* served = s.durable.get();
    if (traced) {
      s.durable_traced = std::make_unique<TracedBackend>(
          served,
          BackendKinds{Kind::kServerScan, Kind::kDurableInsert,
                       Kind::kDurableRemove},
          shard);
      served = s.durable_traced.get();
    }
    s.server = std::make_unique<qse::net::RetrievalServer>(
        served, qse::net::RetrievalServerOptions{});
    qse::Status started = s.server->Start(0);
    QSE_CHECK_MSG(started.ok(), started.ToString());
    s.remote = std::make_shared<qse::net::RemoteRetrievalBackend>(
        embedder, "127.0.0.1", s.server->port());
    if (traced) {
      s.remote_traced = std::make_shared<TracedBackend>(
          s.remote.get(),
          BackendKinds{Kind::kStubScan, Kind::kStubWrite, Kind::kStubWrite},
          shard);
      s.remote_traced->CaptureScans(64);
      stubs.push_back(s.remote_traced);
    } else {
      stubs.push_back(s.remote);
    }
  }
  c->sharded = std::make_unique<qse::ShardedRetrievalEngine>(embedder, stubs);
  qse::RetrievalBackend* front = c->sharded.get();
  if (traced) {
    c->traced_front = std::make_unique<TracedBackend>(
        front, BackendKinds{Kind::kShardScan, Kind::kWrite, Kind::kWrite});
    front = c->traced_front.get();
  }
  qse::AsyncServerOptions options;
  options.max_batch = kWindow;
  options.num_workers = 1;
  options.retrieve_threads = kRetrieveThreads;
  // Long enough for the whole window, resubmitted as answers arrive, to
  // land in one batch.
  options.max_batch_delay = std::chrono::microseconds(2000);
  c->server = std::make_unique<qse::AsyncRetrievalServer>(front, options);
}

std::unique_ptr<Cluster> SetUp(const VectorData& data, uint64_t seed,
                               const std::string& dir, Report* layer_report) {
  auto c = std::make_unique<Cluster>();
  c->trained = TrainVectorModel(data, kDbSize, seed, layer_report);
  c->embedder = std::make_unique<qse::QseEmbedderAdapter>(&c->trained.model);
  c->scorer = std::make_unique<qse::QuerySensitiveScorer>(&c->trained.model);
  std::vector<std::vector<size_t>> ids(kShards);
  for (size_t id = 0; id < kDbSize; ++id) {
    ids[qse::HashShardOf(id, kShards)].push_back(id);
  }
  uint64_t start = NowNs();
  c->shards.resize(kShards);
  for (size_t i = 0; i < kShards; ++i) {
    c->shards[i].db = std::make_unique<qse::EmbeddedDatabase>(
        qse::EmbedDatabase(*c->embedder, data, ids[i]));
    c->shards[i].db->AssignIds(ids[i]);
  }
  if (layer_report != nullptr) {
    layer_report->Set("core.db_embed_s", SecondsSince(start), "s");
  }
  for (size_t i = 0; i < kShards; ++i) {
    Shard& s = c->shards[i];
    s.dir = dir + "/shard" + std::to_string(i);
    fs::create_directories(s.dir);
    auto opened = DurabilityManager::Open(LogOptions(s.dir));
    QSE_CHECK_MSG(opened.ok(), opened.status().ToString());
    s.manager = std::move(opened).value();
  }
  Serve(c.get(), c->embedder.get(), c->scorer.get(), false);
  // The base rows enter the log as a snapshot; later writes as records.
  for (Shard& s : c->shards) {
    qse::Status snap = s.durable->WriteSnapshotNow();
    QSE_CHECK_MSG(snap.ok(), snap.ToString());
  }
  return c;
}

qse::DxToDatabaseFn PointDx(const VectorData& data, size_t point) {
  return [&data, point](size_t id) { return data.Distance(point, id); };
}

// The open-loop writer's state, carried across phases: the live id set it
// expects the cluster to hold, and every write's timing.
//
// Inserts go through the async server's front.  Removes pick a uniformly
// random live id and go to the stub of the shard that holds it: a
// composed ShardedRetrievalEngine routes Remove only for ids inserted
// through it (its routing table starts empty), so the base rows could
// not be removed through the front.
struct Writer {
  explicit Writer(uint64_t seed) : rng(seed) {
    live.resize(kDbSize);
    std::iota(live.begin(), live.end(), 0);
  }
  qse::Rng rng;
  std::vector<size_t> live;
  size_t next_insert = kDbSize;
  uint64_t ops = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> latency_ms;   // From the scheduled send time.
  std::vector<double> lateness_ms;  // Actual send minus scheduled.

  // Sends one write every 1/kWriteRate s until `stop` is set.
  void Run(Cluster* c, const VectorData& data, const std::atomic<bool>& stop) {
    const uint64_t start = NowNs();
    const double period_ns = 1e9 / kWriteRate;
    for (uint64_t k = 0;; ++k) {
      const uint64_t due = start + static_cast<uint64_t>(k * period_ns);
      if (stop.load() || next_insert >= kDbSize + kInsertPool) break;
      uint64_t now = NowNs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      const uint64_t sent = NowNs();
      ++attempted;
      qse::Status status;
      if (ops++ % 2 == 0) {
        size_t id = next_insert++;
        status = c->server->Insert(id, PointDx(data, id));
        if (status.ok()) live.push_back(id);
      } else {
        size_t at = rng.Index(live.size());
        size_t id = live[at];
        status = c->shards[qse::HashShardOf(id, kShards)].stub()->Remove(id);
        if (status.ok()) {
          live[at] = live.back();
          live.pop_back();
        }
      }
      const uint64_t done = NowNs();
      if (!status.ok()) {
        ++failed;
        continue;
      }
      latency_ms.push_back(static_cast<double>(done - due) / 1e6);
      lateness_ms.push_back(static_cast<double>(sent - due) / 1e6);
    }
  }
};

struct Phase {
  ClosedLoopResult reads;
  size_t first_write = 0;  // Index into Writer::latency_ms.
};

Phase RunPhase(Cluster* c, const VectorData& data, Writer* writer,
               double seconds, size_t min_reads, uint64_t first_request,
               bool traced) {
  Phase phase;
  phase.first_write = writer->latency_ms.size();
  std::atomic<bool> stop{false};
  std::thread write_thread(
      [&] { writer->Run(c, data, stop); });
  phase.reads = RunClosedLoop(
      c->server.get(), qse::RetrievalOptions(kK, kP), kNumQueries, kWindow,
      seconds, min_reads, 0, first_request, traced,
      [&data, traced](size_t q, uint64_t request_id) {
        qse::DxToDatabaseFn dx = PointDx(data, kDbSize + kInsertPool + q);
        if (traced) return qse::DxToDatabaseFn(TracedDx{dx, request_id});
        return dx;
      });
  stop = true;
  write_thread.join();
  return phase;
}

double CounterValue(const char* name) {
  return static_cast<double>(
      qse::obs::MetricRegistry::Global().GetCounter(name)->Value());
}

qse::obs::HistogramSnapshot SnapshotHistogram() {
  return qse::obs::MetricRegistry::Global()
      .GetHistogram("qse_persist_snapshot_duration_ns",
                    qse::obs::DefaultLatencyBoundariesNs())
      ->Snapshot();
}

// Per-layer metrics of the write path and the wire, from the traced
// phase's spans plus the library's own persistence counters.
void AddWriteLayerMetrics(const std::vector<Span>& spans, const Cluster& c,
                          double snapshots, double snapshot_ns,
                          double wal_bytes, double wal_records,
                          Report* report) {
  KindStats insert = StatsOf(spans, Kind::kInsert);
  KindStats remove = StatsOf(spans, Kind::kRemove);
  KindStats durable_insert = StatsOf(spans, Kind::kDurableInsert);
  KindStats durable_remove = StatsOf(spans, Kind::kDurableRemove);
  report->Set("retrieval.insert_us", insert.mean_ms() * 1e3, "us");
  report->Set("retrieval.remove_ms", remove.mean_ms(), "ms");
  size_t writes = durable_insert.count + durable_remove.count;
  double log_ms = durable_insert.total_ms + durable_remove.total_ms -
                  insert.total_ms - remove.total_ms - snapshot_ns / 1e6;
  report->Set("persist.wal_append_us",
              writes > 0 ? log_ms / static_cast<double>(writes) * 1e3 : 0,
              "us");
  report->Set("persist.wal_bytes_per_write",
              wal_records > 0 ? wal_bytes / wal_records : 0, "bytes");
  report->Set("persist.snapshots", snapshots, "count");
  report->Set("persist.snapshot_ms",
              snapshots > 0 ? snapshot_ns / snapshots / 1e6 : 0, "ms");

  // The wire codec on the kScan frames the stubs carried.
  double encode_ns = 0, decode_ns = 0, bytes = 0;
  size_t frames = 0;
  for (const Shard& s : c.shards) {
    for (const CapturedScan& scan : s.remote_traced->captured()) {
      qse::net::WireRequest request;
      request.op = qse::net::WireOp::kScan;
      request.options = scan.options;
      request.query = scan.embedded_query;
      qse::net::WireResponse response;
      response.neighbors = scan.result.candidates;
      response.rows = scan.result.rows;
      response.rows_pruned = scan.result.rows_pruned;
      uint64_t t0 = NowNs();
      std::string request_bytes = qse::net::EncodeRequest(request);
      std::string response_bytes = qse::net::EncodeResponse(response);
      uint64_t t1 = NowNs();
      qse::net::WireRequest request_back;
      qse::net::WireResponse response_back;
      bool ok = qse::net::DecodeRequest(request_bytes, &request_back).ok() &&
                qse::net::DecodeResponse(response_bytes, &response_back).ok();
      uint64_t t2 = NowNs();
      report->Check(ok, "churn_remote: a captured kScan frame did not decode");
      encode_ns += static_cast<double>(t1 - t0);
      decode_ns += static_cast<double>(t2 - t1);
      bytes += static_cast<double>(request_bytes.size() + response_bytes.size());
      ++frames;
    }
  }
  double n = static_cast<double>(std::max<size_t>(frames, 1));
  report->Set("net.encode_us", encode_ns / n / 1e3, "us");
  report->Set("net.decode_us", decode_ns / n / 1e3, "us");
  // Every query scans each shard once.
  report->Set("net.bytes_per_query", bytes / n * kShards, "bytes");
}

}  // namespace

void RunChurnRemote(const Args& args, Report* report) {
  ScratchDir run_dir(".bench_run/churn-" + std::to_string(::getpid()));
  VectorData data(kDbSize / kPointsPerCluster, kDatabaseSeed);
  data.AddPoints(kDbSize, kDatabaseSeed);
  data.AddPoints(kInsertPool + kNumQueries, args.seed);

  std::unique_ptr<Cluster> cluster;
  if (args.trace) {
    cluster = SetUp(data, kDatabaseSeed, run_dir.path + "/setup", report);
  } else {
    std::vector<double> setup_s;
    for (int i = 0; i < 3; ++i) {
      cluster.reset();
      std::string dir = run_dir.path + "/setup" + std::to_string(i);
      uint64_t start = NowNs();
      cluster = SetUp(data, kDatabaseSeed, dir, nullptr);
      setup_s.push_back(SecondsSince(start));
    }
    report->Set("setup_s", Median(setup_s), "s");
  }
  const size_t dims = cluster->trained.model.dims();
  report->Note("sizes: n=" + std::to_string(kDbSize) +
               " d=" + std::to_string(dims) + " shards=" +
               std::to_string(kShards) + " window=" + std::to_string(kWindow) +
               " write_rate=" + std::to_string(kWriteRate) + "/s fsync=" +
               "every_record snapshot_every=" +
               std::to_string(kSnapshotEveryRecords) + " k=" +
               std::to_string(kK) + " p=" + std::to_string(kP));

  Writer writer(args.seed ^ 0x57524954ull);
  // Warm-up: one window of reads, untimed.
  RunClosedLoop(cluster->server.get(), qse::RetrievalOptions(kK, kP),
                kNumQueries, kWindow, 0, kWindow, 0, 0, false,
                [&data](size_t q, uint64_t) {
                  return PointDx(data, kDbSize + kInsertPool + q);
                });
  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  RssSampler rss;
  Phase phase = RunPhase(cluster.get(), data, &writer, untraced_seconds,
                         args.trace ? 0 : kMinReads, 1, false);
  report->attempted += phase.reads.attempted + writer.attempted;
  report->failed += phase.reads.failed + writer.failed;
  AddQueryMetrics(phase.reads.latency_ms, phase.reads.done_s,
                  phase.reads.seconds, report);
  std::vector<double> writes(writer.latency_ms.begin() + phase.first_write,
                             writer.latency_ms.end());
  report->Set("write_p50_ms", Percentile(writes, 0.50), "ms");
  report->Set("write_p99_ms", Percentile(writes, 0.99), "ms");
  report->Set("write_samples", static_cast<double>(writes.size()), "count");
  report->Set("gen.write_lateness_ms", Mean(writer.lateness_ms), "ms");
  report->Set("rss_mb", rss.Stop(), "MB");
  report->Set("server.shed", static_cast<double>(cluster->server->stats().shed),
              "count");

  if (args.trace) {
    TracedEmbedder embedder(cluster->embedder.get());
    TracedScorer scorer(cluster->scorer.get());
    Serve(cluster.get(), &embedder, &scorer, true);
    uint64_t write_attempts = writer.attempted, write_failures = writer.failed;
    double snapshots = CounterValue("qse_persist_snapshots_total");
    double snapshot_ns = SnapshotHistogram().sum;
    double wal_bytes = CounterValue("qse_persist_wal_bytes_total");
    double wal_records = CounterValue("qse_persist_wal_records_total");
    tracer::Reset();
    Phase traced = RunPhase(cluster.get(), data, &writer, args.seconds / 2, 0,
                            1, true);
    cluster->server->Shutdown();
    report->attempted += traced.reads.attempted + writer.attempted -
                         write_attempts;
    report->failed += traced.reads.failed + writer.failed - write_failures;
    std::vector<Span> spans = tracer::Collect();
    double traced_ms = AnalyzeTrace(spans, tracer::CollectBatches(), report);
    report->Set("obs.trace_overhead_share",
                traced_ms / Mean(phase.reads.latency_ms) - 1, "share");
    AddWriteLayerMetrics(
        spans, *cluster, CounterValue("qse_persist_snapshots_total") - snapshots,
        SnapshotHistogram().sum - snapshot_ns,
        CounterValue("qse_persist_wal_bytes_total") - wal_bytes,
        CounterValue("qse_persist_wal_records_total") - wal_records, report);
    // The decorators die with this scope; so must everything using them.
    Serve(cluster.get(), cluster->embedder.get(), cluster->scorer.get(),
          false);
  }

  // Every shard holds exactly the ids the writer expects there.
  std::vector<size_t> live = writer.live;
  std::sort(live.begin(), live.end());
  for (size_t i = 0; i < kShards; ++i) {
    std::vector<size_t> want, got = cluster->shards[i].db->ids();
    for (size_t id : live) {
      if (qse::HashShardOf(id, kShards) == i) want.push_back(id);
    }
    std::sort(got.begin(), got.end());
    report->Check(got == want, "churn_remote: shard " + std::to_string(i) +
                                   " does not hold the expected ids");
  }

  // Recall after the churn, through the full topology, against brute
  // force over the live rows.
  ClosedLoopResult answers = RunClosedLoop(
      cluster->server.get(), qse::RetrievalOptions(kK, kP), kNumQueries,
      kWindow, 0, kRecallQueries, kRecallQueries, 0, false,
      [&data](size_t q, uint64_t) {
        return PointDx(data, kDbSize + kInsertPool + q);
      });
  report->attempted += answers.attempted;
  report->failed += answers.failed;
  std::vector<std::vector<size_t>> truth(kRecallQueries);
  qse::ParallelForGrain(0, kRecallQueries, 1, [&](size_t i) {
    truth[i] = BruteForceKnn(data, kDbSize + kInsertPool + i, live, kK);
  });
  double recall_sum = 0, dx_sum = 0;
  for (size_t i = 0; i < kRecallQueries; ++i) {
    recall_sum += RecallOf(answers.answers[i], truth[i]);
    dx_sum += static_cast<double>(answers.exact_distances[i]);
  }
  double recall = recall_sum / kRecallQueries;
  report->Set("recall_at_10", recall, "share");
  report->Set("dx_per_query", dx_sum / kRecallQueries, "count");
  report->Check(recall >= kMinRecall,
                "churn_remote: recall@10 below the floor");

  // Recovery: close the logs, then reopen every shard from its snapshot
  // plus WAL tail, timed until it answers a scan.  The last reopening is
  // compared with the live shard, id for id and answer for answer.
  cluster->StopServing();
  for (Shard& s : cluster->shards) s.manager.reset();
  std::vector<qse::Vector> probes;
  for (size_t q = 0; q < kAnswerChecks; ++q) {
    probes.push_back(cluster->embedder->Embed(
        PointDx(data, kDbSize + kInsertPool + q), nullptr));
  }
  const qse::RetrievalOptions scan_options = qse::RetrievalOptions(kK, kP);
  std::vector<double> recover_s, load_s;
  double replayed = 0;
  for (int rep = 0; rep < kRecoveries; ++rep) {
    uint64_t start = NowNs();
    std::vector<std::unique_ptr<qse::EmbeddedDatabase>> dbs;
    std::vector<std::unique_ptr<qse::RetrievalEngine>> engines;
    for (const Shard& s : cluster->shards) {
      uint64_t load_start = NowNs();
      auto opened = DurabilityManager::Open(LogOptions(s.dir));
      QSE_CHECK_MSG(opened.ok(), opened.status().ToString());
      dbs.push_back(std::make_unique<qse::EmbeddedDatabase>(dims));
      engines.push_back(std::make_unique<qse::RetrievalEngine>(
          cluster->embedder.get(), cluster->scorer.get(), dbs.back().get(),
          std::vector<size_t>{}));
      qse::Status installed = (*opened)->InstallSnapshot({dbs.back().get()});
      engines.back()->RebuildIdIndex();
      load_s.push_back(SecondsSince(load_start));
      auto applied = (*opened)->Replay(engines.back().get());
      report->Check(installed.ok() && applied.ok(),
                    "churn_remote: recovery failed");
      replayed += applied.ok() ? static_cast<double>(*applied) : 0;
      report->Check(engines.back()->ScanCandidates(probes[0], scan_options).ok(),
                    "churn_remote: a recovered shard does not serve");
    }
    recover_s.push_back(SecondsSince(start));
    if (rep + 1 < kRecoveries) continue;
    for (size_t i = 0; i < kShards; ++i) {
      const Shard& s = cluster->shards[i];
      qse::RetrievalEngine live_engine(cluster->embedder.get(),
                                       cluster->scorer.get(), s.db.get(),
                                       s.db->ids());
      bool same = dbs[i]->ids() == s.db->ids();
      for (const qse::Vector& probe : probes) {
        auto a = live_engine.ScanCandidates(probe, scan_options);
        auto b = engines[i]->ScanCandidates(probe, scan_options);
        same = same && a.ok() && b.ok() && a->candidates == b->candidates;
      }
      report->Check(same, "churn_remote: recovered shard " +
                              std::to_string(i) + " differs from the live one");
    }
  }
  report->Set("recover_s", Median(recover_s), "s");
  report->Set("persist.snapshot_load_s", Mean(load_s), "s");
  report->Set("persist.replay_records",
              replayed / static_cast<double>(kRecoveries * kShards), "count");
  if (args.trace) AddHostMetrics(report);
}

}  // namespace perfbench
