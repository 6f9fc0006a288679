// Unit and integration tests for the durability subsystem: WAL framing
// and sequence discipline, DurabilityManager recovery cycles (WAL-only,
// snapshot + tail, compaction), and the DurableBackend decorator's
// apply-then-log contract.  The crash-kill half lives in
// crash_recover_test.cc; byte-level corruption in wal_fuzz_test.cc.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/metric_registry.h"
#include "src/persist/durability.h"
#include "src/persist/durable_backend.h"
#include "src/persist/snapshot.h"
#include "src/persist/wal.h"
#include "src/retrieval/embedded_database.h"
#include "src/retrieval/filter_precision.h"
#include "src/retrieval/filter_scorer.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/serving/sharded_retrieval_engine.h"
#include "tests/line_universe.h"
#include "tests/test_util.h"

namespace qse {
namespace persist {
namespace {

using test::DxOfObject;
using test::ExpectDbsIdentical;
using test::kLineDims;
using test::LineEmbedder;
using test::MakeDx;
using test::XOf;

uint64_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

std::vector<double> LineRow(size_t id) {
  return std::vector<double>(kLineDims, XOf(id));
}

void ExpectRecordsEqual(const WalRecord& want, const WalRecord& got) {
  EXPECT_EQ(static_cast<int>(want.op), static_cast<int>(got.op));
  EXPECT_EQ(want.seq, got.seq);
  EXPECT_EQ(want.db_id, got.db_id);
  ASSERT_EQ(want.row.size(), got.row.size());
  if (!want.row.empty()) {
    EXPECT_EQ(0, std::memcmp(want.row.data(), got.row.data(),
                             want.row.size() * sizeof(double)));
  }
}

struct MonoStack {
  LineEmbedder embedder;
  L2Scorer scorer;
  EmbeddedDatabase db{kLineDims};
  RetrievalEngine engine{&embedder, &scorer, &db, {}};
};

// --- WAL framing and sequence discipline ---------------------------------

TEST(Wal, MissingFileReadsEmpty) {
  const std::string dir = test::FreshDir("persist_wal_missing");
  StatusOr<WalReadResult> result = ReadWal(dir + "/wal.qse");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->records.empty());
  EXPECT_EQ(0u, result->base_seq);
  EXPECT_EQ(0u, result->valid_bytes);
  EXPECT_EQ(0u, result->dropped_bytes);
}

TEST(Wal, AppendReadBackRoundTrip) {
  const std::string dir = test::FreshDir("persist_wal_roundtrip");
  const std::string path = dir + "/wal.qse";
  std::vector<WalRecord> written;
  {
    StatusOr<std::unique_ptr<WalWriter>> writer = WalWriter::Open(
        path, FsyncPolicy::kEveryRecord, 1, /*offset=*/0, /*base_seq=*/0,
        /*next_seq=*/1);
    ASSERT_TRUE(writer.ok()) << writer.status();
    for (size_t i = 0; i < 7; ++i) {
      WalRecord record;
      if (i % 3 == 2) {
        record.op = WalOp::kRemove;
        record.db_id = i - 2;
      } else {
        record.op = WalOp::kInsert;
        record.db_id = i;
        record.row = LineRow(i);
      }
      ASSERT_TRUE(writer.value()->Append(&record).ok());
      EXPECT_EQ(i + 1, record.seq);  // Writer assigns contiguously.
      written.push_back(record);
    }
    EXPECT_EQ(7u, writer.value()->last_seq());
  }
  StatusOr<WalReadResult> result = ReadWal(path);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(0u, result->base_seq);
  EXPECT_EQ(0u, result->dropped_bytes);
  EXPECT_EQ(FileSize(path), result->valid_bytes);
  ASSERT_EQ(written.size(), result->records.size());
  for (size_t i = 0; i < written.size(); ++i) {
    ExpectRecordsEqual(written[i], result->records[i]);
  }
}

TEST(Wal, SequenceContinuesAcrossReopen) {
  const std::string dir = test::FreshDir("persist_wal_reopen");
  const std::string path = dir + "/wal.qse";
  {
    StatusOr<std::unique_ptr<WalWriter>> writer =
        WalWriter::Open(path, FsyncPolicy::kOff, 0, 0, 0, 1);
    ASSERT_TRUE(writer.ok());
    for (size_t i = 0; i < 3; ++i) {
      WalRecord record;
      record.db_id = i;
      record.row = LineRow(i);
      ASSERT_TRUE(writer.value()->Append(&record).ok());
    }
  }
  StatusOr<WalReadResult> scan = ReadWal(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(3u, scan->records.size());
  {
    StatusOr<std::unique_ptr<WalWriter>> writer = WalWriter::Open(
        path, FsyncPolicy::kOff, 0, scan->valid_bytes, scan->base_seq,
        scan->records.back().seq + 1);
    ASSERT_TRUE(writer.ok());
    for (size_t i = 3; i < 5; ++i) {
      WalRecord record;
      record.db_id = i;
      record.row = LineRow(i);
      ASSERT_TRUE(writer.value()->Append(&record).ok());
      EXPECT_EQ(i + 1, record.seq);
    }
  }
  StatusOr<WalReadResult> result = ReadWal(path);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(5u, result->records.size());
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(i + 1, result->records[i].seq);
    EXPECT_EQ(i, result->records[i].db_id);
  }
}

TEST(Wal, ResetToBaseCompacts) {
  const std::string dir = test::FreshDir("persist_wal_reset");
  const std::string path = dir + "/wal.qse";
  StatusOr<std::unique_ptr<WalWriter>> writer =
      WalWriter::Open(path, FsyncPolicy::kEveryRecord, 1, 0, 0, 1);
  ASSERT_TRUE(writer.ok());
  for (size_t i = 0; i < 4; ++i) {
    WalRecord record;
    record.db_id = i;
    record.row = LineRow(i);
    ASSERT_TRUE(writer.value()->Append(&record).ok());
  }
  ASSERT_TRUE(writer.value()->ResetToBase(4).ok());
  EXPECT_EQ(4u, writer.value()->last_seq());
  EXPECT_EQ(static_cast<uint64_t>(kWalFileHeaderBytes), FileSize(path));

  WalRecord record;
  record.op = WalOp::kRemove;
  record.db_id = 0;
  ASSERT_TRUE(writer.value()->Append(&record).ok());
  EXPECT_EQ(5u, record.seq);  // Continues past the compacted base.

  StatusOr<WalReadResult> result = ReadWal(path);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(4u, result->base_seq);
  ASSERT_EQ(1u, result->records.size());
  EXPECT_EQ(5u, result->records[0].seq);
}

TEST(Wal, AllFsyncPoliciesRoundTrip) {
  const FsyncPolicy policies[] = {FsyncPolicy::kEveryRecord,
                                  FsyncPolicy::kEveryN, FsyncPolicy::kOff};
  for (FsyncPolicy policy : policies) {
    const std::string dir = test::FreshDir(
        "persist_wal_policy_" +
        std::to_string(static_cast<int>(policy)));
    const std::string path = dir + "/wal.qse";
    {
      StatusOr<std::unique_ptr<WalWriter>> writer =
          WalWriter::Open(path, policy, 3, 0, 0, 1);
      ASSERT_TRUE(writer.ok());
      for (size_t i = 0; i < 10; ++i) {
        WalRecord record;
        record.db_id = i;
        record.row = LineRow(i);
        ASSERT_TRUE(writer.value()->Append(&record).ok());
      }
      ASSERT_TRUE(writer.value()->Sync().ok());
    }
    StatusOr<WalReadResult> result = ReadWal(path);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(10u, result->records.size());
  }
}

TEST(Wal, EncodedFrameLayout) {
  WalRecord record;
  record.op = WalOp::kInsert;
  record.seq = 42;
  record.db_id = 7;
  record.row = LineRow(7);
  const std::string bytes = EncodeWalRecord(record);
  ASSERT_GE(bytes.size(), kWalRecordHeaderBytes);
  uint32_t magic, payload_len;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  std::memcpy(&payload_len, bytes.data() + 4, sizeof(payload_len));
  EXPECT_EQ(kWalRecordMagic, magic);
  EXPECT_EQ(bytes.size() - kWalRecordHeaderBytes, payload_len);
}

// --- DurabilityManager recovery cycles -----------------------------------

DurabilityOptions Opts(const std::string& dir) {
  DurabilityOptions options;
  options.dir = dir;
  options.fsync = FsyncPolicy::kOff;  // Unit tests never lose page cache.
  return options;
}

/// Recovery steps 1-4 into a fresh mono stack.
std::unique_ptr<DurabilityManager> RecoverMono(const DurabilityOptions& opts,
                                               MonoStack* stack,
                                               uint64_t* replayed = nullptr) {
  StatusOr<std::unique_ptr<DurabilityManager>> manager =
      DurabilityManager::Open(opts);
  EXPECT_TRUE(manager.ok()) << manager.status();
  if (!manager.ok()) return nullptr;
  Status installed = manager.value()->InstallSnapshot({&stack->db});
  EXPECT_TRUE(installed.ok()) << installed;
  if (!installed.ok()) return nullptr;
  stack->engine.RebuildIdIndex();
  StatusOr<uint64_t> applied = manager.value()->Replay(&stack->engine);
  EXPECT_TRUE(applied.ok()) << applied.status();
  if (!applied.ok()) return nullptr;
  if (replayed != nullptr) *replayed = applied.value();
  return std::move(manager.value());
}

TEST(Persist, FreshDirectoryOpensEmpty) {
  const DurabilityOptions opts = Opts(test::FreshDir("persist_fresh"));
  StatusOr<std::unique_ptr<DurabilityManager>> manager =
      DurabilityManager::Open(opts);
  ASSERT_TRUE(manager.ok()) << manager.status();
  EXPECT_FALSE(manager.value()->recovery().loaded_snapshot);
  EXPECT_EQ(0u, manager.value()->recovery().wal_records);
  EXPECT_EQ(0u, manager.value()->recovery().repaired_bytes);
  EXPECT_EQ(0u, manager.value()->last_seq());
}

TEST(Persist, WalOnlyRecoveryMatchesLiveState) {
  const DurabilityOptions opts = Opts(test::FreshDir("persist_wal_only"));
  MonoStack live;
  {
    StatusOr<std::unique_ptr<DurabilityManager>> manager =
        DurabilityManager::Open(opts);
    ASSERT_TRUE(manager.ok());
    DurableBackend durable(&live.engine, &live.embedder,
                           manager.value().get(), {&live.db});
    for (size_t id = 0; id < 40; ++id) {
      ASSERT_TRUE(durable.Insert(id, DxOfObject(id)).ok());
    }
    for (size_t id = 0; id < 40; id += 5) {
      ASSERT_TRUE(durable.Remove(id).ok());
    }
    EXPECT_EQ(48u, manager.value()->last_seq());
  }
  MonoStack recovered;
  uint64_t replayed = 0;
  auto manager = RecoverMono(opts, &recovered, &replayed);
  ASSERT_NE(nullptr, manager);
  EXPECT_FALSE(manager->recovery().loaded_snapshot);
  EXPECT_EQ(48u, replayed);
  EXPECT_EQ(48u, manager->last_seq());  // Sequence continues, not restarts.
  ExpectDbsIdentical(live.db, recovered.db, "wal-only recovery");
}

TEST(Persist, AutoSnapshotCompactsWalAndRecovers) {
  DurabilityOptions opts = Opts(test::FreshDir("persist_auto_snapshot"));
  opts.snapshot_every_records = 10;
  MonoStack live;
  live.db.EnableFilterShadows(kShadowFloat32 | kShadowInt8);
  {
    StatusOr<std::unique_ptr<DurabilityManager>> manager =
        DurabilityManager::Open(opts);
    ASSERT_TRUE(manager.ok());
    DurableBackend durable(&live.engine, &live.embedder,
                           manager.value().get(), {&live.db});
    for (size_t id = 0; id < 37; ++id) {
      ASSERT_TRUE(durable.Insert(id, DxOfObject(id)).ok());
    }
    ASSERT_TRUE(durable.Remove(3).ok());
  }
  // 38 records at a 10-record cadence: the WAL holds only the tail past
  // the last cut.
  StatusOr<WalReadResult> tail = ReadWal(opts.dir + "/wal.qse");
  ASSERT_TRUE(tail.ok());
  EXPECT_LT(tail->records.size(), 10u);
  EXPECT_GT(tail->base_seq, 0u);

  MonoStack recovered;
  // Shadow bits come from the snapshot image, but a WAL-tail insert must
  // land in a database that maintains them, so recovery enables them
  // before install (matching what the crashed process had).
  recovered.db.EnableFilterShadows(kShadowFloat32 | kShadowInt8);
  uint64_t replayed = 0;
  auto manager = RecoverMono(opts, &recovered, &replayed);
  ASSERT_NE(nullptr, manager);
  EXPECT_TRUE(manager->recovery().loaded_snapshot);
  EXPECT_GT(manager->recovery().snapshot_cut_seq, 0u);
  EXPECT_EQ(tail->records.size(), replayed);
  EXPECT_EQ(38u, manager->last_seq());
  ExpectDbsIdentical(live.db, recovered.db, "snapshot + tail recovery");
}

TEST(Persist, ExplicitSnapshotThenTailRecovers) {
  const DurabilityOptions opts =
      Opts(test::FreshDir("persist_explicit_snapshot"));
  MonoStack live;
  {
    StatusOr<std::unique_ptr<DurabilityManager>> manager =
        DurabilityManager::Open(opts);
    ASSERT_TRUE(manager.ok());
    DurableBackend durable(&live.engine, &live.embedder,
                           manager.value().get(), {&live.db});
    for (size_t id = 0; id < 20; ++id) {
      ASSERT_TRUE(durable.Insert(id, DxOfObject(id)).ok());
    }
    ASSERT_TRUE(durable.WriteSnapshotNow().ok());
    for (size_t id = 20; id < 29; ++id) {
      ASSERT_TRUE(durable.Insert(id, DxOfObject(id)).ok());
    }
    ASSERT_TRUE(durable.Remove(0).ok());
  }
  MonoStack recovered;
  uint64_t replayed = 0;
  auto manager = RecoverMono(opts, &recovered, &replayed);
  ASSERT_NE(nullptr, manager);
  EXPECT_EQ(20u, manager->recovery().snapshot_cut_seq);
  EXPECT_EQ(10u, replayed);  // 9 inserts + 1 remove past the cut.
  ExpectDbsIdentical(live.db, recovered.db, "explicit snapshot + tail");
}

TEST(Persist, RecoveryIsRepeatable) {
  const DurabilityOptions opts = Opts(test::FreshDir("persist_repeatable"));
  {
    MonoStack live;
    StatusOr<std::unique_ptr<DurabilityManager>> manager =
        DurabilityManager::Open(opts);
    ASSERT_TRUE(manager.ok());
    DurableBackend durable(&live.engine, &live.embedder,
                           manager.value().get(), {&live.db});
    for (size_t id = 0; id < 15; ++id) {
      ASSERT_TRUE(durable.Insert(id, DxOfObject(id)).ok());
    }
  }
  // Recovery must not consume the log: two independent recoveries agree.
  MonoStack first, second;
  ASSERT_NE(nullptr, RecoverMono(opts, &first));
  ASSERT_NE(nullptr, RecoverMono(opts, &second));
  ExpectDbsIdentical(first.db, second.db, "repeated recovery");
  EXPECT_EQ(15u, first.db.size());
}

TEST(Persist, RepairOffRejectsCorruptTail) {
  const DurabilityOptions base = Opts(test::FreshDir("persist_strict"));
  {
    MonoStack live;
    StatusOr<std::unique_ptr<DurabilityManager>> manager =
        DurabilityManager::Open(base);
    ASSERT_TRUE(manager.ok());
    DurableBackend durable(&live.engine, &live.embedder,
                           manager.value().get(), {&live.db});
    for (size_t id = 0; id < 5; ++id) {
      ASSERT_TRUE(durable.Insert(id, DxOfObject(id)).ok());
    }
  }
  {
    std::ofstream out(base.dir + "/wal.qse",
                      std::ios::binary | std::ios::app);
    out << "torn garbage tail";
  }
  DurabilityOptions strict = base;
  strict.repair_wal = false;
  StatusOr<std::unique_ptr<DurabilityManager>> rejected =
      DurabilityManager::Open(strict);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(StatusCode::kDataLoss, rejected.status().code());

  // Repair mode recovers the clean prefix and reports what it dropped.
  MonoStack recovered;
  uint64_t replayed = 0;
  auto manager = RecoverMono(base, &recovered, &replayed);
  ASSERT_NE(nullptr, manager);
  EXPECT_GT(manager->recovery().repaired_bytes, 0u);
  EXPECT_EQ(5u, replayed);
  EXPECT_EQ(5u, recovered.db.size());
}

TEST(Persist, ModelBlobRoundTripsThroughSnapshot) {
  DurabilityOptions opts = Opts(test::FreshDir("persist_model_blob"));
  opts.model_blob = std::string("fastmap-model\x00v1", 16);
  {
    MonoStack live;
    StatusOr<std::unique_ptr<DurabilityManager>> manager =
        DurabilityManager::Open(opts);
    ASSERT_TRUE(manager.ok());
    DurableBackend durable(&live.engine, &live.embedder,
                           manager.value().get(), {&live.db});
    for (size_t id = 0; id < 8; ++id) {
      ASSERT_TRUE(durable.Insert(id, DxOfObject(id)).ok());
    }
    ASSERT_TRUE(durable.WriteSnapshotNow().ok());
  }
  StatusOr<std::unique_ptr<DurabilityManager>> manager =
      DurabilityManager::Open(opts);
  ASSERT_TRUE(manager.ok());
  EXPECT_TRUE(manager.value()->recovery().loaded_snapshot);
  EXPECT_EQ(opts.model_blob, manager.value()->recovery().model_blob);
}

TEST(Persist, ShardedRecoveryRoundTrip) {
  const DurabilityOptions opts = Opts(test::FreshDir("persist_sharded"));
  constexpr size_t kShards = 3;
  LineEmbedder embedder;
  L2Scorer scorer;
  ShardedEngineOptions shard_opts;
  shard_opts.num_shards = kShards;

  ShardedRetrievalEngine live(&embedder, &scorer, shard_opts);
  {
    StatusOr<std::unique_ptr<DurabilityManager>> manager =
        DurabilityManager::Open(opts);
    ASSERT_TRUE(manager.ok());
    std::vector<const EmbeddedDatabase*> dbs;
    for (size_t s = 0; s < kShards; ++s) {
      dbs.push_back(live.mutable_shard_db(s));
    }
    DurableBackend durable(&live, &embedder, manager.value().get(), dbs);
    for (size_t id = 0; id < 30; ++id) {
      ASSERT_TRUE(durable.Insert(id, DxOfObject(id)).ok());
    }
    for (size_t id = 0; id < 30; id += 7) {
      ASSERT_TRUE(durable.Remove(id).ok());
    }
    ASSERT_TRUE(durable.WriteSnapshotNow().ok());
    ASSERT_TRUE(durable.Insert(100, DxOfObject(100)).ok());
  }

  ShardedRetrievalEngine recovered(&embedder, &scorer, shard_opts);
  StatusOr<std::unique_ptr<DurabilityManager>> manager =
      DurabilityManager::Open(opts);
  ASSERT_TRUE(manager.ok());
  std::vector<EmbeddedDatabase*> dbs;
  for (size_t s = 0; s < kShards; ++s) {
    dbs.push_back(recovered.mutable_shard_db(s));
  }
  ASSERT_TRUE(manager.value()->InstallSnapshot(dbs).ok());
  recovered.RebuildAfterRestore();
  StatusOr<uint64_t> replayed = manager.value()->Replay(&recovered);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(1u, replayed.value());
  for (size_t s = 0; s < kShards; ++s) {
    ExpectDbsIdentical(live.shard(s).db(), recovered.shard(s).db(),
                       "shard " + std::to_string(s));
  }
}

TEST(Persist, InstallSnapshotRejectsShardCountMismatch) {
  const DurabilityOptions opts = Opts(test::FreshDir("persist_shard_mismatch"));
  {
    MonoStack live;
    StatusOr<std::unique_ptr<DurabilityManager>> manager =
        DurabilityManager::Open(opts);
    ASSERT_TRUE(manager.ok());
    DurableBackend durable(&live.engine, &live.embedder,
                           manager.value().get(), {&live.db});
    ASSERT_TRUE(durable.Insert(0, DxOfObject(0)).ok());
    ASSERT_TRUE(durable.WriteSnapshotNow().ok());
  }
  StatusOr<std::unique_ptr<DurabilityManager>> manager =
      DurabilityManager::Open(opts);
  ASSERT_TRUE(manager.ok());
  EmbeddedDatabase a(kLineDims), b(kLineDims);
  Status installed = manager.value()->InstallSnapshot({&a, &b});
  ASSERT_FALSE(installed.ok());
  EXPECT_EQ(StatusCode::kFailedPrecondition, installed.code());
}

// --- DurableBackend contract ---------------------------------------------

TEST(DurableBackendTest, FailedMutationIsNotLogged) {
  const DurabilityOptions opts =
      Opts(test::FreshDir("persist_failed_mutation"));
  MonoStack live;
  StatusOr<std::unique_ptr<DurabilityManager>> manager =
      DurabilityManager::Open(opts);
  ASSERT_TRUE(manager.ok());
  DurableBackend durable(&live.engine, &live.embedder, manager.value().get(),
                         {&live.db});
  ASSERT_TRUE(durable.Insert(1, DxOfObject(1)).ok());
  const uint64_t seq_before = manager.value()->last_seq();
  EXPECT_FALSE(durable.Remove(999).ok());  // Unknown id: apply fails.
  EXPECT_EQ(seq_before, manager.value()->last_seq());  // Nothing logged.
}

TEST(DurableBackendTest, RetrievalsPassThrough) {
  const DurabilityOptions opts = Opts(test::FreshDir("persist_passthrough"));
  MonoStack live;
  StatusOr<std::unique_ptr<DurabilityManager>> manager =
      DurabilityManager::Open(opts);
  ASSERT_TRUE(manager.ok());
  DurableBackend durable(&live.engine, &live.embedder, manager.value().get(),
                         {&live.db});
  for (size_t id = 0; id < 16; ++id) {
    ASSERT_TRUE(durable.Insert(id, DxOfObject(id)).ok());
  }
  RetrievalOptions options(3, 16);
  StatusOr<RetrievalResponse> through =
      durable.Retrieve({MakeDx(XOf(5)), options});
  StatusOr<RetrievalResponse> direct =
      live.engine.Retrieve({MakeDx(XOf(5)), options});
  ASSERT_TRUE(through.ok());
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(direct->neighbors.size(), through->neighbors.size());
  for (size_t i = 0; i < direct->neighbors.size(); ++i) {
    EXPECT_EQ(direct->neighbors[i].index, through->neighbors[i].index);
    EXPECT_EQ(direct->neighbors[i].score, through->neighbors[i].score);
  }
}

TEST(DurableBackendTest, ScanCandidatesBatchForwardsTheOnePassScan) {
  const DurabilityOptions opts = Opts(test::FreshDir("persist_scan_batch"));
  MonoStack live;
  StatusOr<std::unique_ptr<DurabilityManager>> manager =
      DurabilityManager::Open(opts);
  ASSERT_TRUE(manager.ok());
  DurableBackend durable(&live.engine, &live.embedder, manager.value().get(),
                         {&live.db});
  for (size_t id = 0; id < 32; ++id) {
    ASSERT_TRUE(durable.Insert(id, DxOfObject(id)).ok());
  }
  std::vector<Vector> queries;
  for (size_t id : {3u, 11u, 20u, 31u, 7u}) {
    queries.push_back(live.embedder.Embed(MakeDx(XOf(id)), nullptr));
  }
  const RetrievalOptions options(3, 6);
  obs::Histogram* passes = obs::MetricRegistry::Global().GetHistogram(
      "qse_engine_filter_batch_queries", obs::ExponentialBoundaries(1, 2, 10));
  const obs::HistogramSnapshot before = passes->Snapshot();
  StatusOr<std::vector<ScanCandidatesResult>> through =
      durable.ScanCandidatesBatch(queries, options);
  const obs::HistogramSnapshot after = passes->Snapshot();
  ASSERT_TRUE(through.ok()) << through.status();
  // One scan pass scored the whole batch: the decorator forwarded the
  // batch instead of looping per-query scans.
  EXPECT_EQ(before.count + 1, after.count);
  EXPECT_EQ(before.sum + queries.size(), after.sum);
  StatusOr<std::vector<ScanCandidatesResult>> direct =
      live.engine.ScanCandidatesBatch(queries, options);
  ASSERT_TRUE(direct.ok()) << direct.status();
  ASSERT_EQ(direct->size(), through->size());
  for (size_t q = 0; q < direct->size(); ++q) {
    EXPECT_EQ((*direct)[q].candidates, (*through)[q].candidates);
    EXPECT_EQ((*direct)[q].rows, (*through)[q].rows);
    EXPECT_EQ((*direct)[q].rows_pruned, (*through)[q].rows_pruned);
  }
}

}  // namespace
}  // namespace persist
}  // namespace qse
