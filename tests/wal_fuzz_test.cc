// Corruption fuzzing for the on-disk formats: truncated tails, single
// bit flips, duplicated records and lying length prefixes for the WAL;
// bit flips and truncation for the snapshot.  The recovery contract
// under attack: the readers never crash and never fabricate data — a
// corrupted WAL always parses to an EXACT PREFIX of the records actually
// written (repair truncates to it, strict mode refuses), and a corrupted
// snapshot always fails kDataLoss rather than restoring wrong rows.
//
// Everything is deterministic (fixed seeds, fixed sampling strides), so
// a failure reproduces exactly.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/persist/durability.h"
#include "src/persist/snapshot.h"
#include "src/persist/wal.h"
#include "src/retrieval/embedded_database.h"
#include "src/retrieval/filter_scorer.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/util/logging.h"
#include "tests/line_universe.h"
#include "tests/test_util.h"

namespace qse {
namespace persist {
namespace {

using test::kLineDims;
using test::LineEmbedder;
using test::XOf;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A reference WAL: inserts and interleaved removes over the line
/// universe, written once per suite.
struct ReferenceWal {
  std::string bytes;               // The clean file.
  std::vector<WalRecord> records;  // What it holds, in order.
};

ReferenceWal BuildReferenceWal(const std::string& dir, size_t num_records) {
  const std::string path = dir + "/wal.qse";
  {
    StatusOr<std::unique_ptr<WalWriter>> writer =
        WalWriter::Open(path, FsyncPolicy::kOff, 0, 0, 0, 1);
    QSE_CHECK(writer.ok());
    for (size_t i = 0; i < num_records; ++i) {
      WalRecord record;
      if (i % 4 == 3) {
        record.op = WalOp::kRemove;
        record.db_id = i - 3;
      } else {
        record.op = WalOp::kInsert;
        record.db_id = i;
        record.row = std::vector<double>(kLineDims, XOf(i));
      }
      QSE_CHECK(writer.value()->Append(&record).ok());
    }
  }
  ReferenceWal ref;
  ref.bytes = ReadFile(path);
  StatusOr<WalReadResult> clean = ReadWal(path);
  QSE_CHECK(clean.ok() && clean.value().dropped_bytes == 0);
  ref.records = std::move(clean.value().records);
  QSE_CHECK(ref.records.size() == num_records);
  return ref;
}

bool RecordsEqual(const WalRecord& a, const WalRecord& b) {
  return a.op == b.op && a.seq == b.seq && a.db_id == b.db_id &&
         a.row.size() == b.row.size() &&
         (a.row.empty() ||
          std::memcmp(a.row.data(), b.row.data(),
                      a.row.size() * sizeof(double)) == 0);
}

/// The core prefix property: whatever the corruption, the parsed records
/// are an exact prefix of what was written.
void ExpectExactPrefix(const WalReadResult& got,
                       const std::vector<WalRecord>& originals,
                       const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_LE(got.records.size(), originals.size());
  for (size_t i = 0; i < got.records.size(); ++i) {
    ASSERT_TRUE(RecordsEqual(originals[i], got.records[i]))
        << "record " << i << " differs from what was written";
  }
}

/// The set of live ids after applying `records` in order.
std::set<size_t> LiveIdsAfter(const std::vector<WalRecord>& records,
                              size_t count) {
  std::set<size_t> live;
  for (size_t i = 0; i < count; ++i) {
    if (records[i].op == WalOp::kInsert) {
      live.insert(records[i].db_id);
    } else {
      live.erase(records[i].db_id);
    }
  }
  return live;
}

/// Opens + recovers a (possibly corrupt) durability dir in repair mode
/// and asserts the recovered database equals the serial replay of the
/// valid prefix.
void ExpectRepairedRecoveryMatchesPrefix(
    const std::string& dir, const std::vector<WalRecord>& originals,
    const std::string& what) {
  SCOPED_TRACE(what);
  DurabilityOptions opts;
  opts.dir = dir;
  opts.fsync = FsyncPolicy::kOff;
  StatusOr<std::unique_ptr<DurabilityManager>> manager =
      DurabilityManager::Open(opts);
  ASSERT_TRUE(manager.ok()) << manager.status();

  LineEmbedder embedder;
  L2Scorer scorer;
  EmbeddedDatabase db(kLineDims);
  RetrievalEngine engine(&embedder, &scorer, &db, {});
  StatusOr<uint64_t> replayed = manager.value()->Replay(&engine);
  ASSERT_TRUE(replayed.ok()) << replayed.status();

  const std::set<size_t> expected =
      LiveIdsAfter(originals, static_cast<size_t>(replayed.value()));
  std::vector<size_t> ids = db.ids();
  std::set<size_t> got(ids.begin(), ids.end());
  EXPECT_EQ(expected, got);
}

constexpr size_t kRefRecords = 24;

TEST(WalFuzz, TruncatedTails) {
  const std::string dir = test::FreshDir("wal_fuzz_trunc");
  const ReferenceWal ref = BuildReferenceWal(dir, kRefRecords);

  std::vector<size_t> cuts;
  for (size_t cut = 0; cut < ref.bytes.size(); cut += 13) cuts.push_back(cut);
  cuts.push_back(ref.bytes.size() - 1);
  for (size_t cut : cuts) {
    const std::string what = "truncated to " + std::to_string(cut);
    WriteFile(dir + "/wal.qse", ref.bytes.substr(0, cut));
    StatusOr<WalReadResult> result = ReadWal(dir + "/wal.qse");
    if (cut > 0 && cut < kWalFileHeaderBytes) {
      // A torn header leaves no valid prefix to repair to.
      EXPECT_FALSE(result.ok()) << what;
      EXPECT_EQ(StatusCode::kDataLoss, result.status().code()) << what;
      continue;
    }
    ASSERT_TRUE(result.ok()) << what << ": " << result.status();
    ExpectExactPrefix(result.value(), ref.records, what);
    EXPECT_LE(result->valid_bytes, cut) << what;
    EXPECT_EQ(cut == 0 ? 0 : cut - result->valid_bytes,
              result->dropped_bytes)
        << what;
    if (result->dropped_bytes > 0) {
      EXPECT_FALSE(result->tail_status.ok()) << what;
    }
    ExpectRepairedRecoveryMatchesPrefix(dir, ref.records, what);
  }
}

TEST(WalFuzz, SingleBitFlips) {
  const std::string dir = test::FreshDir("wal_fuzz_flip");
  const ReferenceWal ref = BuildReferenceWal(dir, kRefRecords);

  for (size_t pos = 0; pos < ref.bytes.size(); pos += 7) {
    const size_t bit = pos % 8;
    const std::string what = "bit " + std::to_string(bit) + " at byte " +
                             std::to_string(pos);
    std::string corrupt = ref.bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1u << bit));
    WriteFile(dir + "/wal.qse", corrupt);
    StatusOr<WalReadResult> result = ReadWal(dir + "/wal.qse");
    if (!result.ok()) {
      // Only a broken header may reject the whole file.
      EXPECT_LT(pos, kWalFileHeaderBytes) << what;
      EXPECT_EQ(StatusCode::kDataLoss, result.status().code()) << what;
      DurabilityOptions opts;
      opts.dir = dir;
      EXPECT_FALSE(DurabilityManager::Open(opts).ok()) << what;
      continue;
    }
    ExpectExactPrefix(result.value(), ref.records, what);
    EXPECT_LE(result->valid_bytes, ref.bytes.size()) << what;

    // Strict mode must refuse anything repair would have to drop — check
    // BEFORE the repair-mode recovery below truncates the tail on disk.
    if (result->dropped_bytes > 0) {
      DurabilityOptions strict;
      strict.dir = dir;
      strict.repair_wal = false;
      StatusOr<std::unique_ptr<DurabilityManager>> rejected =
          DurabilityManager::Open(strict);
      ASSERT_FALSE(rejected.ok()) << what;
      EXPECT_EQ(StatusCode::kDataLoss, rejected.status().code()) << what;
    }
    ExpectRepairedRecoveryMatchesPrefix(dir, ref.records, what);
  }
}

TEST(WalFuzz, DuplicatedRecordIsParsedButNotReplayed) {
  const std::string dir = test::FreshDir("wal_fuzz_dup");
  const ReferenceWal ref = BuildReferenceWal(dir, kRefRecords);

  // Byte range of record 5: walk the frames.
  size_t offset = kWalFileHeaderBytes;
  for (size_t i = 0; i < 5; ++i) {
    uint32_t len;
    std::memcpy(&len, ref.bytes.data() + offset + 4, sizeof(len));
    offset += kWalRecordHeaderBytes + len;
  }
  uint32_t len;
  std::memcpy(&len, ref.bytes.data() + offset + 4, sizeof(len));
  const std::string dup =
      ref.bytes.substr(offset, kWalRecordHeaderBytes + len);

  WriteFile(dir + "/wal.qse", ref.bytes + dup);
  StatusOr<WalReadResult> result = ReadWal(dir + "/wal.qse");
  ASSERT_TRUE(result.ok()) << result.status();
  // Byte-level: the duplicate is a perfectly valid frame.
  ASSERT_EQ(kRefRecords + 1, result->records.size());
  EXPECT_EQ(0u, result->dropped_bytes);
  EXPECT_EQ(result->records[5].seq, result->records.back().seq);

  // Replay-level: sequence hygiene skips it, and the writer resumes
  // after the true maximum, not after the stale trailing seq.
  DurabilityOptions opts;
  opts.dir = dir;
  opts.fsync = FsyncPolicy::kOff;
  StatusOr<std::unique_ptr<DurabilityManager>> manager =
      DurabilityManager::Open(opts);
  ASSERT_TRUE(manager.ok()) << manager.status();
  EXPECT_EQ(kRefRecords, manager.value()->last_seq());

  LineEmbedder embedder;
  L2Scorer scorer;
  EmbeddedDatabase db(kLineDims);
  RetrievalEngine engine(&embedder, &scorer, &db, {});
  StatusOr<uint64_t> replayed = manager.value()->Replay(&engine);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(kRefRecords, replayed.value());
  std::vector<size_t> ids = db.ids();
  EXPECT_EQ(LiveIdsAfter(ref.records, kRefRecords),
            std::set<size_t>(ids.begin(), ids.end()));
}

TEST(WalFuzz, LyingLengthPrefixes) {
  const std::string dir = test::FreshDir("wal_fuzz_len");
  const ReferenceWal ref = BuildReferenceWal(dir, kRefRecords);

  // Patch record 3's length field three ways.
  size_t offset = kWalFileHeaderBytes;
  for (size_t i = 0; i < 3; ++i) {
    uint32_t len;
    std::memcpy(&len, ref.bytes.data() + offset + 4, sizeof(len));
    offset += kWalRecordHeaderBytes + len;
  }
  struct Lie {
    uint32_t value;
    const char* name;
  };
  const Lie lies[] = {
      {kMaxWalRecordBytes + 1, "implausibly huge"},
      {static_cast<uint32_t>(ref.bytes.size()), "larger than remaining"},
      {4, "smaller than actual"},
  };
  for (const Lie& lie : lies) {
    SCOPED_TRACE(lie.name);
    std::string corrupt = ref.bytes;
    std::memcpy(&corrupt[offset + 4], &lie.value, sizeof(lie.value));
    WriteFile(dir + "/wal.qse", corrupt);
    StatusOr<WalReadResult> result = ReadWal(dir + "/wal.qse");
    ASSERT_TRUE(result.ok()) << result.status();
    // The lie ends the valid prefix at record 3, every time.
    ASSERT_EQ(3u, result->records.size());
    ExpectExactPrefix(result.value(), ref.records, lie.name);
    EXPECT_GT(result->dropped_bytes, 0u);
    EXPECT_FALSE(result->tail_status.ok());
    ExpectRepairedRecoveryMatchesPrefix(dir, ref.records, lie.name);
  }
}

// --- snapshot corruption -------------------------------------------------

std::string BuildReferenceSnapshot(const std::string& path) {
  EmbeddedDatabase db(kLineDims);
  for (size_t id = 0; id < 10; ++id) {
    db.Append(Vector(kLineDims, XOf(id)), id);
  }
  EmbeddedDatabase::Snapshot pin = db.snapshot();
  const std::string bytes = EncodeSnapshot(10, "model-blob", {pin.view()});
  QSE_CHECK(WriteSnapshotFile(path, bytes).ok());
  return bytes;
}

TEST(SnapshotFuzz, BitFlipsAlwaysFailDataLossNeverCrash) {
  const std::string dir = test::FreshDir("snapshot_fuzz_flip");
  const std::string path = dir + "/snapshot.qse";
  const std::string clean = BuildReferenceSnapshot(path);

  for (size_t pos = 0; pos < clean.size(); pos += 5) {
    const std::string what = "flip at byte " + std::to_string(pos);
    std::string corrupt = clean;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1u << (pos % 8)));
    WriteFile(path, corrupt);
    StatusOr<SnapshotContents> result = ReadSnapshotFile(path);
    ASSERT_FALSE(result.ok()) << what << ": a flipped snapshot decoded";
    EXPECT_EQ(StatusCode::kDataLoss, result.status().code()) << what;

    // And the manager refuses to come up rather than serving wrong rows.
    DurabilityOptions opts;
    opts.dir = dir;
    StatusOr<std::unique_ptr<DurabilityManager>> manager =
        DurabilityManager::Open(opts);
    ASSERT_FALSE(manager.ok()) << what;
    EXPECT_EQ(StatusCode::kDataLoss, manager.status().code()) << what;
  }
}

TEST(SnapshotFuzz, TruncationsAlwaysFailDataLossNeverCrash) {
  const std::string dir = test::FreshDir("snapshot_fuzz_trunc");
  const std::string path = dir + "/snapshot.qse";
  const std::string clean = BuildReferenceSnapshot(path);

  for (size_t cut = 0; cut < clean.size(); cut += 9) {
    const std::string what = "truncated to " + std::to_string(cut);
    WriteFile(path, clean.substr(0, cut));
    StatusOr<SnapshotContents> result = ReadSnapshotFile(path);
    ASSERT_FALSE(result.ok()) << what;
    EXPECT_EQ(StatusCode::kDataLoss, result.status().code()) << what;
  }
}

TEST(SnapshotFuzz, TrailingGarbageFailsDataLoss) {
  const std::string dir = test::FreshDir("snapshot_fuzz_trailing");
  const std::string path = dir + "/snapshot.qse";
  const std::string clean = BuildReferenceSnapshot(path);
  WriteFile(path, clean + "extra");
  StatusOr<SnapshotContents> result = ReadSnapshotFile(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(StatusCode::kDataLoss, result.status().code());
}

}  // namespace
}  // namespace persist
}  // namespace qse
