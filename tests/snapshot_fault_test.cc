// The atomic-publish matrix: every snapshot fault point (write / fsync /
// rename) crossed with every WAL fsync policy.  The invariant under
// test: a failed snapshot publish NEVER leaves a torn snapshot visible —
// recovery after the failure sees either the previous snapshot (plus the
// untruncated WAL tail) or no snapshot at all, and in both cases
// reproduces the live state bit for bit.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/persist/durability.h"
#include "src/persist/durable_backend.h"
#include "src/persist/snapshot.h"
#include "src/retrieval/embedded_database.h"
#include "src/retrieval/filter_scorer.h"
#include "src/retrieval/retrieval_engine.h"
#include "tests/line_universe.h"
#include "tests/test_util.h"

namespace qse {
namespace persist {
namespace {

using test::DxOfObject;
using test::kLineDims;
using test::LineEmbedder;

struct MonoStack {
  LineEmbedder embedder;
  L2Scorer scorer;
  EmbeddedDatabase db{kLineDims};
  RetrievalEngine engine{&embedder, &scorer, &db, {}};
};

void ExpectDbsIdentical(const EmbeddedDatabase& a, const EmbeddedDatabase& b,
                        const std::string& what) {
  SCOPED_TRACE(what);
  EmbeddedDatabase::Snapshot sa = a.snapshot();
  EmbeddedDatabase::Snapshot sb = b.snapshot();
  const EmbeddedDatabase::View& va = sa.view();
  const EmbeddedDatabase::View& vb = sb.view();
  ASSERT_EQ(va.size(), vb.size());
  ASSERT_EQ(va.dims(), vb.dims());
  EXPECT_EQ(0, std::memcmp(va.data(), vb.data(),
                           va.size() * va.dims() * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(va.ids(), vb.ids(), va.size() * sizeof(size_t)));
}

/// Recovers the durability directory into a fresh stack and asserts bit
/// identity with `live`.
void ExpectRecoversTo(const DurabilityOptions& opts,
                      const EmbeddedDatabase& live, const std::string& what) {
  SCOPED_TRACE(what);
  MonoStack recovered;
  StatusOr<std::unique_ptr<DurabilityManager>> manager =
      DurabilityManager::Open(opts);
  ASSERT_TRUE(manager.ok()) << manager.status();
  ASSERT_TRUE(manager.value()->InstallSnapshot({&recovered.db}).ok());
  recovered.engine.RebuildIdIndex();
  StatusOr<uint64_t> replayed = manager.value()->Replay(&recovered.engine);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  ExpectDbsIdentical(live, recovered.db, what);
}

struct FaultCase {
  testing::FaultPoint point;
  const char* name;
};

class SnapshotFaultMatrix
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

constexpr FaultCase kFaults[] = {
    {testing::FaultPoint::kSnapshotWrite, "write"},
    {testing::FaultPoint::kSnapshotFsync, "fsync"},
    {testing::FaultPoint::kSnapshotRename, "rename"},
};
constexpr FsyncPolicy kPolicies[] = {
    FsyncPolicy::kEveryRecord, FsyncPolicy::kEveryN, FsyncPolicy::kOff};

TEST_P(SnapshotFaultMatrix, FailedPublishNeverTearsTheVisibleSnapshot) {
  const FaultCase fault = kFaults[std::get<0>(GetParam())];
  const FsyncPolicy policy = kPolicies[std::get<1>(GetParam())];
  const std::string dir = test::FreshDir(
      std::string("snapshot_fault_") + fault.name + "_" +
      std::to_string(static_cast<int>(policy)));

  DurabilityOptions opts;
  opts.dir = dir;
  opts.fsync = policy;
  opts.fsync_every_n = 4;

  MonoStack live;
  StatusOr<std::unique_ptr<DurabilityManager>> manager =
      DurabilityManager::Open(opts);
  ASSERT_TRUE(manager.ok()) << manager.status();
  DurableBackend durable(&live.engine, &live.embedder, manager.value().get(),
                         {&live.db});

  // A good first snapshot, so the fault later has a previous image to
  // (not) destroy.
  for (size_t id = 0; id < 12; ++id) {
    ASSERT_TRUE(durable.Insert(id, DxOfObject(id)).ok());
  }
  ASSERT_TRUE(durable.WriteSnapshotNow().ok());
  for (size_t id = 12; id < 20; ++id) {
    ASSERT_TRUE(durable.Insert(id, DxOfObject(id)).ok());
  }
  ASSERT_TRUE(durable.Remove(14).ok());

  // Inject: the publish must fail and report it (fault consumed once).
  testing::SetFaultPoint(fault.point);
  Status failed = durable.WriteSnapshotNow();
  ASSERT_FALSE(failed.ok()) << "fault point " << fault.name
                            << " did not fire";
  EXPECT_EQ(StatusCode::kIOError, failed.code());

  // The failed publish left the OLD snapshot + the full WAL tail: the
  // WAL must not have been truncated (that only happens after a
  // successful publish), and recovery must still reach the live state.
  StatusOr<WalReadResult> wal = ReadWal(dir + "/wal.qse");
  ASSERT_TRUE(wal.ok());
  EXPECT_GT(wal->records.size(), 0u)
      << "WAL was compacted despite the failed snapshot publish";
  ExpectRecoversTo(opts, live.db, "recovery after failed publish");

  // The fault was consumed: the retry publishes cleanly, compacts the
  // WAL, and recovery still agrees.
  ASSERT_TRUE(durable.WriteSnapshotNow().ok());
  StatusOr<WalReadResult> compacted = ReadWal(dir + "/wal.qse");
  ASSERT_TRUE(compacted.ok());
  EXPECT_EQ(0u, compacted->records.size());
  ExpectRecoversTo(opts, live.db, "recovery after retried publish");
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultsAllPolicies, SnapshotFaultMatrix,
    ::testing::Combine(::testing::Range(0, 3), ::testing::Range(0, 3)));

TEST(SnapshotFault, FreshDirectoryFaultLeavesWalOnlyRecovery) {
  // No previous snapshot at all: a failed first publish must leave the
  // directory in the WAL-only state (a *.tmp leftover is ignored).
  const std::string dir = test::FreshDir("snapshot_fault_fresh");
  DurabilityOptions opts;
  opts.dir = dir;
  opts.fsync = FsyncPolicy::kEveryRecord;

  MonoStack live;
  StatusOr<std::unique_ptr<DurabilityManager>> manager =
      DurabilityManager::Open(opts);
  ASSERT_TRUE(manager.ok());
  DurableBackend durable(&live.engine, &live.embedder, manager.value().get(),
                         {&live.db});
  for (size_t id = 0; id < 9; ++id) {
    ASSERT_TRUE(durable.Insert(id, DxOfObject(id)).ok());
  }
  testing::SetFaultPoint(testing::FaultPoint::kSnapshotRename);
  ASSERT_FALSE(durable.WriteSnapshotNow().ok());

  struct stat st;
  EXPECT_NE(0, ::stat((dir + "/snapshot.qse").c_str(), &st))
      << "a failed first publish must not materialize snapshot.qse";
  ExpectRecoversTo(opts, live.db, "wal-only recovery after failed publish");
}

}  // namespace
}  // namespace persist
}  // namespace qse
