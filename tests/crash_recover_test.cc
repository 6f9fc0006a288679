// The headline durability test: SIGKILL a process mid-mutation, recover
// from snapshot + WAL, and assert the recovered database is BIT-IDENTICAL
// (float64 matrix, id column, both filter shadows, int8 scales) to a
// reference built by serially replaying the same operation prefix —
// the crashed process's durable history — from scratch.
//
// Mechanism: this binary is both the gtest suite and the crash child.
// Invoked with --crash_child=<dir> --mode=mono|sharded it recovers
// whatever the directory holds, then applies a DETERMINISTIC op sequence
// (fixed seed; op k gets WAL seq k+1 because every op succeeds by
// construction) through a DurableBackend until it is killed.  The parent
// forks/execs itself, waits until a snapshot exists AND a WAL tail has
// grown past it, SIGKILLs the child mid-stream, recovers, reads
// last_seq() = L, and replays ops[0..L) serially into the reference.
// A second generation (kill, restart the child so IT recovers, kill
// again, recover) checks that recovery composes with itself.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/persist/durability.h"
#include "src/persist/durable_backend.h"
#include "src/retrieval/embedded_database.h"
#include "src/retrieval/filter_precision.h"
#include "src/retrieval/filter_scorer.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/serving/sharded_retrieval_engine.h"
#include "src/util/logging.h"
#include "tests/line_universe.h"
#include "tests/test_util.h"

namespace qse {
namespace persist {

using test::DxOfObject;
using test::ExpectDbsIdentical;
using test::kLineDims;
using test::LineEmbedder;
using test::MakeDx;
using test::Mix64;

namespace {

constexpr uint64_t kCrashSeed = 0x9a7e5c0ffeeull;
constexpr size_t kMaxOps = 500000;
constexpr uint32_t kShadows = kShadowFloat32 | kShadowInt8;
constexpr size_t kShards = 3;

struct CrashOp {
  bool insert;
  size_t id;
};

/// The deterministic op sequence both the child and the reference replay.
/// Every op is valid by construction (fresh ids for inserts, live ids for
/// removes), so the op at index k is exactly the mutation that got WAL
/// sequence k + 1 — the key that lets the parent reconstruct the durable
/// prefix from last_seq() alone.
std::vector<CrashOp> MakeCrashOps(uint64_t seed, size_t count) {
  std::vector<CrashOp> ops;
  ops.reserve(count);
  std::vector<size_t> live;
  size_t next_id = 0;
  uint64_t state = seed;
  auto rnd = [&state]() {
    state = Mix64(state + 0x632be59bd9b4e019ull);
    return state;
  };
  for (size_t i = 0; i < count; ++i) {
    const bool insert =
        live.size() < 64 || (live.size() < 4096 && (rnd() & 1) != 0);
    if (insert) {
      const size_t id = next_id++;
      live.push_back(id);
      ops.push_back({true, id});
    } else {
      const size_t pick = rnd() % live.size();
      const size_t id = live[pick];
      live[pick] = live.back();
      live.pop_back();
      ops.push_back({false, id});
    }
  }
  return ops;
}

DurabilityOptions CrashOptions(const std::string& dir, bool sharded) {
  DurabilityOptions options;
  options.dir = dir;
  options.fsync = FsyncPolicy::kEveryN;
  options.fsync_every_n = 8;
  // Different cadences so the two modes cut snapshots at different seqs.
  options.snapshot_every_records = sharded ? 97 : 64;
  return options;
}

struct MonoStack {
  LineEmbedder embedder;
  L2Scorer scorer;
  EmbeddedDatabase db{kLineDims};
  RetrievalEngine engine{&embedder, &scorer, &db, {}};
};

struct ShardedStack {
  ShardedStack() {
    ShardedEngineOptions options;
    options.num_shards = kShards;
    options.filter_shadows = kShadows;
    engine = std::make_unique<ShardedRetrievalEngine>(&embedder, &scorer,
                                                      options);
  }
  LineEmbedder embedder;
  L2Scorer scorer;
  std::unique_ptr<ShardedRetrievalEngine> engine;
};

Status ApplyOp(RetrievalBackend* backend, const CrashOp& op) {
  return op.insert ? backend->Insert(op.id, DxOfObject(op.id))
                   : backend->Remove(op.id);
}

}  // namespace

/// The crash child: recover the directory, then apply the deterministic
/// op stream from wherever the durable history ends, until killed.
/// Returns nonzero only on a genuine failure (the parent expects to
/// SIGKILL us, never to see a clean exit).
int RunCrashChild(const std::string& dir, const std::string& mode) {
  const bool sharded = (mode == "sharded");
  const DurabilityOptions options = CrashOptions(dir, sharded);
  StatusOr<std::unique_ptr<DurabilityManager>> opened =
      DurabilityManager::Open(options);
  QSE_CHECK_MSG(opened.ok(), "child open failed: " << opened.status());
  DurabilityManager* manager = opened.value().get();

  MonoStack mono;
  ShardedStack shard_stack;
  RetrievalBackend* inner = nullptr;
  const Embedder* embedder = nullptr;
  std::vector<const EmbeddedDatabase*> snapshot_dbs;
  std::vector<EmbeddedDatabase*> restore_dbs;
  if (sharded) {
    inner = shard_stack.engine.get();
    embedder = &shard_stack.embedder;
    for (size_t s = 0; s < kShards; ++s) {
      EmbeddedDatabase* db = shard_stack.engine->mutable_shard_db(s);
      snapshot_dbs.push_back(db);
      restore_dbs.push_back(db);
    }
  } else {
    mono.db.EnableFilterShadows(kShadows);
    inner = &mono.engine;
    embedder = &mono.embedder;
    snapshot_dbs.push_back(&mono.db);
    restore_dbs.push_back(&mono.db);
  }

  Status installed = manager->InstallSnapshot(restore_dbs);
  QSE_CHECK_MSG(installed.ok(), "child install failed: " << installed);
  if (sharded) {
    shard_stack.engine->RebuildAfterRestore();
  } else {
    mono.engine.RebuildIdIndex();
  }
  StatusOr<uint64_t> replayed = manager->Replay(inner);
  QSE_CHECK_MSG(replayed.ok(), "child replay failed: " << replayed.status());

  DurableBackend durable(inner, embedder, manager, snapshot_dbs);
  const std::vector<CrashOp> ops =
      MakeCrashOps(kCrashSeed + (sharded ? 1 : 0), kMaxOps);
  const uint64_t start = manager->last_seq();
  QSE_CHECK(start <= ops.size());

  // Recovery done: tell the parent we are live, then mutate until killed.
  { std::ofstream ready(dir + "/ready"); ready << start; }
  for (size_t i = static_cast<size_t>(start); i < ops.size(); ++i) {
    Status status = ApplyOp(&durable, ops[i]);
    QSE_CHECK_MSG(status.ok(),
                  "child op " << i << " failed: " << status.ToString());
  }
  return 0;
}

namespace {

uint64_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

pid_t SpawnChild(const std::string& dir, const std::string& mode) {
  std::remove((dir + "/ready").c_str());
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  QSE_CHECK_MSG(n > 0, "readlink /proc/self/exe failed");
  exe[n] = '\0';
  const pid_t pid = ::fork();
  QSE_CHECK_MSG(pid >= 0, "fork failed");
  if (pid == 0) {
    std::string child_flag = "--crash_child=" + dir;
    std::string mode_flag = "--mode=" + mode;
    char* argv[] = {exe, child_flag.data(), mode_flag.data(), nullptr};
    ::execv(exe, argv);
    _exit(127);  // execv only returns on failure.
  }
  return pid;
}

/// Polls until `done` holds, failing the test (and reaping the child) if
/// the child dies early or the deadline passes.
template <typename Predicate>
bool WaitUntil(pid_t pid, const Predicate& done, const char* what) {
  for (int spins = 0; spins < 30000; ++spins) {  // ~30s at 1ms.
    if (done()) return true;
    int wstatus = 0;
    if (::waitpid(pid, &wstatus, WNOHANG) == pid) {
      ADD_FAILURE() << "crash child exited early while waiting for " << what
                    << " (status " << wstatus << ")";
      return false;
    }
    ::usleep(1000);
  }
  ADD_FAILURE() << "timed out waiting for " << what;
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  return false;
}

void KillAndReap(pid_t pid) {
  ASSERT_EQ(0, ::kill(pid, SIGKILL));
  int wstatus = 0;
  ASSERT_EQ(pid, ::waitpid(pid, &wstatus, 0));
  ASSERT_TRUE(WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL)
      << "child did not die by SIGKILL: status " << wstatus;
}

/// Exact answer parity between two same-shaped backends.
void ExpectSameAnswers(const RetrievalBackend& a, const RetrievalBackend& b) {
  for (size_t q = 0; q < 24; ++q) {
    const double xq =
        static_cast<double>(Mix64(kCrashSeed + q) >> 11) * 0x1p-53;
    RetrievalOptions options(8, SIZE_MAX);
    StatusOr<RetrievalResponse> ra = a.Retrieve({MakeDx(xq), options});
    StatusOr<RetrievalResponse> rb = b.Retrieve({MakeDx(xq), options});
    ASSERT_TRUE(ra.ok()) << ra.status();
    ASSERT_TRUE(rb.ok()) << rb.status();
    ASSERT_EQ(ra->neighbors.size(), rb->neighbors.size());
    for (size_t i = 0; i < ra->neighbors.size(); ++i) {
      EXPECT_EQ(ra->neighbors[i].index, rb->neighbors[i].index);
      EXPECT_EQ(ra->neighbors[i].score, rb->neighbors[i].score);
    }
  }
}

/// Kill-window controller: wait until the durability dir shows a
/// published snapshot AND a WAL tail beyond it, linger a moment so the
/// kill lands mid-stream, then SIGKILL.
void KillAfterSnapshotAndTail(pid_t pid, const std::string& dir,
                              unsigned linger_ms) {
  const bool reached = WaitUntil(
      pid,
      [&] {
        return FileExists(dir + "/snapshot.qse") &&
               FileSize(dir + "/wal.qse") > kWalFileHeaderBytes + 256;
      },
      "snapshot + WAL tail");
  if (!reached) return;
  ::usleep(linger_ms * 1000);
  KillAndReap(pid);
}

/// Recovery + golden-parity assertion for one mode.  `generations` is
/// how many kill cycles to run; each restart makes the CHILD recover
/// before continuing the op stream.
void RunCrashRecoverTest(const std::string& mode, int generations) {
  const bool sharded = (mode == "sharded");
  const std::string dir = test::FreshDir("crash_recover_" + mode);
  const DurabilityOptions options = CrashOptions(dir, sharded);

  for (int gen = 0; gen < generations; ++gen) {
    const pid_t pid = SpawnChild(dir, mode);
    if (gen == 0) {
      KillAfterSnapshotAndTail(pid, dir, 5 + 4 * static_cast<unsigned>(gen));
    } else {
      // Later generations: wait for the child to finish ITS recovery and
      // make fresh progress, then kill again.
      const uint64_t size_at_spawn = FileSize(dir + "/wal.qse");
      const bool reached = WaitUntil(
          pid,
          [&] {
            return FileExists(dir + "/ready") &&
                   FileSize(dir + "/wal.qse") != size_at_spawn;
          },
          "second-generation progress");
      if (!reached) return;
      ::usleep(20000);
      KillAndReap(pid);
    }
    if (::testing::Test::HasFailure()) return;
  }

  // Recover in-process.
  StatusOr<std::unique_ptr<DurabilityManager>> opened =
      DurabilityManager::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  DurabilityManager* manager = opened.value().get();
  EXPECT_TRUE(manager->recovery().loaded_snapshot);
  const uint64_t kills_left_torn_tail = manager->recovery().repaired_bytes;
  std::printf("[ crash ] %s: snapshot cut %llu, wal tail %llu records, "
              "repaired %llu torn bytes\n",
              mode.c_str(),
              static_cast<unsigned long long>(
                  manager->recovery().snapshot_cut_seq),
              static_cast<unsigned long long>(manager->recovery().wal_records),
              static_cast<unsigned long long>(kills_left_torn_tail));

  MonoStack mono;
  ShardedStack shard_stack;
  RetrievalBackend* recovered = nullptr;
  if (sharded) {
    std::vector<EmbeddedDatabase*> dbs;
    for (size_t s = 0; s < kShards; ++s) {
      dbs.push_back(shard_stack.engine->mutable_shard_db(s));
    }
    ASSERT_TRUE(manager->InstallSnapshot(dbs).ok());
    shard_stack.engine->RebuildAfterRestore();
    recovered = shard_stack.engine.get();
  } else {
    mono.db.EnableFilterShadows(kShadows);
    ASSERT_TRUE(manager->InstallSnapshot({&mono.db}).ok());
    mono.engine.RebuildIdIndex();
    recovered = &mono.engine;
  }
  StatusOr<uint64_t> replayed = manager->Replay(recovered);
  ASSERT_TRUE(replayed.ok()) << replayed.status();

  // The durable history is exactly ops[0..L): rebuild it serially.
  const uint64_t L = manager->last_seq();
  ASSERT_GT(L, 0u);
  const std::vector<CrashOp> ops =
      MakeCrashOps(kCrashSeed + (sharded ? 1 : 0), kMaxOps);
  ASSERT_LE(L, ops.size());

  MonoStack ref_mono;
  ShardedStack ref_shard;
  RetrievalBackend* reference = nullptr;
  if (sharded) {
    reference = ref_shard.engine.get();
  } else {
    ref_mono.db.EnableFilterShadows(kShadows);
    reference = &ref_mono.engine;
  }
  for (uint64_t i = 0; i < L; ++i) {
    Status status = ApplyOp(reference, ops[static_cast<size_t>(i)]);
    ASSERT_TRUE(status.ok()) << "reference op " << i << ": " << status;
  }

  if (sharded) {
    for (size_t s = 0; s < kShards; ++s) {
      ExpectDbsIdentical(ref_shard.engine->shard(s).db(),
                         shard_stack.engine->shard(s).db(),
                         mode + " shard " + std::to_string(s));
    }
  } else {
    ExpectDbsIdentical(ref_mono.db, mono.db, "mono recovered db");
  }
  ExpectSameAnswers(*reference, *recovered);
}

TEST(CrashRecover, MonoKillRecoverBitIdentical) {
  RunCrashRecoverTest("mono", 1);
}

TEST(CrashRecover, ShardedKillRecoverBitIdentical) {
  RunCrashRecoverTest("sharded", 1);
}

TEST(CrashRecover, MonoTwoGenerationsOfKills) {
  RunCrashRecoverTest("mono", 2);
}

TEST(CrashRecover, ShardedTwoGenerationsOfKills) {
  RunCrashRecoverTest("sharded", 2);
}

}  // namespace
}  // namespace persist
}  // namespace qse

int main(int argc, char** argv) {
  std::string dir, mode;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--crash_child=", 14) == 0) {
      dir = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--mode=", 7) == 0) {
      mode = argv[i] + 7;
    }
  }
  if (!dir.empty()) return qse::persist::RunCrashChild(dir, mode);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
