// Unit tests for the epoch-based reclamation manager behind concurrent
// database mutation: pin/unpin nesting, deferred reclamation ordering,
// the no-reclamation-while-pinned guarantee, reclamation by the last
// reader to unpin, and destructor draining.
#include "src/util/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

namespace qse {
namespace {

TEST(EpochManagerTest, StartsIdle) {
  EpochManager epoch;
  EXPECT_EQ(epoch.pinned_readers(), 0u);
  EXPECT_EQ(epoch.retired_count(), 0u);
}

TEST(EpochManagerTest, PinUnpinTracksReaderCount) {
  EpochManager epoch;
  {
    EpochManager::Guard g = epoch.Pin();
    EXPECT_TRUE(g.pinned());
    EXPECT_EQ(epoch.pinned_readers(), 1u);
  }
  EXPECT_EQ(epoch.pinned_readers(), 0u);
}

TEST(EpochManagerTest, NestedPinsEachHoldTheirOwnSlot) {
  EpochManager epoch;
  EpochManager::Guard outer = epoch.Pin();
  {
    EpochManager::Guard inner = epoch.Pin();
    EXPECT_EQ(epoch.pinned_readers(), 2u);
    // Inner releases first (normal nesting)...
  }
  EXPECT_EQ(epoch.pinned_readers(), 1u);
  // ...but out-of-order release works too.
  EpochManager::Guard a = epoch.Pin();
  EpochManager::Guard b = epoch.Pin();
  EXPECT_EQ(epoch.pinned_readers(), 3u);
  a = EpochManager::Guard();  // Release the older pin before the newer.
  EXPECT_EQ(epoch.pinned_readers(), 2u);
  b = EpochManager::Guard();
  EXPECT_EQ(epoch.pinned_readers(), 1u);
}

TEST(EpochManagerTest, GuardMoveTransfersThePin) {
  EpochManager epoch;
  EpochManager::Guard g = epoch.Pin();
  EpochManager::Guard moved = std::move(g);
  EXPECT_FALSE(g.pinned());
  EXPECT_TRUE(moved.pinned());
  EXPECT_EQ(epoch.pinned_readers(), 1u);
  moved = EpochManager::Guard();
  EXPECT_EQ(epoch.pinned_readers(), 0u);
}

TEST(EpochManagerTest, RetireWithoutReadersReclaimsImmediately) {
  EpochManager epoch;
  bool freed = false;
  epoch.Retire([&freed] { freed = true; });
  EXPECT_TRUE(freed);
  EXPECT_EQ(epoch.retired_count(), 0u);
}

TEST(EpochManagerTest, NoReclamationWhileAnyReaderIsPinned) {
  EpochManager epoch;
  bool freed = false;
  EpochManager::Guard g = epoch.Pin();
  epoch.Retire([&freed] { freed = true; });
  EXPECT_FALSE(freed);
  EXPECT_EQ(epoch.retired_count(), 1u);
  // Reclaim attempts while pinned are no-ops.
  epoch.ReclaimDrained();
  EXPECT_FALSE(freed);
  g = EpochManager::Guard();  // Unpin.
  epoch.ReclaimDrained();
  EXPECT_TRUE(freed);
  EXPECT_EQ(epoch.retired_count(), 0u);
}

TEST(EpochManagerTest, DeferredReclamationOrdersByPinEpoch) {
  EpochManager epoch;
  bool freed_old = false;
  bool freed_new = false;

  // Reader pinned at the current epoch blocks an object retired now...
  EpochManager::Guard old_reader = epoch.Pin();
  epoch.Retire([&freed_old] { freed_old = true; });
  EXPECT_FALSE(freed_old);

  // ...and a reader pinned AFTER that retirement (newer epoch) cannot
  // hold the old object, but blocks one retired after its own pin.
  EpochManager::Guard new_reader = epoch.Pin();
  epoch.Retire([&freed_new] { freed_new = true; });
  EXPECT_FALSE(freed_new);

  // Releasing the old reader drains the old retirement only: the new
  // reader's pin epoch still covers the newer retirement.
  old_reader = EpochManager::Guard();
  epoch.ReclaimDrained();
  EXPECT_TRUE(freed_old);
  EXPECT_FALSE(freed_new);

  new_reader = EpochManager::Guard();
  epoch.ReclaimDrained();
  EXPECT_TRUE(freed_new);
}

TEST(EpochManagerTest, RetireAdvancesTheEpoch) {
  EpochManager epoch;
  uint64_t before = epoch.epoch();
  epoch.Retire([] {});
  EXPECT_EQ(epoch.epoch(), before + 1);
}

TEST(EpochManagerTest, DestructorDrainsPendingRetirements) {
  auto flags = std::make_shared<std::atomic<int>>(0);
  {
    EpochManager epoch;
    {
      EpochManager::Guard g = epoch.Pin();
      epoch.Retire([flags] { flags->fetch_add(1); });
      epoch.Retire([flags] { flags->fetch_add(1); });
      EXPECT_EQ(flags->load(), 0);
    }
    // Unpinned but never explicitly reclaimed: the destructor must run
    // both deleters.
  }
  EXPECT_EQ(flags->load(), 2);
}

TEST(EpochManagerTest, ConcurrentPinsAndRetiresAllReclaim) {
  EpochManager epoch;
  constexpr size_t kRetires = 200;
  constexpr size_t kReaders = 4;
  std::atomic<size_t> freed{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        EpochManager::Guard g = epoch.Pin();
        std::this_thread::yield();
      }
    });
  }
  for (size_t i = 0; i < kRetires; ++i) {
    epoch.Retire([&freed] { freed.fetch_add(1); });
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  epoch.ReclaimDrained();
  EXPECT_EQ(freed.load(), kRetires);
  EXPECT_EQ(epoch.retired_count(), 0u);
}

TEST(EpochManagerTest, LastUnpinFreesTheRetiredObject) {
  EpochManager epoch;
  bool freed = false;
  EpochManager::Guard first = epoch.Pin();
  EpochManager::Guard second = epoch.Pin();
  epoch.Retire([&freed] { freed = true; });
  first = EpochManager::Guard();
  EXPECT_FALSE(freed);  // `second` may still hold the object.
  EXPECT_EQ(epoch.retired_count(), 1u);
  // The last reader out frees it: no Retire or ReclaimDrained follows.
  second = EpochManager::Guard();
  EXPECT_TRUE(freed);
  EXPECT_EQ(epoch.retired_count(), 0u);
}

TEST(EpochManagerTest, UnpinsRacingRetiresLeaveNothingPending) {
  // Readers unpin while the writer retires.  For every retiree either
  // the writer's slot scan or the last pinned reader's unpin frees it,
  // so once the readers have left nothing is pending — with no final
  // ReclaimDrained.
  EpochManager epoch;
  constexpr size_t kRetires = 2000;
  constexpr size_t kReaders = 4;
  std::atomic<size_t> freed{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        EpochManager::Guard outer = epoch.Pin();
        EpochManager::Guard inner = epoch.Pin();
        std::this_thread::yield();
      }
    });
  }
  for (size_t i = 0; i < kRetires; ++i) {
    epoch.Retire([&freed] { freed.fetch_add(1); });
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(freed.load(), kRetires);
  EXPECT_EQ(epoch.retired_count(), 0u);
}

}  // namespace
}  // namespace qse
