#ifndef QSE_UTIL_EPOCH_H_
#define QSE_UTIL_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/logging.h"

namespace qse {

/// Epoch-based reclamation: the synchronization backbone of concurrent
/// mutation.  Readers Pin() before dereferencing a published pointer and
/// let the Guard unpin when done; writers publish a replacement pointer,
/// then Retire() the old object with a deleter.  A retired object is
/// physically reclaimed only once every reader pinned early enough to
/// have seen it has unpinned — readers never block, never retry, and
/// never observe freed memory.
///
/// Protocol (all key atomics are seq_cst, so the reasoning below is in
/// the single total order S over them — deliberately: standalone fences
/// would be cheaper on the reader side but are not modeled by
/// ThreadSanitizer, and this repo's CI runs the whole concurrency suite
/// under TSan):
///
///  * Pin: claim a slot by CAS'ing the current epoch E into it, then
///    load the published pointer.  If the CAS lands after a writer's
///    slot scan in S, the subsequent pointer load also lands after the
///    writer's publish in S and reads the replacement — the classic
///    "writer missed the reader" race resolves to "reader missed the
///    old object", which is safe.
///  * Retire: stamp the object with the current epoch R, bump the epoch,
///    append to the retire list.  Any reader that could have loaded the
///    object pinned at an epoch <= R.
///  * Reclaim: free retired objects whose stamp is below the minimum
///    epoch currently pinned (below the current epoch when nothing is
///    pinned).  Retire reclaims, and so does every unpin while retirees
///    are pending: the reader that leaves last frees the object, with no
///    wait for the next mutation.  An unpin with nothing pending costs
///    one load of the pending count.  The pairing is Dekker's: the reader
///    stores its idle slot, then loads the count; the writer stores the
///    count, then loads the slots.  In S one of the two sees the other,
///    so the reader or the writer frees the object — neither can miss it.
///
/// Writers are expected to be serialized by the owning data structure
/// (Retire/Reclaim are nonetheless thread-safe); readers are wait-free
/// except when more than kMaxReaders pins are simultaneously live, where
/// Pin yields until a slot frees up.
class EpochManager {
 public:
  /// Simultaneous pins supported without blocking.  One slot per
  /// in-flight retrieval, not per thread — 256 comfortably covers every
  /// worker pool in the repo.
  static constexpr size_t kMaxReaders = 256;

  EpochManager() = default;
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// Runs every pending deleter.  Must not be destroyed while any reader
  /// is pinned (that reader would be left dereferencing freed memory),
  /// nor while a Guard's release is still running: an unpin reads the
  /// pending count, and may reclaim, after its slot reads idle.
  ~EpochManager() {
    QSE_CHECK_MSG(pinned_readers() == 0,
                  "EpochManager destroyed with pinned readers");
    std::vector<Retired> drain;
    {
      std::lock_guard<std::mutex> lock(retired_mu_);
      drain.swap(retired_);
    }
    for (Retired& r : drain) r.deleter();
  }

  /// RAII pin token.  Movable, not copyable; empty guards (moved-from or
  /// default-constructed) unpin nothing.
  class Guard {
   public:
    Guard() = default;
    Guard(Guard&& other) noexcept
        : manager_(other.manager_), slot_(other.slot_) {
      other.manager_ = nullptr;
    }
    Guard& operator=(Guard&& other) noexcept {
      if (this != &other) {
        Release();
        manager_ = other.manager_;
        slot_ = other.slot_;
        other.manager_ = nullptr;
      }
      return *this;
    }
    ~Guard() { Release(); }

    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

    /// True while this guard holds a pin.
    bool pinned() const { return manager_ != nullptr; }

   private:
    friend class EpochManager;
    Guard(EpochManager* manager, size_t slot)
        : manager_(manager), slot_(slot) {}

    void Release() {
      if (manager_ == nullptr) return;
      EpochManager* manager = manager_;
      manager_ = nullptr;
      manager->slots_[slot_].epoch.store(kIdle, std::memory_order_seq_cst);
      if (manager->pending_.load(std::memory_order_seq_cst) != 0) {
        manager->ReclaimDrained();
      }
    }

    EpochManager* manager_ = nullptr;
    size_t slot_ = 0;
  };

  /// Pins the calling context at the current epoch.  Nesting is fine:
  /// every Pin claims its own slot, so inner guards may outlive or be
  /// released before outer ones in any order.
  Guard Pin() {
    // Spread threads across the slot array so concurrent pins do not
    // all hammer slot 0's cache line.
    size_t start = std::hash<std::thread::id>{}(std::this_thread::get_id()) %
                   kMaxReaders;
    for (;;) {
      uint64_t epoch = epoch_.load(std::memory_order_seq_cst);
      for (size_t probe = 0; probe < kMaxReaders; ++probe) {
        size_t s = (start + probe) % kMaxReaders;
        uint64_t idle = kIdle;
        if (slots_[s].epoch.compare_exchange_strong(
                idle, epoch, std::memory_order_seq_cst)) {
          return Guard(this, s);
        }
      }
      // All slots busy: extremely oversubscribed.  Yield and retry;
      // progress is guaranteed because pinned sections are short.
      std::this_thread::yield();
    }
  }

  /// Registers `deleter` to run once every reader that could still hold
  /// the retired object has unpinned, and advances the epoch so future
  /// pins are distinguishable from those readers.  Reclaims whatever has
  /// already drained; what has not is freed by the last of its readers
  /// to unpin.
  void Retire(std::function<void()> deleter) {
    uint64_t stamp = epoch_.fetch_add(1, std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> lock(retired_mu_);
      retired_.push_back({stamp, std::move(deleter)});
      pending_.store(retired_.size(), std::memory_order_seq_cst);
    }
    ReclaimDrained();
  }

  /// Frees every retired object whose epoch stamp has drained (no reader
  /// is pinned at or before it).  Called by Retire and by an unpin while
  /// retirees are pending; also callable directly.
  void ReclaimDrained() {
    uint64_t min_pinned = MinPinnedEpoch();
    std::vector<Retired> ready;
    {
      std::lock_guard<std::mutex> lock(retired_mu_);
      size_t keep = 0;
      for (size_t i = 0; i < retired_.size(); ++i) {
        if (retired_[i].stamp < min_pinned) {
          ready.push_back(std::move(retired_[i]));
        } else {
          retired_[keep++] = std::move(retired_[i]);
        }
      }
      retired_.resize(keep);
      pending_.store(keep, std::memory_order_seq_cst);
    }
    // Deleters run outside the lock: they may be arbitrarily heavy
    // (freeing a multi-hundred-MB database version).
    for (Retired& r : ready) r.deleter();
  }

  /// Momentary count of pinned readers (diagnostics and tests).
  size_t pinned_readers() const {
    size_t count = 0;
    for (const Slot& slot : slots_) {
      if (slot.epoch.load(std::memory_order_seq_cst) != kIdle) ++count;
    }
    return count;
  }

  /// Retired-but-not-yet-reclaimed objects (tests).
  size_t retired_count() const {
    std::lock_guard<std::mutex> lock(retired_mu_);
    return retired_.size();
  }

  /// Current epoch (tests; advanced by Retire).
  uint64_t epoch() const { return epoch_.load(std::memory_order_seq_cst); }

 private:
  static constexpr uint64_t kIdle = 0;

  struct Retired {
    uint64_t stamp = 0;
    std::function<void()> deleter;
  };

  /// One cache line per slot: a pin/unpin must not invalidate its
  /// neighbors' lines.
  struct alignas(64) Slot {
    std::atomic<uint64_t> epoch{kIdle};
  };

  /// Smallest epoch any reader is pinned at; the current epoch when no
  /// reader is pinned (everything retired earlier has drained).
  uint64_t MinPinnedEpoch() const {
    uint64_t min_pinned = epoch_.load(std::memory_order_seq_cst);
    for (const Slot& slot : slots_) {
      uint64_t e = slot.epoch.load(std::memory_order_seq_cst);
      if (e != kIdle && e < min_pinned) min_pinned = e;
    }
    return min_pinned;
  }

  /// Epochs start at 1 so kIdle (0) can never collide with a pin stamp.
  std::atomic<uint64_t> epoch_{1};
  std::vector<Slot> slots_{kMaxReaders};
  mutable std::mutex retired_mu_;
  std::vector<Retired> retired_;
  /// retired_.size(), stored under retired_mu_ and loaded without it by
  /// every unpin.
  std::atomic<size_t> pending_{0};
};

}  // namespace qse

#endif  // QSE_UTIL_EPOCH_H_
