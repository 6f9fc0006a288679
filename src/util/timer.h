#ifndef QSE_UTIL_TIMER_H_
#define QSE_UTIL_TIMER_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace qse {

class FakeClock;

namespace internal {
/// The installed FakeClock, or nullptr when real time flows.  One
/// acquire load on the hot path; writes only happen in tests.
std::atomic<FakeClock*>& ClockOverrideSlot();
}  // namespace internal

/// The one monotonic time source of the codebase: deadlines, trace
/// spans, stage latency metrics, and Timer all read it, so timestamps
/// from different layers are directly comparable.  Backed by
/// std::chrono::steady_clock (immune to wall-clock jumps); tests
/// install a FakeClock via ScopedFakeClock to advance time explicitly
/// instead of sleeping.  Satisfies the Clock named requirements, so it
/// drops in wherever steady_clock did.
struct MonotonicClock {
  using rep = std::chrono::steady_clock::rep;
  using period = std::chrono::steady_clock::period;
  using duration = std::chrono::steady_clock::duration;
  using time_point = std::chrono::steady_clock::time_point;
  static constexpr bool is_steady = true;

  static time_point now();
};

/// A manually advanced monotonic clock for deterministic tests: time
/// stands still until Advance() moves it, so deadline and span tests
/// assert exact orderings instead of sleeping and hoping.  Thread-safe:
/// Now/Advance are atomic, and readers on other threads observe an
/// advance immediately.
class FakeClock {
 public:
  /// Starts at the real clock's current time so absolute timestamps
  /// stay plausible (and monotone against times taken before install).
  FakeClock()
      : now_ns_(std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count()) {}

  MonotonicClock::time_point Now() const {
    return MonotonicClock::time_point(std::chrono::duration_cast<
                                      MonotonicClock::duration>(
        std::chrono::nanoseconds(now_ns_.load(std::memory_order_acquire))));
  }

  template <typename Rep, typename Period>
  void Advance(std::chrono::duration<Rep, Period> d) {
    int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
    now_ns_.fetch_add(ns, std::memory_order_acq_rel);
  }

 private:
  std::atomic<int64_t> now_ns_;
};

/// Installs a FakeClock into MonotonicClock for the enclosing scope.
/// Not nestable and not safe to construct concurrently from two
/// threads (tests install one clock at a time); reads from any thread
/// are fine while it is installed.
class ScopedFakeClock {
 public:
  ScopedFakeClock() {
    internal::ClockOverrideSlot().store(&clock_, std::memory_order_release);
  }
  ~ScopedFakeClock() {
    internal::ClockOverrideSlot().store(nullptr, std::memory_order_release);
  }
  ScopedFakeClock(const ScopedFakeClock&) = delete;
  ScopedFakeClock& operator=(const ScopedFakeClock&) = delete;

  FakeClock& clock() { return clock_; }

 private:
  FakeClock clock_;
};

inline MonotonicClock::time_point MonotonicClock::now() {
  FakeClock* fake =
      internal::ClockOverrideSlot().load(std::memory_order_acquire);
  if (fake != nullptr) return fake->Now();
  return std::chrono::steady_clock::now();
}

/// Wall-clock stopwatch used by benches and experiment harnesses.
/// Nanoseconds elapsed on MonotonicClock since `start` — the latency
/// histograms' unit.
inline uint64_t NsSince(MonotonicClock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          MonotonicClock::now() - start)
          .count());
}

class Timer {
 public:
  Timer() : start_(MonotonicClock::now()) {}

  /// Resets the start time to now.
  void Restart() { start_ = MonotonicClock::now(); }

  /// Elapsed seconds since construction or last Restart().
  double Seconds() const {
    return std::chrono::duration<double>(MonotonicClock::now() - start_)
        .count();
  }

  double Millis() const { return Seconds() * 1e3; }

 private:
  MonotonicClock::time_point start_;
};

}  // namespace qse

#endif  // QSE_UTIL_TIMER_H_
