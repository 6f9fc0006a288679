// Shared plumbing of the benchmark binary: command-line arguments, the
// report every workload fills, timing and percentile helpers, the host
// fingerprint and the memory read-bandwidth probe.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  /// Wall time of the timed phase.  The traced run splits it between an
  /// untraced and a traced half so it can report the tracing overhead.
  double seconds = 10;
  bool trace = false;
};

/// What one run produces.  `metrics` holds every number the workload
/// measured, by name; main() prints the ones BENCHMARK.json lists in the
/// final JSON line and the rest on the human-readable lines above it.
struct Report {
  bool correct = true;
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Free-form lines (sample counts, sizes) printed before the metrics.
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Check(bool ok, const std::string& what);
  void Note(const std::string& line) { notes.push_back(line); }
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Samples this process's resident set every 50 ms from construction
/// until Stop(), which returns the median sample in MB: the memory the
/// workload holds while serving, without the transient peaks whose
/// timing varies from run to run.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  double Stop();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> samples_mb_;
  std::thread thread_;
};

/// CPU model, core count, L3 size and active SIMD tier, as one line of
/// JSON; compare.py refuses to compare runs whose fingerprints differ.
std::string HostFingerprintJson();

/// Bytes of last-level cache (0 when the host does not say).
size_t L3Bytes();

/// Measured read bandwidth in GB/s over a buffer larger than L3, on one
/// thread and on every hardware thread.
struct ReadBandwidth {
  double one_thread_gbps = 0;
  double all_threads_gbps = 0;
};
ReadBandwidth ProbeReadBandwidth();

/// Fills the host.* metrics from a fresh probe.
void AddHostMetrics(Report* report);

/// Recall of `got` against `truth`: |got ∩ truth| / |truth|.
double RecallOf(const std::vector<size_t>& got,
                const std::vector<size_t>& truth);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
