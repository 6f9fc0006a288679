#include "perfbench/src/common.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "src/distance/simd/dispatch.h"

namespace perfbench {

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  failures.push_back(what);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

namespace {

double ResidentMb() {
  std::ifstream statm("/proc/self/statm");
  double total_pages = 0, resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

}  // namespace

RssSampler::RssSampler() {
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    do {
      samples_mb_.push_back(ResidentMb());
    } while (!cv_.wait_for(lock, std::chrono::milliseconds(50),
                           [this] { return stop_; }));
  });
}

RssSampler::~RssSampler() { Stop(); }

double RssSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  return Median(samples_mb_);
}

size_t L3Bytes() {
  long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (bytes > 0) return static_cast<size_t>(bytes);
  std::ifstream size_file("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string text;
  if (!(size_file >> text) || text.empty()) return 0;
  double value = std::strtod(text.c_str(), nullptr);
  char suffix = text.back();
  if (suffix == 'K') value *= 1024;
  if (suffix == 'M') value *= 1024 * 1024;
  return static_cast<size_t>(value);
}

namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

// Sums `words` 64-bit words from `data` with four independent
// accumulators, so the loop is limited by loads, not by an add chain.
uint64_t SumWords(const uint64_t* data, size_t words) {
  uint64_t a = 0, b = 0, c = 0, d = 0;
  size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    a += data[i];
    b += data[i + 1];
    c += data[i + 2];
    d += data[i + 3];
  }
  for (; i < words; ++i) a += data[i];
  return a + b + c + d;
}

// Best of `reps` passes of `threads` threads each summing its slice.
double TimedReadGbps(const uint64_t* data, size_t words, size_t threads,
                     int reps) {
  double best = 0;
  std::atomic<uint64_t> sink{0};
  for (int rep = 0; rep < reps; ++rep) {
    uint64_t start = NowNs();
    std::vector<std::thread> pool;
    size_t per = words / threads;
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        size_t lo = t * per;
        size_t hi = t + 1 == threads ? words : lo + per;
        sink.fetch_add(SumWords(data + lo, hi - lo),
                       std::memory_order_relaxed);
      });
    }
    for (std::thread& th : pool) th.join();
    double seconds = SecondsSince(start);
    best = std::max(best, static_cast<double>(words * 8) / seconds / 1e9);
  }
  if (sink.load() == 42) std::fprintf(stderr, " ");  // Keep the sums live.
  return best;
}

}  // namespace

std::string HostFingerprintJson() {
  std::ostringstream out;
  out << "{\"cpu\": \"" << JsonEscape(CpuModel()) << "\", \"nproc\": "
      << std::thread::hardware_concurrency()
      << ", \"l3_bytes\": " << L3Bytes() << ", \"simd\": \""
      << qse::simd::SimdLevelName(qse::simd::ActiveSimdLevel()) << "\"}";
  return out.str();
}

ReadBandwidth ProbeReadBandwidth() {
  // 1.5x the last-level cache, at least 256 MB, so the probe streams
  // from memory like the scans it is compared with.
  size_t bytes = std::max<size_t>(L3Bytes() * 3 / 2, size_t{256} << 20);
  size_t words = bytes / 8;
  std::vector<uint64_t> buffer(words);
  for (size_t i = 0; i < words; ++i) buffer[i] = i;
  size_t threads = std::max<unsigned>(1, std::thread::hardware_concurrency());
  ReadBandwidth result;
  result.one_thread_gbps = TimedReadGbps(buffer.data(), words, 1, 3);
  result.all_threads_gbps = TimedReadGbps(buffer.data(), words, threads, 3);
  return result;
}

void AddHostMetrics(Report* report) {
  ReadBandwidth bw = ProbeReadBandwidth();
  report->Set("host.read_gbps_1t", bw.one_thread_gbps, "GB/s");
  report->Set("host.read_gbps_all", bw.all_threads_gbps, "GB/s");
}

double RecallOf(const std::vector<size_t>& got,
                const std::vector<size_t>& truth) {
  if (truth.empty()) return 1;
  std::unordered_set<size_t> want(truth.begin(), truth.end());
  size_t hits = 0;
  for (size_t id : got) hits += want.count(id);
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

}  // namespace perfbench
