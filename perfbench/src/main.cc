// The benchmark binary: runs one workload cold and prints what it
// measured.  run.py builds it and picks the metrics BENCHMARK.json lists.
//
// Usage: qse_perfbench --workload <ts_dtw|scan_1m|churn_remote>
//                      --seed <n> --seconds <s> --trace <0|1>
//
// Output: human-readable lines (host fingerprint, sizes, every metric
// with its unit, layer self times), then one JSON line with `correct`,
// `attempted`, `failed`, `failures` and every metric.  Exits 1 when a
// correctness check fails.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/src/common.h"
#include "perfbench/src/workloads.h"
#include "src/util/logging.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <ts_dtw|scan_1m|churn_remote> "
                 "--seed <n> --seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  qse::SetMinLogLevel(qse::LogLevel::kWarn);
  // Large buffers (database versions, snapshot images) always come from
  // mmap and go back on free, so the resident set tracks live data, not
  // the history of glibc's per-thread arenas, whose dynamic threshold
  // otherwise keeps freed copy-on-write versions resident.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  std::printf("host: %s\n", perfbench::HostFingerprintJson().c_str());
  std::printf("workload: %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::fflush(stdout);

  perfbench::Report report;
  if (args.workload == "ts_dtw") {
    perfbench::RunTsDtw(args, &report);
  } else if (args.workload == "scan_1m") {
    perfbench::RunScan1m(args, &report);
  } else if (args.workload == "churn_remote") {
    perfbench::RunChurnRemote(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  report.Set("fail_share",
             static_cast<double>(report.failed) /
                 static_cast<double>(report.attempted > 0 ? report.attempted
                                                          : 1),
             "share");
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const auto& [name, value] : report.metrics) {
    std::printf("metric %-30s %.17g %s\n", name.c_str(), value.first,
                value.second.c_str());
  }
  std::string failures;
  for (const std::string& f : report.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
    failures += (failures.empty() ? "" : ", ") + JsonString(f);
  }
  std::string metrics;
  for (const auto& [name, value] : report.metrics) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value.first);
    metrics += (metrics.empty() ? "" : ", ") + JsonString(name) +
               ": {\"value\": " + number +
               ", \"unit\": " + JsonString(value.second) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"failures\": [%s], \"metrics\": {%s}}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), failures.c_str(),
      metrics.c_str());
  return report.correct ? 0 : 1;
}
