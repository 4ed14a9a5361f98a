#pragma once
// Drop-in replacement for BENCHMARK_MAIN() that also emits the repo's
// BENCH_*.json shape via BenchJsonWriter. A --json=PATH argument (consumed
// before google-benchmark sees the command line) selects the output file;
// --json= (empty) disables it. --isa=... is consumed the same way
// (benchutil/isa.h). Console output is unchanged — the collecting
// reporter wraps the default ConsoleReporter.

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "benchutil/isa.h"
#include "benchutil/json_writer.h"

namespace apa::bench {

/// ConsoleReporter that additionally records one JSON row per benchmark run
/// (name, iterations, real/cpu time in seconds, user counters).
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CollectingReporter(BenchJsonWriter* writer) : writer_(writer) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      obs::JsonRecord row;
      row.set("name", run.benchmark_name())
          .set("iterations", static_cast<long long>(run.iterations))
          .set("real_seconds", run.GetAdjustedRealTime() * time_unit_scale(run))
          .set("cpu_seconds", run.GetAdjustedCPUTime() * time_unit_scale(run));
      for (const auto& [name, counter] : run.counters) {
        row.set(name, static_cast<double>(counter.value));
      }
      writer_->add_row(std::move(row));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

 private:
  /// GetAdjusted*Time returns values in the run's declared time unit;
  /// normalize everything to seconds for the JSON.
  static double time_unit_scale(const Run& run) {
    switch (run.time_unit) {
      case benchmark::kNanosecond: return 1e-9;
      case benchmark::kMicrosecond: return 1e-6;
      case benchmark::kMillisecond: return 1e-3;
      case benchmark::kSecond: return 1.0;
    }
    return 1.0;
  }

  BenchJsonWriter* writer_;
};

/// main() body for google-benchmark binaries with BENCH json output.
inline int run_gbench_with_json(int argc, char** argv, const char* bench_name,
                                const char* default_json) {
  std::string json_path = default_json;
  std::string isa = "best";
  std::vector<char*> filtered;
  filtered.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--isa=", 6) == 0) {
      isa = argv[i] + 6;
    } else {
      filtered.push_back(argv[i]);
    }
  }
  select_isa(isa);
  int filtered_argc = static_cast<int>(filtered.size());
  filtered.push_back(nullptr);

  benchmark::Initialize(&filtered_argc, filtered.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, filtered.data())) {
    return 1;
  }
  BenchJsonWriter writer(bench_name);
  CollectingReporter reporter(&writer);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  writer.write(json_path);
  return 0;
}

}  // namespace apa::bench
