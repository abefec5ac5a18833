// Benchmark harness: runs one workload and prints one JSON line of raw
// results (end-to-end and per-layer metrics, op counts, environment,
// correctness violations) for perfbench/run.py to check and report.
//
//   perfbench --workload=NAME --kind=batch|pool --seed=N --seconds=S --trace=0|1
//             [workload knobs as --key=value] [--dump_inputs=PATH]
#include <sys/resource.h>

#include <cstdio>

#include "harness.h"

int main(int argc, char** argv) {
  perfbench::Params params;
  const std::string error = perfbench::ParseParams(argc, argv, &params);
  if (!error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }

  perfbench::Report report;
  if (params.kind == "batch") {
    perfbench::RunBatchSift(params, &report);
  } else {
    perfbench::RunPoolWorkload(params, &report);
  }
  if (!params.dump_inputs.empty()) {
    for (const std::string& v : report.violations) std::fprintf(stderr, "perfbench: %s\n", v.c_str());
    return report.violations.empty() ? 0 : 1;
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report.end_to_end.Add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
  perfbench::FinishSetUp(params, &report);
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
