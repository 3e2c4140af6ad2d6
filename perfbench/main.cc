// Command line of the end-to-end benchmark:
//
//   parinda_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--small]
//
// Prints progress and any failed checks, then as its last stdout line one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/bench_lib.h"

namespace {

int Usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: parinda_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--small]\n",
               error);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace parinda::perfbench;
  std::string workload;
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--small") {
      small = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoll(value, &end, 10);
      if (*end != '\0' || seed < 0) return Usage("bad --seed");
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds > 0.0)) return Usage("bad --seconds");
    } else if (arg == "--trace") {
      const std::string v = value;
      if (v != "0" && v != "1") return Usage("bad --trace");
      trace = v == "1" ? 1 : 0;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (workload.empty() || seed < 0 || seconds <= 0.0 || trace < 0) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  auto spec = SpecFor(workload, small);
  if (!spec.ok()) return Usage(spec.status().ToString().c_str());

  RunOptions options;
  options.spec = *spec;
  options.seed = static_cast<uint64_t>(seed);
  options.seconds = seconds;
  options.trace = trace == 1;
  auto result = RunBenchmark(options);
  if (!result.ok()) {
    std::fprintf(stderr, "benchmark failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  for (const std::string& failure : result->failures) {
    std::fprintf(stderr, "CHECK FAILED %s\n", failure.c_str());
  }
  std::printf("digests index=%s partition=%s session=%s\n",
              result->digests["index"].c_str(),
              result->digests["partition"].c_str(),
              result->digests["session"].c_str());
  std::printf("%s\n", ResultJson(*result, options.trace ? PerLayerMetrics()
                                                       : EndToEndMetrics())
                          .c_str());
  return 0;
}
