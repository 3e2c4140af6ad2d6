#ifndef PARINDA_BENCH_BENCH_UTIL_H_
#define PARINDA_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "common/check.h"
#include "common/file_io.h"
#include "common/memsize.h"
#include "common/strings.h"
#include "common/trace.h"
#include "executor/executor.h"
#include "workload/sdss.h"

namespace parinda {
namespace bench_util {

/// Lazily-built shared SDSS database for one bench binary.
inline Database* SharedSdss(int64_t photoobj_rows = 20000) {
  static Database* db = nullptr;
  static int64_t rows = 0;
  if (db == nullptr || rows != photoobj_rows) {
    delete db;
    db = new Database();
    rows = photoobj_rows;
    SdssConfig config;
    config.photoobj_rows = photoobj_rows;
    auto dataset = BuildSdssDatabase(db, config);
    PARINDA_CHECK_OK(dataset);
  }
  return db;
}

/// Executes every workload query and sums measured cost-unit work.
inline double MeasuredWorkloadCost(const Database& db,
                                   const Workload& workload) {
  CostParams params;
  double total = 0.0;
  for (const WorkloadQuery& query : workload.queries) {
    auto result = ExecuteSql(db, query.sql);
    PARINDA_CHECK_OK(result);
    total += result->stats.MeasuredCost(params) * query.weight;
  }
  return total;
}

/// Prints a markdown table separator-aware header.
inline void PrintHeader(const char* title) {
  std::printf("\n== %s ==\n", title);
}

// --- Machine-readable bench output ------------------------------------------
//
// Every bench binary accepts `--json[=path]` and `--trace[=path]`. Usage
// pattern, in main():
//
//   bench_util::InitFlags(&argc, argv);  // strips them before gbench parses
//   RunReports();                        // calls RecordMetric(...) inside
//   bench_util::WriteJsonIfEnabled("bench_inum");  // -> BENCH_bench_inum.json
//   bench_util::WriteTraceIfEnabled("bench_inum");
//                                        // -> BENCH_bench_inum.trace.json
//
// The report is one flat JSON object {"bench": <name>, "metrics": {...}} so
// the perf trajectory (BENCH_*.json) can be diffed across commits; the trace
// is Chrome trace_event JSON (chrome://tracing, ui.perfetto.dev).

namespace internal {
inline bool& JsonEnabled() {
  static bool enabled = false;
  return enabled;
}
inline std::string& JsonPath() {
  static std::string path;
  return path;
}
inline bool& TraceEnabled() {
  static bool enabled = false;
  return enabled;
}
inline std::string& TracePath() {
  static std::string path;
  return path;
}
/// std::map: deterministic (sorted) key order in the emitted JSON.
inline std::map<std::string, double>& Metrics() {
  static std::map<std::string, double> metrics;
  return metrics;
}
}  // namespace internal

/// Records (or overwrites) one named metric for the JSON report. Cheap and
/// side-effect-free when --json was not given, so report functions call it
/// unconditionally.
inline void RecordMetric(const std::string& name, double value) {
  internal::Metrics()[name] = value;
}

/// Strips `--json[=path]` and `--trace[=path]` from argv (so
/// benchmark::Initialize never sees them), arms WriteJsonIfEnabled /
/// WriteTraceIfEnabled, and starts trace recording when --trace was given.
inline void InitFlags(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      internal::JsonEnabled() = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      internal::JsonEnabled() = true;
      internal::JsonPath() = arg.substr(7);
    } else if (arg == "--trace") {
      internal::TraceEnabled() = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      internal::TraceEnabled() = true;
      internal::TracePath() = arg.substr(8);
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  if (internal::TraceEnabled()) trace::Start();
}

/// Writes the recorded metrics to `--json`'s path (default
/// BENCH_<bench_name>.json in the working directory). No-op without --json.
/// Names are JSON-escaped; non-finite values are emitted as null (bare nan
/// or inf from printf is not valid JSON).
inline void WriteJsonIfEnabled(const char* bench_name) {
  if (!internal::JsonEnabled()) return;
  // Every report carries the process's memory high-water mark (0 on
  // platforms without /proc) so BENCH_*.json tracks space next to time.
  RecordMetric("peak_rss_bytes", static_cast<double>(PeakRssBytes()));
  const std::string path = internal::JsonPath().empty()
                               ? "BENCH_" + std::string(bench_name) + ".json"
                               : internal::JsonPath();
  // Composed in memory and written atomically (temp+rename): a crashed or
  // interrupted bench never tears the perf-trajectory file a previous run
  // left behind.
  std::string out = "{\n  \"bench\": \"" + JsonEscaped(bench_name) +
                    "\",\n  \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : internal::Metrics()) {
    out += first ? "\n    \"" : ",\n    \"";
    out += JsonEscaped(name);
    out += "\": ";
    out += JsonNumber(value);
    first = false;
  }
  out += "\n  }\n}\n";
  if (const Status written = WriteFileAtomic(path, out); !written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return;
  }
  std::printf("JSON report: %s (%zu metrics)\n", path.c_str(),
              internal::Metrics().size());
}

/// Writes the recorded trace to `--trace`'s path (default
/// BENCH_<bench_name>.trace.json). No-op without --trace.
inline void WriteTraceIfEnabled(const char* bench_name) {
  if (!internal::TraceEnabled()) return;
  const std::string path =
      internal::TracePath().empty()
          ? "BENCH_" + std::string(bench_name) + ".trace.json"
          : internal::TracePath();
  const Status written = trace::WriteChromeJson(path);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return;
  }
  std::printf("trace: %s (%zu events)\n", path.c_str(),
              trace::Snapshot().size());
}

}  // namespace bench_util
}  // namespace parinda

#endif  // PARINDA_BENCH_BENCH_UTIL_H_
