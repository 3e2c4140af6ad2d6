#include "perfbench/bench_lib.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cmath>
#include <limits>
#include <memory>
#include <unordered_map>
#include <utility>

#include "advisor/candidates.h"
#include "advisor/index_advisor.h"
#include "autopart/autopart.h"
#include "common/memsize.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/strings.h"
#include "design/design_session.h"
#include "executor/executor.h"
#include "parinda/parinda.h"
#include "workload/compress.h"
#include "workload/sdss.h"
#include "workload/sdss_scale.h"

namespace parinda {
namespace perfbench {

// --- Workloads ----------------------------------------------------------------

std::vector<std::string> WorkloadNames() {
  return {"sdss-zipf", "sdss-distinct", "sdss-zipf-tight"};
}

Result<WorkloadSpec> SpecFor(const std::string& name, bool small) {
  WorkloadSpec spec;
  // 384 KiB: at 4 MiB the branch-and-bound tree ranged over 35-141 nodes
  // across seeds (and 8 MiB hit 2,596 on one), while at 384 KiB seeds 1-16
  // needed 29-37 nodes (NOTES.md).
  spec.index_budget_bytes = 384.0 * 1024.0;
  if (name == "sdss-zipf") {
    // defaults
  } else if (name == "sdss-distinct") {
    spec.queries_per_template = 7;  // 210 queries, ~192 distinct texts
    spec.literal_variants = 400;
    spec.index_budget_bytes = std::numeric_limits<double>::infinity();
  } else if (name == "sdss-zipf-tight") {
    // The unbudgeted engine cache of AutoPart peaks near 83 MiB here.
    spec.memory_budget_bytes = 2 * 1024 * 1024;
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  if (small) {
    spec.photoobj_rows = 2000;
    spec.num_queries = spec.num_queries / 10;
    spec.queries_per_template = std::min(spec.queries_per_template, 1);
    spec.setup_reps = 2;
    if (spec.memory_budget_bytes > 0) spec.memory_budget_bytes = 64 * 1024;
  }
  return spec;
}

// --- Statistics ---------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double rank = std::ceil(std::clamp(p, 0.0, 100.0) / 100.0 * n);
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double HighestReportablePercentile(size_t n, size_t min_beyond) {
  if (n <= min_beyond) return 0.0;
  return 100.0 * static_cast<double>(n - min_beyond) / static_cast<double>(n);
}

// --- Session script -------------------------------------------------------------

Result<std::vector<ScriptStep>> MakeStepScript(const CatalogReader& catalog,
                                               const Workload& workload,
                                               uint64_t seed, int steps,
                                               int max_live) {
  PARINDA_ASSIGN_OR_RETURN(std::vector<WhatIfIndexDef> pool,
                           GenerateCandidateIndexes(catalog, workload));
  if (pool.empty()) return Status::InvalidArgument("no candidate indexes");
  // Per table: its candidate indexes, and their key columns (the columns a
  // partition step groups).
  std::map<TableId, std::vector<size_t>> table_pool;
  std::map<TableId, std::vector<ColumnId>> table_columns;
  for (size_t k = 0; k < pool.size(); ++k) {
    table_pool[pool[k].table].push_back(k);
    std::vector<ColumnId>& cols = table_columns[pool[k].table];
    for (ColumnId c : pool[k].columns) {
      if (std::find(cols.begin(), cols.end(), c) == cols.end()) cols.push_back(c);
    }
  }
  std::vector<TableId> tables;
  for (auto& [table, cols] : table_columns) {
    std::sort(cols.begin(), cols.end());
    tables.push_back(table);
  }

  struct Live {
    int step = 0;
    bool partition = false;
    TableId table = kInvalidTableId;
    size_t pool_index = 0;
  };
  auto taken = [](const std::vector<Live>& live, bool partition, TableId table,
                  size_t pool_index) {
    return std::any_of(live.begin(), live.end(), [&](const Live& l) {
      return l.partition == partition && l.table == table &&
             (partition || l.pool_index == pool_index);
    });
  };
  // The script's shape (which kind of step, on which table; drops remove the
  // oldest live feature) comes from a fixed stream, so every seed gets the
  // same mix of heavy and light steps; the seed picks the columns.
  Random shape(0x5ca1ab1e);
  Random pick(seed * 0x9e3779b97f4a7c15ULL + 0x5e55);
  std::vector<Live> live;
  std::vector<ScriptStep> script;
  for (int i = 0; i < steps; ++i) {
    ScriptStep step;
    const double u = shape.NextDouble();
    const size_t first_table = shape.Uniform(tables.size());
    bool drop = !live.empty() &&
                (static_cast<int>(live.size()) >= max_live || u < 0.3);
    const bool partition = !drop && u < 0.45;
    bool added = false;
    // The shape's table, or the next one (cyclically) with room.
    for (size_t t = 0; !drop && !added && t < tables.size(); ++t) {
      const TableId table = tables[(first_table + t) % tables.size()];
      if (partition) {
        if (taken(live, true, table, 0)) continue;
        std::vector<ColumnId> cols = table_columns[table];
        // Fisher-Yates prefix: 1 to 3 distinct columns.
        const size_t want = 1 + pick.Uniform(std::min<size_t>(3, cols.size()));
        for (size_t k = 0; k < want; ++k) {
          std::swap(cols[k], cols[k + pick.Uniform(cols.size() - k)]);
        }
        cols.resize(want);
        std::sort(cols.begin(), cols.end());
        step.kind = ScriptStep::Kind::kAddPartition;
        step.partition.name = "s" + std::to_string(i) + "_frag";
        step.partition.parent = table;
        step.partition.columns = cols;
        live.push_back({i, true, table, 0});
        added = true;
      } else {
        std::vector<size_t> free;
        for (size_t k : table_pool[table]) {
          if (!taken(live, false, table, k)) free.push_back(k);
        }
        if (free.empty()) continue;
        const size_t k = free[pick.Uniform(free.size())];
        step.kind = ScriptStep::Kind::kAddIndex;
        step.index = pool[k];
        step.index.name = "s" + std::to_string(i) + "_ix";
        live.push_back({i, false, table, k});
        added = true;
      }
    }
    if (!added) {
      if (live.empty()) return Status::Internal("script has nothing to add");
      step.kind = ScriptStep::Kind::kDrop;
      step.drop_of = live.front().step;
      live.erase(live.begin());
    }
    script.push_back(std::move(step));
  }
  return script;
}

std::string DescribeScript(const std::vector<ScriptStep>& script) {
  std::string out;
  auto columns = [](const std::vector<ColumnId>& cols) {
    std::string s;
    for (ColumnId c : cols) s += (s.empty() ? "" : ",") + std::to_string(c);
    return s;
  };
  for (const ScriptStep& step : script) {
    switch (step.kind) {
      case ScriptStep::Kind::kAddIndex:
        out += "add-index " + step.index.name + " table=" +
               std::to_string(step.index.table) + " cols=" +
               columns(step.index.columns) + "\n";
        break;
      case ScriptStep::Kind::kAddPartition:
        out += "add-partition " + step.partition.name + " table=" +
               std::to_string(step.partition.parent) + " cols=" +
               columns(step.partition.columns) + "\n";
        break;
      case ScriptStep::Kind::kDrop:
        out += "drop step " + std::to_string(step.drop_of) + "\n";
        break;
    }
  }
  return out;
}

// --- Trace analysis -------------------------------------------------------------

std::map<std::string, SpanTotals> SpanSelfTimes(
    const std::vector<trace::TraceEvent>& events) {
  std::map<std::string, SpanTotals> totals;
  std::map<int, std::vector<const trace::TraceEvent*>> by_thread;
  for (const trace::TraceEvent& e : events) by_thread[e.tid].push_back(&e);
  struct Open {
    const trace::TraceEvent* event;
    double covered_us;
  };
  auto close = [&](const Open& open) {
    SpanTotals& t = totals[open.event->name];
    t.count += 1;
    t.total_s += open.event->dur_us * 1e-6;
    t.self_s += std::max(0.0, open.event->dur_us - open.covered_us) * 1e-6;
  };
  for (auto& [tid, list] : by_thread) {
    // Parents before children: earlier start first, longer span on ties.
    std::sort(list.begin(), list.end(), [](const trace::TraceEvent* a,
                                           const trace::TraceEvent* b) {
      if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
      return a->dur_us > b->dur_us;
    });
    std::vector<Open> stack;
    for (const trace::TraceEvent* e : list) {
      while (!stack.empty() &&
             e->ts_us >= stack.back().event->ts_us + stack.back().event->dur_us) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) stack.back().covered_us += e->dur_us;
      stack.push_back({e, 0.0});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  return totals;
}

// --- Metric catalog ---------------------------------------------------------------

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"index_advice_s", "s"},
      {"partition_advice_s", "s"},
      {"whatif_step_p50_ms", "ms"},
      {"whatif_step_p95_ms", "ms"},
      {"index_speedup_exec", "x"},
      {"partition_speedup_exec", "x"},
      {"peak_rss_mb", "MiB"},
      {"ok_ops_frac", "ratio"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"storage.build_s", "s"},
      {"parser.parse_bind_s", "s"},
      {"parser.queries", "count"},
      {"workload.compress_s", "s"},
      {"workload.fold_ratio", "ratio"},
      {"optimizer.plans.index", "count"},
      {"optimizer.plans.partition", "count"},
      {"optimizer.plans.session", "count"},
      {"optimizer.plan_query_self_s", "s"},
      {"inum.build_entry_count", "count"},
      {"inum.build_entry_self_s", "s"},
      {"inum.hit_rate", "ratio"},
      {"advisor.prepare_self_s", "s"},
      {"advisor.solve_self_s", "s"},
      {"advisor.finish_self_s", "s"},
      {"advisor.sparse_nnz", "count"},
      {"advisor.index_speedup_est", "x"},
      {"solver.nodes_expanded", "count"},
      {"solver.nodes_pruned", "count"},
      {"solver.lp_copies", "count"},
      {"engine.evaluations", "count"},
      {"engine.cache_hits", "count"},
      {"engine.cache_misses", "count"},
      {"engine.hit_rate", "ratio"},
      {"engine.cache_evictions", "count"},
      {"engine.cache_peak_bytes", "bytes"},
      {"autopart.base_self_s", "s"},
      {"autopart.search_self_s", "s"},
      {"autopart.final_self_s", "s"},
      {"autopart.evaluations", "count"},
      {"autopart.partition_speedup_est", "x"},
      {"design.evaluate_s", "s"},
      {"design.base_self_s", "s"},
      {"design.whatif_self_s", "s"},
      {"design.planner_calls", "count"},
      {"design.invalidations", "count"},
      {"design.eval_incremental", "count"},
      {"design.eval_full", "count"},
      {"parinda.materialize_s", "s"},
      {"executor.execute_s", "s"},
      {"executor.pages_read", "pages"},
      {"trace.dropped", "count"},
      {"trace.overhead_frac", "ratio"},
      {"index.unattributed_s", "s"},
      {"partition.unattributed_s", "s"},
      {"session.unattributed_s", "s"},
  };
  return defs;
}

std::string ResultJson(const RunResult& result,
                       const std::vector<MetricDef>& defs) {
  std::string out = StringPrintf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
      result.correct ? "true" : "false",
      static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed));
  bool first = true;
  for (const MetricDef& def : defs) {
    const auto it = result.metrics.find(def.name);
    const double value = it == result.metrics.end() ? 0.0 : it->second;
    out += StringPrintf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                        first ? "" : ", ", def.name, JsonNumber(value).c_str(),
                        def.unit);
    first = false;
  }
  return out + "}}";
}

// --- The run ----------------------------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Ring size for one traced phase. The largest phase, sdss-zipf-tight's
/// 200-step session, emits about 90k optimizer.plan_query spans; a run whose
/// ring overflowed fails (trace.no_drops).
constexpr size_t kTraceCapacity = size_t{1} << 18;

/// Rounds every run makes, whatever --seconds says: each script step and
/// advisor call is timed at least twice, and a traced run gets one untraced
/// and one traced round.
constexpr int kMinRounds = 2;

/// Advice calls per round, each on a fresh advisor. Index advice is the
/// shortest scenario; AutoPart is asked twice so that its median rests on as
/// many calls as a run can afford.
constexpr int kIndexCallsPerRound = 3;
constexpr int kPartitionCallsPerRound = 2;

/// The script is replayed until a round has spent this long on it: once on
/// the Zipf workloads (≈4 s a replay), several times on sdss-distinct
/// (≈0.3 s), whose step medians would otherwise rest on two replays.
constexpr double kMinSessionSeconds = 1.0;

/// The process-wide counters the per-layer metrics are deltas of.
const char* const kCounters[] = {
    "planner.plans_built",  "solver.nodes_expanded",   "solver.nodes_pruned",
    "solver.lp_copies",     "inum.cache_hits",         "inum.cache_misses",
    "engine.evaluations",   "engine.cache_hits",       "engine.cache_misses",
    "engine.cache_evictions", "design.invalidations",  "design.eval_incremental",
    "design.eval_full",
};

using Counts = std::map<std::string, int64_t>;

Counts ReadCounters() {
  Counts out;
  for (const char* name : kCounters) {
    out[name] = metrics::Registry::Global().counter(name).value();
  }
  return out;
}

Counts Delta(const Counts& after, const Counts& before) {
  Counts out;
  for (const auto& [name, value] : after) out[name] = value - before.at(name);
  return out;
}

/// Everything one phase (index advice, partition advice, or the session
/// script) leaves for the per-layer metrics.
struct PhaseLog {
  double wall_s = 0.0;
  Counts counts;
  std::map<std::string, SpanTotals> spans;
  int64_t dropped = 0;

  double Self(const std::string& name) const {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.self_s;
  }
  double Total(const std::string& name) const {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_s;
  }
  int64_t SpanCount(const std::string& name) const {
    const auto it = spans.find(name);
    return it == spans.end() ? 0 : it->second.count;
  }
  int64_t Count(const std::string& name) const { return counts.at(name); }
};

/// Runs `body` as one phase; when `traced`, inside its own trace ring under a
/// root span named `root` whose self time is the phase's unattributed time.
template <typename Body>
PhaseLog RunPhase(const char* root, bool traced, Body&& body) {
  PhaseLog log;
  const Counts before = ReadCounters();
  if (traced) trace::Start(kTraceCapacity);
  const auto begin = Clock::now();
  body();
  const auto end = Clock::now();
  log.wall_s = std::chrono::duration<double>(end - begin).count();
  log.counts = Delta(ReadCounters(), before);
  if (traced) {
    trace::RecordComplete(root, begin, end);
    trace::Stop();
    log.dropped = trace::dropped();
    log.spans = SpanSelfTimes(trace::Snapshot());
    trace::Clear();
  }
  return log;
}

/// HostReferenceSeconds() on an idle host of the kind the benchmark was
/// tuned on; timings are scaled to it (see NormalizedSeconds).
constexpr double kReferenceSeconds = 0.010;

/// Script steps between two host-speed samples in a session.
constexpr int kStepsPerReference = 50;

/// A fixed CPU and memory workload that shares no code with PARINDA: hash
/// and ordered maps of strings and doubles, a sort, and a fresh 8 MiB buffer
/// touched page by page. Its time tracks how fast the host runs
/// single-threaded code right now. Returns the fastest of three repetitions.
/// Freeing the buffer also raises glibc's dynamic mmap and trim thresholds
/// once, during set-up, so the advisors reuse heap pages instead of faulting
/// them in afresh on every call (NOTES.md).
double HostReferenceSeconds() {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = Clock::now();
    Random rng(42);
    std::unordered_map<uint64_t, std::string> names;
    std::map<uint64_t, double> ordered;
    std::vector<double> values;
    for (int i = 0; i < 15000; ++i) {
      const uint64_t key = rng.Uniform(40000);
      names[key] = std::to_string(key);
      ordered[key] = static_cast<double>(key) * 0.5;
      values.push_back(static_cast<double>(key % 977));
    }
    uint64_t found = 0;
    for (int i = 0; i < 40000; ++i) {
      const uint64_t key = rng.Uniform(40000);
      found += names.count(key) + ordered.count(key);
    }
    std::sort(values.begin(), values.end());
    std::vector<char> pages(size_t{8} << 20);
    for (size_t i = 0; i < pages.size(); i += 4096) pages[i] = 1;
    volatile uint64_t sink = found + static_cast<uint64_t>(values.back()) +
                             static_cast<uint64_t>(pages[4096]);
    (void)sink;
    const double took = SecondsSince(start);
    best = rep == 0 ? took : std::min(best, took);
  }
  return best;
}

/// `raw` seconds scaled to the reference host speed: the host's speed is the
/// mean of the reference samples taken just before and just after the timed
/// operation.
double NormalizedSeconds(double raw, double ref_before, double ref_after) {
  return raw * kReferenceSeconds / (0.5 * (ref_before + ref_after));
}

/// Counts operations and names the ones that failed.
class Ledger {
 public:
  explicit Ledger(RunResult* result) : result_(result) {}

  bool Check(bool ok, const std::string& what, const std::string& detail = "") {
    ++result_->attempted;
    if (!ok) {
      ++result_->failed;
      result_->correct = false;
      result_->failures.push_back(detail.empty() ? what : what + ": " + detail);
    }
    return ok;
  }

 private:
  RunResult* result_;
};

/// Evictions under a memory budget change planner-call counts, never the
/// advice; every other degradation is a failure.
bool AcceptableDegradation(const DegradationReport& report) {
  for (const std::string& fallback : report.fallbacks) {
    if (fallback != "engine:cache-evicted") return false;
  }
  return !report.degraded || !report.fallbacks.empty();
}

std::string Hex(double v) { return StringPrintf("%a", v); }

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string Digest(const std::string& canonical) {
  return StringPrintf("%016llx",
                      static_cast<unsigned long long>(Fnv1a(canonical)));
}

void AppendSummary(const AdviceSummary& s, std::string* out) {
  *out += Hex(s.base_cost) + "|" + Hex(s.optimized_cost) + "|";
  for (double v : s.per_query_base) *out += Hex(v) + ",";
  *out += "|";
  for (double v : s.per_query_optimized) *out += Hex(v) + ",";
}

std::string IndexDigest(const IndexAdvice& advice) {
  std::string s;
  for (const SuggestedIndex& ix : advice.indexes) {
    s += std::to_string(ix.def.table) + ":";
    for (ColumnId c : ix.def.columns) s += std::to_string(c) + ",";
    s += Hex(ix.benefit) + ":" + Hex(ix.size_bytes) + ";";
  }
  s += advice.proved_optimal ? "opt|" : "inc|";
  AppendSummary(advice, &s);
  return Digest(s);
}

std::string PartitionDigest(const PartitionAdvice& advice) {
  std::string s;
  for (const FragmentDef& f : advice.fragments) {
    s += std::to_string(f.table) + ":";
    for (ColumnId c : f.columns) s += std::to_string(c) + ",";
    s += ";";
  }
  for (const std::string& sql : advice.rewritten_sql) s += sql + "\n";
  AppendSummary(advice, &s);
  return Digest(s);
}

std::string ReportDigest(const InteractiveReport& report) {
  std::string s;
  AppendSummary(report, &s);
  return Digest(s);
}

bool SameSummary(const AdviceSummary& a, const AdviceSummary& b) {
  return a.base_cost == b.base_cost && a.optimized_cost == b.optimized_cost &&
         a.per_query_base == b.per_query_base &&
         a.per_query_optimized == b.per_query_optimized;
}

/// sdss-distinct's query log: each of the 30 SDSS templates `per_template`
/// times, copy i with a literal variant (PerturbSqlLiterals) drawn from the
/// i-th of `per_template` equal strata of [1, variants], in seeded order, each
/// query run once. Stratified variants and unit weights keep the log's
/// character the same from seed to seed: with MakeScaledSdssWorkload's Zipf
/// mix and 1-5 weights, the executed index speedup ranged 4.6x-11.2x over
/// seeds 1-10; stratified with unit weights, 5.3x-5.7x.
Result<Workload> MakeDistinctWorkload(const CatalogReader& catalog,
                                      int per_template, int variants,
                                      uint64_t seed) {
  Random rng(seed);
  std::vector<std::string> sqls;
  for (const std::string& sql : SdssPrototypicalQueries()) {
    for (int i = 0; i < per_template; ++i) {
      const int lo = 1 + i * variants / per_template;
      const int hi = (i + 1) * variants / per_template;
      const int variant =
          lo + static_cast<int>(rng.Uniform(static_cast<uint64_t>(hi - lo + 1)));
      sqls.push_back(PerturbSqlLiterals(sql, variant));
    }
  }
  for (size_t i = sqls.size(); i > 1; --i) {
    std::swap(sqls[i - 1], sqls[rng.Uniform(i)]);
  }
  return MakeWorkload(catalog, sqls);
}

/// One database copy with its workload.
struct Instance {
  std::unique_ptr<Database> db;
  Workload workload;
};

/// Builds + ANALYZEs the SDSS database and generates, parses and binds the
/// seeded workload; `build_s` receives the database part of the time.
Result<Instance> MakeInstance(const WorkloadSpec& spec, uint64_t seed,
                              double* build_s) {
  Instance inst;
  inst.db = std::make_unique<Database>();
  const auto start = Clock::now();
  SdssConfig db_config;
  db_config.photoobj_rows = spec.photoobj_rows;
  db_config.seed = 1234;
  db_config.stats_target = 100;
  PARINDA_ASSIGN_OR_RETURN(SdssDataset dataset,
                           BuildSdssDatabase(inst.db.get(), db_config));
  (void)dataset;
  *build_s = SecondsSince(start);
  if (spec.queries_per_template > 0) {
    PARINDA_ASSIGN_OR_RETURN(
        inst.workload,
        MakeDistinctWorkload(inst.db->catalog(), spec.queries_per_template,
                             spec.literal_variants, seed));
    return inst;
  }
  SdssScaleConfig wl_config;
  wl_config.num_queries = spec.num_queries;
  wl_config.literal_variants = spec.literal_variants;
  // Pinned rather than left to the generator's defaults, so the inputs stay
  // the same when a default changes.
  wl_config.zipf_theta = 0.6;
  wl_config.max_weight = 5;
  wl_config.seed = seed;
  PARINDA_ASSIGN_OR_RETURN(inst.workload,
                           MakeScaledSdssWorkload(inst.db->catalog(), wl_config));
  return inst;
}

struct SessionRun {
  std::vector<double> step_ms;
  /// step_ms scaled to the reference host speed.
  std::vector<double> step_norm_ms;
  double evaluate_s = 0.0;
  int64_t planner_calls = 0;
  int64_t engine_peak_bytes = 0;
  std::string digest;
};

/// Replays `script` on a fresh session, then checks the final report against
/// a one-shot Parinda::EvaluateDesign of the live components.
SessionRun RunSession(const WorkloadSpec& spec, Database* db,
                      const Workload& workload,
                      const std::vector<ScriptStep>& script, bool traced,
                      Ledger* ledger, PhaseLog* log) {
  SessionRun run;
  DesignSessionOptions options;
  options.memory_budget_bytes = spec.memory_budget_bytes;
  std::vector<OverlayId> ids(script.size(), -1);
  std::vector<int> live;  // adding steps, in insertion order
  InteractiveReport last;
  bool ok = true;
  auto session = std::make_unique<DesignSession>(db->catalog(), &workload,
                                                 options);
  // Host-speed samples every kStepsPerReference steps (not in traced rounds,
  // whose per-layer figures must not include them).
  std::vector<double> refs;
  *log = RunPhase("bench.session", traced, [&] {
    for (size_t i = 0; i < script.size(); ++i) {
      if (!traced && i % kStepsPerReference == 0) {
        refs.push_back(HostReferenceSeconds());
      }
      const ScriptStep& step = script[i];
      const auto start = Clock::now();
      Status status = Status::OK();
      switch (step.kind) {
        case ScriptStep::Kind::kAddIndex:
        case ScriptStep::Kind::kAddPartition: {
          auto id = step.kind == ScriptStep::Kind::kAddIndex
                        ? session->AddIndex(step.index)
                        : session->AddPartition(step.partition);
          if (id.ok()) {
            ids[i] = *id;
            live.push_back(static_cast<int>(i));
          } else {
            status = id.status();
          }
          break;
        }
        case ScriptStep::Kind::kDrop: {
          status = session->Drop(ids[static_cast<size_t>(step.drop_of)]);
          if (status.ok()) live.erase(std::find(live.begin(), live.end(), step.drop_of));
          break;
        }
      }
      const auto eval_start = Clock::now();
      auto report = session->Evaluate();
      run.evaluate_s += SecondsSince(eval_start);
      run.step_ms.push_back(SecondsSince(start) * 1e3);
      run.planner_calls += session->last_eval_planner_calls();
      const bool step_ok =
          status.ok() && report.ok() && AcceptableDegradation(report->degradation);
      ok = ledger->Check(step_ok, "session.step",
                         "step " + std::to_string(i) + ": " +
                             (!status.ok() ? status.ToString()
                              : !report.ok() ? report.status().ToString()
                                             : report->degradation.ToString())) &&
           ok;
      if (report.ok()) last = std::move(*report);
    }
  });
  if (!traced) refs.push_back(HostReferenceSeconds());
  for (size_t i = 0; i < run.step_ms.size(); ++i) {
    const size_t block = i / kStepsPerReference;
    run.step_norm_ms.push_back(
        traced ? run.step_ms[i]
               : NormalizedSeconds(run.step_ms[i], refs[block], refs[block + 1]));
  }
  if (session->governor() != nullptr) {
    run.engine_peak_bytes = session->governor()->stats().peak_bytes;
  }
  session.reset();
  run.digest = ReportDigest(last);
  if (!ok) return run;

  InteractiveDesign design;
  for (int i : live) {
    const ScriptStep& step = script[static_cast<size_t>(i)];
    if (step.kind == ScriptStep::Kind::kAddIndex) {
      design.indexes.push_back(step.index);
    } else {
      design.partitions.push_back(step.partition);
    }
  }
  Parinda tool(db);
  auto oneshot = tool.EvaluateDesign(workload, design);
  ledger->Check(oneshot.ok() && SameSummary(*oneshot, last),
                "session.matches_oneshot",
                oneshot.ok() ? "final report differs from EvaluateDesign"
                             : oneshot.status().ToString());
  return run;
}

/// Rows of one executed query, order-insensitive.
struct Executed {
  uint64_t rows_digest = 0;
  size_t rows = 0;
  double cost = 0.0;
  int64_t pages = 0;
};

Result<Executed> Execute(const Database& db, const std::string& sql) {
  PARINDA_ASSIGN_OR_RETURN(ExecResult result, ExecuteSql(db, sql));
  std::sort(result.rows.begin(), result.rows.end(),
            [](const Row& a, const Row& b) { return CompareRows(a, b) < 0; });
  Executed out;
  out.rows = result.rows.size();
  uint64_t h = 1469598103934665603ULL;
  for (const Row& row : result.rows) {
    h = (h ^ static_cast<uint64_t>(HashRow(row))) * 1099511628211ULL;
  }
  out.rows_digest = h;
  out.cost = result.stats.MeasuredCost(CostParams{});
  out.pages = result.stats.seq_pages_read + result.stats.random_pages_read;
  return out;
}

struct Verification {
  double index_speedup = 0.0;
  double partition_speedup = 0.0;
  double materialize_s = 0.0;
  double execute_s = 0.0;
  int64_t pages = 0;
};

/// Materializes each design on a fresh database copy and executes the
/// workload on it and on the base database: each distinct query text once,
/// scaled by its summed weight. `base` is released after its executions, so
/// that at most one database is alive at a time.
Verification Verify(const WorkloadSpec& spec, uint64_t seed, Instance base,
                    const IndexAdvice& indexes,
                    const PartitionAdvice& partitions, Ledger* ledger) {
  Verification v;
  const Workload& workload = base.workload;
  struct Text {
    double weight = 0.0;
    size_t first = 0;
  };
  std::map<std::string, Text> texts;
  for (size_t q = 0; q < workload.queries.size(); ++q) {
    auto [it, fresh] = texts.try_emplace(workload.queries[q].sql);
    if (fresh) it->second.first = q;
    it->second.weight += workload.queries[q].weight;
  }

  // Executes every text on `db` (its rewrite, when `rewrite` is non-null)
  // and returns the weighted measured cost. A null `check` marks the base
  // run, whose rows the other runs must reproduce under the check `check`.
  std::map<std::string, Executed> base_runs;
  auto run_all = [&](const Database& db, const char* check,
                     const std::vector<std::string>* rewrite) {
    double total = 0.0;
    const auto start = Clock::now();
    for (const auto& [sql, text] : texts) {
      const std::string& query =
          rewrite != nullptr ? (*rewrite)[text.first] : sql;
      auto run = Execute(db, query);
      if (!ledger->Check(run.ok(), "verify.execute",
                         run.ok() ? "" : run.status().ToString())) {
        continue;
      }
      if (check == nullptr) {
        base_runs[sql] = *run;
      } else {
        const Executed& expected = base_runs[sql];
        ledger->Check(run->rows == expected.rows &&
                          run->rows_digest == expected.rows_digest,
                      check, query.substr(0, 80));
      }
      total += text.weight * run->cost;
      v.pages += run->pages;
    }
    v.execute_s += SecondsSince(start);
    return total;
  };
  const double base_total = run_all(*base.db, nullptr, nullptr);
  base.db.reset();

  auto materialized = [&](const char* what, auto&& materialize) {
    double unused = 0.0;
    auto inst = MakeInstance(spec, seed, &unused);
    if (!ledger->Check(inst.ok(), "verify.build_copy",
                       inst.ok() ? "" : inst.status().ToString())) {
      return std::unique_ptr<Database>();
    }
    Parinda tool(inst->db.get());
    const auto start = Clock::now();
    const Status status = materialize(tool);
    v.materialize_s += SecondsSince(start);
    if (!ledger->Check(status.ok(), what, status.ToString())) {
      return std::unique_ptr<Database>();
    }
    return std::move(inst->db);
  };

  if (auto db = materialized("verify.materialize_indexes", [&](Parinda& tool) {
        return tool.MaterializeIndexes(indexes).status();
      })) {
    const double total = run_all(*db, "verify.index_rows_equal", nullptr);
    ledger->Check(total <= base_total, "verify.index_not_slower",
                  StringPrintf("%.6g > %.6g", total, base_total));
    v.index_speedup = total > 0.0 ? base_total / total : 0.0;
  }
  if (!ledger->Check(
          partitions.rewritten_sql.size() == workload.queries.size(),
          "verify.rewritten_sql", "partition advice has no rewritten workload")) {
    return v;
  }
  if (auto db = materialized("verify.materialize_partitions", [&](Parinda& tool) {
        return tool.MaterializePartitions(partitions).status();
      })) {
    const double total =
        run_all(*db, "verify.partition_rows_equal", &partitions.rewritten_sql);
    ledger->Check(total <= base_total, "verify.partition_not_slower",
                  StringPrintf("%.6g > %.6g", total, base_total));
    v.partition_speedup = total > 0.0 ? base_total / total : 0.0;
  }
  return v;
}

/// Runs `body` as one phase (see RunPhase) and appends its wall time, raw
/// and scaled to the reference host speed. `ref` holds the reference time
/// sampled just before; it is resampled after.
template <typename Body>
PhaseLog TimedCall(const char* root, bool traced, double* ref,
                   std::vector<double>* raw_s, std::vector<double>* norm_s,
                   Body&& body) {
  PhaseLog log = RunPhase(root, traced, std::forward<Body>(body));
  const double ref_after = HostReferenceSeconds();
  raw_s->push_back(log.wall_s);
  norm_s->push_back(NormalizedSeconds(log.wall_s, *ref, ref_after));
  *ref = ref_after;
  return log;
}

/// One round's three scenarios.
struct Round {
  bool traced = false;
  double wall_s = 0.0;
  std::vector<double> index_s;
  std::vector<double> partition_s;
  /// index_s and partition_s scaled to the reference host speed.
  std::vector<double> index_norm_s;
  std::vector<double> partition_norm_s;
  IndexAdvice indexes;
  PartitionAdvice partitions;
  /// Replays of the session script, each on a fresh session; the first one's
  /// log feeds the per-layer metrics.
  std::vector<SessionRun> sessions;
  PhaseLog index_log;
  PhaseLog partition_log;
  PhaseLog session_log;
  int64_t sparse_nnz = 0;
  int64_t autopart_peak_bytes = 0;
};

Round RunRound(const WorkloadSpec& spec, Instance* inst,
               const std::vector<ScriptStep>& script, bool traced,
               Ledger* ledger) {
  Round round;
  round.traced = traced;
  const auto start = Clock::now();
  double ref = HostReferenceSeconds();

  // The first call's log feeds the per-layer metrics.
  for (int call = 0; call < kIndexCallsPerRound; ++call) {
    PhaseLog log = TimedCall(
        "bench.index_advice", traced && call == 0, &ref, &round.index_s,
        &round.index_norm_s, [&] {
      IndexAdvisorOptions options;
      options.parallelism = 1;
      options.storage_budget_bytes = spec.index_budget_bytes;
      IndexAdvisor advisor(inst->db->catalog(), inst->workload, options);
      auto advice = advisor.SuggestWithIlp();
      const bool ok = advice.ok() &&
                      AcceptableDegradation(advice->degradation) &&
                      advice->proved_optimal;
      ledger->Check(ok, "index.advice",
                    !advice.ok() ? advice.status().ToString()
                                 : advice->degradation.ToString());
      if (!advice.ok()) return;
      if (call > 0) {
        ledger->Check(IndexDigest(*advice) == IndexDigest(round.indexes),
                      "repeat.index_advice", "call " + std::to_string(call));
      }
      round.indexes = std::move(*advice);
    });
    if (call == 0) round.index_log = std::move(log);
  }
  round.sparse_nnz =
      metrics::Registry::Global().gauge("advisor.sparse_nnz").value();

  for (int call = 0; call < kPartitionCallsPerRound; ++call) {
    PhaseLog log = TimedCall(
        "bench.partition_advice", traced && call == 0, &ref,
        &round.partition_s, &round.partition_norm_s, [&] {
      AutoPartOptions options;
      options.parallelism = 1;
      options.memory_budget_bytes = spec.memory_budget_bytes;
      AutoPartAdvisor advisor(inst->db->catalog(), inst->workload, options);
      auto advice = advisor.Suggest();
      const bool ok = advice.ok() && AcceptableDegradation(advice->degradation);
      ledger->Check(ok, "partition.advice",
                    !advice.ok() ? advice.status().ToString()
                                 : advice->degradation.ToString());
      if (advisor.governor() != nullptr) {
        round.autopart_peak_bytes = advisor.governor()->stats().peak_bytes;
      }
      if (!advice.ok()) return;
      if (call > 0) {
        ledger->Check(
            PartitionDigest(*advice) == PartitionDigest(round.partitions),
            "repeat.partition_advice", "call " + std::to_string(call));
      }
      round.partitions = std::move(*advice);
    });
    if (call == 0) round.partition_log = std::move(log);
  }

  double session_s = 0.0;
  do {
    PhaseLog log;
    round.sessions.push_back(RunSession(spec, inst->db.get(), inst->workload,
                                        script, traced && session_s == 0.0,
                                        ledger, &log));
    if (session_s == 0.0) round.session_log = log;
    session_s += log.wall_s;
  } while (session_s < kMinSessionSeconds);
  round.wall_s = SecondsSince(start);
  return round;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

Result<RunResult> RunBenchmark(const RunOptions& options) {
  const WorkloadSpec& spec = options.spec;
  RunResult result;
  Ledger ledger(&result);

  // --- Set-up: build + ANALYZE the database, generate/parse/bind the
  // workload; repeated, median reported. Only the last copy is kept, so at
  // most one database is alive at a time.
  std::vector<double> setup_s;
  std::vector<double> setup_norm_s;
  std::vector<double> build_s;
  std::vector<double> parse_s;
  Instance advice_inst;
  for (int rep = 0; rep < std::max(1, spec.setup_reps); ++rep) {
    advice_inst = Instance();
    double built = 0.0;
    const double ref_before = HostReferenceSeconds();
    const auto start = Clock::now();
    PARINDA_ASSIGN_OR_RETURN(Instance inst,
                             MakeInstance(spec, options.seed, &built));
    const double total = SecondsSince(start);
    setup_s.push_back(total);
    setup_norm_s.push_back(
        NormalizedSeconds(total, ref_before, HostReferenceSeconds()));
    build_s.push_back(built);
    parse_s.push_back(total - built);
    advice_inst = std::move(inst);
  }
  const Workload& workload = advice_inst.workload;
  std::fprintf(stderr, "set-up: median %.3fs, peak rss %.0f MiB\n",
               Median(setup_s),
               static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0));

  PARINDA_ASSIGN_OR_RETURN(
      std::vector<ScriptStep> script,
      MakeStepScript(advice_inst.db->catalog(), workload, options.seed,
                     spec.steps_per_round));

  // --- Timed rounds, until --seconds is spent (at least kMinRounds).
  // A traced run alternates untraced and traced rounds.
  std::vector<Round> rounds;
  const auto run_start = Clock::now();
  for (int r = 0;; ++r) {
    const bool traced = options.trace && r % 2 == 1;
    rounds.push_back(RunRound(spec, &advice_inst, script, traced, &ledger));
    const Round& last = rounds.back();
    std::fprintf(stderr,
                 "round %d%s: index %.3fs partition %.3fs session %.3fs "
                 "(steps p50 %.2fms p95 %.2fms) peak rss %.0f MiB\n",
                 r, traced ? " traced" : "",
                 Median(last.index_s), Median(last.partition_s),
                 last.session_log.wall_s,
                 Percentile(last.sessions[0].step_ms, 50),
                 Percentile(last.sessions[0].step_ms, 95),
                 static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0));
    const int done = r + 1;
    const double elapsed = SecondsSince(run_start);
    const double per_round = elapsed / done;
    // Stop where the run's end lands closest to --seconds.
    if (done >= kMinRounds && elapsed + per_round / 2 > options.seconds) {
      break;
    }
  }

  // Advice and the session's final report repeat bit for bit.
  const Round& first = rounds[0];
  for (size_t r = 1; r < rounds.size(); ++r) {
    const std::string tag = "round " + std::to_string(r);
    ledger.Check(IndexDigest(rounds[r].indexes) == IndexDigest(first.indexes),
                 "repeat.index_advice", tag);
    ledger.Check(
        PartitionDigest(rounds[r].partitions) == PartitionDigest(first.partitions),
        "repeat.partition_advice", tag);
  }
  for (size_t r = 0; r < rounds.size(); ++r) {
    for (size_t k = r == 0 ? 1 : 0; k < rounds[r].sessions.size(); ++k) {
      ledger.Check(rounds[r].sessions[k].digest == first.sessions[0].digest,
                   "repeat.session_report",
                   StringPrintf("round %zu replay %zu", r, k));
    }
  }
  result.digests["index"] = IndexDigest(first.indexes);
  result.digests["partition"] = PartitionDigest(first.partitions);
  result.digests["session"] = first.sessions[0].digest;

  // Read before verification: executing the workload's largest results
  // would otherwise set the high-water mark, hiding the advisors' own.
  const double peak_rss_mb =
      static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0);
  const int queries = workload.size();
  const double fold_ratio =
      CompressWorkload(advice_inst.db->catalog(), workload).ratio();
  const Verification verify = Verify(spec, options.seed, std::move(advice_inst),
                                     first.indexes, first.partitions, &ledger);

  std::map<std::string, double>& m = result.metrics;
  if (!options.trace) {
    // Timings are medians of host-speed-normalized repetitions (NOTES.md):
    // the advisors over their calls but the first, each script step over its
    // replays, and p50/p95 over the per-step medians. The unnormalized
    // medians go to stderr.
    auto medians = [&](bool normalized) {
      std::vector<double> index_s, partition_s;
      std::vector<std::vector<double>> replays(script.size());
      for (const Round& round : rounds) {
        const std::vector<double>& calls =
            normalized ? round.index_norm_s : round.index_s;
        index_s.insert(index_s.end(), calls.begin(), calls.end());
        const std::vector<double>& parts =
            normalized ? round.partition_norm_s : round.partition_s;
        partition_s.insert(partition_s.end(), parts.begin(), parts.end());
        for (const SessionRun& replay : round.sessions) {
          const std::vector<double>& ms =
              normalized ? replay.step_norm_ms : replay.step_ms;
          for (size_t i = 0; i < ms.size(); ++i) replays[i].push_back(ms[i]);
        }
      }
      // The run's first call of each advisor pays the heap's first growth
      // (page faults) and is left out as a warm-up.
      index_s.erase(index_s.begin());
      partition_s.erase(partition_s.begin());
      std::vector<double> steps;
      for (const std::vector<double>& r : replays) steps.push_back(Median(r));
      return std::vector<double>{Median(index_s), Median(partition_s),
                                 Percentile(steps, 50.0),
                                 Percentile(steps, 95.0)};
    };
    const std::vector<double> raw = medians(false);
    const std::vector<double> norm = medians(true);
    std::fprintf(stderr,
                 "%zu rounds; unnormalized: setup %.4fs index %.4fs partition "
                 "%.4fs step p50 %.3fms p95 %.3fms\n",
                 rounds.size(), Median(setup_s), raw[0], raw[1], raw[2], raw[3]);
    ledger.Check(HighestReportablePercentile(script.size()) >= 95.0,
                 "session.enough_steps_for_p95",
                 std::to_string(script.size()) + " steps");
    m["setup_s"] = Median(setup_norm_s);
    m["index_advice_s"] = norm[0];
    m["partition_advice_s"] = norm[1];
    m["whatif_step_p50_ms"] = norm[2];
    m["whatif_step_p95_ms"] = norm[3];
    m["index_speedup_exec"] = verify.index_speedup;
    m["partition_speedup_exec"] = verify.partition_speedup;
    m["peak_rss_mb"] = peak_rss_mb;
  } else {
    // Per-layer figures come from the first traced round; its counts repeat
    // exactly for a seed at parallelism 1.
    const Round& t = rounds[1];
    const PhaseLog& ix = t.index_log;
    const PhaseLog& pa = t.partition_log;
    const PhaseLog& se = t.session_log;
    const PhaseLog* phases[] = {&ix, &pa, &se};
    auto sum_self = [&](const char* name) {
      double s = 0.0;
      for (const PhaseLog* p : phases) s += p->Self(name);
      return s;
    };
    auto sum_count = [&](const char* name) {
      int64_t s = 0;
      for (const PhaseLog* p : phases) s += p->Count(name);
      return static_cast<double>(s);
    };
    int64_t dropped = 0;
    for (const PhaseLog* p : phases) dropped += p->dropped;
    ledger.Check(dropped == 0, "trace.no_drops",
                 std::to_string(dropped) + " spans dropped");
    ledger.Check(IndexDigest(t.indexes) == IndexDigest(first.indexes) &&
                     PartitionDigest(t.partitions) ==
                         PartitionDigest(first.partitions) &&
                     t.sessions[0].digest == first.sessions[0].digest,
                 "trace.advice_unchanged_by_tracing");
    std::vector<double> untraced_wall, traced_wall;
    for (const Round& round : rounds) {
      (round.traced ? traced_wall : untraced_wall).push_back(round.wall_s);
    }

    m["storage.build_s"] = Median(build_s);
    m["parser.parse_bind_s"] = Median(parse_s);
    m["parser.queries"] = queries;
    m["workload.compress_s"] =
        ix.Total("advisor.compress") + pa.Total("autopart.compress");
    m["workload.fold_ratio"] = fold_ratio;
    m["optimizer.plans.index"] = static_cast<double>(ix.Count("planner.plans_built"));
    m["optimizer.plans.partition"] =
        static_cast<double>(pa.Count("planner.plans_built"));
    m["optimizer.plans.session"] =
        static_cast<double>(se.Count("planner.plans_built"));
    m["optimizer.plan_query_self_s"] = sum_self("optimizer.plan_query");
    int64_t build_entries = 0;
    for (const PhaseLog* p : phases) build_entries += p->SpanCount("inum.build_entry");
    m["inum.build_entry_count"] = static_cast<double>(build_entries);
    m["inum.build_entry_self_s"] = sum_self("inum.build_entry");
    const double inum_hits = sum_count("inum.cache_hits");
    m["inum.hit_rate"] = Ratio(inum_hits, inum_hits + sum_count("inum.cache_misses"));
    m["advisor.prepare_self_s"] = ix.Self("advisor.prepare");
    m["advisor.solve_self_s"] = ix.Self("advisor.solve");
    m["advisor.finish_self_s"] = ix.Self("advisor.finish");
    m["advisor.sparse_nnz"] = static_cast<double>(t.sparse_nnz);
    m["advisor.index_speedup_est"] = t.indexes.Speedup();
    m["solver.nodes_expanded"] = static_cast<double>(ix.Count("solver.nodes_expanded"));
    m["solver.nodes_pruned"] = static_cast<double>(ix.Count("solver.nodes_pruned"));
    m["solver.lp_copies"] = static_cast<double>(ix.Count("solver.lp_copies"));
    m["engine.evaluations"] = sum_count("engine.evaluations");
    const double engine_hits = sum_count("engine.cache_hits");
    m["engine.cache_hits"] = engine_hits;
    m["engine.cache_misses"] = sum_count("engine.cache_misses");
    m["engine.hit_rate"] =
        Ratio(engine_hits, engine_hits + sum_count("engine.cache_misses"));
    m["engine.cache_evictions"] = sum_count("engine.cache_evictions");
    m["engine.cache_peak_bytes"] = static_cast<double>(
        std::max(t.autopart_peak_bytes, t.sessions[0].engine_peak_bytes));
    m["autopart.base_self_s"] = pa.Self("autopart.base");
    m["autopart.search_self_s"] = pa.Self("autopart.search");
    m["autopart.final_self_s"] = pa.Self("autopart.final");
    m["autopart.evaluations"] = t.partitions.evaluations;
    m["autopart.partition_speedup_est"] = t.partitions.Speedup();
    m["design.evaluate_s"] = t.sessions[0].evaluate_s;
    m["design.base_self_s"] = se.Self("design.base");
    m["design.whatif_self_s"] = se.Self("design.whatif");
    m["design.planner_calls"] =
        static_cast<double>(t.sessions[0].planner_calls);
    m["design.invalidations"] = static_cast<double>(se.Count("design.invalidations"));
    m["design.eval_incremental"] =
        static_cast<double>(se.Count("design.eval_incremental"));
    m["design.eval_full"] = static_cast<double>(se.Count("design.eval_full"));
    m["parinda.materialize_s"] = verify.materialize_s;
    m["executor.execute_s"] = verify.execute_s;
    m["executor.pages_read"] = static_cast<double>(verify.pages);
    m["trace.dropped"] = static_cast<double>(dropped);
    m["trace.overhead_frac"] = Median(traced_wall) / Median(untraced_wall) - 1.0;
    m["index.unattributed_s"] = ix.Self("bench.index_advice");
    m["partition.unattributed_s"] = pa.Self("bench.partition_advice");
    m["session.unattributed_s"] = se.Self("bench.session");
  }
  m["ok_ops_frac"] = Ratio(static_cast<double>(result.attempted - result.failed),
                           static_cast<double>(result.attempted));
  return result;
}

}  // namespace perfbench
}  // namespace parinda
