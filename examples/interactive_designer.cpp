// The PARINDA interactive designer as a command-line tool — the CLI analogue
// of the demo's GUI (Figures 2 & 3), backed by a DesignSession so each
// add/drop delta re-plans only the queries it touches. Reads commands from
// stdin:
//
//   workload add <SQL>           add a query to the workload
//   workload load <path>         load a semicolon-separated workload file
//   workload clear               drop all queries
//   add index <table> <col>[,<col>...]      add a what-if index
//   add partition <table> <col>[,<col>...]  add a what-if vertical partition
//   add range <table> <col> <k>             range-partition into k pieces
//   add join [nonestloop] [nomergejoin] [nohashjoin]   disable join methods
//   drop <id>                    remove one design feature by id
//   list                         show the current design features
//   clear                        drop the whole design
//   evaluate                     report per-query + average benefit
//   explain <SQL>                show the optimizer plan under the design
//   verify <table> <col>[,...]   what-if vs materialized accuracy check
//   suggest indexes [budget_mb]  run the ILP index advisor
//   suggest partitions           run AutoPart
//   compress                     show the workload's fold classes (duplicate
//                                queries the advisors evaluate only once)
//   budget <ms>|off              time-budget evaluate/suggest (anytime mode)
//   save-cache <path>            spill the evaluation cost cache to a file
//   load-cache <path>            warm the cost cache from a spill file
//   stats                        dump session metrics (counters/latencies)
//   stats dump <path>            write a catalog statistics dump
//   trace <path>                 write the session trace (Chrome JSON)
//   tables                       list catalog tables
//   quit
//
// Example: printf 'tables\nquit\n' | ./interactive_designer
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "catalog/stats_io.h"

#include "common/deadline.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"
#include "optimizer/planner.h"
#include "parinda/parinda.h"
#include "parser/binder.h"
#include "parser/parser.h"
#include "rewriter/rewriter.h"
#include "whatif/whatif_index.h"
#include "workload/compress.h"
#include "workload/sdss.h"

using namespace parinda;  // NOLINT: example brevity

namespace {

Result<std::vector<ColumnId>> ParseColumns(const TableInfo& table,
                                           const std::string& list) {
  std::vector<ColumnId> out;
  for (const std::string& name : Split(list, ',')) {
    const ColumnId col = table.schema.FindColumn(name);
    if (col == kInvalidColumnId) {
      return Status::NotFound("no column '" + name + "' in " + table.name);
    }
    out.push_back(col);
  }
  return out;
}

}  // namespace

int main() {
  Database db;
  SdssConfig config;
  config.photoobj_rows = 10000;
  auto dataset = BuildSdssDatabase(&db, config);
  if (!dataset.ok()) return 1;
  Parinda tool(&db);
  // Record spans for the whole session so `trace <path>` always has data;
  // an interactive session never runs hot enough for this to matter.
  trace::Start();

  std::vector<std::string> workload_sql;
  std::unique_ptr<Workload> workload_obj;
  DesignSession session(db.catalog(), nullptr);
  int partition_counter = 0;
  int index_counter = 0;
  // Time budget for evaluate/suggest, in milliseconds; < 0 = unlimited.
  // Deadlines are absolute instants, so each command arms a fresh one.
  double budget_ms = -1.0;
  auto arm_budget = [&]() {
    return budget_ms < 0 ? Deadline::Infinite()
                         : Deadline::AfterMillis(static_cast<int64_t>(budget_ms));
  };
  auto print_degradation = [](const DegradationReport& degradation) {
    if (!degradation.degraded) return;
    std::string rungs;
    for (const std::string& f : degradation.fallbacks) {
      if (!rungs.empty()) rungs += ", ";
      rungs += f;
    }
    std::printf("  (budget expired — best-effort result; fallbacks: %s)\n",
                rungs.c_str());
  };

  // Rebinds the workload and points the session at it (costs cached so far
  // are dropped — the query set changed).
  auto refresh_workload = [&]() -> bool {
    if (workload_sql.empty()) {
      workload_obj.reset();
      session.SetWorkload(nullptr);
      return true;
    }
    auto workload = MakeWorkload(db.catalog(), workload_sql);
    if (!workload.ok()) {
      std::printf("error: %s\n", workload.status().ToString().c_str());
      return false;
    }
    workload_obj = std::make_unique<Workload>(std::move(*workload));
    session.SetWorkload(workload_obj.get());
    return true;
  };

  std::printf("PARINDA interactive designer. SDSS sample loaded. "
              "Type commands; 'quit' exits.\n");
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) continue;
    if (cmd == "quit" || cmd == "exit") break;

    if (cmd == "tables") {
      for (const TableInfo* table : db.catalog().AllTables()) {
        std::printf("  %-16s %10.0f rows %8.0f pages %3d columns\n",
                    table->name.c_str(), table->row_count, table->pages,
                    table->schema.num_columns());
      }
      continue;
    }
    if (cmd == "workload") {
      std::string sub;
      in >> sub;
      if (sub == "clear") {
        workload_sql.clear();
        (void)refresh_workload();
        std::printf("workload cleared\n");
      } else if (sub == "load") {
        std::string path;
        in >> path;
        std::ifstream file(path);
        if (!file) {
          std::printf("error: cannot open '%s'\n", path.c_str());
          continue;
        }
        std::stringstream buffer;
        buffer << file.rdbuf();
        auto loaded = LoadWorkloadText(db.catalog(), buffer.str());
        if (!loaded.ok()) {
          std::printf("error: %s\n", loaded.status().ToString().c_str());
          continue;
        }
        for (const WorkloadQuery& query : loaded->queries) {
          workload_sql.push_back(query.sql);
        }
        if (!refresh_workload()) continue;
        std::printf("loaded %d queries (%zu total)\n", loaded->size(),
                    workload_sql.size());
      } else if (sub == "add") {
        std::string sql;
        std::getline(in, sql);
        auto parsed = ParseSelect(sql);
        if (!parsed.ok()) {
          std::printf("error: %s\n", parsed.status().ToString().c_str());
          continue;
        }
        if (auto bound = BindStatement(db.catalog(), &*parsed); !bound.ok()) {
          std::printf("error: %s\n", bound.ToString().c_str());
          continue;
        }
        workload_sql.push_back(std::string(StripWhitespace(sql)));
        if (!refresh_workload()) {
          workload_sql.pop_back();
          continue;
        }
        std::printf("Q%zu added\n", workload_sql.size());
      }
      continue;
    }
    if (cmd == "add") {
      std::string sub;
      in >> sub;
      if (sub == "join") {
        WhatIfJoinDef def;
        std::string flag;
        bool bad_flag = false;
        while (in >> flag) {
          if (flag == "nonestloop") {
            def.enable_nestloop = false;
          } else if (flag == "nomergejoin") {
            def.enable_mergejoin = false;
          } else if (flag == "nohashjoin") {
            def.enable_hashjoin = false;
          } else {
            std::printf("error: unknown join flag '%s'\n", flag.c_str());
            bad_flag = true;
            break;
          }
        }
        if (bad_flag) continue;
        auto id = session.AddJoinFlags(def);
        if (!id.ok()) {
          std::printf("error: %s\n", id.status().ToString().c_str());
          continue;
        }
        std::printf("[%lld] join flags: nestloop=%d mergejoin=%d hashjoin=%d\n",
                    static_cast<long long>(*id), def.enable_nestloop,
                    def.enable_mergejoin, def.enable_hashjoin);
        continue;
      }
      std::string table_name;
      std::string columns;
      in >> table_name >> columns;
      const TableInfo* table = db.catalog().FindTable(table_name);
      if (table == nullptr) {
        std::printf("error: unknown table '%s'\n", table_name.c_str());
        continue;
      }
      if (sub == "range") {
        const ColumnId col = table->schema.FindColumn(columns);
        int k = 4;
        in >> k;
        if (col == kInvalidColumnId) {
          std::printf("error: no column '%s'\n", columns.c_str());
          continue;
        }
        auto bounds = SuggestEqualMassBounds(db.catalog(), table->id, col, k);
        if (!bounds.ok()) {
          std::printf("error: %s\n", bounds.status().ToString().c_str());
          continue;
        }
        RangePartitionDef def;
        def.parent = table->id;
        def.column = col;
        def.bounds = *bounds;
        auto id = session.AddRangePartitioning(def);
        if (!id.ok()) {
          std::printf("error: %s\n", id.status().ToString().c_str());
          continue;
        }
        std::printf("[%lld] range partitioning of %s on %s into %zu ranges\n",
                    static_cast<long long>(*id), table_name.c_str(),
                    columns.c_str(), bounds->size() + 1);
        continue;
      }
      auto cols = ParseColumns(*table, columns);
      if (!cols.ok()) {
        std::printf("error: %s\n", cols.status().ToString().c_str());
        continue;
      }
      if (sub == "index") {
        WhatIfIndexDef def;
        def.table = table->id;
        def.columns = *cols;
        def.name = "wif_idx_" + std::to_string(index_counter++);
        auto pages = WhatIfIndexSet::EstimatePages(db.catalog(), def);
        auto id = session.AddIndex(def);
        if (!id.ok()) {
          std::printf("error: %s\n", id.status().ToString().c_str());
          continue;
        }
        std::printf("[%lld] index on %s(%s): %.0f leaf pages (Equation 1)\n",
                    static_cast<long long>(*id), table_name.c_str(),
                    columns.c_str(), pages.value_or(0.0));
      } else if (sub == "partition") {
        WhatIfPartitionDef def;
        def.parent = table->id;
        def.columns = *cols;
        def.name = table->name + "_wifp" + std::to_string(partition_counter++);
        auto id = session.AddPartition(def);
        if (!id.ok()) {
          std::printf("error: %s\n", id.status().ToString().c_str());
          continue;
        }
        std::printf("[%lld] partition %s { %s } (+ primary key)\n",
                    static_cast<long long>(*id), def.name.c_str(),
                    columns.c_str());
      } else {
        std::printf("usage: add index|partition|range|join ...\n");
      }
      continue;
    }
    if (cmd == "drop") {
      long long id = 0;
      if (!(in >> id)) {
        std::printf("usage: drop <id>\n");
        continue;
      }
      Status dropped = session.Drop(id);
      if (!dropped.ok()) {
        std::printf("error: %s\n", dropped.ToString().c_str());
        continue;
      }
      std::printf("dropped [%lld]; %d queries to re-plan\n", id,
                  session.pending_queries());
      continue;
    }
    if (cmd == "list") {
      const auto components = session.Components();
      if (components.empty()) {
        std::printf("  (empty design)\n");
        continue;
      }
      for (const DesignSession::ComponentEntry& e : components) {
        std::printf("  [%lld] %-6s %s\n", static_cast<long long>(e.id),
                    OverlayKindName(e.kind), e.description.c_str());
      }
      continue;
    }
    if (cmd == "clear") {
      session.ClearDesign();
      std::printf("design cleared\n");
      continue;
    }
    if (cmd == "save-cache" || cmd == "load-cache") {
      std::string path;
      in >> path;
      if (path.empty()) {
        std::printf("usage: %s <path>\n", cmd.c_str());
        continue;
      }
      if (workload_obj == nullptr) {
        std::printf("error: empty workload (the cache is keyed by query)\n");
        continue;
      }
      session.set_deadline(arm_budget());
      if (cmd == "save-cache") {
        if (Status saved = session.SaveCache(path); !saved.ok()) {
          std::printf("error: %s\n", saved.ToString().c_str());
          continue;
        }
        std::printf("cache saved to %s\n", path.c_str());
      } else {
        auto report = session.LoadCache(path);
        if (!report.ok()) {
          // A bad spill file is a cold cache, not a broken session.
          std::printf("cache not loaded (%s); continuing cold\n",
                      report.status().ToString().c_str());
          continue;
        }
        std::printf("cache loaded from %s: %lld records, %lld rejected\n",
                    path.c_str(),
                    static_cast<long long>(report->records_loaded),
                    static_cast<long long>(report->records_rejected));
        if (!report->diagnosis.empty()) {
          std::printf("  (%s)\n", report->diagnosis.c_str());
        }
      }
      continue;
    }
    if (cmd == "budget") {
      std::string value;
      in >> value;
      if (value == "off") {
        budget_ms = -1.0;
        std::printf("budget off (evaluate/suggest run to completion)\n");
      } else {
        std::istringstream parse(value);
        double ms = 0.0;
        if (!(parse >> ms) || ms < 0) {
          std::printf("usage: budget <ms>|off\n");
          continue;
        }
        budget_ms = ms;
        std::printf("budget %.0f ms (degraded results are flagged; re-run "
                    "to refine)\n", budget_ms);
      }
      continue;
    }
    if (cmd == "evaluate") {
      if (workload_obj == nullptr) {
        std::printf("error: empty workload\n");
        continue;
      }
      const int pending = session.pending_queries();
      session.set_deadline(arm_budget());
      auto report = session.Evaluate();
      if (!report.ok()) {
        std::printf("error: %s\n", report.status().ToString().c_str());
        continue;
      }
      for (size_t q = 0; q < report->per_query_base.size(); ++q) {
        std::printf("  Q%zu: %.1f -> %.1f (%.1f%%)\n", q + 1,
                    report->per_query_base[q], report->per_query_optimized[q],
                    report->per_query_benefit_pct[q]);
      }
      std::printf("  average benefit: %.1f%%\n", report->average_benefit_pct);
      std::printf("  re-planned %d of %zu queries (%lld planner calls)\n",
                  pending, report->per_query_base.size(),
                  static_cast<long long>(session.last_eval_planner_calls()));
      print_degradation(report->degradation);
      continue;
    }
    if (cmd == "explain") {
      std::string sql;
      std::getline(in, sql);
      const ComposedOverlay& overlay = session.overlay();
      auto parsed = ParseSelect(sql);
      if (!parsed.ok()) {
        std::printf("error: %s\n", parsed.status().ToString().c_str());
        continue;
      }
      if (auto bound = BindStatement(overlay.catalog(), &*parsed);
          !bound.ok()) {
        std::printf("error: %s\n", bound.ToString().c_str());
        continue;
      }
      auto rewritten =
          RewriteForPartitions(overlay.catalog(), *parsed, overlay.fragments());
      if (!rewritten.ok()) {
        std::printf("error: %s\n", rewritten.status().ToString().c_str());
        continue;
      }
      PlannerOptions options;
      options.params = overlay.params();
      options.hooks = &overlay.hooks();
      auto plan = PlanQuery(overlay.catalog(), rewritten->stmt, options);
      if (!plan.ok()) {
        std::printf("error: %s\n", plan.status().ToString().c_str());
        continue;
      }
      std::printf("%s", plan->ToString(overlay.catalog()).c_str());
      continue;
    }
    if (cmd == "verify") {
      std::string table_name;
      std::string columns;
      in >> table_name >> columns;
      const TableInfo* table = db.catalog().FindTable(table_name);
      if (table == nullptr || workload_sql.empty()) {
        std::printf("error: need a table and at least one workload query\n");
        continue;
      }
      auto cols = ParseColumns(*table, columns);
      if (!cols.ok()) {
        std::printf("error: %s\n", cols.status().ToString().c_str());
        continue;
      }
      auto report = tool.VerifyIndexSimulation(
          workload_sql.front(), {"verify", table->id, *cols, false});
      if (!report.ok()) {
        std::printf("error: %s\n", report.status().ToString().c_str());
        continue;
      }
      std::printf("  size: %.0f what-if vs %.0f real pages (%.1f%% error)\n",
                  report->whatif_pages, report->materialized_pages,
                  100.0 * report->size_error_fraction);
      std::printf("  cost: %.1f what-if vs %.1f real (%.1f%% error)\n",
                  report->whatif_cost, report->materialized_cost,
                  100.0 * report->cost_error_fraction);
      continue;
    }
    if (cmd == "stats") {
      std::string sub;
      std::string path;
      in >> sub >> path;
      if (sub.empty()) {
        // Bare `stats`: dump the process-wide metrics registry (counters,
        // gauges, latency histograms) accumulated this session.
        std::fputs(metrics::Registry::Global().Snapshot().ToText().c_str(),
                   stdout);
      } else if (sub == "dump") {
        std::ofstream file(path);
        if (!file) {
          std::printf("error: cannot open '%s'\n", path.c_str());
          continue;
        }
        file << DumpCatalogStats(db.catalog());
        std::printf("statistics written to %s\n", path.c_str());
      } else {
        std::printf("usage: stats [dump <path>]\n");
      }
      continue;
    }
    if (cmd == "trace") {
      std::string path;
      in >> path;
      if (path.empty()) {
        std::printf("usage: trace <path>\n");
        continue;
      }
      const Status written = trace::WriteChromeJson(path);
      if (!written.ok()) {
        std::printf("error: %s\n", written.ToString().c_str());
        continue;
      }
      std::printf("trace written to %s (%zu events; open in "
                  "chrome://tracing or ui.perfetto.dev)\n",
                  path.c_str(), trace::Snapshot().size());
      continue;
    }
    if (cmd == "compress") {
      if (workload_obj == nullptr) {
        std::printf("error: empty workload\n");
        continue;
      }
      const CompressedWorkload compressed =
          CompressWorkload(db.catalog(), *workload_obj);
      std::printf("  %d queries -> %d fold classes (%.2fx); advisors "
                  "evaluate one representative per class\n",
                  compressed.expansion.original_size(),
                  compressed.workload.size(), compressed.ratio());
      for (int c = 0; c < compressed.workload.size(); ++c) {
        const WorkloadQuery& rep = compressed.workload.queries[c];
        std::string sql = rep.sql;
        if (sql.size() > 56) sql = sql.substr(0, 53) + "...";
        std::printf("  [%d] x%zu w=%.1f  %s\n", c,
                    compressed.expansion.members[c].size(), rep.weight,
                    sql.c_str());
      }
      continue;
    }
    if (cmd == "suggest") {
      std::string sub;
      in >> sub;
      if (workload_obj == nullptr) {
        std::printf("error: empty workload\n");
        continue;
      }
      if (sub == "indexes") {
        double budget_mb = 1e9;
        in >> budget_mb;
        IndexAdvisorOptions options;
        options.storage_budget_bytes = budget_mb * 1024 * 1024;
        options.deadline = arm_budget();
        auto advice = tool.SuggestIndexes(*workload_obj, options);
        if (!advice.ok()) {
          std::printf("error: %s\n", advice.status().ToString().c_str());
          continue;
        }
        for (const SuggestedIndex& s : advice->indexes) {
          const TableInfo* t = db.catalog().GetTable(s.def.table);
          std::string cols;
          for (size_t i = 0; i < s.def.columns.size(); ++i) {
            if (i > 0) cols += ",";
            cols += t->schema.column(s.def.columns[i]).name;
          }
          std::printf("  CREATE INDEX ON %s(%s)  -- %.2f MB\n",
                      t->name.c_str(), cols.c_str(),
                      s.size_bytes / 1024.0 / 1024.0);
        }
        std::printf("  estimated speedup: %.2fx\n", advice->Speedup());
        print_degradation(advice->degradation);
      } else if (sub == "partitions") {
        AutoPartOptions part_options;
        part_options.deadline = arm_budget();
        auto advice = tool.SuggestPartitions(*workload_obj, part_options);
        if (!advice.ok()) {
          std::printf("error: %s\n", advice.status().ToString().c_str());
          continue;
        }
        for (const FragmentDef& frag : advice->fragments) {
          const TableInfo* t = db.catalog().GetTable(frag.table);
          std::string cols;
          for (size_t i = 0; i < frag.columns.size(); ++i) {
            if (i > 0) cols += ",";
            cols += t->schema.column(frag.columns[i]).name;
          }
          std::printf("  PARTITION %s { %s }\n", t->name.c_str(), cols.c_str());
        }
        std::printf("  estimated speedup: %.2fx\n", advice->Speedup());
        print_degradation(advice->degradation);
      }
      continue;
    }
    std::printf("unknown command '%s'\n", cmd.c_str());
  }
  return 0;
}
