#include "lint/lint.h"

#include "lint/scanner.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

namespace parinda {
namespace lint {
namespace {

// ---------------------------------------------------------------------------
// Path classification and suppressions
// ---------------------------------------------------------------------------

bool PathContainsDir(const std::string& path, const std::string& dir) {
  std::string needle = dir + "/";
  return path.rfind(needle, 0) == 0 ||
         path.find("/" + needle) != std::string::npos;
}

bool IsLibraryPath(const std::string& path) { return PathContainsDir(path, "src"); }

bool IsStoragePath(const std::string& path) {
  return path.find("src/storage/") != std::string::npos ||
         path.rfind("storage/", 0) == 0;
}

bool IsThreadPoolPath(const std::string& path) {
  return path.find("src/common/thread_pool.") != std::string::npos ||
         path.rfind("common/thread_pool.", 0) == 0;
}

bool IsCommonPath(const std::string& path) {
  return path.find("src/common/") != std::string::npos ||
         path.rfind("common/", 0) == 0;
}

bool IsOverlayLayerPath(const std::string& path) {
  return path.find("src/design/") != std::string::npos ||
         path.rfind("design/", 0) == 0 ||
         path.find("src/whatif/") != std::string::npos ||
         path.rfind("whatif/", 0) == 0 ||
         path.find("src/engine/") != std::string::npos ||
         path.rfind("engine/", 0) == 0;
}

bool IsHeaderPath(const std::string& path) {
  return path.size() >= 2 && path.compare(path.size() - 2, 2, ".h") == 0;
}

class CheckContext {
 public:
  CheckContext(const ScannedFile& file, std::vector<Diagnostic>* out)
      : file_(file), out_(out) {}

  bool Suppressed(int line, const std::string& check) const {
    return IsSuppressed(file_, line, check);
  }

  void Report(int line, const std::string& check, std::string message) const {
    if (Suppressed(line, check)) return;
    out_->push_back({file_.path, line, check, std::move(message)});
  }

  const ScannedFile& file() const { return file_; }

 private:
  const ScannedFile& file_;
  std::vector<Diagnostic>* out_;
};

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

void CheckHeaderGuard(const CheckContext& ctx) {
  if (!IsHeaderPath(ctx.file().path)) return;
  const auto& directives = ctx.file().directives;
  // Accept `#pragma once` anywhere in the first few directives, or the
  // classic `#ifndef X` immediately followed by `#define X`.
  for (size_t i = 0; i < directives.size(); i++) {
    const std::string& text = directives[i].text;
    if (text.find("#pragma") == 0 && text.find("once") != std::string::npos) {
      return;
    }
    if (text.rfind("#ifndef", 0) == 0) {
      if (i + 1 < directives.size() &&
          directives[i + 1].text.rfind("#define", 0) == 0) {
        return;
      }
      break;
    }
    // Any other directive before the guard (e.g. #include) means the guard
    // does not protect the whole header.
    break;
  }
  ctx.Report(1, "header-guard",
             "header is missing an include guard (#ifndef/#define pair or "
             "#pragma once)");
}

void CheckTodoOwner(const CheckContext& ctx) {
  for (const auto& [line, text] : ctx.file().comments) {
    size_t at = text.find("TODO");
    bool reported = false;
    while (at != std::string::npos && !reported) {
      size_t after = at + 4;
      if (after >= text.size() || text[after] != '(') {
        ctx.Report(line, "todo-no-owner",
                   "TODO without an owner; write TODO(name): ...");
        reported = true;  // one report per comment line is enough
      }
      at = text.find("TODO", after);
    }
  }
}

void CheckIostreamInLib(const CheckContext& ctx) {
  if (!IsLibraryPath(ctx.file().path)) return;
  const auto& toks = ctx.file().tokens;
  for (size_t i = 0; i + 2 < toks.size(); i++) {
    if (toks[i].text == "std" && toks[i + 1].text == "::" &&
        (toks[i + 2].text == "cout" || toks[i + 2].text == "cerr")) {
      ctx.Report(toks[i].line, "iostream-in-lib",
                 "std::" + toks[i + 2].text +
                     " in library code; use PARINDA_LOG instead");
    }
  }
}

void CheckAssertInLib(const CheckContext& ctx) {
  if (!IsLibraryPath(ctx.file().path)) return;
  const auto& toks = ctx.file().tokens;
  for (size_t i = 0; i + 1 < toks.size(); i++) {
    if (toks[i].kind == Token::Kind::kIdent && toks[i].text == "assert" &&
        toks[i + 1].text == "(") {
      // static_assert is fine; `assert` preceded by :: (std::assert-like
      // qualified names) does not occur, but be safe about member access.
      if (i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->" ||
                    toks[i - 1].text == "::")) {
        continue;
      }
      ctx.Report(toks[i].line, "assert-in-lib",
                 "assert() in library code; use PARINDA_CHECK or "
                 "PARINDA_DCHECK instead");
    }
  }
}

void CheckRawNewDelete(const CheckContext& ctx) {
  const std::string& path = ctx.file().path;
  if (!IsLibraryPath(path) || IsStoragePath(path)) return;
  const auto& toks = ctx.file().tokens;
  for (size_t i = 0; i < toks.size(); i++) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    if (toks[i].text != "new" && toks[i].text != "delete") continue;
    if (i > 0) {
      const std::string& prev = toks[i - 1].text;
      // `operator new/delete` declarations and member access like
      // `x.delete_count` are not the expression forms this check targets;
      // `= delete;` (deleted members) is exempt but `= new Foo` is exactly
      // what we want to catch.
      if (prev == "operator" || prev == "." || prev == "->" || prev == "::") {
        continue;
      }
      if (prev == "=" && toks[i].text == "delete") {
        continue;
      }
    }
    ctx.Report(toks[i].line, "raw-new-delete",
               "raw `" + toks[i].text +
                   "` outside src/storage/; use std::unique_ptr / "
                   "std::make_unique or containers");
  }
}

void CheckDetachedThread(const CheckContext& ctx) {
  const std::string& path = ctx.file().path;
  if (!IsLibraryPath(path)) return;
  const auto& toks = ctx.file().tokens;
  // Raw thread creation belongs to the pool alone: everywhere else in src/,
  // work must go through ThreadPool / ParallelFor so errors propagate as
  // Status and every thread is joined.
  if (!IsThreadPoolPath(path)) {
    for (size_t i = 0; i + 2 < toks.size(); i++) {
      if (toks[i].text == "std" && toks[i + 1].text == "::" &&
          (toks[i + 2].text == "thread" || toks[i + 2].text == "jthread" ||
           toks[i + 2].text == "async")) {
        ctx.Report(toks[i].line, "detached-thread",
                   "std::" + toks[i + 2].text +
                       " in library code outside src/common/thread_pool; "
                       "submit work to a ThreadPool (or ParallelFor) so "
                       "errors propagate and threads are joined");
      }
    }
  }
  // `.detach()` / `->detach()` escapes the join discipline everywhere,
  // including inside the pool itself (the pool joins in its destructor).
  for (size_t i = 0; i + 2 < toks.size(); i++) {
    if ((toks[i].text == "." || toks[i].text == "->") &&
        toks[i + 1].text == "detach" && toks[i + 2].text == "(") {
      ctx.Report(toks[i + 1].line, "detached-thread",
                 "detach() leaks a running thread past its owner's lifetime; "
                 "join it (ThreadPool does this in WaitAll/destructor)");
    }
  }
}

void CheckBareCounter(const CheckContext& ctx) {
  const std::string& path = ctx.file().path;
  // The primitives themselves (metrics registry, deadline, failpoints,
  // tracing, the pool) legitimately build on raw atomics; everything above
  // them should tally through the registry so `stats` / bench JSON exports
  // see the numbers.
  if (!IsLibraryPath(path) || IsCommonPath(path)) return;
  const auto& toks = ctx.file().tokens;
  for (size_t i = 0; i + 2 < toks.size(); i++) {
    if (toks[i].text == "std" && toks[i + 1].text == "::" &&
        toks[i + 2].text == "atomic") {
      ctx.Report(toks[i].line, "bare-counter",
                 "bare std::atomic tally outside src/common/; use "
                 "metrics::Registry::Global().counter(...) (common/metrics.h) "
                 "so the value is visible to `stats` and bench exports");
    }
  }
}

void CheckDenseBenefit(const CheckContext& ctx) {
  const std::string& path = ctx.file().path;
  // Scaling rule (DESIGN.md §15): advisor benefit/score structures must not
  // materialize the dense nq x nc grid — most candidates are irrelevant to
  // most queries, and compressed thousand-query workloads make the dense
  // form the dominant allocation.
  if (path.find("src/advisor/") == std::string::npos &&
      path.rfind("advisor/", 0) != 0) {
    return;
  }
  const auto& toks = ctx.file().tokens;
  for (size_t i = 0; i + 10 < toks.size(); i++) {
    if (toks[i].text == "std" && toks[i + 1].text == "::" &&
        toks[i + 2].text == "vector" && toks[i + 3].text == "<" &&
        toks[i + 4].text == "std" && toks[i + 5].text == "::" &&
        toks[i + 6].text == "vector" && toks[i + 7].text == "<" &&
        toks[i + 8].text == "double" && toks[i + 9].text == ">" &&
        toks[i + 10].text == ">") {
      ctx.Report(toks[i].line, "dense-benefit",
                 "dense std::vector<std::vector<double>> matrix in "
                 "src/advisor/; store per-query benefits in a sparse "
                 "advisor/BenefitMatrix (O(nnz), scales to compressed "
                 "thousand-query workloads)");
    }
  }
}

void CheckOverlayInternals(const CheckContext& ctx) {
  const std::string& path = ctx.file().path;
  if (!IsLibraryPath(path) || IsOverlayLayerPath(path)) return;
  // The composed-overlay machinery (what-if catalog + index set + hooks +
  // params, wired together) is owned by src/design/. Code above it must go
  // through DesignSession; using one what-if mechanism on its own stays
  // legal (the advisors do), but wiring the table and index halves together
  // by hand recreates the pre-DesignSession ad-hoc composition.
  int table_line = 0;
  int index_line = 0;
  int planner_line = 0;
  for (const Token& tok : ctx.file().tokens) {
    if (tok.kind != Token::Kind::kIdent) continue;
    if (tok.text == "ComposedOverlay") {
      ctx.Report(tok.line, "overlay-internals",
                 "ComposedOverlay is a src/design/ internal; hold a "
                 "DesignSession and read session.overlay() instead");
    } else if (tok.text == "WhatIfTableCatalog" && table_line == 0) {
      table_line = tok.line;
    } else if (tok.text == "WhatIfIndexSet" && index_line == 0) {
      index_line = tok.line;
    } else if ((tok.text == "Planner" || tok.text == "PlanQuery") &&
               planner_line == 0) {
      planner_line = tok.line;
    }
  }
  if (table_line != 0 && index_line != 0) {
    ctx.Report(std::max(table_line, index_line), "overlay-internals",
               "file wires WhatIfTableCatalog and WhatIfIndexSet together by "
               "hand; compose what-if features through a "
               "design/DesignSession");
  }
  // Hand-feeding a what-if table catalog to the planner re-creates the
  // overlay->rewriter->planner wiring the evaluation engine owns (and skips
  // its cost cache). Advisors cost what-if designs through
  // engine/WorkloadEvaluator (or a design/DesignSession).
  if (table_line != 0 && planner_line != 0) {
    ctx.Report(std::max(table_line, planner_line), "overlay-internals",
               "file plans against a hand-wired WhatIfTableCatalog; evaluate "
               "what-if designs through engine/WorkloadEvaluator (or a "
               "design/DesignSession) so costs go through the engine cache");
  }
  for (const Directive& d : ctx.file().directives) {
    if (d.text.find("design/overlay.h") != std::string::npos) {
      ctx.Report(d.line, "overlay-internals",
                 "design/overlay.h is internal to src/design/; include "
                 "design/design_session.h and use DesignSession");
    }
  }
}

/// Scans for declarations of the form `Status Name(`, `Result<...> Name(`,
/// optionally with `Qualifier::` chains, and returns the set of function
/// names considered fallible.
void HarvestFallibleNames(const ScannedFile& file, std::set<std::string>* out) {
  const auto& toks = file.tokens;
  for (size_t i = 0; i < toks.size(); i++) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    if (toks[i].text != "Status" && toks[i].text != "Result") continue;
    size_t j = i + 1;
    if (toks[i].text == "Result") {
      if (j >= toks.size() || toks[j].text != "<") continue;
      int depth = 0;
      while (j < toks.size()) {
        if (toks[j].text == "<") depth++;
        if (toks[j].text == ">") {
          depth--;
          if (depth == 0) {
            j++;
            break;
          }
        }
        j++;
      }
    }
    // Optional qualified name: Ident (:: Ident)*
    if (j >= toks.size() || toks[j].kind != Token::Kind::kIdent) continue;
    std::string last = toks[j].text;
    j++;
    while (j + 1 < toks.size() && toks[j].text == "::" &&
           toks[j + 1].kind == Token::Kind::kIdent) {
      last = toks[j + 1].text;
      j += 2;
    }
    if (j < toks.size() && toks[j].text == "(") {
      out->insert(last);
    }
  }
}

void CheckUncheckedStatus(const CheckContext& ctx,
                          const std::set<std::string>& fallible) {
  const auto& toks = ctx.file().tokens;
  bool at_statement_start = true;
  for (size_t i = 0; i < toks.size(); i++) {
    const Token& tok = toks[i];
    if (tok.kind == Token::Kind::kPunct &&
        (tok.text == ";" || tok.text == "{" || tok.text == "}" ||
         tok.text == ":")) {
      at_statement_start = true;
      continue;
    }
    if (!at_statement_start) continue;
    at_statement_start = false;

    size_t j = i;
    // `(void)` prefix: explicit discard, always allowed.
    if (toks[j].text == "(" && j + 2 < toks.size() &&
        toks[j + 1].text == "void" && toks[j + 2].text == ")") {
      continue;
    }
    if (toks[j].kind != Token::Kind::kIdent) continue;
    // Walk a call chain `a.b->c::d(` and keep the final callee name.
    std::string callee = toks[j].text;
    int callee_line = toks[j].line;
    j++;
    while (j + 1 < toks.size() &&
           (toks[j].text == "." || toks[j].text == "->" ||
            toks[j].text == "::") &&
           toks[j + 1].kind == Token::Kind::kIdent) {
      callee = toks[j + 1].text;
      callee_line = toks[j + 1].line;
      j += 2;
    }
    if (j >= toks.size() || toks[j].text != "(") continue;
    if (!fallible.count(callee)) continue;
    // Find the matching close paren.
    int depth = 0;
    while (j < toks.size()) {
      if (IsBalancedOpen(toks[j].text)) depth++;
      if (IsBalancedClose(toks[j].text)) {
        depth--;
        if (depth == 0) break;
      }
      j++;
    }
    if (j + 1 >= toks.size()) continue;
    // `Foo(...);` as a full statement (possibly `Foo(...)->` chains are
    // something else) — only a direct `;` after the close paren counts as a
    // discarded result.
    if (toks[j + 1].text == ";") {
      ctx.Report(callee_line, "unchecked-status",
                 "result of fallible function '" + callee +
                     "' is discarded; check it, propagate it, or cast to "
                     "(void) deliberately");
    }
  }
}

void CheckUncheckedDeadline(const CheckContext& ctx) {
  if (!IsLibraryPath(ctx.file().path)) return;
  const auto& toks = ctx.file().tokens;
  auto is_budget_token = [](const Token& t) {
    return t.kind == Token::Kind::kIdent &&
           (t.text == "Expired" || t.text == "CheckOk" ||
            t.text == "CheckBudget" || t.text == "deadline" ||
            t.text == "Deadline" || t.text == "cancelled" ||
            t.text == "cancellation");
  };
  for (size_t i = 0; i < toks.size(); i++) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    const bool is_for_while =
        toks[i].text == "for" || toks[i].text == "while";
    const bool is_do = toks[i].text == "do";
    if (!is_for_while && !is_do) continue;
    size_t end = toks.size();
    if (is_for_while) {
      size_t j = i + 1;
      if (j >= toks.size() || toks[j].text != "(") continue;
      size_t header_close = MatchBalanced(toks, j);
      if (header_close >= toks.size()) continue;
      j = header_close + 1;
      if (j < toks.size() && toks[j].text == "{") {
        end = MatchBalanced(toks, j);
      } else {
        // Braceless body: one statement, through the next top-level ';'.
        int depth = 0;
        end = j;
        while (end < toks.size()) {
          if (IsBalancedOpen(toks[end].text)) depth++;
          if (IsBalancedClose(toks[end].text)) depth--;
          if (depth == 0 && toks[end].text == ";") break;
          end++;
        }
      }
    } else {
      size_t j = i + 1;
      if (j >= toks.size() || toks[j].text != "{") continue;
      end = MatchBalanced(toks, j);
      // Fold in the trailing `while (cond)` so a condition-side budget
      // check counts.
      size_t k = end + 1;
      if (k + 1 < toks.size() && toks[k].text == "while" &&
          toks[k + 1].text == "(") {
        size_t cond_close = MatchBalanced(toks, k + 1);
        if (cond_close < toks.size()) end = cond_close;
      }
    }
    if (end >= toks.size()) continue;
    int fp_line = 0;
    bool has_budget = false;
    for (size_t k = i; k <= end; k++) {
      if (toks[k].kind != Token::Kind::kIdent) continue;
      if (toks[k].text == "PARINDA_FAILPOINT" && fp_line == 0) {
        fp_line = toks[k].line;
      }
      if (is_budget_token(toks[k])) has_budget = true;
    }
    if (fp_line != 0 && !has_budget) {
      ctx.Report(fp_line, "unchecked-deadline",
                 "loop hits a failpoint but never consults a Deadline or "
                 "CancellationToken; a loop long enough to inject faults "
                 "into needs a budget check (Expired/CheckOk)");
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Linter driver
// ---------------------------------------------------------------------------

void Linter::AddSource(std::string path, std::string content) {
  sources_.push_back({std::move(path), std::move(content)});
}

bool Linter::AddFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  AddSource(path, buf.str());
  return true;
}

void Linter::RegisterFallibleFunction(std::string name) {
  extra_fallible_.insert(std::move(name));
}

std::vector<Diagnostic> Linter::Run() {
  std::vector<ScannedFile> scanned;
  scanned.reserve(sources_.size());
  for (const Source& s : sources_) {
    scanned.push_back(ScanSource(s.path, s.content));
  }

  std::set<std::string> fallible = extra_fallible_;
  for (const ScannedFile& f : scanned) {
    HarvestFallibleNames(f, &fallible);
  }

  std::vector<Diagnostic> diags;
  for (const ScannedFile& f : scanned) {
    CheckContext ctx(f, &diags);
    CheckHeaderGuard(ctx);
    CheckTodoOwner(ctx);
    CheckIostreamInLib(ctx);
    CheckAssertInLib(ctx);
    CheckRawNewDelete(ctx);
    CheckDetachedThread(ctx);
    CheckBareCounter(ctx);
    CheckDenseBenefit(ctx);
    CheckOverlayInternals(ctx);
    CheckUncheckedDeadline(ctx);
    CheckUncheckedStatus(ctx, fallible);
  }
  std::sort(diags.begin(), diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.check) <
                     std::tie(b.file, b.line, b.check);
            });
  return diags;
}

// ---------------------------------------------------------------------------
// Output formatting
// ---------------------------------------------------------------------------

std::string FormatText(const std::vector<Diagnostic>& diags) {
  std::ostringstream out;
  for (const Diagnostic& d : diags) {
    out << d.file << ":" << d.line << ": [" << d.check << "] " << d.message
        << "\n";
  }
  return out.str();
}

namespace {
std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}
}  // namespace

std::string FormatJson(const std::vector<Diagnostic>& diags) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < diags.size(); i++) {
    if (i) out << ",";
    out << "\n  {\"file\": \"" << JsonEscape(diags[i].file)
        << "\", \"line\": " << diags[i].line << ", \"check\": \""
        << JsonEscape(diags[i].check) << "\", \"message\": \""
        << JsonEscape(diags[i].message) << "\"}";
  }
  if (!diags.empty()) out << "\n";
  out << "]\n";
  return out.str();
}

std::vector<std::string> CollectSourcePaths(
    const std::vector<std::string>& paths, std::vector<std::string>* errors) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  auto want = [](const fs::path& p) {
    std::string ext = p.extension().string();
    return ext == ".h" || ext == ".cc" || ext == ".cpp";
  };
  for (const std::string& p : paths) {
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (auto it = fs::recursive_directory_iterator(p, ec);
           it != fs::recursive_directory_iterator(); it.increment(ec)) {
        if (ec) break;
        if (it->is_regular_file(ec) && want(it->path())) {
          files.push_back(it->path().generic_string());
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(p);
    } else if (errors) {
      errors->push_back("no such file or directory: " + p);
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

}  // namespace lint
}  // namespace parinda
