#ifndef PARINDA_TOOLS_LINT_LINT_H_
#define PARINDA_TOOLS_LINT_LINT_H_

#include <set>
#include <string>
#include <vector>

/// parinda-lint: a lightweight, tokenizer-based checker for project-specific
/// correctness conventions that the compiler cannot (or does not) enforce.
///
/// Checks (names are stable identifiers used in reports and suppressions):
///
///   unchecked-status   A call to a function returning Status/Result<T> whose
///                      result is discarded (the call is the whole statement).
///                      Fallible functions are harvested from declarations in
///                      the scanned sources. Discard explicitly with `(void)`.
///   raw-new-delete     `new` / `delete` expressions in library code outside
///                      src/storage/ (ownership belongs in smart pointers or
///                      the storage layer).
///   assert-in-lib      `assert(` in src/ — library invariants must use
///                      PARINDA_CHECK / PARINDA_DCHECK so they log through
///                      the standard sink.
///   iostream-in-lib    `std::cout` / `std::cerr` in src/ — library code must
///                      use PARINDA_LOG.
///   detached-thread    `std::thread` / `std::jthread` / `std::async` in src/
///                      outside src/common/thread_pool — the pool is the only
///                      place allowed to create threads (so work propagates
///                      Status and every thread is joined) — and `.detach()`
///                      anywhere in src/ (detaching defeats the join
///                      discipline even inside the pool).
///   bare-counter       `std::atomic` in src/ outside src/common/ — new
///                      tallies belong in the metrics registry
///                      (common/metrics.h) where `stats` and bench JSON
///                      exports can see them; the primitives in src/common/
///                      (registry, deadline, failpoints, trace, pool) are
///                      exempt. Genuinely instance-local atomics carry an
///                      allow() with a rationale.
///   overlay-internals  Code in src/ outside src/design/ and src/whatif/ that
///                      reaches into the what-if overlay internals: naming
///                      ComposedOverlay, including design/overlay.h, or
///                      wiring WhatIfTableCatalog and WhatIfIndexSet together
///                      in one file. Compose designs through a DesignSession;
///                      using a single what-if mechanism on its own is fine.
///   unchecked-deadline A for/while/do loop in src/ that hits a failpoint
///                      (PARINDA_FAILPOINT) without consulting a budget: the
///                      loop must mention a Deadline/CancellationToken check
///                      (Expired, CheckOk, CheckBudget, deadline, cancelled).
///                      Failpoints mark long-running paths; a loop long
///                      enough to need fault injection is long enough to need
///                      a deadline check (DESIGN.md §10).
///   dense-benefit      `std::vector<std::vector<double>>` in src/advisor/ —
///                      a dense query x candidate benefit/score grid is
///                      O(nq * nc) memory and scan time and does not scale to
///                      compressed thousand-query workloads; store benefits
///                      in advisor/BenefitMatrix (CSR-style sparse rows).
///   header-guard       A .h file whose first preprocessor directives are not
///                      `#ifndef`/`#define` (or `#pragma once`).
///   todo-no-owner      A TODO comment without an owner: write `TODO(name):`.
///
/// Suppression: append `// parinda-lint: allow(<check>[,<check>...])` to the
/// offending line, or place it alone on the immediately preceding line.
/// `allow(all)` suppresses every check for that line. A file-scope
/// `// parinda-lint: allow-file(<check>[,<check>...])` comment within the
/// first 10 lines of a file suppresses the named checks for the whole file
/// (for e.g. generated code or a file-wide sanctioned exemption). The same
/// syntax — and the `parinda-analyze:` tag as an alias — is honored by the
/// parinda-analyze cross-file analyses (tools/analyze/).
namespace parinda {
namespace lint {

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string check;    // stable check name, e.g. "unchecked-status"
  std::string message;  // human-readable explanation

  bool operator==(const Diagnostic&) const = default;
};

/// Scans a set of sources in two passes: first harvests the names of
/// fallible functions (those declared to return Status or Result<T>) from
/// every added source, then runs all checks. Sources can come from disk
/// (AddFile) or memory (AddSource), which is what the unit tests use.
class Linter {
 public:
  /// Registers an in-memory source. `path` determines which checks apply
  /// (e.g. the "-in-lib" checks only fire for paths under src/).
  void AddSource(std::string path, std::string content);

  /// Reads `path` from disk; returns false (and records no source) when the
  /// file cannot be read.
  bool AddFile(const std::string& path);

  /// Adds a function name to the fallible-function registry in addition to
  /// the names harvested from the scanned sources.
  void RegisterFallibleFunction(std::string name);

  /// Runs every check over all added sources. Diagnostics are ordered by
  /// (file, line).
  std::vector<Diagnostic> Run();

 private:
  struct Source {
    std::string path;
    std::string content;
  };
  std::vector<Source> sources_;
  std::set<std::string> extra_fallible_;
};

/// "file:line: [check] message" lines, one per diagnostic.
std::string FormatText(const std::vector<Diagnostic>& diags);

/// JSON array of {"file","line","check","message"} objects (machine mode
/// for CI).
std::string FormatJson(const std::vector<Diagnostic>& diags);

/// Expands files and directories (recursively; .h/.cc/.cpp only) into a
/// sorted file list. Unknown paths are reported in `errors`.
std::vector<std::string> CollectSourcePaths(
    const std::vector<std::string>& paths, std::vector<std::string>* errors);

}  // namespace lint
}  // namespace parinda

#endif  // PARINDA_TOOLS_LINT_LINT_H_
