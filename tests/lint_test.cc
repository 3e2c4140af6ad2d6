#include "lint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace parinda {
namespace lint {
namespace {

std::vector<Diagnostic> RunOn(const std::string& path,
                              const std::string& content) {
  Linter linter;
  linter.AddSource(path, content);
  return linter.Run();
}

int CountCheck(const std::vector<Diagnostic>& diags, const std::string& check) {
  return static_cast<int>(
      std::count_if(diags.begin(), diags.end(),
                    [&](const Diagnostic& d) { return d.check == check; }));
}

TEST(LintUncheckedStatus, FlagsDiscardedCallToDeclaredFallible) {
  auto diags = RunOn("src/foo/bar.cc",
                     "Status DoThing();\n"
                     "void caller() {\n"
                     "  DoThing();\n"
                     "}\n");
  ASSERT_EQ(CountCheck(diags, "unchecked-status"), 1);
  EXPECT_EQ(diags[0].line, 3);
  EXPECT_NE(diags[0].message.find("DoThing"), std::string::npos);
}

TEST(LintUncheckedStatus, FlagsDiscardedResultAndMemberCalls) {
  auto diags = RunOn("src/foo/bar.cc",
                     "Result<int> Compute(int x);\n"
                     "Status Widget::Refresh();\n"
                     "void caller(Widget* w) {\n"
                     "  Compute(4);\n"
                     "  w->Refresh();\n"
                     "}\n");
  EXPECT_EQ(CountCheck(diags, "unchecked-status"), 2);
}

TEST(LintUncheckedStatus, RegistryIsSharedAcrossSources) {
  Linter linter;
  linter.AddSource("src/a/api.h",
                   "#ifndef G_\n#define G_\nStatus Flush();\n#endif\n");
  linter.AddSource("src/b/user.cc", "void f() { Flush(); }\n");
  auto diags = linter.Run();
  ASSERT_EQ(CountCheck(diags, "unchecked-status"), 1);
  EXPECT_EQ(diags[0].file, "src/b/user.cc");
}

TEST(LintUncheckedStatus, AllowsUsedAndExplicitlyDiscardedResults) {
  auto diags = RunOn("src/foo/bar.cc",
                     "Status DoThing();\n"
                     "Status propagate() { return DoThing(); }\n"
                     "void used() {\n"
                     "  Status st = DoThing();\n"
                     "  (void)DoThing();\n"
                     "  if (!DoThing().ok()) { }\n"
                     "}\n");
  EXPECT_EQ(CountCheck(diags, "unchecked-status"), 0);
}

TEST(LintUncheckedStatus, SuppressionOnSameOrPreviousLine) {
  auto diags = RunOn("src/foo/bar.cc",
                     "Status DoThing();\n"
                     "void caller() {\n"
                     "  DoThing();  // parinda-lint: allow(unchecked-status)\n"
                     "  // parinda-lint: allow(unchecked-status)\n"
                     "  DoThing();\n"
                     "  DoThing();\n"
                     "}\n");
  ASSERT_EQ(CountCheck(diags, "unchecked-status"), 1);
  EXPECT_EQ(diags[0].line, 6);
}

TEST(LintRawNewDelete, FlagsOutsideStorageOnly) {
  const std::string code =
      "void f() {\n"
      "  int* p = new int(3);\n"
      "  delete p;\n"
      "}\n";
  EXPECT_EQ(CountCheck(RunOn("src/foo/bar.cc", code), "raw-new-delete"), 2);
  EXPECT_EQ(CountCheck(RunOn("src/storage/heap.cc", code), "raw-new-delete"),
            0);
  // Non-library code (tests, tools) is out of scope for this check.
  EXPECT_EQ(CountCheck(RunOn("tests/foo_test.cc", code), "raw-new-delete"), 0);
}

TEST(LintRawNewDelete, DeletedMembersAndOperatorDeclsExempt) {
  auto diags = RunOn("src/foo/bar.h",
                     "#ifndef G_\n#define G_\n"
                     "class Widget {\n"
                     " public:\n"
                     "  Widget(const Widget&) = delete;\n"
                     "  Widget& operator=(const Widget&) = delete;\n"
                     "};\n"
                     "#endif  // G_\n");
  EXPECT_EQ(CountCheck(diags, "raw-new-delete"), 0);
}

TEST(LintAssertInLib, FlagsAssertButNotStaticAssert) {
  auto diags = RunOn("src/foo/bar.cc",
                     "void f(int x) {\n"
                     "  assert(x > 0);\n"
                     "  static_assert(sizeof(int) == 4);\n"
                     "}\n");
  ASSERT_EQ(CountCheck(diags, "assert-in-lib"), 1);
  EXPECT_EQ(diags[0].line, 2);
}

TEST(LintAssertInLib, MacroDefinitionsAreInvisible) {
  // Preprocessor lines are not part of the token stream, so the DCHECK
  // macro's own definition does not trip the check.
  auto diags = RunOn("src/common/check2.h",
                     "#ifndef G_\n#define G_\n"
                     "#define MY_DCHECK(cond) assert(cond)\n"
                     "#endif  // G_\n");
  EXPECT_EQ(CountCheck(diags, "assert-in-lib"), 0);
}

TEST(LintIostreamInLib, FlagsCoutAndCerrInSrcOnly) {
  const std::string code = "void f() { std::cout << 1; std::cerr << 2; }\n";
  EXPECT_EQ(CountCheck(RunOn("src/foo/bar.cc", code), "iostream-in-lib"), 2);
  EXPECT_EQ(CountCheck(RunOn("examples/demo.cpp", code), "iostream-in-lib"),
            0);
}

TEST(LintIostreamInLib, SuppressionWorks) {
  auto diags = RunOn(
      "src/foo/bar.cc",
      "void f() { std::cerr << 1; }  // parinda-lint: allow(iostream-in-lib)\n");
  EXPECT_EQ(CountCheck(diags, "iostream-in-lib"), 0);
}

TEST(LintHeaderGuard, AcceptsIfndefPairAndPragmaOnce) {
  EXPECT_EQ(CountCheck(RunOn("src/a.h",
                             "#ifndef SRC_A_H_\n#define SRC_A_H_\n"
                             "int f();\n#endif\n"),
                       "header-guard"),
            0);
  EXPECT_EQ(
      CountCheck(RunOn("src/b.h", "#pragma once\nint f();\n"), "header-guard"),
      0);
}

TEST(LintHeaderGuard, FlagsMissingOrMisplacedGuard) {
  EXPECT_EQ(CountCheck(RunOn("src/a.h", "int f();\n"), "header-guard"), 1);
  // An #include before the guard leaves the header unprotected.
  EXPECT_EQ(CountCheck(RunOn("src/b.h",
                             "#include <string>\n#ifndef G_\n#define G_\n"
                             "#endif\n"),
                       "header-guard"),
            1);
  // Sources are not headers.
  EXPECT_EQ(CountCheck(RunOn("src/c.cc", "int f() { return 1; }\n"),
                       "header-guard"),
            0);
}

TEST(LintTodoOwner, FlagsOwnerlessTodoOnly) {
  auto diags = RunOn("src/foo/bar.cc",
                     "// TODO: fix\n"
                     "// TODO(alice): fine\n"
                     "/* TODO someday */\n"
                     "int x;\n");
  EXPECT_EQ(CountCheck(diags, "todo-no-owner"), 2);
}

TEST(LintSuppression, AllowAllAndAllowList) {
  auto diags = RunOn("src/foo/bar.cc",
                     "void f() {\n"
                     "  int* p = new int(1);  // parinda-lint: allow(all)\n"
                     "  delete p;  // parinda-lint: allow(foo,raw-new-delete)\n"
                     "}\n");
  EXPECT_EQ(CountCheck(diags, "raw-new-delete"), 0);
}

TEST(LintSuppression, WrongCheckNameDoesNotSuppress) {
  auto diags = RunOn("src/foo/bar.cc",
                     "void f() {\n"
                     "  int* p = new int(1);  // parinda-lint: allow(todo-no-owner)\n"
                     "  delete p;\n"
                     "}\n");
  EXPECT_EQ(CountCheck(diags, "raw-new-delete"), 2);
}

TEST(LintFormat, TextAndJsonShapes) {
  std::vector<Diagnostic> diags = {
      {"src/a.cc", 7, "assert-in-lib", "assert() in library code"}};
  EXPECT_EQ(FormatText(diags),
            "src/a.cc:7: [assert-in-lib] assert() in library code\n");
  std::string json = FormatJson(diags);
  EXPECT_NE(json.find("\"file\": \"src/a.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"check\": \"assert-in-lib\""), std::string::npos);
  EXPECT_EQ(FormatJson({}), "[]\n");
}

TEST(LintScanner, LiteralsAndCommentsDoNotProduceFalsePositives) {
  auto diags = RunOn("src/foo/bar.cc",
                     "const char* s = \"assert(new std::cout)\";\n"
                     "// assert(1) in a comment is not code: std::cerr\n"
                     "char c = '\\'';\n"
                     "int after = 1;\n");
  EXPECT_EQ(CountCheck(diags, "assert-in-lib"), 0);
  EXPECT_EQ(CountCheck(diags, "raw-new-delete"), 0);
  EXPECT_EQ(CountCheck(diags, "iostream-in-lib"), 0);
}

TEST(LintDetachedThread, FlagsRawThreadCreationInLib) {
  auto diags = RunOn("src/advisor/worker.cc",
                     "void f() {\n"
                     "  std::thread t([] {});\n"
                     "  auto fut = std::async([] {});\n"
                     "  t.join();\n"
                     "}\n");
  EXPECT_EQ(CountCheck(diags, "detached-thread"), 2);
}

TEST(LintDetachedThread, FlagsDetachEverywhereInLib) {
  auto diags = RunOn("src/common/thread_pool.cc",
                     "void ThreadPool::Bad() { workers_[0].detach(); }\n");
  EXPECT_EQ(CountCheck(diags, "detached-thread"), 1);
}

TEST(LintDetachedThread, ThreadPoolFilesMayCreateThreads) {
  auto diags = RunOn("src/common/thread_pool.h",
                     "#ifndef G_\n#define G_\n"
                     "#include <thread>\n"
                     "std::vector<std::thread> workers_;\n"
                     "#endif\n");
  EXPECT_EQ(CountCheck(diags, "detached-thread"), 0);
}

TEST(LintDetachedThread, NonLibraryPathsAreExempt) {
  auto diags = RunOn("tests/some_test.cc",
                     "void f() { std::thread t([] {}); t.detach(); }\n");
  EXPECT_EQ(CountCheck(diags, "detached-thread"), 0);
}

TEST(LintDetachedThread, SuppressionComments) {
  auto diags = RunOn("src/a.cc",
                     "// parinda-lint: allow(detached-thread)\n"
                     "std::thread t;\n"
                     "std::thread u;  // parinda-lint: allow(all)\n");
  EXPECT_EQ(CountCheck(diags, "detached-thread"), 0);
}

TEST(LintBareCounter, FlagsAtomicTallyOutsideCommon) {
  auto diags = RunOn("src/advisor/tally.cc",
                     "std::atomic<int64_t> g_calls{0};\n"
                     "void f() { g_calls.fetch_add(1); }\n");
  ASSERT_EQ(CountCheck(diags, "bare-counter"), 1);
  EXPECT_NE(diags[0].message.find("metrics"), std::string::npos);
}

TEST(LintBareCounter, CommonAndTestPathsAreExempt) {
  const std::string source = "std::atomic<bool> g_flag{false};\n";
  EXPECT_EQ(CountCheck(RunOn("src/common/failpoint.cc", source),
                       "bare-counter"),
            0);
  EXPECT_EQ(CountCheck(RunOn("tests/some_test.cc", source), "bare-counter"),
            0);
  EXPECT_EQ(CountCheck(RunOn("bench/bench_foo.cc", source), "bare-counter"),
            0);
}

TEST(LintBareCounter, SuppressionWithRationaleIsHonored) {
  auto diags = RunOn("src/autopart/autopart.h",
                     "#ifndef G_\n#define G_\n"
                     "// instance-local result statistic, not process-wide\n"
                     "// parinda-lint: allow(bare-counter)\n"
                     "std::atomic<int> evaluations_{0};\n"
                     "#endif\n");
  EXPECT_EQ(CountCheck(diags, "bare-counter"), 0);
}

TEST(LintDenseBenefit, FlagsDenseGridUnderAdvisor) {
  auto diags = RunOn("src/advisor/scores.cc",
                     "std::vector<std::vector<double>> grid;\n");
  ASSERT_EQ(CountCheck(diags, "dense-benefit"), 1);
  EXPECT_EQ(diags[0].line, 1);
  EXPECT_NE(diags[0].message.find("BenefitMatrix"), std::string::npos);
}

TEST(LintDenseBenefit, PathsOutsideAdvisorAreExempt) {
  const std::string source = "std::vector<std::vector<double>> grid;\n";
  EXPECT_EQ(CountCheck(RunOn("src/autopart/scores.cc", source),
                       "dense-benefit"),
            0);
  EXPECT_EQ(CountCheck(RunOn("tests/advisor_test.cc", source),
                       "dense-benefit"),
            0);
}

TEST(LintDenseBenefit, SuppressionWorks) {
  auto diags = RunOn("src/advisor/scores.cc",
                     "std::vector<std::vector<double>> grid;  "
                     "// parinda-lint: allow(dense-benefit)\n");
  EXPECT_EQ(CountCheck(diags, "dense-benefit"), 0);
}

TEST(LintOverlayInternals, FlagsHandWiredOverlayOutsideDesignLayer) {
  auto diags = RunOn("src/parinda/parinda.cc",
                     "void f(const CatalogReader& c) {\n"
                     "  WhatIfTableCatalog tables(c);\n"
                     "  WhatIfIndexSet indexes(tables);\n"
                     "}\n");
  EXPECT_EQ(CountCheck(diags, "overlay-internals"), 1);
}

TEST(LintOverlayInternals, SingleMechanismIsLegal) {
  EXPECT_EQ(CountCheck(RunOn("src/advisor/index_advisor.cc",
                             "WhatIfIndexSet candidates(catalog);\n"),
                       "overlay-internals"),
            0);
  EXPECT_EQ(CountCheck(RunOn("src/autopart/autopart.cc",
                             "WhatIfTableCatalog overlay(catalog);\n"),
                       "overlay-internals"),
            0);
}

TEST(LintOverlayInternals, FlagsComposedOverlayAndOverlayHeaderInclude) {
  auto diags = RunOn("src/advisor/index_advisor.cc",
                     "#include \"design/overlay.h\"\n"
                     "ComposedOverlay overlay(catalog);\n");
  EXPECT_EQ(CountCheck(diags, "overlay-internals"), 2);
}

TEST(LintOverlayInternals, FlagsPlanningAgainstHandWiredWhatIfCatalog) {
  // Costing a what-if design by feeding a WhatIfTableCatalog straight to the
  // planner bypasses the evaluation engine (and its cost cache).
  auto diags = RunOn("src/parinda/parinda.cc",
                     "void f(const CatalogReader& c, const SelectStatement& s) {\n"
                     "  WhatIfTableCatalog tables(c);\n"
                     "  auto plan = PlanQuery(tables, s, {});\n"
                     "}\n");
  EXPECT_EQ(CountCheck(diags, "overlay-internals"), 1);
  auto planner_diags = RunOn("src/autopart/autopart.cc",
                             "void f(const CatalogReader& c) {\n"
                             "  WhatIfTableCatalog tables(c);\n"
                             "  Planner planner(tables);\n"
                             "}\n");
  EXPECT_EQ(CountCheck(planner_diags, "overlay-internals"), 1);
}

TEST(LintOverlayInternals, PlannerWithoutWhatIfCatalogIsLegal) {
  // Base-catalog planning outside the engine stays fine...
  EXPECT_EQ(CountCheck(RunOn("src/parinda/parinda.cc",
                             "auto plan = PlanQuery(catalog, stmt, {});\n"),
                       "overlay-internals"),
            0);
  // ...and so is holding the catalog overlay without planning against it.
  EXPECT_EQ(CountCheck(RunOn("src/autopart/autopart.cc",
                             "WhatIfTableCatalog overlay(catalog);\n"),
                       "overlay-internals"),
            0);
}

TEST(LintOverlayInternals, DesignWhatifEngineLayersAndTestsAreExempt) {
  const char* code =
      "#include \"design/overlay.h\"\n"
      "void f(const CatalogReader& c, const SelectStatement& s) {\n"
      "  ComposedOverlay overlay(c);\n"
      "  WhatIfTableCatalog tables(c);\n"
      "  WhatIfIndexSet indexes(tables);\n"
      "  auto plan = PlanQuery(tables, s, {});\n"
      "}\n";
  EXPECT_EQ(CountCheck(RunOn("src/design/overlay.cc", code),
                       "overlay-internals"),
            0);
  EXPECT_EQ(CountCheck(RunOn("src/whatif/whatif_index.cc", code),
                       "overlay-internals"),
            0);
  EXPECT_EQ(CountCheck(RunOn("src/engine/workload_evaluator.cc", code),
                       "overlay-internals"),
            0);
  EXPECT_EQ(CountCheck(RunOn("tests/design_test.cc", code),
                       "overlay-internals"),
            0);
  EXPECT_EQ(CountCheck(RunOn("bench/bench_interactive.cc", code),
                       "overlay-internals"),
            0);
}

TEST(LintOverlayInternals, SuppressionWorks) {
  auto diags = RunOn("src/parinda/parinda.cc",
                     "// parinda-lint: allow(overlay-internals)\n"
                     "ComposedOverlay overlay(catalog);\n");
  EXPECT_EQ(CountCheck(diags, "overlay-internals"), 0);
}

TEST(LintUncheckedDeadline, FlagsFailpointLoopWithoutBudgetCheck) {
  auto diags = RunOn("src/solver/bnb.cc",
                     "Status Solve() {\n"
                     "  while (!stack.empty()) {\n"
                     "    PARINDA_FAILPOINT(\"solver.bnb_node\");\n"
                     "    Expand();\n"
                     "  }\n"
                     "  return Status::OK();\n"
                     "}\n");
  ASSERT_EQ(CountCheck(diags, "unchecked-deadline"), 1);
  EXPECT_EQ(diags[0].line, 3);
}

TEST(LintUncheckedDeadline, BudgetConsultingLoopsPass) {
  auto diags = RunOn(
      "src/solver/bnb.cc",
      "Status Solve() {\n"
      "  while (!stack.empty()) {\n"
      "    PARINDA_FAILPOINT(\"solver.bnb_node\");\n"
      "    if (options.deadline.Expired()) break;\n"
      "  }\n"
      "  for (int q = 0; q < n; ++q) {\n"
      "    PARINDA_FAILPOINT(\"advisor.enumerate\");\n"
      "    PARINDA_RETURN_IF_ERROR(CheckBudget(\"advisor.enumerate\"));\n"
      "  }\n"
      "  do {\n"
      "    PARINDA_FAILPOINT(\"x\");\n"
      "  } while (!token.cancelled());\n"
      "  return Status::OK();\n"
      "}\n");
  EXPECT_EQ(CountCheck(diags, "unchecked-deadline"), 0);
}

TEST(LintUncheckedDeadline, FailpointOutsideLoopsAndNonLibExempt) {
  // Function-entry failpoints are not loops; tests/tools are out of scope.
  EXPECT_EQ(CountCheck(RunOn("src/inum/inum.cc",
                             "Status BuildEntry() {\n"
                             "  PARINDA_FAILPOINT(\"inum.build_entry\");\n"
                             "  return Status::OK();\n"
                             "}\n"),
                       "unchecked-deadline"),
            0);
  EXPECT_EQ(CountCheck(RunOn("tests/failpoint_test.cc",
                             "void f() {\n"
                             "  for (;;) { PARINDA_FAILPOINT(\"x\"); }\n"
                             "}\n"),
                       "unchecked-deadline"),
            0);
}

TEST(LintUncheckedDeadline, SuppressionWorks) {
  auto diags = RunOn("src/a.cc",
                     "void f() {\n"
                     "  while (spin) {\n"
                     "    // parinda-lint: allow(unchecked-deadline)\n"
                     "    PARINDA_FAILPOINT(\"x\");\n"
                     "  }\n"
                     "}\n");
  EXPECT_EQ(CountCheck(diags, "unchecked-deadline"), 0);
}

TEST(LintSuppression, AllowFileWithinWindowCoversWholeFile) {
  auto diags = RunOn("src/foo/bar.cc",
                     "// parinda-lint: allow-file(unchecked-status)\n"
                     "Status DoThing();\n"
                     "void caller() {\n"
                     "  DoThing();\n"
                     "  DoThing();\n"
                     "}\n");
  EXPECT_EQ(CountCheck(diags, "unchecked-status"), 0);
}

TEST(LintSuppression, AllowFileOnlyCoversNamedChecks) {
  auto diags = RunOn("src/foo/bar.cc",
                     "// parinda-lint: allow-file(assert-in-lib)\n"
                     "Status DoThing();\n"
                     "void caller() {\n"
                     "  assert(1 == 1);\n"
                     "  DoThing();\n"
                     "}\n");
  EXPECT_EQ(CountCheck(diags, "assert-in-lib"), 0);
  EXPECT_EQ(CountCheck(diags, "unchecked-status"), 1);
}

TEST(LintSuppression, AllowFileBeyondWindowDoesNotCount) {
  std::string padding(12, '\n');  // pushes the comment past line 10
  auto diags = RunOn("src/foo/bar.cc",
                     padding +
                         "// parinda-lint: allow-file(unchecked-status)\n"
                         "Status DoThing();\n"
                         "void caller() { DoThing(); }\n");
  EXPECT_EQ(CountCheck(diags, "unchecked-status"), 1);
}

TEST(LintSuppression, AnalyzeTagIsAcceptedAsAlias) {
  auto diags = RunOn("src/foo/bar.cc",
                     "Status DoThing();\n"
                     "void caller() {\n"
                     "  DoThing();  // parinda-analyze: allow(all)\n"
                     "}\n");
  EXPECT_EQ(CountCheck(diags, "unchecked-status"), 0);
}

TEST(LintSuppression, AllowFileDoesNotSatisfyLineAllowLookups) {
  // `allow-file` on a line past the window must not act as a line-scoped
  // `allow` for findings on that line or the next.
  std::string padding(12, '\n');
  auto diags = RunOn("src/foo/bar.cc",
                     padding +
                         "Status DoThing();\n"
                         "// parinda-lint: allow-file(unchecked-status)\n"
                         "void caller() { DoThing(); }\n");
  EXPECT_EQ(CountCheck(diags, "unchecked-status"), 1);
}

TEST(LintRegistry, ExplicitRegistrationFlagsCallSites) {
  Linter linter;
  linter.RegisterFallibleFunction("ExternalFallible");
  linter.AddSource("src/a.cc", "void f() { ExternalFallible(); }\n");
  EXPECT_EQ(CountCheck(linter.Run(), "unchecked-status"), 1);
}

}  // namespace
}  // namespace lint
}  // namespace parinda
