#ifndef PARINDA_REWRITER_REWRITER_H_
#define PARINDA_REWRITER_REWRITER_H_

#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "parser/ast.h"

namespace parinda {

/// The rewriter's access-path decision for one statement, before any
/// statement is built: per FROM range, the fragments that will serve it.
struct FragmentChoice {
  struct Range {
    /// The range's table in the catalog the choice was made against.
    const TableInfo* table = nullptr;
    /// The covering fragments in the order they join (the first one
    /// anchors the primary-key joins); empty keeps the base table.
    std::vector<const TableInfo*> fragments;
  };
  /// Parallel to the statement's FROM list.
  std::vector<Range> ranges;

  /// True when at least one range moves onto fragments.
  bool changed() const;
};

/// Result of rewriting one query onto vertical partitions.
struct RewriteResult {
  /// The rewritten statement, bound against the catalog passed in.
  SelectStatement stmt;
  /// False when no referenced table had a usable fragment set (stmt is then
  /// a bound clone of the input).
  bool changed = false;
};

/// PARINDA's automatic query rewriter (paper §3.3: "an automatic query
/// rewriter is used to rewrite the original workload for the composite
/// fragments"), in two steps.
///
/// ChooseFragments is the decision, and it builds nothing: for every FROM
/// entry whose table has fragments in `fragments`, the columns the query
/// uses are covered by a minimal set of fragments (greedy set cover,
/// smallest-pages tie-break). `SELECT *` needs every column; a query that
/// only counts rows needs the first primary-key column, so the narrowest
/// fragment serves it. A multi-fragment cover needs the parent's primary
/// key to recombine rows, so a table without one keeps its base table.
[[nodiscard]] Result<FragmentChoice> ChooseFragments(
    const CatalogReader& catalog, const SelectStatement& bound_stmt,
    const std::vector<const TableInfo*>& fragments);

/// Builds the statement `choice` describes. A single covering fragment
/// simply replaces the table; multiple fragments are joined on the parent's
/// primary key (which every fragment carries — that is why what-if tables
/// include it). Column references are re-qualified onto the first chosen
/// fragment that holds them; the result is re-bound against `catalog`, which
/// must resolve the fragment tables (a WhatIfTableCatalog overlay or the
/// real catalog after materialization). `choice` must come from
/// ChooseFragments on `bound_stmt`.
[[nodiscard]] Result<RewriteResult> BuildRewrite(
    const CatalogReader& catalog, const SelectStatement& bound_stmt,
    const FragmentChoice& choice);

/// BuildRewrite(ChooseFragments(...)): the whole rewrite in one call.
[[nodiscard]] Result<RewriteResult> RewriteForPartitions(
    const CatalogReader& catalog, const SelectStatement& bound_stmt,
    const std::vector<const TableInfo*>& fragments);

}  // namespace parinda

#endif  // PARINDA_REWRITER_REWRITER_H_
