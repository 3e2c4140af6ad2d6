#include "solver/bnb.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"

namespace parinda {

PARINDA_REGISTER_FAILPOINT("solver.bnb_node");

namespace {

constexpr double kIntEps = 1e-6;

metrics::Counter& NodesExpandedCounter() {
  static metrics::Counter& c =
      metrics::Registry::Global().counter("solver.nodes_expanded");
  return c;
}

metrics::Counter& NodesPrunedCounter() {
  static metrics::Counter& c =
      metrics::Registry::Global().counter("solver.nodes_pruned");
  return c;
}

bool IsIntegral(const std::vector<double>& values, int* most_fractional) {
  *most_fractional = -1;
  double best_dist = kIntEps;
  for (size_t i = 0; i < values.size(); ++i) {
    const double frac = values[i] - std::floor(values[i]);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist > best_dist) {
      best_dist = dist;
      *most_fractional = static_cast<int>(i);
      // min(frac, 1 - frac) cannot exceed 0.5, and the comparison above is
      // strict, so a variable at exactly 0.5 ends the scan.
      if (best_dist >= 0.5) break;
    }
  }
  return *most_fractional < 0;
}

/// True when the incumbent already covers `bound` within the relative gap —
/// a subtree whose upper bound is covered cannot improve the incumbent.
bool Covered(const MipSolution& best, double bound, double relative_gap) {
  return best.feasible &&
         bound <= best.objective +
                      std::fabs(best.objective) * relative_gap + kIntEps;
}

/// Seeds the incumbent with the all-zero assignment when it is feasible
/// (selecting nothing always satisfies <=-constraints with nonnegative rhs,
/// which is the shape of PARINDA's ILPs).
void SeedZeroIncumbent(const LinearProgram& lp, MipSolution* best) {
  for (const auto& row : lp.constraints) {
    if (row.rhs < 0.0) return;
  }
  best->feasible = true;
  best->objective = 0.0;
}

/// Greedy warm start: round the root relaxation to 0/1 and adopt it as the
/// incumbent when the rounding happens to satisfy every constraint. One
/// pass over the constraints; on selection instances the rounding is often
/// optimal or near it, which lets the bound prune most of the tree.
void TryRoundedIncumbent(const LinearProgram& lp,
                         const std::vector<double>& relax_values,
                         MipSolution* best) {
  const int n = lp.num_vars();
  std::vector<int> rounded(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    if (relax_values[static_cast<size_t>(i)] > 0.5) {
      if (lp.UpperOf(i) < 1.0 - kIntEps) return;
      rounded[static_cast<size_t>(i)] = 1;
    }
  }
  for (const auto& row : lp.constraints) {
    double lhs = 0.0;
    for (const auto& [var, coeff] : row.terms) {
      if (var >= 0 && var < n && rounded[static_cast<size_t>(var)] == 1) {
        lhs += coeff;
      }
    }
    if (lhs > row.rhs + kIntEps) return;
  }
  double objective = 0.0;
  for (int i = 0; i < n; ++i) {
    if (rounded[static_cast<size_t>(i)] == 1) {
      objective += lp.objective[static_cast<size_t>(i)];
    }
  }
  if (!best->feasible || objective > best->objective) {
    best->feasible = true;
    best->objective = objective;
    best->values = std::move(rounded);
  }
}

/// One fixing in the incremental search tree. Nodes form a parent-linked
/// arena: a node's complete fixing set is its chain back to the root, so a
/// node costs 6 bytes instead of an n-wide fixing vector.
struct FixRec {
  int var = -1;  // -1 at the root (no fixing)
  int8_t value = 0;
  int parent = -1;
};

/// Open-list entry: best bound pops first; on equal bounds the larger
/// sequence number (the most recently pushed child, i.e. the "round up"
/// branch) pops first, the depth-first preference for finding good
/// incumbents quickly on selection problems.
struct PqEntry {
  double bound = 0.0;
  int64_t seq = 0;
  int id = 0;
};

bool operator<(const PqEntry& a, const PqEntry& b) {
  if (a.bound != b.bound) return a.bound < b.bound;
  return a.seq < b.seq;
}

}  // namespace

Result<MipSolution> SolveBinaryMip(const BinaryMip& mip,
                                   const MipOptions& options) {
  const int n = mip.lp.num_vars();
  MipSolution best;
  best.values.assign(static_cast<size_t>(n), 0);
  SeedZeroIncumbent(mip.lp, &best);

  // The one LP copy of the entire search: every node solves this same
  // program after restoring the base bounds and replaying its fixing chain.
  // Fix-to-0 sets upper = 0; fix-to-1 sets lower = 1 (the LP handles lower
  // bounds by substitution, so fixed-to-1 variables never create a Big-M
  // artificial the way a -x <= -1 row would).
  LinearProgram work = mip.lp;
  std::vector<double> base_upper(static_cast<size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    base_upper[static_cast<size_t>(i)] = mip.lp.UpperOf(i);
  }
  work.upper = base_upper;
  work.lower.assign(static_cast<size_t>(n), 0.0);

  std::vector<FixRec> arena;
  arena.push_back(FixRec{});
  std::priority_queue<PqEntry> open;
  int64_t next_seq = 0;
  open.push(PqEntry{std::numeric_limits<double>::infinity(), next_seq++, 0});
  bool exhausted_cleanly = true;

  while (!open.empty()) {
    PARINDA_FAILPOINT("solver.bnb_node");
    if (best.nodes_explored >= options.max_nodes) {
      exhausted_cleanly = false;
      break;
    }
    if (options.deadline.Expired()) {
      // Anytime cut: keep the incumbent, flag the truncation.
      exhausted_cleanly = false;
      best.degraded = true;
      break;
    }
    const PqEntry entry = open.top();
    open.pop();
    // Prune before paying for the LP: the stored bound is the parent's
    // relaxation objective, an upper bound for this whole subtree. With
    // best-first ordering this fires for everything left in the open list
    // once the incumbent matches the best bound.
    if (Covered(best, entry.bound, options.relative_gap)) {
      ++best.nodes_pruned;
      NodesPrunedCounter().Increment();
      continue;
    }
    // Restore the base bounds, then replay this node's fixing chain —
    // O(n) writes, no allocation.
    work.upper = base_upper;
    std::fill(work.lower.begin(), work.lower.end(), 0.0);
    for (int id = entry.id; id >= 0;
         id = arena[static_cast<size_t>(id)].parent) {
      const FixRec& fix = arena[static_cast<size_t>(id)];
      if (fix.var < 0) continue;  // root
      if (fix.value == 0) {
        work.upper[static_cast<size_t>(fix.var)] = 0.0;
      } else {
        work.lower[static_cast<size_t>(fix.var)] = 1.0;
      }
    }
    ++best.nodes_explored;
    NodesExpandedCounter().Increment();

    PARINDA_ASSIGN_OR_RETURN(LpSolution relax, SolveLp(work));
    if (!relax.feasible) continue;
    if (Covered(best, relax.objective, options.relative_gap)) {
      ++best.nodes_pruned;
      NodesPrunedCounter().Increment();
      continue;
    }
    int branch_var = -1;
    if (IsIntegral(relax.values, &branch_var)) {
      best.feasible = true;
      best.objective = relax.objective;
      for (int i = 0; i < n; ++i) {
        best.values[i] = relax.values[i] > 0.5 ? 1 : 0;
      }
      continue;
    }
    if (entry.id == 0) {
      TryRoundedIncumbent(mip.lp, relax.values, &best);
    }
    // Children inherit this relaxation's objective as their subtree bound.
    const int down = static_cast<int>(arena.size());
    arena.push_back(FixRec{branch_var, 0, entry.id});
    open.push(PqEntry{relax.objective, next_seq++, down});
    const int up = static_cast<int>(arena.size());
    arena.push_back(FixRec{branch_var, 1, entry.id});
    open.push(PqEntry{relax.objective, next_seq++, up});
  }

  best.proved_optimal = best.feasible && exhausted_cleanly;
  return best;
}

}  // namespace parinda
