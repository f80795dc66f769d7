// Unit dependence graph for incremental invalidation.
//
// deps(U) = direct CALL targets of U ∪ the COMMON sharers that can
// influence U. The graph is built from a parse of the ORIGINAL source
// (before any inlining): inlining only moves content from callees into
// callers, so the pre-inline transitive closure over-approximates every
// unit whose source can influence U's post-pass state.
//
// COMMON edges come in two flavours (DepMode):
//
//   Directed (default) — V -> U only when V writes a member of a shared
//     block that U reads (analysis/common_rw.h computes per-unit
//     read/write member sets). A unit that only READS a shared block
//     cannot influence its sharers, so editing it leaves their closures
//     untouched. COMMON edges are also SUMMARY dependence, not text
//     dependence: the reader consults the writer's intraprocedural
//     read/write summary, so its key needs the writer's own fingerprint —
//     one hop — and not the writer's closure. CALL edges stay transitive
//     (the callee's text is inlined into the caller). The combination is
//     what lifts DYFESM-shaped apps past the 1/|clique| reuse ceiling of
//     the symmetric rule: the main program writes most members and calls
//     most units, so a uniform transitive closure would cycle through it
//     and saturate every unit's closure. When two sharers declare a block
//     with different member lists the layout coupling is positional, name
//     matching is meaningless, and that block falls back to symmetric
//     (but still one-hop) edges among its sharers.
//
//   Bidirectional — the historical conservative rule: every pair of units
//     declaring the same block depends on each other. Kept as a
//     verification mode; the differential suite test proves both modes
//     produce bit-identical results.
//
// The invalidation rule falls out of key structure rather than explicit
// bookkeeping: a unit's cache key hashes the fingerprints of its whole
// dependence closure (incr/plan.h), so editing V changes the keys of
// exactly {U : V ∈ closure(U)} — V itself plus its transitive dependents —
// and nothing else.
//
// Everything the graph reads of a unit is its UnitDepSummary: its CALL
// targets, its COMMON declarations and its COMMON read/write sets. A
// summary is a function of the unit's own text, so the incremental plan
// memoizes it by the unit's fingerprint (incr/plan.h, SummaryMemo) and
// assembles the graph from summaries; build_dep_graph(prog) summarizes
// every unit afresh. Edge and closure lists are sorted index vectors.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/common_rw.h"
#include "fir/ast.h"

namespace ap::incr {

enum class DepMode : uint8_t { Directed, Bidirectional };

// One unit's contribution to the graph. Mode-independent: directed mode
// reads `rw`, bidirectional mode ignores it.
struct UnitDepSummary {
  std::vector<std::string> calls;          // distinct CALL targets, sorted
  std::vector<fir::CommonBlock> commons;   // COMMON declarations, in order
  analysis::CommonRW rw;                   // member reads/writes per block

  bool operator==(const UnitDepSummary&) const = default;
};

UnitDepSummary summarize_unit(const fir::ProgramUnit& unit);

struct UnitDepGraph {
  std::vector<std::string> names;  // unit-index order of the parse
  std::unordered_map<std::string, size_t> index;  // name -> first position
  std::vector<std::vector<size_t>> deps;     // direct CALL + COMMON edges
  std::vector<std::vector<size_t>> closure;  // transitive deps, incl. self

  bool contains(const std::string& name) const { return index.count(name); }
};

// The graph over units `names` (parse order) whose summaries are
// `summaries` (same order, non-null).
UnitDepGraph build_dep_graph(const std::vector<std::string>& names,
                             const std::vector<const UnitDepSummary*>& summaries,
                             DepMode mode = DepMode::Directed);

// The same, summarizing every unit of `prog`.
UnitDepGraph build_dep_graph(const fir::Program& prog,
                             DepMode mode = DepMode::Directed);

// The units whose cached state an edit to `edited` invalidates: the edited
// unit plus every transitive dependent along CALL/COMMON edges. Returns
// just {edited} when the unit is unknown (nothing else can depend on it).
std::set<std::string> invalidated_by_edit(const UnitDepGraph& g,
                                          const std::string& edited);

}  // namespace ap::incr
