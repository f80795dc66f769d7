// The incremental plan for one compile request: a closure fingerprint per
// unit.
//
//   key(U) = FNV( kUnitCacheFormatVersion,
//                 U's own name,
//                 (name, fingerprint) of every unit in closure(U),
//                 sorted by name )
//
// where closure(U) is U's transitive CALL/COMMON dependence closure over
// the parse of the ORIGINAL source (incr/depgraph.h — directed COMMON
// edges by default), and the fingerprints are the token-stream hashes of
// incr/fingerprint.h (own annotations folded in). Editing unit V therefore
// changes the keys of exactly V and its transitive dependents — the
// dependence-aware invalidation rule is purely structural, with nothing to
// expire.
//
// The key deliberately covers CONTENT only. The artifact layer
// (incr/artifacts.h) folds in everything else that scopes a cached
// payload — the pass name, the pass-sequence prefix fingerprint, and the
// boundary's semantic option hash.
//
// The pipeline builds the plan inside its parse pass, from the same token
// stream the parser reads and the program it just parsed, before any
// transformation; make_plan(source, annotations) lexes and parses on its
// own and yields the same keys. The plan is consulted by name at snapshot
// time: the post-inline program's units are a subset of the source units
// (inlining and dead-unit elimination only remove or rewrite-in-place),
// and a post-inline unit's content is a function of its pre-inline
// closure (the inliners' fresh name and tag counters are per-unit
// deterministic for exactly this reason).
//
// When the token-level split disagrees with the real parse (defensive;
// e.g. a variable shadowing a unit-header keyword), the plan is unusable
// and the pipeline compiles every unit — slower, never wrong.
//
// Cost. A served edit changes one unit, so the plan reuses what the edit
// cannot have changed (SummaryMemo below, owned by the UnitCache):
//   - each unit's dependence summary (incr/depgraph.h) is a function of
//     the unit's own text, so it is kept per unit name with the
//     fingerprint it was computed for; a unit whose fingerprint is
//     unchanged is not summarized again;
//   - the graph's closures (ordered by name, ready for keying) are kept
//     with the unit order and summaries they came from; when both match,
//     as after any edit that leaves every CALL target, COMMON layout and
//     COMMON read/write set alone (a literal edit, say), no edge or
//     closure is assembled.
// Keys are then one FNV pass over each closure. With or without a memo,
// make_plan yields bit-identical keys.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fir/ast.h"
#include "incr/depgraph.h"
#include "incr/fingerprint.h"

namespace ap::incr {

using SummaryPtr = std::shared_ptr<const UnitDepSummary>;
struct PlanGraph;  // closures ordered for keying (plan.cpp)

// Dependence summaries by unit name, and the last graph per DepMode.
// Thread-safe; summaries are computed outside the lock. Holds one summary
// per unit name (replaced when the unit's fingerprint changes) and drops
// everything when a new name would exceed `max_units`.
class SummaryMemo {
 public:
  explicit SummaryMemo(size_t max_units = 4096) : max_units_(max_units) {}

  struct Stats {
    uint64_t summaries_computed = 0;
    uint64_t summaries_reused = 0;  // fingerprint unchanged
    uint64_t graphs_built = 0;
    uint64_t graphs_reused = 0;     // same unit order and summaries
  };
  Stats stats() const;
  size_t entries() const;

  // The summary of `unit` (named `name`, fingerprint `fp`). A recomputed
  // summary equal to the one it replaces keeps the old pointer, so the
  // graph memo still matches.
  SummaryPtr summary(const std::string& name, uint64_t fp,
                     const fir::ProgramUnit& unit);

  // The graph last built for `mode` from exactly `names` and `sums`
  // (pointer-equal summaries), or null.
  std::shared_ptr<const PlanGraph> find_graph(
      DepMode mode, const std::vector<std::string>& names,
      const std::vector<SummaryPtr>& sums);
  void keep_graph(DepMode mode, std::vector<std::string> names,
                  std::vector<SummaryPtr> sums,
                  std::shared_ptr<const PlanGraph> graph);

 private:
  struct Entry {
    uint64_t fp = 0;
    SummaryPtr summary;
  };
  struct GraphEntry {
    std::vector<std::string> names;
    std::vector<SummaryPtr> sums;
    std::shared_ptr<const PlanGraph> graph;
  };

  const size_t max_units_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> by_name_;
  GraphEntry graphs_[2];  // by DepMode
  Stats stats_;
};

struct PlanEntry {
  uint64_t key = 0;     // dependence-closure content hash
  uint64_t own_fp = 0;  // the unit's own fingerprint (miss classification)
};

struct IncrPlan {
  bool usable = false;
  std::map<std::string, PlanEntry> entries;  // by unit name

  const PlanEntry* find(const std::string& name) const {
    auto it = entries.find(name);
    return it == entries.end() ? nullptr : &it->second;
  }
};

// Builds the plan over closure(U) per `mode` from `fps` and `prog`, the
// untransformed parse of the source `fps` fingerprints. Directed mode
// shrinks closures on read-only COMMON sharers; Bidirectional reproduces
// the historical symmetric rule (verification mode — results are
// bit-identical either way, only hit rates differ). `memo` (optional)
// supplies and keeps summaries and graphs across calls.
IncrPlan make_plan(const SourceFingerprints& fps, const fir::Program& prog,
                   DepMode mode = DepMode::Directed,
                   SummaryMemo* memo = nullptr);

// The same plan from the raw request: lexes, fingerprints and parses.
IncrPlan make_plan(std::string_view source, std::string_view annotations,
                   DepMode mode = DepMode::Directed);

}  // namespace ap::incr
