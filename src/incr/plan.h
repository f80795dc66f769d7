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
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "fir/ast.h"
#include "incr/depgraph.h"
#include "incr/fingerprint.h"

namespace ap::incr {

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
// bit-identical either way, only hit rates differ).
IncrPlan make_plan(const SourceFingerprints& fps, const fir::Program& prog,
                   DepMode mode = DepMode::Directed);

// The same plan from the raw request: lexes, fingerprints and parses.
IncrPlan make_plan(std::string_view source, std::string_view annotations,
                   DepMode mode = DepMode::Directed);

}  // namespace ap::incr
