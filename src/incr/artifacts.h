// The production pm::ArtifactStore: binds one compile request's IncrPlan
// (content-closure keys, incr/plan.h) to the process-wide UnitCache at
// the pipeline's one snapshot boundary, `parallelize`.
//
// Full key for a unit's artifact:
//
//   key = FNV( plan-entry key            — closure content hash,
//              boundary option hash      — the options that shape the
//                                          boundary's output,
//              pass-sequence prefix fp   — which passes ran before,
//              pass name )
//
// Any other pass probes as not-participating and the manager runs it
// normally with zero counters. Artifacts pass through as live
// UnitSnapshot objects; nothing here serializes.
//
// The plan arrives from the parse pass (set_plan), which builds it from
// the tokens and the AST it has just produced, with the cache's summary
// memo (summaries()). While the plan is unset or unusable (defensive
// token-split mismatch), or a unit is unknown to it, the probe still
// reports participating=true with no payload: every unit
// counts as a miss, preserving the historical "plan unusable → all
// misses" accounting, and nothing is stored.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "incr/plan.h"
#include "pm/pass.h"

namespace ap::incr {

class UnitCache;

class PassArtifacts : public pm::ArtifactStore {
 public:
  // `cache` (not owned, non-null) serves the pass named `boundary`, keyed
  // by `opts_hash`.
  PassArtifacts(UnitCache* cache, std::string boundary, uint64_t opts_hash)
      : cache_(cache), boundary_(std::move(boundary)), opts_hash_(opts_hash) {}

  void set_plan(IncrPlan plan) { plan_ = std::move(plan); }
  // The cache's dependence-summary memo, for building the plan.
  SummaryMemo* summaries() const;
  const IncrPlan& plan() const { return plan_; }

  pm::ArtifactProbe find_unit(std::string_view pass_name, uint64_t prefix_fp,
                              const std::string& unit_name) override;
  void store_unit(std::string_view pass_name, uint64_t prefix_fp,
                  const std::string& unit_name,
                  pm::ArtifactPtr payload) override;

 private:
  // The full key of the unit `entry` describes (see the header comment).
  uint64_t full_key(uint64_t prefix_fp, const PlanEntry& entry) const;

  UnitCache* cache_;
  std::string boundary_;
  uint64_t opts_hash_;
  IncrPlan plan_;
};

}  // namespace ap::incr
