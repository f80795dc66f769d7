#include "incr/artifacts.h"

#include "incr/unit_cache.h"
#include "support/fnv.h"

namespace ap::incr {

SummaryMemo* PassArtifacts::summaries() const { return &cache_->summaries(); }

uint64_t PassArtifacts::full_key(uint64_t prefix_fp,
                                 const PlanEntry& entry) const {
  uint64_t h = entry.key;
  h = fnv_u64(h, opts_hash_);
  h = fnv_u64(h, prefix_fp);
  h = fnv1a(h, boundary_);
  return h;
}

pm::ArtifactProbe PassArtifacts::find_unit(std::string_view pass_name,
                                           uint64_t prefix_fp,
                                           const std::string& unit_name) {
  pm::ArtifactProbe probe;
  if (pass_name != boundary_) return probe;
  probe.participating = true;

  const PlanEntry* entry = plan_.usable ? plan_.find(unit_name) : nullptr;
  if (!entry) return probe;  // unusable plan: every unit is a plain miss

  UnitFindResult r =
      cache_->find(boundary_, full_key(prefix_fp, *entry), entry->own_fp);
  probe.invalidated = r.invalidated;
  probe.payload = std::move(r.snapshot);
  switch (r.tier) {
    case UnitTier::None:
      probe.tier = pm::ArtifactTier::None;
      break;
    case UnitTier::Memory:
      probe.tier = pm::ArtifactTier::Memory;
      break;
    case UnitTier::Disk:
      probe.tier = pm::ArtifactTier::Disk;
      break;
    case UnitTier::Peer:
      probe.tier = pm::ArtifactTier::Peer;
      break;
  }
  return probe;
}

void PassArtifacts::store_unit(std::string_view pass_name, uint64_t prefix_fp,
                               const std::string& unit_name,
                               pm::ArtifactPtr payload) {
  if (pass_name != boundary_) return;
  const PlanEntry* entry = plan_.usable ? plan_.find(unit_name) : nullptr;
  auto snap = std::dynamic_pointer_cast<const UnitSnapshot>(std::move(payload));
  if (!entry || !snap) return;
  cache_->store(boundary_, full_key(prefix_fp, *entry), entry->own_fp,
                std::move(snap));
}

}  // namespace ap::incr
