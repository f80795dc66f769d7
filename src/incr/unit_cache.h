// Unit-level artifact store for the parallelize pass boundary: per-unit
// snapshots (UnitSnapshot below) keyed by the key the artifact layer
// computes (incr/artifacts.h — closure content hash x boundary option hash
// x pass-sequence prefix). Correctness never rests on a snapshot: one
// that fails to apply is simply recomputed.
//
// Four tiers, probed in order:
//   memory — LRU of live, immutable UnitSnapshot objects shared by
//            pointer, bounded by entry count. A memory hit costs a map
//            lookup: no bytes are parsed or copied;
//   disk   — optional, under `<cache-dir>/units/` with one `<hex-key>.apu`
//            file per artifact (dist-clang's file_cache shape), written
//            atomically (temp + rename). When a support::DiskBudget is
//            attached, every write is charged against the shared
//            --cache-max-mb budget and can evict (or be evicted by) the
//            whole-request tier's files;
//   peer   — optional hook (set_peer_lookup): on a memory+disk miss the
//            cache asks the fleet (unit_probe), called OUTSIDE the
//            mutex; a peer payload is adopted into memory+disk. The
//            symmetric store hook pushes fresh artifacts to peers
//            (unit_fill).
//   (recompute — the caller's job.)
//
// serialize_snapshot/deserialize_snapshot run only at the disk and peer
// edges, and the bytes there are the "APUNIT" format below; a payload
// that does not decode is a miss.
//
// Entries are only ever superseded — a changed input changes the key — so
// there is no staleness.
//
// Miss classification: the cache remembers the last key stored per
// (boundary, unit fingerprint). A miss whose fingerprint was seen before
// under a different key means the unit itself is unchanged but a
// dependency changed — counted as invalidated_by_dep (the telemetry that
// proves the invalidation rule touches only the dependence closure).
// Stats are kept per boundary name (the snapshotting pass).
//
// The cache also owns the plan's SummaryMemo (incr/plan.h): one dependence
// summary per unit name, and the last dependence graph, so a request that
// edits one unit summarizes one unit and reuses the graph when the edit
// left every summary alone. It shares the memory tier's entry bound.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fir/ast.h"
#include "incr/plan.h"
#include "par/parallelizer.h"
#include "pm/pass.h"

namespace ap::support {
class DiskBudget;
}

namespace ap::incr {

inline constexpr uint32_t kUnitCacheFormatVersion = 2;

// ---------------------------------------------------------------------------
// The parallelize boundary's payload: OMP marks by pre-order DO index plus
// the unit's ParallelizeResult (verdicts, blockers, dependence-test
// counters) so merged diagnostics and telemetry are bit-identical to a
// cold compile.
// ---------------------------------------------------------------------------

// One DO loop's OMP metadata, addressed by pre-order DO index in the unit.
struct OmpMark {
  size_t do_index = 0;
  fir::OmpInfo omp;
};

struct UnitSnapshot : pm::Artifact {
  size_t do_count = 0;           // total DO statements (apply-time check)
  std::vector<OmpMark> marks;    // loops carrying non-default OMP state
  // origin_id of every DO in pre-order at snapshot time: apply remaps the
  // stored verdicts onto the CURRENT parse's ids so an edit elsewhere in
  // the program that renumbers loops cannot leave stale ids behind.
  std::vector<int64_t> origin_ids;
  par::ParallelizeResult par;    // this unit's verdicts + counters
};

// The OMP marks currently on `unit` (non-default OmpInfo only), with
// do_count and the pre-order origin_id list filled in.
UnitSnapshot snapshot_unit(const fir::ProgramUnit& unit,
                           const par::ParallelizeResult& par);

// Re-applies `snap`'s marks onto a freshly normalized `unit` and returns
// the unit's ParallelizeResult with its verdict origin_ids remapped onto
// the unit's current ids (see UnitSnapshot::origin_ids; `snap` itself is
// shared and stays untouched). Returns nullopt (leaving the unit
// untouched) when the DO shape does not match — the caller recomputes;
// correctness never rests on the apply.
std::optional<par::ParallelizeResult> apply_snapshot(fir::ProgramUnit& unit,
                                                     const UnitSnapshot& snap);

using SnapshotPtr = std::shared_ptr<const UnitSnapshot>;

// The disk and wire bytes of a snapshot (exposed for tests).
std::string serialize_snapshot(const UnitSnapshot& snap);
std::optional<UnitSnapshot> deserialize_snapshot(std::string_view text);

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

struct IncrStats {
  uint64_t memory_hits = 0;
  uint64_t disk_hits = 0;
  uint64_t peer_hits = 0;           // misses served by a fleet peer
  uint64_t misses = 0;              // includes invalidated_by_dep
  uint64_t invalidated_by_dep = 0;  // miss, own unit unchanged, dep changed
  uint64_t stores = 0;
  uint64_t evictions = 0;  // memory-tier LRU evictions
  uint64_t hits() const { return memory_hits + disk_hits + peer_hits; }
  uint64_t lookups() const { return hits() + misses; }
  void add(const IncrStats& o);
};

// Which tier satisfied a find; None = miss.
enum class UnitTier : uint8_t { None, Memory, Disk, Peer };

struct UnitFindResult {
  SnapshotPtr snapshot;  // null on a miss
  UnitTier tier = UnitTier::None;
  bool invalidated = false;  // miss; own unit unchanged, dependency changed
};

class UnitCache {
 public:
  // `capacity` bounds the memory tier (entry count, >= 1); `disk_dir`
  // enables the disk tier when non-empty (created on demand). `budget`
  // (optional, not owned) charges disk writes against a byte budget
  // shared with other tiers; the cache registers `disk_dir` with it.
  explicit UnitCache(size_t capacity = 4096, std::string disk_dir = "",
                     support::DiskBudget* budget = nullptr);

  // Fleet hooks. The lookup is called on a memory+disk miss, OUTSIDE the
  // cache mutex (it does network I/O); the store hook after every local
  // store (replication), also outside the mutex. Neither is called for
  // adopted peer payloads — no recursion.
  using PeerLookup = std::function<std::optional<std::string>(
      const std::string& boundary, uint64_t key)>;
  using StoreHook = std::function<void(const std::string& boundary,
                                       uint64_t key,
                                       const std::string& payload)>;
  void set_peer_lookup(PeerLookup fn);
  void set_store_hook(StoreHook fn);

  // Thread-safe. `boundary` is the snapshotting pass's name (stats
  // bucket); `own_fp` is the unit's own fingerprint, used only to
  // classify misses (see header comment).
  UnitFindResult find(const std::string& boundary, uint64_t key,
                      uint64_t own_fp);

  // Thread-safe. Stores under `key`; mirrors to disk when enabled, then
  // fires the store hook.
  void store(const std::string& boundary, uint64_t key, uint64_t own_fp,
             SnapshotPtr snap);

  // Peer-serving probe (wire unit_probe): the serialized snapshot from
  // memory+disk by key, no miss accounting, never consults the peer hook.
  std::optional<std::string> peek(uint64_t key);

  // Accepts a serialized snapshot pushed by a peer (wire unit_fill):
  // memory+disk, no store-hook recursion, no fingerprint bookkeeping.
  // False (nothing stored) when the payload does not decode.
  bool adopt(const std::string& boundary, uint64_t key,
             const std::string& payload);

  // The plan's dependence-summary memo (see the header comment).
  SummaryMemo& summaries() { return summaries_; }

  IncrStats stats() const;  // aggregate over boundaries
  std::map<std::string, IncrStats> boundary_stats() const;
  size_t memory_entries() const;
  const std::string& disk_dir() const { return disk_dir_; }

 private:
  std::string disk_path(uint64_t key) const;
  void insert_memory_locked(uint64_t key, SnapshotPtr snap);
  void write_disk_locked(uint64_t key, const std::string& payload);
  // Memory, then disk (promoting a decodable file into memory); null when
  // neither holds `key`.
  SnapshotPtr probe_local_locked(uint64_t key, UnitTier* tier);

  const size_t capacity_;
  const std::string disk_dir_;
  support::DiskBudget* budget_;  // not owned; may be null

  mutable std::mutex mu_;
  std::list<std::pair<uint64_t, SnapshotPtr>> lru_;  // MRU first
  std::unordered_map<uint64_t,
                     std::list<std::pair<uint64_t, SnapshotPtr>>::iterator>
      index_;
  // (boundary, unit fingerprint) -> last stored key, for miss
  // classification.
  std::map<std::string, std::unordered_map<uint64_t, uint64_t>>
      last_key_by_fp_;
  std::map<std::string, IncrStats> stats_;  // by boundary
  PeerLookup peer_lookup_;
  StoreHook store_hook_;
  SummaryMemo summaries_;
};

}  // namespace ap::incr
