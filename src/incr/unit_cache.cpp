#include "incr/unit_cache.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/disk_budget.h"
#include "support/tlv.h"

namespace ap::incr {

namespace {

std::string hex16(uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, key);
  return buf;
}

}  // namespace

UnitSnapshot snapshot_unit(const fir::ProgramUnit& unit,
                           const par::ParallelizeResult& par) {
  UnitSnapshot snap;
  snap.par = par;
  size_t idx = 0;
  fir::walk_stmts(unit.body, [&](const fir::Stmt& s) {
    if (s.kind != fir::StmtKind::Do) return true;
    const fir::OmpInfo& o = s.omp;
    if (o.parallel || o.nowait || !o.privates.empty() ||
        !o.firstprivates.empty() || !o.reductions.empty())
      snap.marks.push_back({idx, o});
    snap.origin_ids.push_back(s.origin_id);
    ++idx;
    return true;
  });
  snap.do_count = idx;
  return snap;
}

std::optional<par::ParallelizeResult> apply_snapshot(
    fir::ProgramUnit& unit, const UnitSnapshot& snap) {
  // First pass: collect DO pointers in pre-order (the same enumeration
  // snapshot_unit used) and check the shape matches.
  std::vector<fir::Stmt*> dos;
  fir::walk_stmts(unit.body, [&](fir::Stmt& s) {
    if (s.kind == fir::StmtKind::Do) dos.push_back(&s);
    return true;
  });
  if (dos.size() != snap.do_count) return std::nullopt;
  for (const auto& m : snap.marks)
    if (m.do_index >= dos.size()) return std::nullopt;

  // Remap the snapshot's verdict origin_ids onto the current parse's ids
  // (an edit elsewhere in the program can renumber every later loop).
  // Positional: the i-th pre-order DO at snapshot time is the i-th now —
  // the key guarantees identical unit content. A conflicting map (same
  // old id at two positions with different new ids) bails to recompute.
  par::ParallelizeResult par = snap.par;
  if (snap.origin_ids.size() == dos.size()) {
    std::map<int64_t, int64_t> remap;
    for (size_t i = 0; i < dos.size(); ++i) {
      auto [it, inserted] =
          remap.emplace(snap.origin_ids[i], dos[i]->origin_id);
      if (!inserted && it->second != dos[i]->origin_id) return std::nullopt;
    }
    for (auto& v : par.loops) {
      auto it = remap.find(v.origin_id);
      if (it != remap.end()) v.origin_id = it->second;
    }
  } else if (!snap.origin_ids.empty()) {
    return std::nullopt;
  }

  for (const auto& m : snap.marks) dos[m.do_index]->omp = m.omp;
  return par;
}

std::string serialize_snapshot(const UnitSnapshot& snap) {
  std::string out;
  tlv::encode(kSnapshotMagic, kUnitCacheFormatVersion, snap, &out);
  return out;
}

std::optional<UnitSnapshot> deserialize_snapshot(std::string_view bytes) {
  UnitSnapshot snap;
  if (!tlv::decode(bytes, kSnapshotMagic, kUnitCacheFormatVersion, snap,
                   nullptr))
    return std::nullopt;
  return snap;
}

void IncrStats::add(const IncrStats& o) {
  memory_hits += o.memory_hits;
  disk_hits += o.disk_hits;
  peer_hits += o.peer_hits;
  misses += o.misses;
  invalidated_by_dep += o.invalidated_by_dep;
  stores += o.stores;
  evictions += o.evictions;
}

UnitCache::UnitCache(size_t capacity, std::string disk_dir,
                     support::DiskBudget* budget)
    : capacity_(capacity < 1 ? 1 : capacity),
      disk_dir_(std::move(disk_dir)),
      budget_(budget),
      summaries_(capacity_) {
  if (!disk_dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(disk_dir_, ec);
    if (budget_) budget_->add_dir(disk_dir_, ".apu");
  }
}

void UnitCache::set_peer_lookup(PeerLookup fn) {
  std::lock_guard<std::mutex> lock(mu_);
  peer_lookup_ = std::move(fn);
}

void UnitCache::set_store_hook(StoreHook fn) {
  std::lock_guard<std::mutex> lock(mu_);
  store_hook_ = std::move(fn);
}

std::string UnitCache::disk_path(uint64_t key) const {
  return disk_dir_ + "/" + hex16(key) + ".apu";
}

SnapshotPtr UnitCache::probe_local_locked(uint64_t key, UnitTier* tier) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    *tier = UnitTier::Memory;
    return it->second->second;
  }
  if (disk_dir_.empty()) return nullptr;
  std::ifstream f(disk_path(key), std::ios::binary);
  if (!f) return nullptr;
  std::ostringstream buf;
  buf << f.rdbuf();
  auto snap = deserialize_snapshot(buf.str());
  if (!snap) return nullptr;  // torn or foreign file: a miss
  SnapshotPtr shared = std::make_shared<const UnitSnapshot>(std::move(*snap));
  insert_memory_locked(key, shared);
  *tier = UnitTier::Disk;
  return shared;
}

UnitFindResult UnitCache::find(const std::string& boundary, uint64_t key,
                               uint64_t own_fp) {
  UnitFindResult res;
  std::unique_lock<std::mutex> lock(mu_);
  res.snapshot = probe_local_locked(key, &res.tier);
  if (res.snapshot) {
    IncrStats& st = stats_[boundary];
    ++(res.tier == UnitTier::Memory ? st.memory_hits : st.disk_hits);
    return res;
  }
  PeerLookup peer = peer_lookup_;
  if (peer) {
    // Network I/O and decoding outside the mutex; other lanes keep
    // probing meanwhile.
    lock.unlock();
    std::optional<std::string> payload = peer(boundary, key);
    std::optional<UnitSnapshot> snap;
    if (payload) snap = deserialize_snapshot(*payload);
    lock.lock();
    if (snap) {
      res.snapshot = std::make_shared<const UnitSnapshot>(std::move(*snap));
      insert_memory_locked(key, res.snapshot);
      write_disk_locked(key, *payload);
      ++stats_[boundary].peer_hits;
      res.tier = UnitTier::Peer;
      return res;
    }
  }
  IncrStats& st = stats_[boundary];
  ++st.misses;
  auto& by_fp = last_key_by_fp_[boundary];
  auto fp_it = by_fp.find(own_fp);
  if (fp_it != by_fp.end() && fp_it->second != key) {
    ++st.invalidated_by_dep;
    res.invalidated = true;
  }
  return res;
}

void UnitCache::store(const std::string& boundary, uint64_t key,
                      uint64_t own_fp, SnapshotPtr snap) {
  StoreHook hook;
  std::string payload;  // bytes only for the disk and peer edges
  {
    std::lock_guard<std::mutex> lock(mu_);
    hook = store_hook_;
    if (!disk_dir_.empty() || hook) payload = serialize_snapshot(*snap);
    insert_memory_locked(key, std::move(snap));
    last_key_by_fp_[boundary][own_fp] = key;
    ++stats_[boundary].stores;
    write_disk_locked(key, payload);
  }
  if (hook) hook(boundary, key, payload);
}

std::optional<std::string> UnitCache::peek(uint64_t key) {
  SnapshotPtr snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    UnitTier tier = UnitTier::None;
    snap = probe_local_locked(key, &tier);
  }
  if (!snap) return std::nullopt;
  return serialize_snapshot(*snap);
}

bool UnitCache::adopt(const std::string& boundary, uint64_t key,
                      const std::string& payload) {
  (void)boundary;  // payloads adopt into the shared keyspace
  auto snap = deserialize_snapshot(payload);
  if (!snap) return false;
  std::lock_guard<std::mutex> lock(mu_);
  insert_memory_locked(key,
                       std::make_shared<const UnitSnapshot>(std::move(*snap)));
  write_disk_locked(key, payload);
  return true;
}

void UnitCache::write_disk_locked(uint64_t key, const std::string& payload) {
  if (disk_dir_.empty()) return;
  // Atomic publish: write a temp file, then rename over the final name,
  // so a concurrent reader (another process sharing the cache dir) never
  // sees a torn entry.
  const std::string path = disk_path(key);
  std::error_code ec;
  uint64_t old_size = std::filesystem::file_size(path, ec);
  if (ec) old_size = 0;
  const std::string tmp = path + ".tmp";
  std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
  if (!f) return;
  f << payload;
  f.close();
  std::error_code rec;
  std::filesystem::rename(tmp, path, rec);
  if (rec) {
    std::filesystem::remove(tmp, rec);
    return;
  }
  if (budget_) budget_->charge(path, old_size, payload.size());
}

void UnitCache::insert_memory_locked(uint64_t key, SnapshotPtr snap) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(snap);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(snap));
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    // Evictions are not attributable to one boundary; account them under
    // the aggregate-only bucket.
    ++stats_[""].evictions;
  }
}

IncrStats UnitCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  IncrStats total;
  for (const auto& [boundary, st] : stats_) total.add(st);
  return total;
}

std::map<std::string, IncrStats> UnitCache::boundary_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, IncrStats> out = stats_;
  out.erase("");  // the aggregate-only eviction bucket
  return out;
}

size_t UnitCache::memory_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace ap::incr
