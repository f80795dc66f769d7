#include "service/cache.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "fir/unparse.h"
#include "support/disk_budget.h"
#include "support/fnv.h"
#include "support/tlv.h"

namespace ap::service {

namespace {

std::string hex16(uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, key);
  return buf;
}

}  // namespace

CompileResult to_compile_result(const driver::PipelineResult& r) {
  CompileResult out;
  out.ok = r.ok;
  out.error = r.error;
  out.parallel_loops = r.parallel_loops;
  out.code_lines = r.code_lines;
  out.dep_tests = r.par.dep_tests;
  out.dep_tests_unique = r.par.dep_tests_unique;
  out.timings = r.timings;
  out.print_dump = r.print_dump;
  out.stopped_early = r.stopped_early;
  out.unit_hits = r.unit_hits;
  out.unit_misses = r.unit_misses;
  out.unit_invalidated = r.unit_invalidated;
  out.unit_disk_hits = r.unit_disk_hits;
  out.unit_peer_hits = r.unit_peer_hits;
  // collect-metrics rendered the final program already; a sequence that
  // stop_after cut short did not reach it.
  if (r.program)
    out.program_text =
        r.program_text.empty() ? fir::unparse(*r.program) : r.program_text;
  return out;
}

uint64_t cache_key(std::string_view source, std::string_view annotations,
                   const driver::PipelineOptions& o) {
  uint64_t h = kFnvOffset;
  h = fnv_u64(h, kCacheFormatVersion);
  h = driver::hash_pipeline_options(h, o);
  h = fnv1a(h, source);
  h = fnv1a(h, std::string_view("\0", 1));
  h = fnv1a(h, annotations);
  return h;
}

std::string serialize_result(const CompileResult& r) {
  std::string out;
  tlv::encode(kCacheRecordMagic, kCacheFormatVersion, r, &out);
  return out;
}

std::optional<CompileResult> deserialize_result(std::string_view bytes) {
  CompileResult r;
  if (!tlv::decode(bytes, kCacheRecordMagic, kCacheFormatVersion, r, nullptr))
    return std::nullopt;
  return r;
}

ResultCache::ResultCache(size_t capacity, std::string disk_dir,
                         size_t disk_max_bytes, support::DiskBudget* budget)
    : capacity_(capacity < 1 ? 1 : capacity), disk_dir_(std::move(disk_dir)) {
  if (!disk_dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(disk_dir_, ec);
    if (budget) {
      budget_ = budget;
    } else {
      // Private budget over disk_max_bytes (0 = unlimited accounting).
      owned_budget_ = std::make_unique<support::DiskBudget>(disk_max_bytes);
      budget_ = owned_budget_.get();
    }
    // Pre-existing entries (warm restarts) count against the byte budget.
    budget_->add_dir(disk_dir_, ".apc");
  }
}

ResultCache::~ResultCache() = default;

std::string ResultCache::disk_path(uint64_t key) const {
  return disk_dir_ + "/" + hex16(key) + ".apc";
}

std::optional<CompileResult> ResultCache::find(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.memory_hits;
    return it->second->second;
  }
  if (!disk_dir_.empty()) {
    std::ifstream f(disk_path(key), std::ios::binary);
    if (f) {
      std::ostringstream buf;
      buf << f.rdbuf();
      auto r = deserialize_result(buf.str());
      if (r) {
        insert_memory_locked(key, *r);
        ++stats_.disk_hits;
        return r;
      }
    }
  }
  ++stats_.misses;
  return std::nullopt;
}

std::optional<CompileResult> ResultCache::find_memory(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.memory_hits;
  return it->second->second;
}

void ResultCache::store(uint64_t key, const CompileResult& r) {
  if (!r.ok) return;
  CompileResult entry = r;
  entry.cache_hit = entry.peer_hit = false;
  entry.unit_hits = entry.unit_misses = entry.unit_invalidated = 0;
  entry.unit_disk_hits = entry.unit_peer_hits = 0;
  std::lock_guard<std::mutex> lock(mu_);
  insert_memory_locked(key, entry);
  ++stats_.stores;
  if (!disk_dir_.empty()) {
    const std::string path = disk_path(key);
    std::error_code ec;
    uint64_t old_size = std::filesystem::file_size(path, ec);
    if (ec) old_size = 0;
    std::string payload = serialize_result(entry);
    // Atomic publish: write a temp file, then rename over the final name.
    // A reader in another process sharing the cache dir (fleet workers, a
    // concurrently evicting instance) either sees the complete old entry
    // or the complete new one — never a torn half-write.
    const std::string tmp = path + ".tmp";
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (f) {
      f << payload;
      f.close();
      std::error_code rec;
      std::filesystem::rename(tmp, path, rec);
      if (rec) {
        std::filesystem::remove(tmp, rec);
      } else {
        // The budget may evict oldest-mtime files across every tier
        // sharing it (this entry itself is exempt).
        budget_->charge(path, old_size, payload.size());
      }
    }
  }
}

void ResultCache::insert_memory_locked(uint64_t key, const CompileResult& r) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = r;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, r);
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats s = stats_;
  if (budget_) {
    s.disk_bytes = budget_->dir_bytes(disk_dir_);
    s.disk_evictions = budget_->dir_evictions(disk_dir_);
  }
  return s;
}

size_t ResultCache::memory_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace ap::service
