#include "incr/plan.h"

#include <algorithm>
#include <vector>

#include "fir/parser.h"
#include "incr/depgraph.h"
#include "incr/fingerprint.h"
#include "incr/unit_cache.h"
#include "support/diagnostics.h"
#include "support/fnv.h"

namespace ap::incr {

// Per unit, its closure's members in name order: what a key hashes.
struct PlanGraph {
  std::vector<std::vector<uint32_t>> closure_by_name;
};

namespace {

std::shared_ptr<const PlanGraph> build_plan_graph(
    const std::vector<std::string>& names, const std::vector<SummaryPtr>& sums,
    DepMode mode) {
  std::vector<const UnitDepSummary*> ptrs;
  ptrs.reserve(sums.size());
  for (const auto& s : sums) ptrs.push_back(s.get());
  UnitDepGraph g = build_dep_graph(names, ptrs, mode);

  // Sorted (name, fp) pairs over each closure: deterministic regardless
  // of unit order or traversal. Units are ranked by name once, so each
  // closure sorts integers rather than strings.
  const size_t n = names.size();
  std::vector<size_t> by_name(n), rank(n);
  for (size_t i = 0; i < n; ++i) by_name[i] = i;
  std::sort(by_name.begin(), by_name.end(),
            [&](size_t a, size_t b) { return names[a] < names[b]; });
  for (size_t r = 0; r < n; ++r) rank[by_name[r]] = r;
  auto out = std::make_shared<PlanGraph>();
  out->closure_by_name.resize(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint32_t>& c = out->closure_by_name[i];
    c.reserve(g.closure[i].size());
    for (size_t j : g.closure[i]) c.push_back(static_cast<uint32_t>(rank[j]));
    std::sort(c.begin(), c.end());
    for (uint32_t& r : c) r = static_cast<uint32_t>(by_name[r]);
  }
  return out;
}

}  // namespace

SummaryMemo::Stats SummaryMemo::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t SummaryMemo::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return by_name_.size();
}

SummaryPtr SummaryMemo::summary(const std::string& name, uint64_t fp,
                                const fir::ProgramUnit& unit) {
  SummaryPtr old;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_name_.find(name);
    if (it != by_name_.end()) {
      if (it->second.fp == fp) {
        ++stats_.summaries_reused;
        return it->second.summary;
      }
      old = it->second.summary;
    }
  }
  UnitDepSummary fresh = summarize_unit(unit);
  SummaryPtr out = old && *old == fresh
                       ? old
                       : std::make_shared<const UnitDepSummary>(std::move(fresh));
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.summaries_computed;
  if (by_name_.size() >= max_units_ && !by_name_.count(name)) {
    by_name_.clear();
    for (auto& g : graphs_) g = {};
  }
  by_name_[name] = Entry{fp, out};
  return out;
}

std::shared_ptr<const PlanGraph> SummaryMemo::find_graph(
    DepMode mode, const std::vector<std::string>& names,
    const std::vector<SummaryPtr>& sums) {
  std::lock_guard<std::mutex> lock(mu_);
  const GraphEntry& e = graphs_[static_cast<size_t>(mode)];
  if (!e.graph || e.sums != sums || e.names != names) return nullptr;
  ++stats_.graphs_reused;
  return e.graph;
}

void SummaryMemo::keep_graph(DepMode mode, std::vector<std::string> names,
                             std::vector<SummaryPtr> sums,
                             std::shared_ptr<const PlanGraph> graph) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.graphs_built;
  graphs_[static_cast<size_t>(mode)] =
      GraphEntry{std::move(names), std::move(sums), std::move(graph)};
}

IncrPlan make_plan(std::string_view source, std::string_view annotations,
                   DepMode mode) {
  DiagnosticEngine diags;
  auto toks = fir::lex(source, diags);
  if (diags.has_errors()) return {};
  SourceFingerprints fps = fingerprint_units(toks, annotations);
  auto prog = fir::parse_tokens(std::move(toks), diags);
  if (!prog) return {};  // the pipeline will report the parse error
  return make_plan(fps, *prog, mode);
}

IncrPlan make_plan(const SourceFingerprints& fps, const fir::Program& prog,
                   DepMode mode, SummaryMemo* memo) {
  IncrPlan plan;
  if (!fps.ok) return plan;

  // The token-level split must name exactly the parsed units, in order —
  // otherwise a fingerprint could be attributed to the wrong unit.
  const size_t n = prog.units.size();
  if (fps.units.size() != n) return plan;
  std::vector<std::string> names;
  names.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (fps.units[i].name != prog.units[i]->name) return plan;
    names.push_back(prog.units[i]->name);
  }

  std::vector<SummaryPtr> sums(n);
  for (size_t i = 0; i < n; ++i)
    sums[i] = memo ? memo->summary(names[i], fps.units[i].fp, *prog.units[i])
                   : std::make_shared<const UnitDepSummary>(
                         summarize_unit(*prog.units[i]));
  std::shared_ptr<const PlanGraph> graph =
      memo ? memo->find_graph(mode, names, sums) : nullptr;
  if (!graph) {
    graph = build_plan_graph(names, sums, mode);
    if (memo) memo->keep_graph(mode, names, std::move(sums), graph);
  }

  for (size_t i = 0; i < n; ++i) {
    uint64_t h = kFnvOffset;
    h = fnv_u64(h, kUnitCacheFormatVersion);
    // The unit's own name first: two units sharing one dependence closure
    // (e.g. an all-to-all COMMON clique) must still key separately, or
    // their snapshots would overwrite each other under a single key.
    h = fnv1a(h, names[i]);
    h = fnv1a(h, std::string_view("\0", 1));
    for (uint32_t j : graph->closure_by_name[i]) {
      h = fnv1a(h, names[j]);
      h = fnv1a(h, std::string_view("\0", 1));
      h = fnv_u64(h, fps.units[j].fp);
    }
    plan.entries.emplace(names[i], PlanEntry{h, fps.units[i].fp});
  }
  plan.usable = true;
  return plan;
}

}  // namespace ap::incr
