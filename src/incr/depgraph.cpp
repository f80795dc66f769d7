#include "incr/depgraph.h"

#include <algorithm>
#include <iterator>
#include <string_view>

namespace ap::incr {

namespace {

void sort_unique(std::vector<size_t>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

UnitDepSummary summarize_unit(const fir::ProgramUnit& unit) {
  UnitDepSummary s;
  fir::walk_stmts(unit.body, [&](const fir::Stmt& st) {
    if (st.kind == fir::StmtKind::Call) s.calls.push_back(st.name);
    return true;
  });
  std::sort(s.calls.begin(), s.calls.end());
  s.calls.erase(std::unique(s.calls.begin(), s.calls.end()), s.calls.end());
  s.commons = unit.commons;
  s.rw = analysis::common_rw_summary(unit);
  return s;
}

UnitDepGraph build_dep_graph(const fir::Program& prog, DepMode mode) {
  std::vector<std::string> names;
  std::vector<UnitDepSummary> summaries;
  names.reserve(prog.units.size());
  summaries.reserve(prog.units.size());
  for (const auto& u : prog.units) {
    names.push_back(u->name);
    summaries.push_back(summarize_unit(*u));
  }
  std::vector<const UnitDepSummary*> ptrs;
  ptrs.reserve(summaries.size());
  for (const auto& s : summaries) ptrs.push_back(&s);
  return build_dep_graph(names, ptrs, mode);
}

UnitDepGraph build_dep_graph(const std::vector<std::string>& names,
                             const std::vector<const UnitDepSummary*>& sums,
                             DepMode mode) {
  UnitDepGraph g;
  g.names = names;
  const size_t n = names.size();
  g.index.reserve(n);
  for (size_t i = 0; i < n; ++i) g.index.emplace(names[i], i);

  // CALL edges: caller depends on callee. Kept separate from COMMON edges
  // because the two close differently in directed mode (see below).
  std::vector<std::vector<size_t>> call_edges(n), common_edges(n);
  for (size_t i = 0; i < n; ++i) {
    for (const auto& target : sums[i]->calls) {
      auto it = g.index.find(target);
      if (it != g.index.end() && it->second != i)
        call_edges[i].push_back(it->second);
    }
    sort_unique(call_edges[i]);
  }

  // COMMON edges. Collect sharers per block first (one entry per
  // declaration, in unit order); both modes need them.
  std::unordered_map<std::string_view, size_t> block_slot;
  std::vector<const std::string*> blocks;
  std::vector<std::vector<size_t>> sharers;
  for (size_t i = 0; i < n; ++i) {
    for (const auto& cb : sums[i]->commons) {
      auto [it, fresh] = block_slot.emplace(cb.name, blocks.size());
      if (fresh) {
        blocks.push_back(&cb.name);
        sharers.emplace_back();
      }
      sharers[it->second].push_back(i);
    }
  }

  auto symmetric = [&](const std::vector<size_t>& members) {
    for (size_t a : members)
      for (size_t b : members)
        if (a != b) common_edges[a].push_back(b);
  };

  if (mode == DepMode::Bidirectional) {
    for (const auto& members : sharers) symmetric(members);
  } else {
    // Directed: reader depends on writer, per member name. Falls back to
    // symmetric edges for a block whose sharers disagree on the member
    // list (positional layout coupling; name matching is meaningless).
    auto block_members = [&](size_t unit, const std::string& block)
        -> const std::vector<std::string>* {
      for (const auto& cb : sums[unit]->commons)
        if (cb.name == block) return &cb.vars;
      return nullptr;
    };

    for (size_t b = 0; b < blocks.size(); ++b) {
      const std::string& block = *blocks[b];
      const std::vector<size_t>& members = sharers[b];
      bool layout_consistent = true;
      const std::vector<std::string>* first = block_members(members[0], block);
      for (size_t k = 1; k < members.size() && layout_consistent; ++k) {
        const std::vector<std::string>* other = block_members(members[k], block);
        if (!first || !other || *first != *other) layout_consistent = false;
      }
      if (!layout_consistent) {
        symmetric(members);
        continue;
      }
      for (size_t reader : members) {
        const auto& reads = sums[reader]->rw.reads;
        auto rit = reads.find(block);
        if (rit == reads.end()) continue;
        for (size_t writer : members) {
          if (writer == reader) continue;
          const auto& writes = sums[writer]->rw.writes;
          auto wit = writes.find(block);
          if (wit == writes.end()) continue;
          for (const auto& name : rit->second) {
            if (wit->second.count(name)) {
              common_edges[reader].push_back(writer);
              break;
            }
          }
        }
      }
    }
  }

  g.deps.resize(n);
  for (size_t i = 0; i < n; ++i) {
    sort_unique(common_edges[i]);
    g.deps[i].reserve(call_edges[i].size() + common_edges[i].size());
    std::set_union(call_edges[i].begin(), call_edges[i].end(),
                   common_edges[i].begin(), common_edges[i].end(),
                   std::back_inserter(g.deps[i]));
  }

  // Closure. The two edge kinds carry different *depths* of influence:
  //
  //   CALL edges are TEXT dependence — the callee's statements end up
  //   inlined into the caller, so the caller's artifact embeds the
  //   callee's text transitively. Closed transitively in both modes.
  //
  //   COMMON edges are SUMMARY dependence — a reader's analysis consults
  //   the writer's per-unit read/write summary (analysis/common_rw.h),
  //   which is computed intraprocedurally from the writer's own text. The
  //   reader's key therefore needs the writer's own fingerprint — one hop
  //   — and NOT the writer's dependence closure. Chaining COMMON edges
  //   transitively would route every closure through the main program
  //   (which typically initialises most members and calls most units),
  //   collapsing directed mode back to the 1/|app| reuse ceiling the
  //   symmetric rule has. Bidirectional mode keeps the historical uniform
  //   transitive closure as the conservative verification baseline.
  // Per unit: a DFS with a visited bitmap, then one sort.
  g.closure.resize(n);
  std::vector<char> seen(n);
  std::vector<size_t> stack;
  const bool directed = mode == DepMode::Directed;
  for (size_t i = 0; i < n; ++i) {
    std::fill(seen.begin(), seen.end(), 0);
    std::vector<size_t>& members = g.closure[i];
    stack.assign(1, i);
    // Transitive over CALL edges (directed) or over every edge.
    while (!stack.empty()) {
      size_t u = stack.back();
      stack.pop_back();
      if (seen[u]) continue;
      seen[u] = 1;
      members.push_back(u);
      for (size_t d : directed ? call_edges[u] : g.deps[u]) stack.push_back(d);
    }
    // Directed: then one hop of COMMON writers from every inlined unit.
    if (directed) {
      for (size_t k = 0, m = members.size(); k < m; ++k)
        for (size_t d : common_edges[members[k]])
          if (!seen[d]) {
            seen[d] = 1;
            members.push_back(d);
          }
    }
    std::sort(members.begin(), members.end());
  }
  return g;
}

std::set<std::string> invalidated_by_edit(const UnitDepGraph& g,
                                          const std::string& edited) {
  std::set<std::string> out{edited};
  auto it = g.index.find(edited);
  if (it == g.index.end()) return out;
  for (size_t i = 0; i < g.names.size(); ++i)
    if (std::binary_search(g.closure[i].begin(), g.closure[i].end(),
                           it->second))
      out.insert(g.names[i]);
  return out;
}

}  // namespace ap::incr
