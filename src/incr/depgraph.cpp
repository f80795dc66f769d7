#include "incr/depgraph.h"

#include <algorithm>

#include "analysis/common_rw.h"

namespace ap::incr {

UnitDepGraph build_dep_graph(const fir::Program& prog, DepMode mode) {
  UnitDepGraph g;
  for (const auto& u : prog.units) {
    g.index.emplace(u->name, g.names.size());
    g.names.push_back(u->name);
  }
  const size_t n = g.names.size();
  g.deps.assign(n, {});

  // CALL edges: caller depends on callee. Kept separate from COMMON edges
  // because the two close differently in directed mode (see below).
  std::vector<std::set<size_t>> call_edges(n);
  std::vector<std::set<size_t>> common_edges(n);
  for (size_t i = 0; i < n; ++i) {
    fir::walk_stmts(prog.units[i]->body, [&](const fir::Stmt& s) {
      if (s.kind == fir::StmtKind::Call) {
        auto it = g.index.find(s.name);
        if (it != g.index.end() && it->second != i)
          call_edges[i].insert(it->second);
      }
      return true;
    });
  }

  // COMMON edges. Collect sharers per block first; both modes need them.
  std::map<std::string, std::vector<size_t>> sharers;
  for (size_t i = 0; i < n; ++i)
    for (const auto& cb : prog.units[i]->commons)
      sharers[cb.name].push_back(i);

  if (mode == DepMode::Bidirectional) {
    for (const auto& [block, members] : sharers)
      for (size_t a : members)
        for (size_t b : members)
          if (a != b) common_edges[a].insert(b);
  } else {
    // Directed: reader depends on writer, per member name. Falls back to
    // symmetric edges for a block whose sharers disagree on the member
    // list (positional layout coupling; name matching is meaningless).
    std::vector<analysis::CommonRW> rw(n);
    for (size_t i = 0; i < n; ++i)
      rw[i] = analysis::common_rw_summary(*prog.units[i]);

    auto block_members = [&](size_t unit, const std::string& block)
        -> const std::vector<std::string>* {
      for (const auto& cb : prog.units[unit]->commons)
        if (cb.name == block) return &cb.vars;
      return nullptr;
    };

    for (const auto& [block, members] : sharers) {
      bool layout_consistent = true;
      const std::vector<std::string>* first = block_members(members[0], block);
      for (size_t k = 1; k < members.size() && layout_consistent; ++k) {
        const std::vector<std::string>* other = block_members(members[k], block);
        if (!first || !other || *first != *other) layout_consistent = false;
      }
      if (!layout_consistent) {
        for (size_t a : members)
          for (size_t b : members)
            if (a != b) common_edges[a].insert(b);
        continue;
      }
      for (size_t reader : members) {
        auto rit = rw[reader].reads.find(block);
        if (rit == rw[reader].reads.end()) continue;
        for (size_t writer : members) {
          if (writer == reader || common_edges[reader].count(writer)) continue;
          auto wit = rw[writer].writes.find(block);
          if (wit == rw[writer].writes.end()) continue;
          bool influences = false;
          for (const auto& name : rit->second) {
            if (wit->second.count(name)) {
              influences = true;
              break;
            }
          }
          if (influences) common_edges[reader].insert(writer);
        }
      }
    }
  }

  for (size_t i = 0; i < n; ++i) {
    g.deps[i] = call_edges[i];
    g.deps[i].insert(common_edges[i].begin(), common_edges[i].end());
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
  // Per unit: a DFS with a visited bitmap, then one sorted bulk insert —
  // cheaper than growing a set node by node.
  g.closure.assign(n, {});
  std::vector<char> seen(n);
  std::vector<size_t> members, stack;
  const bool directed = mode == DepMode::Directed;
  for (size_t i = 0; i < n; ++i) {
    std::fill(seen.begin(), seen.end(), 0);
    members.clear();
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
    g.closure[i].insert(members.begin(), members.end());
  }
  return g;
}

std::set<std::string> invalidated_by_edit(const UnitDepGraph& g,
                                          const std::string& edited) {
  std::set<std::string> out{edited};
  auto it = g.index.find(edited);
  if (it == g.index.end()) return out;
  for (size_t i = 0; i < g.names.size(); ++i)
    if (g.closure[i].count(it->second)) out.insert(g.names[i]);
  return out;
}

}  // namespace ap::incr
