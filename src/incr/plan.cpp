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
                   DepMode mode) {
  IncrPlan plan;
  if (!fps.ok) return plan;
  UnitDepGraph g = build_dep_graph(prog, mode);

  // The token-level split must name exactly the parsed units, in order —
  // otherwise a fingerprint could be attributed to the wrong unit.
  if (fps.units.size() != g.names.size()) return plan;
  for (size_t i = 0; i < g.names.size(); ++i)
    if (fps.units[i].name != g.names[i]) return plan;

  // Sorted (name, fp) pairs over each closure: deterministic regardless
  // of unit order or traversal. Units are ranked by name once, so each
  // closure sorts integers rather than strings.
  const size_t n = g.names.size();
  std::vector<size_t> by_name(n), rank(n), closure;
  for (size_t i = 0; i < n; ++i) by_name[i] = i;
  std::sort(by_name.begin(), by_name.end(),
            [&](size_t a, size_t b) { return g.names[a] < g.names[b]; });
  for (size_t r = 0; r < n; ++r) rank[by_name[r]] = r;
  for (size_t i = 0; i < n; ++i) {
    closure.clear();
    for (size_t j : g.closure[i]) closure.push_back(rank[j]);
    std::sort(closure.begin(), closure.end());
    uint64_t h = kFnvOffset;
    h = fnv_u64(h, kUnitCacheFormatVersion);
    // The unit's own name first: two units sharing one dependence closure
    // (e.g. an all-to-all COMMON clique) must still key separately, or
    // their snapshots would overwrite each other under a single key.
    h = fnv1a(h, g.names[i]);
    h = fnv1a(h, std::string_view("\0", 1));
    for (size_t r : closure) {
      size_t j = by_name[r];
      h = fnv1a(h, g.names[j]);
      h = fnv1a(h, std::string_view("\0", 1));
      h = fnv_u64(h, fps.units[j].fp);
    }
    plan.entries.emplace(g.names[i], PlanEntry{h, fps.units[i].fp});
  }
  plan.usable = true;
  return plan;
}

}  // namespace ap::incr
