#include "par/parallelizer.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "analysis/deptest.h"
#include "analysis/refs.h"
#include "analysis/scalars.h"
#include "analysis/sections.h"
#include "sema/symbols.h"
#include "xform/normalize.h"

namespace ap::par {

const char* blocker_kind_name(Blocker::Kind k) {
  switch (k) {
    case Blocker::Kind::Call: return "call";
    case Blocker::Kind::Io: return "io";
    case Blocker::Kind::ErrorHandling: return "error-handling";
    case Blocker::Kind::Return: return "return";
    case Blocker::Kind::NonUnitStep: return "non-unit-step";
    case Blocker::Kind::Profitability: return "profitability";
    case Blocker::Kind::Scalar: return "scalar";
    case Blocker::Kind::ArrayDependence: return "array-dependence";
  }
  return "?";
}

bool ParallelizeResult::is_parallel(int64_t origin_id) const {
  for (const auto& l : loops)
    if (l.origin_id == origin_id && l.parallel) return true;
  return false;
}

namespace {

// Per-unit worker: analyzes and marks the loops of exactly one unit against
// that unit's semantic facts. The pass manager runs one instance per unit,
// possibly concurrently; nothing here touches state outside the unit, its
// UnitInfo and the result it owns.
class Parallelizer {
 public:
  Parallelizer(fir::ProgramUnit& unit, const sema::UnitInfo& info,
               const ParallelizeOptions& opts, ParallelizeResult& result)
      : info_(info), opts_(opts), result_(result), unit_(&unit) {}

  void run() {
    // Library internals are still processed: their loops can be
    // parallelized like any other unit's (vendors ship parallel
    // libraries); but the paper's counts are about application source,
    // so the driver filters by unit when aggregating.
    process_loops(unit_->body, /*inside_parallel=*/false);
  }

 private:
  const sema::UnitInfo& info_;
  const ParallelizeOptions& opts_;
  ParallelizeResult& result_;
  fir::ProgramUnit* unit_ = nullptr;

  bool trip_at_least_one(const fir::Stmt& loop) const {
    if (!loop.do_lo || !loop.do_hi || loop.do_step) return false;
    auto lo = info_.fold_int(*loop.do_lo);
    auto hi = info_.fold_int(*loop.do_hi);
    return lo && hi && *hi >= *lo;
  }

  void process_loops(std::vector<fir::StmtPtr>& body, bool inside_parallel) {
    for (auto& sp : body) {
      if (!sp) continue;
      fir::Stmt& s = *sp;
      if (s.kind == fir::StmtKind::Do) {
        bool marked = attempt(s);
        if (!marked || opts_.mark_nested)
          process_loops(s.body, inside_parallel || marked);
        continue;
      }
      process_loops(s.body, inside_parallel);
      process_loops(s.else_body, inside_parallel);
    }
  }

  // Try to parallelize loop `L`; returns true when marked parallel.
  bool attempt(fir::Stmt& L) {
    LoopVerdict v;
    v.origin_id = L.origin_id;
    v.unit = unit_->name;
    v.do_var = L.do_var;

    auto block = [&](Blocker::Kind kind, std::string subject,
                     std::string detail) {
      v.blockers.push_back(Blocker{kind, std::move(subject), std::move(detail)});
    };
    auto fail = [&](std::string reason) {
      v.parallel = false;
      v.reason = std::move(reason);
      result_.loops.push_back(std::move(v));
      return false;
    };
    // In collect-all mode a blocker does not end the analysis; `bail`
    // reports the first blocker immediately in the default mode.
    auto bail = [&](Blocker::Kind kind, std::string subject,
                    std::string reason) -> bool {
      block(kind, std::move(subject), reason);
      if (!opts_.collect_all_blockers) {
        fail(std::move(reason));
        return true;
      }
      return false;
    };

    if (L.do_step) {
      auto st = info_.fold_int(*L.do_step);
      if (!st || *st != 1) {
        if (bail(Blocker::Kind::NonUnitStep, L.do_var, "non-unit step"))
          return false;
      }
    }

    analysis::LoopRefs refs = analysis::collect_loop_refs(L, info_);
    if (refs.has_call &&
        bail(Blocker::Kind::Call, "", "contains un-inlined CALL"))
      return false;
    if (refs.has_io && bail(Blocker::Kind::Io, "", "contains I/O"))
      return false;
    if (refs.has_stop && bail(Blocker::Kind::ErrorHandling, "",
                              "contains STOP (error handling)"))
      return false;
    if (refs.has_return && bail(Blocker::Kind::Return, "", "contains RETURN"))
      return false;

    // Profitability first: cheap and mirrors Polaris' ordering.
    {
      analysis::LoopBounds b = analysis::fold_bounds(L, info_);
      auto trip = b.trip();
      if (trip && *trip < opts_.min_trip) {
        if (bail(Blocker::Kind::Profitability, L.do_var,
                 "trip count " + std::to_string(*trip) +
                     " below profitability threshold"))
          return false;
      }
    }

    auto trip_ge1 = [this](const fir::Stmt& d) { return trip_at_least_one(d); };

    // Scalars.
    analysis::ScalarClassification scalars =
        analysis::classify_scalars(L, info_, trip_ge1);
    for (const auto& name : scalars.blockers()) {
      if (bail(Blocker::Kind::Scalar, name, "scalar dependence on " + name))
        return false;
      if (!opts_.collect_all_blockers) break;
    }

    // Build the dependence context.
    std::set<std::string> written_arrays, written_scalars;
    std::set<std::string> arrays;
    for (const auto& r : refs.refs) {
      if (r.is_scalar) {
        if (r.is_write) written_scalars.insert(r.array);
      } else {
        arrays.insert(r.array);
        if (r.is_write) written_arrays.insert(r.array);
      }
    }
    written_scalars.insert(L.do_var);
    fir::walk_stmts(L.body, [&](const fir::Stmt& s) {
      if (s.kind == fir::StmtKind::Do) written_scalars.insert(s.do_var);
      return true;
    });

    analysis::DepContext ctx;
    ctx.parallel_var = L.do_var;
    ctx.use_banerjee = opts_.use_banerjee;
    ctx.use_siv_refinement = opts_.use_siv_refinement;
    ctx.scalar_invariant = [&](const std::string& n) {
      return !written_scalars.count(n);
    };
    ctx.array_readonly = [&](const std::string& n) {
      return !written_arrays.count(n);
    };
    // Bounds of this loop and inner loops (for Banerjee / SIV ranges).
    {
      ctx.bounds[L.do_var] = analysis::fold_bounds(L, info_);
      fir::walk_stmts(L.body, [&](const fir::Stmt& s) {
        if (s.kind == fir::StmtKind::Do)
          ctx.bounds[s.do_var] = analysis::fold_bounds(s, info_);
        return true;
      });
    }

    // Arrays: pairwise dependence tests, privatization fallback.
    //
    // Many loops present the same reference pair repeatedly (e.g. the same
    // A(I) write tested against identical reads scattered over statements,
    // or duplicated pairs after inlining multiplies call sites). test_pair
    // is pure in (w, o, ctx) and ctx is fixed for the whole loop, so within
    // one loop's pass we memoize verdicts keyed by the *textual* identity of
    // the pair. The test battery is also symmetric in the two references,
    // so the key is unordered. `dep_tests` keeps counting logical tests
    // (Table-II-style telemetry must not change); `dep_tests_unique` counts
    // the tests actually executed.
    std::map<std::string, int> ref_sig_ids;
    auto sig_id = [&](const analysis::MemRef& r) {
      std::string s = r.array;
      s += r.is_write ? "|w" : "|r";
      if (r.is_scalar) s += "|s";
      if (r.whole_array) s += "|*";
      for (const auto* e : r.subs) {
        s += '|';
        s += e ? fir::expr_to_string(*e) : std::string("?");
      }
      for (const auto& il : r.inner_loops) {
        s += "|L" + il.var + '=';
        s += il.lo ? fir::expr_to_string(*il.lo) : std::string("?");
        s += ':';
        s += il.hi ? fir::expr_to_string(*il.hi) : std::string("?");
        if (il.step) s += ':' + fir::expr_to_string(*il.step);
      }
      auto [it, _] = ref_sig_ids.emplace(std::move(s), static_cast<int>(ref_sig_ids.size()));
      return it->second;
    };
    std::map<std::pair<int, int>, analysis::PairVerdict> pair_memo;
    auto test_pair_memo = [&](const analysis::MemRef& w,
                              const analysis::MemRef& o) {
      int iw = sig_id(w), io = sig_id(o);
      std::pair<int, int> key{std::min(iw, io), std::max(iw, io)};
      auto it = pair_memo.find(key);
      if (it != pair_memo.end()) return it->second;
      ++result_.dep_tests_unique;
      analysis::PairVerdict pv = analysis::test_pair(w, o, ctx);
      pair_memo.emplace(key, pv);
      return pv;
    };

    std::vector<std::string> private_arrays;
    for (const auto& a : written_arrays) {
      std::vector<const analysis::MemRef*> writes, all;
      for (const auto& r : refs.refs) {
        if (r.is_scalar || r.array != a) continue;
        all.push_back(&r);
        if (r.is_write) writes.push_back(&r);
      }
      bool carried = false;
      for (const auto* w : writes) {
        for (const auto* o : all) {
          if (o == w && all.size() > 1) {
            // self-pair still matters (same ref, different iterations)
          }
          ++result_.dep_tests;
          analysis::PairVerdict pv = test_pair_memo(*w, *o);
          if (pv == analysis::PairVerdict::MayCarry) {
            carried = true;
            break;
          }
        }
        if (carried) break;
      }
      if (!carried) continue;
      analysis::ArrayPrivVerdict priv =
          analysis::array_privatizable(L, a, info_, trip_ge1);
      if (priv.privatizable) {
        private_arrays.push_back(a);
      } else {
        if (bail(Blocker::Kind::ArrayDependence, a,
                 "loop-carried dependence on array " + a + " (" + priv.reason +
                     ")"))
          return false;
      }
    }

    if (!v.blockers.empty()) {
      // collect_all_blockers mode reaches here with the full list.
      fail(v.blockers.front().detail);
      return false;
    }

    // Mark parallel.
    v.parallel = true;
    v.reason = "parallel";
    L.omp.parallel = true;
    L.omp.privates.clear();
    L.omp.reductions.clear();
    for (const auto& p : scalars.privates()) L.omp.privates.push_back(p);
    for (const auto& a : private_arrays) L.omp.privates.push_back(a);
    for (const auto& [name, info] : scalars.scalars) {
      if (info.kind == analysis::ScalarKind::Reduction)
        L.omp.reductions.push_back({info.reduction_op, name});
    }
    result_.loops.push_back(v);
    ++result_.parallelized;
    return true;
  }
};

}  // namespace

ParallelizeResult parallelize_unit(fir::ProgramUnit& unit,
                                   const sema::UnitInfo& info,
                                   const ParallelizeOptions& opts) {
  ParallelizeResult result;
  Parallelizer p(unit, info, opts, result);
  p.run();
  return result;
}

void merge_results(ParallelizeResult& into, ParallelizeResult&& other) {
  into.parallelized += other.parallelized;
  into.dep_tests += other.dep_tests;
  into.dep_tests_unique += other.dep_tests_unique;
  into.loops.insert(into.loops.end(),
                    std::make_move_iterator(other.loops.begin()),
                    std::make_move_iterator(other.loops.end()));
  other.loops.clear();
}

ParallelizeResult parallelize(fir::Program& prog, const ParallelizeOptions& opts,
                              DiagnosticEngine& diags) {
  (void)diags;
  // Each unit's facts are taken after its normalization, as the pass
  // pipeline's parallelize pass takes them.
  ParallelizeResult result;
  for (auto& u : prog.units) {
    if (opts.normalize) xform::normalize_unit(*u);
    merge_results(result, parallelize_unit(*u, sema::analyze_unit(*u), opts));
  }
  return result;
}

}  // namespace ap::par
