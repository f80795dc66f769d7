// The loop parallelizer — our substitute for Polaris' automatic
// parallelization stage (paper §II, §III.C.2).
//
// For every DO loop (outermost first, inner loops too — nested parallel
// loops are marked, as Polaris marks them, even though the runtime only
// exploits the outermost level):
//
//   1. normalization: forward propagation over the unit, induction-variable
//      substitution per loop;
//   2. reject loops containing un-inlined CALLs (no interprocedural
//      analysis — the point of the paper), I/O, STOP or RETURN;
//   3. classify scalars (read-only / private / reduction / blocker);
//   4. test every write-involved pair of references to each array with the
//      ZIV/SIV/GCD/Banerjee battery (analysis/deptest.h); arrays whose
//      pairs may carry a dependence get a privatization attempt via array
//      kill analysis (analysis/sections.h);
//   5. profitability: loops with a known trip count below `min_trip` are
//      left sequential (paper: "needs to exceed a certain number of
//      iterations");
//   6. annotate the DO node with OpenMP metadata (parallel flag, privates,
//      reductions) that the unparser renders and the interpreter executes.
//
// The result records one verdict per loop origin_id, which the driver
// aggregates into the Table II counters (#par-loops, #par-loss, #par-extra).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fir/ast.h"
#include "support/diagnostics.h"

namespace ap::sema {
struct UnitInfo;
}

namespace ap::par {

struct ParallelizeOptions {
  int64_t min_trip = 4;
  bool normalize = true;        // run forward propagation + induction subst
  bool mark_nested = true;      // also mark parallel loops inside parallel loops
  // Dependence-test ablation switches (bench_ablation_deptests).
  bool use_banerjee = true;
  bool use_siv_refinement = true;
  // Collect every blocker per loop instead of stopping at the first one
  // (opt-report style explanations; slightly more analysis work).
  bool collect_all_blockers = false;
};

// One reason a loop could not be parallelized; a loop's verdict may carry
// several when collect_all_blockers is set.
struct Blocker {
  enum class Kind : uint8_t {
    Call,          // un-inlined CALL
    Io,            // WRITE
    ErrorHandling, // STOP
    Return,        // premature exit
    NonUnitStep,
    Profitability, // trip count below threshold
    Scalar,        // unclassifiable written scalar
    ArrayDependence,  // may-carried dependence, privatization also failed
  };
  Kind kind;
  std::string subject;  // scalar/array name when applicable
  std::string detail;   // e.g. the privatization failure reason
};

const char* blocker_kind_name(Blocker::Kind k);

struct LoopVerdict {
  int64_t origin_id = -1;
  std::string unit;
  std::string do_var;
  bool parallel = false;
  std::string reason;  // first blocker as text (or "parallel")
  std::vector<Blocker> blockers;  // all blockers when collect_all_blockers
};

struct ParallelizeResult {
  std::vector<LoopVerdict> loops;
  int parallelized = 0;
  // Number of pairwise dependence tests issued (telemetry; the dominant
  // analysis cost, so the service reports it per compilation). `dep_tests`
  // counts logical tests; duplicated pairs within one loop are memoized,
  // and `dep_tests_unique` counts the tests actually executed.
  size_t dep_tests = 0;
  size_t dep_tests_unique = 0;

  bool is_parallel(int64_t origin_id) const;
};

// The serialized fields (support/tlv.h).
template <class V>
void fields(V& v, Blocker& b) {
  v.field(1, "kind", b.kind, Blocker::Kind::ArrayDependence);
  v.field(2, "subject", b.subject);
  v.field(3, "detail", b.detail);
}
template <class V>
void fields(V& v, LoopVerdict& l) {
  v.field(1, "origin_id", l.origin_id);
  v.field(2, "unit", l.unit);
  v.field(3, "do_var", l.do_var);
  v.field(4, "parallel", l.parallel);
  v.field(5, "reason", l.reason);
  v.field(6, "blockers", l.blockers);
}
template <class V>
void fields(V& v, ParallelizeResult& r) {
  v.field(1, "loops", r.loops);
  v.field(2, "parallelized", r.parallelized);
  v.field(3, "dep_tests", r.dep_tests);
  v.field(4, "dep_tests_unique", r.dep_tests_unique);
}

ParallelizeResult parallelize(fir::Program& prog,
                              const ParallelizeOptions& opts,
                              DiagnosticEngine& diags);

// Parallelize the loops of one unit against that unit's semantic facts
// (sema::analyze_unit of the unit as it stands now), without normalizing
// (run xform::normalize_unit first when ParallelizeOptions::normalize is
// wanted). The parallelizer reads sema for no other unit, so a caller
// builds the UnitInfo per unit and only for the units it analyzes;
// concurrent calls on distinct units are safe — this is the unit-granular
// entry point the pass manager fans out.
ParallelizeResult parallelize_unit(fir::ProgramUnit& unit,
                                   const sema::UnitInfo& info,
                                   const ParallelizeOptions& opts);

// Fold `other` into `into` preserving unit order: verdicts appended,
// counters summed. Used by callers that parallelize unit-by-unit.
void merge_results(ParallelizeResult& into, ParallelizeResult&& other);

}  // namespace ap::par
