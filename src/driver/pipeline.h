// Pipeline orchestration: the three inlining configurations of Table II,
// implemented as a declarative pass sequence on the pm::PassManager
// (driver/passes.h has the catalogue):
//
//   None          — parse → normalize → parallelize → collect-metrics.
//   Conventional  — parse → conv-inline (Polaris heuristics, dead-unit
//                   elimination) → normalize → parallelize → collect-metrics.
//   Annotation    — parse → annot-inline → normalize → parallelize →
//                   reverse-inline (paper Fig. 15: output is the original
//                   source plus OpenMP directives) → collect-metrics.
//
// The per-unit passes (normalize, parallelize) fan out over ProgramUnits
// when `unit_threads` > 1 (or a shared `unit_pool` is supplied), with
// results and diagnostics merged in unit order — output is bit-identical
// to a sequential run.
//
// The result carries the final program (runnable by the interpreter), the
// per-loop verdicts, the set of original-loop ids parallelized in the final
// program, the code-size metric, and one timing record per executed pass.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "annot/parser.h"
#include "fir/ast.h"
#include "par/parallelizer.h"
#include "pm/pass.h"
#include "suite/suite.h"
#include "xform/inline_annotation.h"
#include "xform/inline_conventional.h"
#include "xform/reverse_inline.h"

namespace ap {
class ThreadPool;
}

namespace ap::incr {
class UnitCache;
}

namespace ap::driver {

enum class InlineConfig { None, Conventional, Annotation };

const char* config_name(InlineConfig c);

struct PipelineOptions {
  InlineConfig config = InlineConfig::None;
  par::ParallelizeOptions par;
  xform::ConvInlineOptions conv;
  xform::AnnotInlineOptions annot;
  xform::ReverseInlineOptions reverse;

  // Pass-manager controls. stop_after/print_after name a pass from the
  // catalogue in driver/passes.h; both affect the produced result and are
  // part of the cache key. The execution knobs below are semantics-neutral
  // (the golden tests prove lane-count independence) and are NOT part of
  // the key.
  std::string stop_after;   // stop the sequence after this pass ("" = all)
  std::string print_after;  // capture unparsed program after this pass
  int unit_threads = 1;     // lanes for per-unit passes; <= 1 = sequential
  ThreadPool* unit_pool = nullptr;  // shared pool (overrides unit_threads)
  bool verify = false;  // force the AST verifier (also on via AP_VERIFY)

  // Unit-granular incremental cache (src/incr). When set, the parse pass
  // also builds the request's incremental plan, and the parallelize
  // boundary — the pipeline's one snapshot boundary — consults the cache
  // per unit (keyed by the unit's dependence-closure fingerprint x the
  // pipeline option hash x pass-sequence prefix), restoring live
  // snapshots and storing fresh ones. Semantics-neutral like the
  // execution knobs above — hits are bit-identical to a cold compile —
  // and therefore NOT part of the request cache key.
  incr::UnitCache* unit_cache = nullptr;

  // Verification mode: build the incremental plan with the historical
  // symmetric COMMON dependence rule instead of the directed
  // reads/writes rule. Only hit rates differ — results are bit-identical
  // — so this too is semantics-neutral and NOT part of the key.
  bool bidirectional_common = false;
};

// The serialized fields (support/tlv.h): every option that can change the
// produced result. The execution knobs (unit_threads, unit_pool, verify,
// unit_cache, bidirectional_common) stay out of the list, so out of the
// wire and the cache keys.
template <class V>
void fields(V& v, PipelineOptions& o) {
  v.field(1, "config", o.config, InlineConfig::Annotation);
  v.field(2, "par.min_trip", o.par.min_trip);
  v.field(3, "par.normalize", o.par.normalize);
  v.field(4, "par.mark_nested", o.par.mark_nested);
  v.field(5, "par.use_banerjee", o.par.use_banerjee);
  v.field(6, "par.use_siv_refinement", o.par.use_siv_refinement);
  v.field(7, "par.collect_all_blockers", o.par.collect_all_blockers);
  v.field(8, "conv.max_stmts", o.conv.max_stmts);
  v.field(9, "conv.max_callee_calls", o.conv.max_callee_calls);
  v.field(10, "conv.require_in_loop", o.conv.require_in_loop);
  v.field(11, "conv.eliminate_dead_units", o.conv.eliminate_dead_units);
  v.field(12, "conv.max_passes", o.conv.max_passes);
  v.field(13, "annot.require_in_loop", o.annot.require_in_loop);
  v.field(14, "reverse.tolerate_reordering", o.reverse.tolerate_reordering);
  v.field(15, "reverse.tolerate_forward_subst",
          o.reverse.tolerate_forward_subst);
  v.field(16, "reverse.tolerate_literals", o.reverse.tolerate_literals);
  v.field(17, "reverse.fallback_to_hints", o.reverse.fallback_to_hints);
  if (v.when(!o.stop_after.empty())) v.field(18, "stop_after", o.stop_after);
  if (v.when(!o.print_after.empty()))
    v.field(19, "print_after", o.print_after);
}

// FNV-1a over the field list above. service::cache_key and the incr unit
// keys both build on this, so the two cache tiers can never disagree about
// which options are semantic.
uint64_t hash_pipeline_options(uint64_t h, const PipelineOptions& opts);

// Per-pass wall times for one pipeline run: one record per executed pass,
// in execution order (passes a config skips don't appear). Consumers
// (service telemetry, benches, the wire protocol) read these instead of
// re-running passes under a stopwatch.
struct PipelineTimings {
  std::vector<pm::PassRecord> passes;
  double total_ms = 0;

  // Wall ms of the named pass, 0 when it did not run.
  double pass_ms(std::string_view name) const;
  const pm::PassRecord* find(std::string_view name) const;
};

struct PipelineResult {
  bool ok = false;
  std::string error;
  PipelineTimings timings;

  std::unique_ptr<fir::Program> program;  // final (runnable) program
  par::ParallelizeResult par;
  xform::ConvInlineReport conv_report;
  xform::AnnotInlineReport annot_report;
  xform::ReverseInlineReport reverse_report;

  // Original-loop ids (origin_id) carrying an OMP parallel mark in the
  // final program, application units only. This is the paper's "each loop
  // counted once" metric (§IV.A).
  std::set<int64_t> parallel_loops;
  size_t code_lines = 0;
  // fir::unparse of the final program, rendered by collect-metrics ("" when
  // stop_after ended the sequence before it).
  std::string program_text;

  // Unparsed program captured by print_after ("" when unset).
  std::string print_dump;
  // True when stop_after cut the sequence short (later metrics are empty).
  bool stopped_early = false;

  // Unit-cache outcome of this run (all zero when no unit_cache attached),
  // reported for the deepest boundary — parallelize — to keep the
  // historical request-level meaning: units served from the incremental
  // cache, units recomputed, the subset of misses caused by a changed
  // dependency rather than a changed unit, and the hit split by serving
  // tier (disk, fleet peer; memory = hits - disk - peer). Per-boundary
  // detail lives in timings.passes[*].unit_*.
  size_t unit_hits = 0;
  size_t unit_misses = 0;
  size_t unit_invalidated = 0;
  size_t unit_disk_hits = 0;
  size_t unit_peer_hits = 0;
};

PipelineResult run_pipeline(const suite::BenchmarkApp& app,
                            const PipelineOptions& opts);

// Table II row for one application: loop counts and code size under the
// three configurations, plus the loss/extra breakdown vs. no-inlining.
struct Table2Row {
  std::string app;
  int par_none = 0, par_conv = 0, par_annot = 0;
  int loss_conv = 0, extra_conv = 0;
  int loss_annot = 0, extra_annot = 0;
  size_t lines_none = 0, lines_conv = 0, lines_annot = 0;
};

Table2Row evaluate_table2_row(const suite::BenchmarkApp& app,
                              const PipelineOptions& base = {});

// Assemble a row from the three per-config results (None, Conventional,
// Annotation order). Shared by evaluate_table2_row and the service-side
// scheduler dispatch, which computes the same row from batched results.
Table2Row make_table2_row(const std::string& app,
                          const std::set<int64_t>& none_loops,
                          size_t none_lines,
                          const std::set<int64_t>& conv_loops,
                          size_t conv_lines,
                          const std::set<int64_t>& annot_loops,
                          size_t annot_lines);

// Empirical tuning (paper §IV.B): greedily disable parallel loops whose
// parallelization slows the program down at `threads`. Measures with the
// interpreter; mutates the program's OMP marks. Returns disabled count.
int empirical_tune(fir::Program& prog, int threads);

}  // namespace ap::driver
