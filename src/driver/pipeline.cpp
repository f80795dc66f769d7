#include "driver/pipeline.h"

#include <chrono>

#include "driver/passes.h"
#include "incr/artifacts.h"
#include "interp/interp.h"
#include "support/fnv.h"
#include "support/thread_pool.h"
#include "support/tlv.h"

namespace ap::driver {

const char* config_name(InlineConfig c) {
  switch (c) {
    case InlineConfig::None: return "no-inlining";
    case InlineConfig::Conventional: return "conventional";
    case InlineConfig::Annotation: return "annotation-based";
  }
  return "?";
}

const pm::PassRecord* PipelineTimings::find(std::string_view name) const {
  for (const auto& rec : passes)
    if (rec.name == name) return &rec;
  return nullptr;
}

double PipelineTimings::pass_ms(std::string_view name) const {
  const pm::PassRecord* rec = find(name);
  return rec ? rec->wall_ms : 0;
}

uint64_t hash_pipeline_options(uint64_t h, const PipelineOptions& o) {
  return tlv::hash(h, o);
}

PipelineResult run_pipeline(const suite::BenchmarkApp& app,
                            const PipelineOptions& opts) {
  using clock = std::chrono::steady_clock;
  auto t_start = clock::now();

  PipelineResult result;
  DiagnosticEngine diags;
  diags.set_stream(app.name);

  // The unit tier's artifact store; the parse pass hands it the plan.
  std::unique_ptr<incr::PassArtifacts> artifacts;
  if (opts.unit_cache)
    artifacts = std::make_unique<incr::PassArtifacts>(
        opts.unit_cache, "parallelize", hash_pipeline_options(kFnvOffset, opts));

  PipelineContext cx;
  cx.app = &app;
  cx.opts = opts;
  cx.artifacts = artifacts.get();
  cx.result = &result;

  pm::PassManagerOptions mopts;
  mopts.verify = opts.verify || pm::verify_enabled();
  mopts.stop_after = opts.stop_after;
  mopts.print_after = opts.print_after;
  std::unique_ptr<ThreadPool> local_pool;
  if (opts.unit_pool) {
    mopts.pool = opts.unit_pool;
  } else if (opts.unit_threads > 1) {
    local_pool = std::make_unique<ThreadPool>(opts.unit_threads);
    mopts.pool = local_pool.get();
  }
  mopts.artifacts = artifacts.get();

  pm::PassManager manager(mopts);
  for (auto& p : build_pass_sequence(cx)) manager.add(std::move(p));

  pm::PassState st;
  st.diags = &diags;
  bool ok = manager.run(st);

  result.timings.passes = manager.records();
  result.print_dump = manager.print_dump();
  result.stopped_early = manager.stopped_early();
  // Request-level unit counters: the parallelize boundary's outcome.
  if (const pm::PassRecord* rec = result.timings.find("parallelize")) {
    result.unit_hits = static_cast<size_t>(rec->unit_hits);
    result.unit_misses = static_cast<size_t>(rec->unit_misses);
    result.unit_invalidated = static_cast<size_t>(rec->unit_invalidated);
    result.unit_disk_hits = static_cast<size_t>(rec->unit_disk_hits);
    result.unit_peer_hits = static_cast<size_t>(rec->unit_peer_hits);
  }
  result.timings.total_ms =
      std::chrono::duration<double, std::milli>(clock::now() - t_start)
          .count();
  if (!ok) {
    result.error = manager.error();
    return result;
  }
  result.program = std::move(st.program);
  result.ok = true;
  return result;
}

Table2Row make_table2_row(const std::string& app,
                          const std::set<int64_t>& none_loops,
                          size_t none_lines,
                          const std::set<int64_t>& conv_loops,
                          size_t conv_lines,
                          const std::set<int64_t>& annot_loops,
                          size_t annot_lines) {
  Table2Row row;
  row.app = app;
  row.par_none = static_cast<int>(none_loops.size());
  row.par_conv = static_cast<int>(conv_loops.size());
  row.par_annot = static_cast<int>(annot_loops.size());
  row.lines_none = none_lines;
  row.lines_conv = conv_lines;
  row.lines_annot = annot_lines;
  for (int64_t id : none_loops) {
    if (!conv_loops.count(id)) ++row.loss_conv;
    if (!annot_loops.count(id)) ++row.loss_annot;
  }
  for (int64_t id : conv_loops)
    if (!none_loops.count(id)) ++row.extra_conv;
  for (int64_t id : annot_loops)
    if (!none_loops.count(id)) ++row.extra_annot;
  return row;
}

Table2Row evaluate_table2_row(const suite::BenchmarkApp& app,
                              const PipelineOptions& base) {
  PipelineOptions o = base;
  o.config = InlineConfig::None;
  PipelineResult none = run_pipeline(app, o);
  o.config = InlineConfig::Conventional;
  PipelineResult conv = run_pipeline(app, o);
  o.config = InlineConfig::Annotation;
  PipelineResult annot = run_pipeline(app, o);

  return make_table2_row(app.name, none.parallel_loops, none.code_lines,
                         conv.parallel_loops, conv.code_lines,
                         annot.parallel_loops, annot.code_lines);
}

int empirical_tune(fir::Program& prog, int threads) {
  using clock = std::chrono::steady_clock;
  auto run_ms = [&](bool parallel) {
    interp::InterpOptions o;
    o.num_threads = threads;
    o.enable_parallel = parallel;
    interp::Interpreter it(prog, o);
    auto t0 = clock::now();
    auto r = it.run();
    auto t1 = clock::now();
    if (!r.ok) return -1.0;
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  };

  // Collect mutable pointers to the parallel loops of application units.
  std::vector<fir::Stmt*> parallel_loops;
  for (auto& u : prog.units) {
    fir::walk_stmts(u->body, [&](fir::Stmt& s) {
      if (s.kind == fir::StmtKind::Do && s.omp.parallel)
        parallel_loops.push_back(&s);
      return true;
    });
  }
  if (parallel_loops.empty()) return 0;

  double best = run_ms(true);
  if (best < 0) return 0;
  int disabled = 0;
  // Greedy: try disabling each loop; keep the change when it helps by more
  // than measurement noise.
  for (fir::Stmt* loop : parallel_loops) {
    loop->omp.parallel = false;
    double t = run_ms(true);
    if (t >= 0 && t < best * 0.97) {
      best = t;
      ++disabled;
    } else {
      loop->omp.parallel = true;
    }
  }
  return disabled;
}

}  // namespace ap::driver
