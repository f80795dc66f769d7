// compile_suite: driver::run_pipeline over the paper's 12 apps x 3 configs
// with default options, one caller, closed loop, each matrix pass in a
// fresh seeded order.
//
// speedup_geomean here is the compile-time speed-up of annotation-based
// inlining over conventional inlining: per app, the median conventional
// compile over the median annotation compile. Both are operations of the
// run, so the ratio costs no extra work.
#include <cstdio>

#include "annot/parser.h"
#include "common.h"
#include "fir/lexer.h"
#include "fir/parser.h"
#include "sema/symbols.h"

namespace perfbench {

namespace {

using ap::driver::PipelineResult;

struct Samples {
  std::vector<std::vector<double>> per_job;  // ms
  std::vector<double> latency;
  std::vector<double> op_ms;  // whole operation, probes included
  uint64_t attempted = 0;
  double wall_s = 0;
};

// The probes a traced run makes per compile: the front end and sema on
// the compiled app's source.
void probe_frontend(const ap::suite::BenchmarkApp& app, Outcome& out,
                    std::map<std::string, std::vector<double>>& s) {
  ap::DiagnosticEngine diags;
  auto t0 = Clock::now();
  auto toks = ap::fir::lex(app.source, diags);
  auto t1 = Clock::now();
  auto prog = ap::fir::parse_program(app.source, diags);
  auto t2 = Clock::now();
  auto annots = ap::annot::parse_annotations(app.annotations, diags);
  auto t3 = Clock::now();
  s["fir.lex_ms"].push_back(ms_since(t0, t1));
  s["fir.parse_ms"].push_back(ms_since(t1, t2));
  s["annot.parse_ms"].push_back(ms_since(t2, t3));
  if (!prog || toks.empty()) {
    out.fail(1, app.name + ": front end rejected the suite source");
    return;
  }
  auto t4 = Clock::now();
  ap::sema::SemaContext sema(*prog, diags);
  auto t5 = Clock::now();
  s["sema.build_ms"].push_back(ms_since(t4, t5));
}

}  // namespace

Outcome run_compile_suite(const RunConfig& cfg) {
  Outcome out;
  Rng rng(cfg.seed);
  std::vector<ap::service::CompileJob> jobs;
  std::vector<std::set<int64_t>> loops;
  std::vector<size_t> lines;

  // Set-up: load the suite and run one checked pass over the matrix.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    host_speed().tick();
    auto t0 = Clock::now();
    jobs = ap::service::suite_matrix();
    loops.assign(jobs.size(), {});
    lines.assign(jobs.size(), 0);
    for (size_t i = 0; i < jobs.size(); ++i) {
      PipelineResult r = ap::driver::run_pipeline(jobs[i].app, jobs[i].opts);
      loops[i] = r.parallel_loops;
      lines[i] = r.code_lines;
    }
    out.setup_s.push_back(host_speed().at_reference(ms_since(t0)) / 1000.0);
  }
  std::string setup_bad = check_table2(jobs, loops, lines);
  bool table2_ok = setup_bad.empty();
  if (!table2_ok) out.fail(jobs.size(), "set-up pass: " + setup_bad);

  auto measure = [&](double seconds, Tracer& tr) {
    Samples s;
    s.per_job.assign(jobs.size(), {});
    std::map<std::string, std::vector<double>> probes;
    std::vector<std::set<int64_t>> got_loops(jobs.size());
    std::vector<size_t> got_lines(jobs.size());
    double dep = 0, dep_unique = 0;
    std::map<std::string, double> pass_ms;
    double pm_overhead = 0;
    size_t traced_compiles = 0;
    std::vector<size_t> order(jobs.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    auto deadline = deadline_after(seconds);
    while (Clock::now() < deadline) {
      rng.shuffle(order);
      auto pass_start = Clock::now();
      for (size_t j : order) {
        auto op0 = Clock::now();
        int op = tr.open(Layer::bench, -1);
        auto t0 = Clock::now();
        PipelineResult r = ap::driver::run_pipeline(jobs[j].app, jobs[j].opts);
        auto t1 = Clock::now();
        double ms = ms_since(t0, t1);
        double ref_ms = host_speed().at_reference(ms);
        ++s.attempted;
        s.per_job[j].push_back(ref_ms);
        s.latency.push_back(ref_ms);
        got_loops[j] = r.parallel_loops;
        got_lines[j] = r.code_lines;
        if (!r.ok) out.fail(1, jobs[j].app.name + ": " + r.error);
        if (tr.enabled()) {
          int pipe = tr.add(Layer::pm, op, t0, t1);
          tr.add_passes(pipe, t0, r.timings);
          double sum = 0;
          for (const auto& rec : r.timings.passes) {
            pass_ms[rec.name] += rec.wall_ms;
            sum += rec.wall_ms;
          }
          pm_overhead += ms - sum;
          dep += static_cast<double>(r.par.dep_tests);
          dep_unique += static_cast<double>(r.par.dep_tests_unique);
          ++traced_compiles;
          auto p0 = Clock::now();
          probe_frontend(jobs[j].app, out, probes);
          tr.probe(op, p0, Clock::now());
        }
        tr.close(op);
        s.op_ms.push_back(ms_since(op0));
      }
      s.wall_s += host_speed().at_reference(ms_since(pass_start)) / 1000.0;
      host_speed().tick();
      if (std::string bad = check_table2(jobs, got_loops, got_lines); !bad.empty()) {
        out.fail(jobs.size(), bad);
        table2_ok = false;
      }
    }
    if (tr.enabled() && traced_compiles > 0) {
      double n = static_cast<double>(traced_compiles);
      for (const auto& [name, v] : probes) out.set(name, mean(v), "ms");
      for (const auto& p : pass_names())
        out.set("pass." + p + "_ms", pass_ms[p] / n, "ms");
      out.set("pm.overhead_ms", pm_overhead / n, "ms");
      out.set("analysis.dep_tests", dep / n, "count");
      out.set("analysis.dep_tests_unique", dep_unique / n, "count");
      out.set("analysis.dep_memo_ratio", dep > 0 ? 1.0 - dep_unique / dep : 0, "ratio");
    }
    return s;
  };

  Tracer off(false), on(true);
  Samples base;
  if (cfg.trace) {
    base = measure(cfg.seconds / 2, off);
    Samples traced = measure(cfg.seconds / 2, on);
    out.attempted += traced.attempted;
    for (const auto& [layer, ms] : on.self_ms())
      out.set("self." + layer + "_ms", ms / static_cast<double>(traced.attempted), "ms");
    out.set("trace.overhead_pct", overhead_pct(traced.op_ms, base.op_ms), "%");
  } else {
    base = measure(cfg.seconds, off);
  }
  report_suite_counts(out, jobs, loops, lines);

  out.attempted += base.attempted;
  out.latency_ms = base.latency;
  out.wall_s = base.wall_s;
  for (size_t j = 0; j < jobs.size(); ++j) out.exec_ms += median(base.per_job[j]);
  // suite_matrix() holds each app's three configs consecutively.
  for (size_t j = 0; j + 2 < jobs.size(); j += 3) {
    double none = median(base.per_job[j]), conv = median(base.per_job[j + 1]),
           annot = median(base.per_job[j + 2]);
    out.speedups.push_back(conv / annot);
    char row[160];
    std::snprintf(row, sizeof row,
                  "%-8s none %.3f ms conventional %.3f ms annotation %.3f ms",
                  jobs[j].app.name.c_str(), none, conv, annot);
    out.rows.push_back(row);
  }
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "compile time: annotation-based inlining is %.3fx as fast as "
                "conventional inlining (geomean over %zu apps)",
                geomean(out.speedups), out.speedups.size());
  out.verdicts.push_back(buf);
  std::snprintf(buf, sizeof buf, "Table II 104/99/117 with 0 annotation losses: %s",
                table2_ok ? "reproduced on every pass" : "NOT reproduced");
  out.verdicts.push_back(buf);
  return out;
}

}  // namespace perfbench
