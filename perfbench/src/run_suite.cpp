// run_suite: executes the 36 programs the compiler emits for the suite
// matrix. Each operation runs one program serially and at T = min(4, nproc)
// threads, back to back (which goes first alternates between passes), in a
// fresh seeded program order per pass. Compiling happens in set-up. A run
// ends on a pass boundary, so every program has as many samples and a
// latency percentile falls at the same place among the programs' runs
// from run to run.
//
// Latency and throughput are those of the serial runs: the interpreter's
// own speed, as wall time, since none of the calibration kernels followed
// it. The T-thread runs give exec_ms, scaled by a fork-join kernel, and,
// against the serial run next to them, speedup_geomean. On a shared host a
// T-thread run's wall time swings by up to 2x within a minute, because
// each parallel region waits for parked workers to wake, so the latency
// percentiles are the serial runs'. Even so this workload did not hold
// the benchmark's bounds from run to run, and it runs in the benchmark
// only as a side run of a traced compile_suite run (main.cpp).
//
// Both runs' WRITE output must match a serial run of the original,
// untransformed source (interpreted in set-up).
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <thread>

#include "common.h"
#include "fir/ast.h"
#include "fir/parser.h"
#include "interp/interp.h"
#include "support/thread_pool.h"

namespace perfbench {

namespace {

using ap::interp::InterpOptions;
using ap::interp::Interpreter;
using ap::interp::RunResult;

// The runtime tester's relative tolerance (interp/tester.h), plus one unit
// in the last place WRITE prints (six decimals), since outputs are compared
// as printed text rather than as stored doubles.
constexpr double kRelTol = 1e-9;
constexpr double kPrintUlp = 1e-6;

bool outputs_match(const std::string& a, const std::string& b) {
  std::istringstream sa(a), sb(b);
  std::string x, y;
  while (true) {
    bool ha = static_cast<bool>(sa >> x), hb = static_cast<bool>(sb >> y);
    if (ha != hb) return false;
    if (!ha) return true;
    if (x == y) continue;
    char *ex = nullptr, *ey = nullptr;
    double dx = std::strtod(x.c_str(), &ex), dy = std::strtod(y.c_str(), &ey);
    if (*ex != '\0' || *ey != '\0') return false;
    double scale = std::max({std::fabs(dx), std::fabs(dy), 1.0});
    if (std::fabs(dx - dy) > kRelTol * scale + kPrintUlp) return false;
  }
}

InterpOptions opts(int threads, bool parallel) {
  InterpOptions o;
  o.num_threads = threads;
  o.enable_parallel = parallel;
  return o;
}

// The T-thread runs' calibration kernel (see HostSpeed): kForkJoins empty
// fork-joins over T lanes, the caller and T-1 threads of the benchmark's
// own, which wait on a condition variable between fork-joins. Like the
// interpreter's parallel regions it is mostly wake-ups, which the compute
// kernel does not follow. A host at the reference speed takes
// kForkJoinReferenceMs for it at 4 lanes (the 4-vCPU host the bounds were
// set on took 1.8 ms, and up to 9 ms while the host stole its vCPUs).
constexpr int kForkJoins = 100;
constexpr double kForkJoinReferenceMs = 1.5;

class ForkJoinKernel {
 public:
  explicit ForkJoinKernel(int lanes) {
    for (int i = 1; i < lanes; ++i) threads_.emplace_back([this] { work(); });
  }
  ~ForkJoinKernel() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    go_.notify_all();
    for (auto& t : threads_) t.join();
  }
  // One sample, ms; -1 with a single lane, where there is nothing to time.
  double run_ms() {
    if (threads_.empty()) return -1;
    auto t0 = Clock::now();
    for (int i = 0; i < kForkJoins; ++i) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++generation_;
        pending_ = static_cast<int>(threads_.size());
      }
      go_.notify_all();
      std::unique_lock<std::mutex> lock(mu_);
      done_.wait(lock, [&] { return pending_ == 0; });
    }
    return ms_since(t0);
  }

 private:
  void work() {
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      go_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      if (--pending_ == 0) done_.notify_one();
    }
  }

  std::mutex mu_;
  std::condition_variable go_, done_;
  uint64_t generation_ = 0;
  int pending_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

// Parallel marks of every DO loop of the program, in walk order.
std::vector<bool> parallel_marks(const ap::fir::Program& prog) {
  std::vector<bool> marks;
  for (const auto& u : prog.units) {
    const std::vector<ap::fir::StmtPtr>& body = u->body;
    ap::fir::walk_stmts(body, [&](const ap::fir::Stmt& s) {
      if (s.kind == ap::fir::StmtKind::Do) marks.push_back(s.omp.parallel);
      return true;
    });
  }
  return marks;
}

}  // namespace

Outcome run_run_suite(const RunConfig& cfg) {
  Outcome out;
  out.threads = cfg.threads;  // the load's; the fork-join kernel parks T-1 more
  Rng rng(cfg.seed);
  const int T = cfg.threads;
  std::vector<ap::service::CompileJob> jobs;
  std::vector<ap::driver::PipelineResult> compiled;
  std::vector<std::string> reference;  // per job: original source, serial

  // Set-up: compile the matrix and interpret each original source serially.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    host_speed().tick();
    auto t0 = Clock::now();
    jobs = ap::service::suite_matrix();
    compiled.clear();
    reference.assign(jobs.size(), "");
    for (size_t j = 0; j < jobs.size(); ++j) {
      compiled.push_back(ap::driver::run_pipeline(jobs[j].app, jobs[j].opts));
      if (!compiled.back().ok || !compiled.back().program) {
        out.fail(1, jobs[j].app.name + ": compile failed: " + compiled.back().error);
        out.attempted = 1;
        return out;
      }
      if (j > 0 && jobs[j].app.name == jobs[j - 1].app.name) {
        reference[j] = reference[j - 1];
        continue;
      }
      ap::DiagnosticEngine diags;
      auto original = ap::fir::parse_program(jobs[j].app.source, diags);
      if (!original) {
        out.fail(1, jobs[j].app.name + ": original source does not parse");
        out.attempted = 1;
        return out;
      }
      Interpreter it(*original, opts(1, false));
      RunResult r = it.run();
      if (!r.ok) {
        out.fail(1, jobs[j].app.name + ": serial reference run failed: " + r.error);
        out.attempted = 1;
        return out;
      }
      reference[j] = r.output;
    }
    out.setup_s.push_back(host_speed().at_reference(ms_since(t0)) / 1000.0);
  }
  {
    std::vector<std::set<int64_t>> loops;
    std::vector<size_t> lines;
    for (const auto& r : compiled) {
      loops.push_back(r.parallel_loops);
      lines.push_back(r.code_lines);
    }
    report_suite_counts(out, jobs, loops, lines);
  }

  struct Phase {
    std::vector<double> latency;  // serial runs
    std::vector<double> op_ms;    // whole operation, tracing included
    std::vector<std::vector<double>> par_ms, ser_ms;  // per job, as reported
    uint64_t attempted = 0;
    double wall_s = 0;  // time in serial runs
  };

  ForkJoinKernel fork_join(T);
  HostSpeed fj_speed(kForkJoinReferenceMs, [&] { return fork_join.run_ms(); });

  auto measure = [&](double seconds, Tracer& tr) {
    Phase ph;
    ph.par_ms.assign(jobs.size(), {});
    ph.ser_ms.assign(jobs.size(), {});
    fj_speed.tick();
    std::vector<double> bytecode_ms;
    double insns = 0, serial_us = 0, stmts = 0, stmts_par = 0;
    std::vector<size_t> order(jobs.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    auto deadline = deadline_after(seconds);
    for (int pass = 0; Clock::now() < deadline; ++pass) {
      rng.shuffle(order);
      for (size_t j : order) {
        const ap::fir::Program& prog = *compiled[j].program;
        auto op0 = Clock::now();
        int op = tr.open(Layer::bench, -1);
        ++ph.attempted;
        for (int k = 0; k < 2; ++k) {
          bool parallel = (k == 0) == (pass % 2 == 0);
          auto c0 = Clock::now();
          Interpreter it(prog, parallel ? opts(T, true) : opts(1, false));
          auto t0 = Clock::now();
          RunResult r = it.run();
          auto t1 = Clock::now();
          double ms = ms_since(t0, t1);
          tr.add(Layer::interp, op, c0, t0);
          tr.add(Layer::interp, op, t0, t1);
          if (tr.enabled()) bytecode_ms.push_back(r.bytecode_compile_ms);
          if (parallel) {
            ph.par_ms[j].push_back(fj_speed.at_reference(ms));
            stmts += static_cast<double>(r.statements_executed);
            stmts_par += static_cast<double>(r.statements_in_parallel);
          } else {
            ph.ser_ms[j].push_back(ms);
            ph.latency.push_back(ms);
            ph.wall_s += ms / 1000.0;
            insns += static_cast<double>(r.instructions_executed);
            serial_us += ms * 1000.0;
          }
          const char* how = parallel ? "parallel" : "serial";
          if (!r.ok) {
            out.fail(1, jobs[j].app.name + ": " + how + " run failed: " + r.error);
            break;
          }
          if (!outputs_match(r.output, reference[j])) {
            out.fail(1, jobs[j].app.name + " (" + config_label(jobs[j].opts.config) +
                            "): " + how + " output differs from the original program");
            break;
          }
        }
        tr.close(op);
        ph.op_ms.push_back(ms_since(op0));
        fj_speed.tick();
      }
    }
    if (tr.enabled()) {
      out.set("interp.bytecode_compile_ms", mean(bytecode_ms), "ms");
      out.set("interp.instructions_per_us", serial_us > 0 ? insns / serial_us : 0, "1/us");
      out.set("interp.parallel_coverage", stmts > 0 ? stmts_par / stmts : 0, "ratio");
      double serial_pass = 0;
      for (const auto& v : ph.ser_ms) serial_pass += median(v);
      out.set("interp.serial_exec_ms", serial_pass, "ms");
    }
    return ph;
  };

  Tracer off(false), on(true);
  Phase base;
  if (cfg.trace) {
    // Probes outside the operations, so not spans: the fork-join cost of
    // the runtime's pool at T lanes with an empty body, and the tuner.
    std::vector<double> fj;
    {
      ap::ThreadPool pool(T);
      for (int i = 0; i < 2000; ++i) {
        auto t0 = Clock::now();
        pool.parallel_for(0, T - 1, [](int64_t, int64_t, int) {});
        fj.push_back(ms_since(t0) * 1000.0);
      }
    }
    out.set("support.fork_join_us", median(fj), "us");
    // The tuner on each annotation-config program, twice, each time on a
    // fresh compile of it: its time, the loops it disabled, and the loops
    // the two runs decided differently.
    auto tune0 = Clock::now();
    double tune_ms = 0, disabled = 0, disagree = 0;
    int tuned = 0, differing = 0;
    for (size_t j = 0; j < jobs.size(); ++j) {
      if (jobs[j].opts.config != ap::driver::InlineConfig::Annotation) continue;
      std::vector<bool> marks[2];
      for (int k = 0; k < 2; ++k) {
        auto r = ap::driver::run_pipeline(jobs[j].app, jobs[j].opts);
        auto t0 = Clock::now();
        disabled += ap::driver::empirical_tune(*r.program, T);
        tune_ms += ms_since(t0);
        marks[k] = parallel_marks(*r.program);
      }
      if (marks[0].size() != marks[1].size())
        out.fail(1, jobs[j].app.name + ": the same compile gave two loop counts");
      int d = 0;
      for (size_t i = 0; i < std::min(marks[0].size(), marks[1].size()); ++i)
        d += marks[0][i] != marks[1][i];
      disagree += d;
      differing += d > 0;
      ++tuned;
    }
    double tune_s = ms_since(tune0) / 1000.0;
    out.set("driver.tune_ms", tune_ms / (2.0 * tuned), "ms");
    out.set("driver.tune_loops_disabled", disabled / 2, "count");
    out.set("driver.tune_disagreements", disagree, "count");
    char tbuf[200];
    std::snprintf(tbuf, sizeof tbuf,
                  "tuner ran twice on each of %d annotation-config programs: %d "
                  "loops decided differently, in %d programs",
                  tuned, static_cast<int>(disagree), differing);
    out.verdicts.push_back(tbuf);

    // The two halves share what the tuner left of the run's time, but each
    // gets at least a quarter of it.
    double half = std::max(cfg.seconds - tune_s, cfg.seconds / 2) / 2;
    base = measure(half, off);
    Phase traced = measure(half, on);
    out.attempted += traced.attempted;
    for (const auto& [layer, ms] : on.self_ms())
      out.set("self." + layer + "_ms", ms / static_cast<double>(traced.attempted), "ms");
    out.set("trace.overhead_pct", overhead_pct(traced.op_ms, base.op_ms), "%");
  } else {
    base = measure(cfg.seconds, off);
  }
  out.attempted += base.attempted;
  out.latency_ms = base.latency;
  out.wall_s = base.wall_s;
  int below = 0;
  for (size_t j = 0; j < jobs.size(); ++j) {
    if (base.par_ms[j].empty() || base.ser_ms[j].empty()) continue;
    double p = median(base.par_ms[j]);
    out.exec_ms += p;
    double s = median(base.ser_ms[j]) / p;
    out.speedups.push_back(s);
    below += s < 1.0;
    char row[160];
    std::snprintf(row, sizeof row, "%-8s %-12s parallel %.3f ms serial %.3f ms speed-up %.3f",
                  jobs[j].app.name.c_str(), config_label(jobs[j].opts.config), p,
                  median(base.ser_ms[j]), s);
    out.rows.push_back(row);
  }
  out.set("run.programs_below_serial", below, "count");
  out.calibration["fork_join_kernel_ms"] = fj_speed.median_ms();
  out.calibration["fork_join_kernel_samples"] = static_cast<double>(fj_speed.samples());
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "Fig. 20 on %d threads: geomean speed-up %.3fx over %zu programs, "
                "%d of them slower than serial",
                T, geomean(out.speedups), out.speedups.size(), below);
  out.verdicts.push_back(buf);
  return out;
}

}  // namespace perfbench
