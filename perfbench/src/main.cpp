// annopar_bench: runs one named workload of the AnnoPar benchmark and
// prints its metrics. perfbench/run.py builds this binary and forwards its
// arguments:
//
//   annopar_bench --workload NAME --seed N --seconds S --trace 0|1
//                 [--rev REV] [--src-digest HEX] [--results-dir DIR]
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) print the per-layer metrics. BENCHMARK.json lists only
// compile_suite and edit_loop; serve_hot and run_suite run by name too.
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the lines before it are the environment record, the metrics
// in `name = value unit` form and the verdicts. The same record is
// written to DIR when --results-dir is given. End-to-end times are
// reported at a reference host speed where a calibration kernel follows
// them (HostSpeed in common.h); the env line records each kernel's median
// and the compute kernel's host_scale, reference over wall.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <string>

#include "common.h"
#include "support/json.h"

#ifndef AP_BENCH_BUILD_TYPE
#define AP_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef AP_BENCH_COMPILER
#define AP_BENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;
namespace json = ap::json;

// The latency tail reported as latency_ms.p90: every workload supplies at
// least ten samples beyond it in a run (checked below). p99 has more than
// ten in compile_suite and edit_loop, but edit_loop's, with 15-18, spread
// about twice as far from run to run (perfbench/METRICS.md).
constexpr double kTailQ = 0.90;
constexpr const char* kTailName = "latency_ms.p90";

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "annopar_bench: %s\nusage: annopar_bench --workload "
               "compile_suite|serve_hot|edit_loop|run_suite --seed N "
               "--seconds S --trace 0|1 [--rev REV] [--src-digest HEX] "
               "[--results-dir DIR]\n",
               why);
  std::exit(64);
}

int nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return 1;
}

bool optimized_build() {
  std::string bt = AP_BENCH_BUILD_TYPE;
#ifdef __OPTIMIZE__
  return bt == "Release" || bt == "RelWithDebInfo" || bt == "MinSizeRel";
#else
  return false;
#endif
}

json::Value num(double v) { return json::Value(v); }

// serve_hot and run_suite are not in BENCHMARK.json: on a shared host
// their times did not hold the bound from run to run (perfbench/METRICS.md).
// The layers only they exercise are measured in the traced runs of the
// benchmark's workloads, by a short traced side run of theirs.
constexpr double kSideRunSeconds = 6;

// Copies a side run's per-layer metrics whose names start with one of
// `prefixes`, and its checks and verdicts, into `out`.
void absorb(Outcome& out, const Outcome& side, std::initializer_list<const char*> prefixes,
            const char* label) {
  for (const auto& [name, vu] : side.layer)
    for (const char* p : prefixes)
      if (name.rfind(p, 0) == 0) out.layer[name] = vu;
  out.attempted += side.attempted;
  out.failed += side.failed;
  for (const auto& v : side.verdicts) out.verdicts.push_back(std::string(label) + ": " + v);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, rev = "unknown", digest = "unknown", results_dir;
  RunConfig cfg;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end && *end == '\0';
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end && *end == '\0' && cfg.seconds > 0;
    } else if (a == "--trace") {
      have_trace = v == "0" || v == "1";
      cfg.trace = v == "1";
    } else if (a == "--rev") {
      rev = v;
    } else if (a == "--src-digest") {
      digest = v;
    } else if (a == "--results-dir") {
      results_dir = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) usage("--seed, --seconds and --trace are required");
  int cores = nproc();
  cfg.threads = std::max(1, std::min(4, cores));

  Outcome out;
  if (workload == "compile_suite") out = run_compile_suite(cfg);
  else if (workload == "serve_hot") out = run_serve_hot(cfg);
  else if (workload == "edit_loop") out = run_edit_loop(cfg);
  else if (workload == "run_suite") out = run_run_suite(cfg);
  else usage(("unknown workload '" + workload + "'").c_str());
  if (cfg.trace && (workload == "compile_suite" || workload == "edit_loop")) {
    RunConfig side = cfg;
    side.seconds = kSideRunSeconds;
    if (workload == "compile_suite")
      absorb(out, run_run_suite(side),
             {"interp.", "self.interp_ms", "support.", "run.", "driver.tune_"},
             "run_suite side run");
    else
      absorb(out, run_serve_hot(side),
             {"net.encode_", "net.decode_", "net.request_bytes", "net.response_bytes",
              "service.cache_find_us"},
             "serve_hot side run");
  }

  // End-to-end metrics, computed from the untraced (part of the) run, from
  // times the workloads already put at reference speed.
  size_t n = out.latency_ms.size();
  double error_rate = out.attempted ? static_cast<double>(out.failed) /
                                          static_cast<double>(out.attempted)
                                    : 1.0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> e2e = {
      {"setup_s", {median(out.setup_s), "s"}},
      {"latency_ms.p50", {quantile(out.latency_ms, 0.5), "ms"}},
      {kTailName, {quantile(out.latency_ms, kTailQ), "ms"}},
      {"throughput_ops_per_s", {out.wall_s > 0 ? static_cast<double>(out.attempted) / out.wall_s : 0, "1/s"}},
      {"success_rate", {1.0 - error_rate, "ratio"}},
      {"exec_ms", {out.exec_ms, "ms"}},
      {"speedup_geomean", {geomean(out.speedups), "x"}},
      {"peak_rss_mb", {peak_rss_mb(), "MiB"}},
  };
  if (!cfg.trace && static_cast<double>(n) * (1.0 - kTailQ) < 10.0)
    std::fprintf(stderr,
                 "perfbench: warning: %zu latency samples leave fewer than 10 "
                 "beyond %s\n",
                 n, kTailName);

  json::Value env = json::Value::object();
  env.set("workload", json::Value(workload));
  env.set("seed", json::Value(cfg.seed));
  env.set("seconds", num(cfg.seconds));
  env.set("trace", json::Value(cfg.trace));
  env.set("nproc", num(cores));
  env.set("threads", num(out.threads));
  env.set("connections", num(out.connections));
  env.set("build_type", json::Value(std::string(AP_BENCH_BUILD_TYPE)));
  env.set("optimized", json::Value(optimized_build()));
  env.set("compiler", json::Value(std::string(AP_BENCH_COMPILER)));
  env.set("git_rev", json::Value(rev));
  env.set("src_digest", json::Value(digest));
  env.set("latency_samples", json::Value(static_cast<uint64_t>(n)));
  const HostSpeed& hs = host_speed();
  env.set("compute_kernel_ms", num(hs.median_ms()));
  env.set("compute_kernel_samples", json::Value(static_cast<uint64_t>(hs.samples())));
  env.set("host_scale", num(hs.scale()));
  for (const auto& [name, v] : out.calibration) env.set(name, num(v));
  if (!optimized_build())
    std::printf("WARNING: non-optimized build (%s); timings are not comparable\n",
                AP_BENCH_BUILD_TYPE);
  std::printf("env %s\n", env.dump().c_str());

  json::Value metrics = json::Value::object();
  json::Value all = json::Value::object();
  auto emit = [&](const std::string& name, double v, const std::string& unit,
                  bool reported) {
    json::Value m = json::Value::object();
    m.set("value", num(v));
    m.set("unit", json::Value(unit));
    all.set(name, m);
    if (reported) metrics.set(name, m);
    std::printf("%-34s = %.6g %s\n", name.c_str(), v, unit.c_str());
  };
  std::printf("%-34s = %.6g ratio\n", "error_rate", error_rate);
  for (const auto& [name, vu] : e2e) emit(name, vu.first, vu.second, !cfg.trace);
  if (cfg.trace) {
    declare_layer_metrics(out);
    for (const auto& [name, vu] : out.layer) emit(name, vu.first, vu.second, true);
  }
  for (const auto& r : out.rows) std::printf("row: %s\n", r.c_str());
  for (const auto& v : out.verdicts) std::printf("verdict: %s\n", v.c_str());

  json::Value result = json::Value::object();
  result.set("correct", json::Value(out.failed == 0 && out.attempted > 0));
  result.set("attempted", json::Value(out.attempted));
  result.set("failed", json::Value(out.failed));
  result.set("metrics", metrics);

  if (!results_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(results_dir, ec);
    json::Value rec = json::Value::object();
    rec.set("env", env);
    rec.set("result", result);
    rec.set("all_metrics", all);
    json::Value verdicts = json::Value::array();
    for (const auto& v : out.verdicts) verdicts.push(json::Value(v));
    rec.set("verdicts", verdicts);
    json::Value rows = json::Value::array();
    for (const auto& r : out.rows) rows.push(json::Value(r));
    rec.set("rows", rows);
    std::ofstream f(results_dir + "/" + workload + "-seed" +
                    std::to_string(cfg.seed) + "-trace" +
                    (cfg.trace ? "1" : "0") + ".json");
    f << rec.dump() << "\n";
  }
  std::printf("%s\n", result.dump().c_str());
  return 0;
}
