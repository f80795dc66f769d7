// Pass-manager instrumentation: per-pass wall time across the 12×3 suite
// matrix, and unit-parallel vs sequential pipeline wall time.
//
// Writes BENCH_pipeline.json (also echoed to stdout): one entry per pass
// (summed ms over the whole matrix, fan-out unit count) and one entry per
// lane count with the end-to-end speedup over the sequential pipeline.
// The google-benchmark timers re-measure the two pipeline shapes under the
// standard harness.
#include <benchmark/benchmark.h>

#include <chrono>
#include <fstream>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

using namespace ap;

namespace {

int hw_threads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw ? static_cast<int>(hw) : 4;
}

const std::vector<driver::InlineConfig> kConfigs = {
    driver::InlineConfig::None, driver::InlineConfig::Conventional,
    driver::InlineConfig::Annotation};

// Run the full matrix at the given lane count; returns total wall ms.
double run_matrix_ms(int unit_threads,
                     std::vector<pm::PassRecord>* pass_totals = nullptr) {
  using clock = std::chrono::steady_clock;
  auto t0 = clock::now();
  for (const auto& app : suite::perfect_suite()) {
    for (auto cfg : kConfigs) {
      driver::PipelineOptions o;
      o.config = cfg;
      o.unit_threads = unit_threads;
      auto r = driver::run_pipeline(app, o);
      if (!r.ok) {
        std::fprintf(stderr, "FATAL: %s/%s failed:\n%s\n", app.name.c_str(),
                     driver::config_name(cfg), r.error.c_str());
        std::exit(1);
      }
      if (!pass_totals) continue;
      for (const auto& rec : r.timings.passes) {
        pm::PassRecord* slot = nullptr;
        for (auto& t : *pass_totals)
          if (t.name == rec.name) slot = &t;
        if (!slot) {
          pass_totals->push_back({rec.name, 0, 0, 0});
          slot = &pass_totals->back();
        }
        slot->wall_ms += rec.wall_ms;
        slot->units += rec.units;
        slot->diagnostics += rec.diagnostics;
      }
    }
  }
  return std::chrono::duration<double, std::milli>(clock::now() - t0).count();
}

void print_pipeline_json() {
  bench::header("PIPELINE PASSES: PER-PASS MS AND UNIT-PARALLEL SPEEDUP "
                "(BENCH_pipeline.json)");

  std::vector<pm::PassRecord> totals;
  double seq_ms = run_matrix_ms(1, &totals);

  std::string json;
  char buf[256];
  auto emit = [&](auto... args) {
    std::snprintf(buf, sizeof(buf), args...);
    json += buf;
  };
  emit("{\n  \"bench\": \"pipeline_passes\",\n  \"jobs\": %zu,\n",
       suite::perfect_suite().size() * kConfigs.size());
  emit("  \"sequential_ms\": %.3f,\n  \"passes\": [\n", seq_ms);
  for (size_t i = 0; i < totals.size(); ++i)
    emit("    {\"name\": \"%s\", \"total_ms\": %.3f, \"units\": %d, "
         "\"diagnostics\": %d}%s\n",
         totals[i].name.c_str(), totals[i].wall_ms, totals[i].units,
         totals[i].diagnostics, i + 1 < totals.size() ? "," : "");
  emit("  ],\n  \"unit_parallel\": [\n");

  std::vector<int> lane_counts = {1, 4};
  if (hw_threads() != 1 && hw_threads() != 4)
    lane_counts.push_back(hw_threads());
  for (size_t t = 0; t < lane_counts.size(); ++t) {
    double ms = run_matrix_ms(lane_counts[t]);
    emit("    {\"unit_threads\": %d, \"wall_ms\": %.3f, \"speedup\": %.2f}%s\n",
         lane_counts[t], ms, seq_ms / ms,
         t + 1 < lane_counts.size() ? "," : "");
  }
  emit("  ]\n}\n");

  std::fputs(json.c_str(), stdout);
  std::ofstream f("BENCH_pipeline.json", std::ios::trunc);
  if (f) {
    f << json;
    std::fprintf(stderr, "bench_pipeline_passes: wrote BENCH_pipeline.json\n");
  }
}

void BM_PipelineSequential(benchmark::State& state) {
  const auto* app = suite::find_app("DYFESM");
  driver::PipelineOptions o;
  o.config = driver::InlineConfig::Annotation;
  for (auto _ : state) {
    auto r = driver::run_pipeline(*app, o);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PipelineSequential);

void BM_PipelineUnitParallel(benchmark::State& state) {
  const auto* app = suite::find_app("DYFESM");
  driver::PipelineOptions o;
  o.config = driver::InlineConfig::Annotation;
  o.unit_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto r = driver::run_pipeline(*app, o);
    benchmark::DoNotOptimize(r);
  }
}
// One registration per distinct lane count: on a 4-thread host the
// hardware arg would repeat the /4 label.
BENCHMARK(BM_PipelineUnitParallel)
    ->Apply([](benchmark::internal::Benchmark* b) {
      b->Arg(4);
      if (hw_threads() != 4) b->Arg(hw_threads());
    });

}  // namespace

int main(int argc, char** argv) {
  print_pipeline_json();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
