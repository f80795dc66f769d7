// Editor-loop latency for the pass-boundary snapshot protocol (src/incr +
// src/pm): cold compiles vs. warmed one-unit edits, plus an every-unit
// edit, on DYFESM (the 12-unit suite app), per inlining configuration.
//
//   cold               — fresh pipeline, no unit cache (the baseline)
//   full               — warmed cache: unchanged units restore their
//                        parallelize snapshot (the one boundary) and skip
//                        the analysis entirely
//   all_units_edit     — warmed cache, every unit mutated: nothing
//                        reusable, the incremental floor
//
// The edited unit is the one whose directed CALL/COMMON closure is
// smallest — what an editor loop touches most of the time. Two properties
// are gated, not just trended:
//   structural — on the no-inlining config (post-parallelize units match
//     source units one-to-one) a leaf edit must reuse EXACTLY
//     units − |closure| snapshots per round, and the all-units edit must
//     reuse none (no over-invalidation, no stale reuse);
//   ordering — cold touches no boundary, and full touches exactly the
//     parallelize boundary, restoring there exactly the closure-derived
//     reuse bound.
// Latency is reported for trend tracking only, with the full-edit/cold
// ratio per config computed from the rows: DYFESM cold-compiles in about
// a millisecond, too little for a latency gate to be stable.
//
// The headline block is printed to stdout AND written to BENCH_incr.json
// (schema_version 3: scenarios cold, full_edit and all_units_edit; each
// carries the invalidation split and a "boundaries" map of hits/misses
// per snapshot boundary from the pass records). CI uploads it as an
// artifact.
//
// `--smoke` runs a reduced round count, skips the google-benchmark timers,
// and exits nonzero unless both gates hold.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "fir/parser.h"
#include "incr/depgraph.h"
#include "incr/fingerprint.h"
#include "incr/unit_cache.h"
#include "support/diagnostics.h"

using namespace ap;

namespace {

using clock_type = std::chrono::steady_clock;

const suite::BenchmarkApp& dyfesm() {
  static suite::BenchmarkApp app = *suite::find_app("DYFESM");
  return app;
}

double ms_since(clock_type::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - t0)
      .count();
}

// The unit whose edit invalidates the fewest units under the directed
// dependence graph — plus that invalidation count. Computed once.
struct LeafEdit {
  std::string unit;
  size_t invalidated = 0;  // |invalidated_by_edit(unit)|
  size_t units = 0;
};

const LeafEdit& leaf_edit() {
  static LeafEdit leaf = [] {
    DiagnosticEngine diags;
    auto prog = fir::parse_program(dyfesm().source, diags);
    incr::UnitDepGraph g = incr::build_dep_graph(*prog);
    LeafEdit best;
    best.units = g.names.size();
    best.invalidated = SIZE_MAX;
    for (const auto& name : g.names) {
      size_t cost = incr::invalidated_by_edit(g, name).size();
      if (cost < best.invalidated) { best.invalidated = cost; best.unit = name; }
    }
    return best;
  }();
  return leaf;
}

// Source with every unit mutated (salt varied per unit): fully invalidated.
std::string mutate_all_units(const std::string& source, int salt) {
  std::string out = source;
  int i = 0;
  for (const auto& name : incr::source_unit_names(source))
    out = incr::mutate_unit(out, name, salt + i++);
  return out;
}

// Aggregated artifact outcome at one snapshot boundary, summed over rounds.
struct BoundaryAgg {
  size_t hits = 0, misses = 0, disk = 0, peer = 0, invalidated = 0;
};

struct Scenario {
  double mean_ms = 0;
  double min_ms = 0;    // best-of-rounds; reported in the gate block
  double hit_rate = 0;  // unit hits / unit lookups at the deepest boundary
  size_t unit_hits = 0;
  size_t unit_misses = 0;
  size_t unit_invalidated = 0;
  std::map<std::string, BoundaryAgg> boundaries;
};

struct ConfigRuns {
  Scenario cold, full, all_edit;
  size_t units = 0;
};

// Runs `rounds` compiles of sources produced by make_source(r) against
// opts, accumulating latency, result-level counters, and the per-boundary
// split from the pass records.
template <typename MakeSource>
void measure(Scenario* s, const driver::PipelineOptions& opts, int rounds,
             MakeSource make_source) {
  s->min_ms = 1e300;
  for (int r = 0; r < rounds; ++r) {
    suite::BenchmarkApp edited = dyfesm();
    edited.source = make_source(r);
    auto t0 = clock_type::now();
    auto res = driver::run_pipeline(edited, opts);
    double ms = ms_since(t0);
    s->mean_ms += ms;
    s->min_ms = std::min(s->min_ms, ms);
    if (!res.ok) {
      std::fprintf(stderr, "bench_incr: compile failed: %s\n",
                   res.error.c_str());
      std::exit(1);
    }
    s->unit_hits += res.unit_hits;
    s->unit_misses += res.unit_misses;
    s->unit_invalidated += res.unit_invalidated;
    for (const auto& rec : res.timings.passes) {
      if (rec.unit_hits + rec.unit_misses == 0) continue;
      BoundaryAgg& b = s->boundaries[rec.name];
      b.hits += rec.unit_hits;
      b.misses += rec.unit_misses;
      b.disk += rec.unit_disk_hits;
      b.peer += rec.unit_peer_hits;
      b.invalidated += rec.unit_invalidated;
    }
  }
  s->mean_ms /= rounds;
  size_t lookups = s->unit_hits + s->unit_misses;
  s->hit_rate = lookups ? static_cast<double>(s->unit_hits) / lookups : 0.0;
}

ConfigRuns measure_config(driver::InlineConfig cfg, int rounds) {
  const suite::BenchmarkApp& app = dyfesm();
  ConfigRuns runs;
  runs.units = incr::source_unit_names(app.source).size();

  driver::PipelineOptions cold_opts;
  cold_opts.config = cfg;
  measure(&runs.cold, cold_opts, rounds, [&](int) { return app.source; });

  auto leaf_source = [&](int r) {
    return incr::mutate_unit(app.source, leaf_edit().unit, 1000 + r);
  };

  {
    incr::UnitCache cache(4096);
    driver::PipelineOptions opts = cold_opts;
    opts.unit_cache = &cache;
    (void)driver::run_pipeline(app, opts);  // warm
    measure(&runs.full, opts, rounds, leaf_source);
    measure(&runs.all_edit, opts, rounds,
            [&](int r) { return mutate_all_units(app.source, 5000 + r); });
  }
  return runs;
}

void append_scenario(std::string* out, const char* key, const Scenario& s,
                     bool last = false) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "      \"%s\": {\"mean_ms\": %.3f, \"min_ms\": %.3f, "
                "\"unit_hit_rate\": %.3f, \"unit_hits\": %zu, "
                "\"unit_misses\": %zu, \"unit_invalidated\": %zu",
                key, s.mean_ms, s.min_ms, s.hit_rate, s.unit_hits,
                s.unit_misses, s.unit_invalidated);
  *out += buf;
  if (!s.boundaries.empty()) {
    *out += ", \"boundaries\": {";
    size_t i = 0;
    for (const auto& [name, b] : s.boundaries) {
      std::snprintf(buf, sizeof buf,
                    "\"%s\": {\"hits\": %zu, \"misses\": %zu, \"disk\": %zu, "
                    "\"peer\": %zu, \"invalidated\": %zu}%s",
                    name.c_str(), b.hits, b.misses, b.disk, b.peer,
                    b.invalidated,
                    ++i < s.boundaries.size() ? ", " : "");
      *out += buf;
    }
    *out += "}";
  }
  *out += last ? "}\n" : "},\n";
}

// Returns true when both smoke gates hold (structural + ordering).
bool run_headline(int rounds, bool write_file) {
  bench::header("INCREMENTAL EDIT LOOP: COLD VS ONE-UNIT EDIT VS "
                "ALL-UNITS EDIT (BENCH_incr.json)");

  const struct { const char* name; driver::InlineConfig cfg; } configs[] = {
      {"no-inlining", driver::InlineConfig::None},
      {"conventional", driver::InlineConfig::Conventional},
      {"annotation-based", driver::InlineConfig::Annotation}};

  std::string out;
  out += "{\n  \"bench\": \"incr_edit\",\n  \"schema_version\": 3,\n"
         "  \"app\": \"DYFESM\",\n";
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "  \"edited_unit\": \"%s\",\n  \"edit_invalidates\": %zu,\n"
                "  \"rounds\": %d,\n",
                leaf_edit().unit.c_str(), leaf_edit().invalidated, rounds);
  out += buf;
  out += "  \"configs\": {\n";

  ConfigRuns gate_runs;
  std::string ratios;  // full-edit / cold, per config, from the rows
  for (size_t c = 0; c < 3; ++c) {
    ConfigRuns runs = measure_config(configs[c].cfg, rounds);
    if (configs[c].cfg == driver::InlineConfig::None) gate_runs = runs;
    double ratio = runs.full.mean_ms / runs.cold.mean_ms;
    std::printf("%-18s cold %7.3f ms | full %7.3f ms (hit rate %.2f, "
                "%.2fx cold) | all-units %7.3f ms\n",
                configs[c].name, runs.cold.mean_ms, runs.full.mean_ms,
                runs.full.hit_rate, ratio, runs.all_edit.mean_ms);
    std::snprintf(buf, sizeof buf, "%s%s %.2fx", ratios.empty() ? "" : ", ",
                  configs[c].name, ratio);
    ratios += buf;
    out += std::string("    \"") + configs[c].name + "\": {\n";
    std::snprintf(buf, sizeof buf, "      \"units\": %zu,\n", runs.units);
    out += buf;
    append_scenario(&out, "cold", runs.cold);
    append_scenario(&out, "full_edit", runs.full);
    append_scenario(&out, "all_units_edit", runs.all_edit, /*last=*/true);
    out += c + 1 < 3 ? "    },\n" : "    }\n";
  }
  out += "  },\n";

  // Structural gate on the no-inlining config, where post-parallelize
  // units match source units one-to-one: a leaf edit must reuse exactly
  // units − |closure| snapshots per round at the deepest boundary, and
  // the all-units edit must reuse nothing.
  size_t expected_reuse = gate_runs.units - leaf_edit().invalidated;
  size_t expected_hits = expected_reuse * static_cast<size_t>(rounds);
  bool exact_reuse = gate_runs.full.unit_hits == expected_hits;
  bool no_stale_reuse = gate_runs.all_edit.unit_hits == 0;
  // Ordering gate (deterministic — latency at this app size is only
  // trended): cold touches no boundary; full touches exactly the one
  // snapshot boundary, parallelize, and restores there exactly the
  // closure-derived count.
  auto boundary_hits = [](const Scenario& s, const char* name) {
    auto it = s.boundaries.find(name);
    return it == s.boundaries.end() ? size_t{0} : it->second.hits;
  };
  bool one_boundary = gate_runs.cold.boundaries.empty() &&
                      gate_runs.full.boundaries.size() == 1 &&
                      gate_runs.full.boundaries.count("parallelize") == 1;
  bool restores_exact =
      boundary_hits(gate_runs.full, "parallelize") == expected_hits;
  bool gate = exact_reuse && no_stale_reuse && expected_reuse > 0 &&
              one_boundary && restores_exact;
  std::snprintf(
      buf, sizeof buf,
      "  \"gate\": {\"cold_ms\": %.3f, \"full_ms\": %.3f, "
      "\"expected_reuse_per_round\": %zu, "
      "\"exact_reuse\": %s, \"no_stale_reuse\": %s, "
      "\"one_boundary\": %s, \"restores_exact\": %s}\n}\n",
      gate_runs.cold.min_ms, gate_runs.full.min_ms, expected_reuse,
      exact_reuse ? "true" : "false", no_stale_reuse ? "true" : "false",
      one_boundary ? "true" : "false", restores_exact ? "true" : "false");
  out += buf;

  std::fputs(out.c_str(), stdout);
  if (write_file) {
    if (std::FILE* f = std::fopen("BENCH_incr.json", "w")) {
      std::fwrite(out.data(), 1, out.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "bench_incr: wrote BENCH_incr.json\n");
    } else {
      std::fprintf(stderr, "bench_incr: could not write BENCH_incr.json\n");
    }
  }
  std::fprintf(stderr,
               "bench_incr: edit %s invalidates %zu/%zu units; one-unit edit "
               "vs cold latency (mean): %s\n",
               leaf_edit().unit.c_str(), leaf_edit().invalidated,
               gate_runs.units, ratios.c_str());
  return gate;
}

void BM_ColdCompile(benchmark::State& state) {
  driver::PipelineOptions opts;
  opts.config = driver::InlineConfig::Annotation;
  for (auto _ : state)
    benchmark::DoNotOptimize(driver::run_pipeline(dyfesm(), opts));
}
BENCHMARK(BM_ColdCompile)->Unit(benchmark::kMillisecond);

void BM_OneUnitEditWarm(benchmark::State& state) {
  const suite::BenchmarkApp& app = dyfesm();
  incr::UnitCache cache(4096);
  driver::PipelineOptions opts;
  opts.config = driver::InlineConfig::Annotation;
  opts.unit_cache = &cache;
  (void)driver::run_pipeline(app, opts);
  int salt = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ++salt;
    suite::BenchmarkApp edited = app;
    edited.source = incr::mutate_unit(app.source, leaf_edit().unit, salt);
    state.ResumeTiming();
    benchmark::DoNotOptimize(driver::run_pipeline(edited, opts));
  }
}
BENCHMARK(BM_OneUnitEditWarm)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  bool gate = run_headline(/*rounds=*/smoke ? 3 : 10, /*write_file=*/true);
  if (smoke) {
    if (!gate) {
      std::fprintf(stderr,
                   "bench_incr: SMOKE FAIL — unit reuse did not match the "
                   "dependence-closure bound, or a boundary other than "
                   "parallelize snapshotted (see the \"gate\" block in "
                   "BENCH_incr.json)\n");
      return 1;
    }
    std::fprintf(stderr, "bench_incr: smoke gate passed\n");
    return 0;
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
