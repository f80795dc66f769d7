// Integration tests: the full paper workflow (Fig. 1) over the mini-PERFECT
// suite, checking the Table II invariants per application and the runtime
// tester (paper §III.D) across thread counts.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "driver/passes.h"
#include "driver/pipeline.h"
#include "interp/tester.h"
#include "sema/symbols.h"
#include "suite/suite.h"
#include "support/thread_pool.h"
#include "tests/test_util.h"

namespace ap {
namespace {

using driver::InlineConfig;
using driver::PipelineOptions;
using driver::PipelineResult;

PipelineResult run(const suite::BenchmarkApp& app, InlineConfig cfg) {
  PipelineOptions opts;
  opts.config = cfg;
  PipelineResult r = driver::run_pipeline(app, opts);
  EXPECT_TRUE(r.ok) << app.name << ": " << r.error;
  return r;
}

// ---------------------------------------------------------------------------
// Table II invariants that hold for EVERY application (parameterized).
// ---------------------------------------------------------------------------

class SuiteInvariantTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SuiteInvariantTest, AnnotationInliningNeverLosesParallelLoops) {
  const auto* app = suite::find_app(GetParam());
  ASSERT_NE(app, nullptr);
  auto none = run(*app, InlineConfig::None);
  auto annot = run(*app, InlineConfig::Annotation);
  for (int64_t id : none.parallel_loops)
    EXPECT_TRUE(annot.parallel_loops.count(id))
        << app->name << ": loop " << id
        << " parallel under no-inlining but lost under annotation-based inlining";
}

TEST_P(SuiteInvariantTest, AnnotationInliningFindsAtLeastAsManyLoops) {
  const auto* app = suite::find_app(GetParam());
  ASSERT_NE(app, nullptr);
  auto none = run(*app, InlineConfig::None);
  auto annot = run(*app, InlineConfig::Annotation);
  EXPECT_GE(annot.parallel_loops.size(), none.parallel_loops.size());
}

TEST_P(SuiteInvariantTest, ReverseInliningRestoresEveryRegion) {
  const auto* app = suite::find_app(GetParam());
  ASSERT_NE(app, nullptr);
  auto annot = run(*app, InlineConfig::Annotation);
  EXPECT_EQ(annot.reverse_report.regions_failed, 0)
      << app->name << ": pattern matching fell back to call-site hints";
  // No tagged regions may survive into the final program.
  for (const auto& u : annot.program->units) {
    EXPECT_EQ(test::count_kind(*u, fir::StmtKind::TaggedRegion), 0)
        << app->name << "/" << u->name;
  }
}

TEST_P(SuiteInvariantTest, AnnotationCodeGrowthIsOnlyDirectives) {
  const auto* app = suite::find_app(GetParam());
  ASSERT_NE(app, nullptr);
  auto none = run(*app, InlineConfig::None);
  auto annot = run(*app, InlineConfig::Annotation);
  // Paper §IV.A: "the small increase in code size is mostly due to the
  // extra OpenMP directives". Allow directives plus the few declarations
  // kept alive for privatized COMMON temporaries.
  EXPECT_LE(annot.code_lines, none.code_lines + 24) << app->name;
  EXPECT_GE(annot.code_lines + 4, none.code_lines) << app->name;
}

TEST_P(SuiteInvariantTest, CallCountPreservedByAnnotationRoundTrip) {
  const auto* app = suite::find_app(GetParam());
  ASSERT_NE(app, nullptr);
  auto none = run(*app, InlineConfig::None);
  auto annot = run(*app, InlineConfig::Annotation);
  auto count_calls = [](const fir::Program& p) {
    int n = 0;
    for (const auto& u : p.units) n += test::count_kind(*u, fir::StmtKind::Call);
    return n;
  };
  EXPECT_EQ(count_calls(*none.program), count_calls(*annot.program)) << app->name;
}

TEST_P(SuiteInvariantTest, RuntimeTesterPassesUnderEveryConfig) {
  const auto* app = suite::find_app(GetParam());
  ASSERT_NE(app, nullptr);
  for (InlineConfig cfg : {InlineConfig::None, InlineConfig::Conventional,
                           InlineConfig::Annotation}) {
    auto r = run(*app, cfg);
    auto verdict = interp::compare_serial_parallel(*r.program, 4);
    EXPECT_TRUE(verdict.passed)
        << app->name << " under " << driver::config_name(cfg) << ": "
        << verdict.detail;
  }
}

TEST_P(SuiteInvariantTest, SerialExecutionDeterministicAcrossConfigs) {
  const auto* app = suite::find_app(GetParam());
  ASSERT_NE(app, nullptr);
  // The three configurations transform the program but must preserve its
  // sequential semantics: identical WRITE output.
  std::string baseline;
  for (InlineConfig cfg : {InlineConfig::None, InlineConfig::Conventional,
                           InlineConfig::Annotation}) {
    auto r = run(*app, cfg);
    interp::InterpOptions o;
    o.enable_parallel = false;
    interp::Interpreter it(*r.program, o);
    auto res = it.run();
    ASSERT_TRUE(res.ok) << app->name << "/" << driver::config_name(cfg) << ": "
                        << res.error;
    if (baseline.empty())
      baseline = res.output;
    else
      EXPECT_EQ(res.output, baseline)
          << app->name << " under " << driver::config_name(cfg);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, SuiteInvariantTest,
    ::testing::Values("ADM", "ARC2D", "FLO52Q", "OCEAN", "BDNA", "MDG", "QCD",
                      "TRFD", "DYFESM", "MG3D", "TRACK", "SPEC77"),
    [](const ::testing::TestParamInfo<std::string>& info) { return info.param; });

// ---------------------------------------------------------------------------
// Thread-count sweep for the runtime tester (annotation config only: it has
// the most parallelism to stress).
// ---------------------------------------------------------------------------

class ThreadSweepTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(ThreadSweepTest, AnnotationParallelMatchesSerial) {
  const auto* app = suite::find_app(std::get<0>(GetParam()));
  ASSERT_NE(app, nullptr);
  auto r = run(*app, InlineConfig::Annotation);
  auto verdict = interp::compare_serial_parallel(*r.program, std::get<1>(GetParam()));
  EXPECT_TRUE(verdict.passed) << verdict.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThreadSweepTest,
    ::testing::Combine(::testing::Values("TRFD", "DYFESM", "MDG", "TRACK",
                                         "SPEC77", "MG3D"),
                       ::testing::Values(2, 3, 8)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>& info) {
      return std::get<0>(info.param) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// App-specific Table II expectations (the paper's qualitative claims).
// ---------------------------------------------------------------------------

driver::Table2Row row(const char* name) {
  const auto* app = suite::find_app(name);
  EXPECT_NE(app, nullptr);
  return driver::evaluate_table2_row(*app);
}

TEST(Table2, TRFD_LinearizationLosesAndAnnotationGains) {
  auto r = row("TRFD");
  EXPECT_GT(r.loss_conv, 0);    // paper §II.A.2: dimension linearization
  EXPECT_EQ(r.extra_conv, 0);
  EXPECT_EQ(r.loss_annot, 0);
  EXPECT_GT(r.extra_annot, 0);  // the KS loop of Fig. 17
}

TEST(Table2, BDNA_ForwardSubstitutionLosesParallelism) {
  auto r = row("BDNA");
  EXPECT_GE(r.loss_conv, 3);    // PCINIT/FORCES/UPDATE copies (Figs. 2-3)
  EXPECT_EQ(r.loss_annot, 0);
  EXPECT_EQ(r.extra_annot, 0);  // annotations do not help BDNA
}

TEST(Table2, DYFESM_OpaqueSubroutineOnlyViaAnnotations) {
  auto r = row("DYFESM");
  EXPECT_EQ(r.extra_conv, 0);   // FSMP excluded: compositional + STOP
  EXPECT_EQ(r.loss_conv, 0);
  EXPECT_EQ(r.extra_annot, 2);  // the K loop (Fig. 7) and the assembly loop
  EXPECT_EQ(r.loss_annot, 0);
}

TEST(Table2, ADM_CleanCalleeHelpsBothInliners) {
  auto r = row("ADM");
  EXPECT_EQ(r.extra_conv, 3);
  EXPECT_EQ(r.extra_annot, 3);
  EXPECT_EQ(r.loss_conv, 0);
  EXPECT_EQ(r.loss_annot, 0);
}

TEST(Table2, ControlAppsUnaffectedByInlining) {
  for (const char* name : {"FLO52Q", "OCEAN"}) {
    auto r = row(name);
    EXPECT_EQ(r.par_none, r.par_conv) << name;
    EXPECT_EQ(r.par_none, r.par_annot) << name;
    EXPECT_EQ(r.lines_none, r.lines_conv) << name;
  }
}

TEST(Table2, IOInCalleesBlocksConventionalOnly) {
  for (const char* name : {"MDG", "QCD"}) {
    auto r = row(name);
    EXPECT_EQ(r.extra_conv, 0) << name;
    EXPECT_EQ(r.loss_conv, 0) << name;
    EXPECT_GT(r.extra_annot, 0) << name;
  }
}

TEST(Table2, ExternalLibraryOnlyAnnotationsApply) {
  auto r = row("MG3D");
  EXPECT_EQ(r.extra_conv, 0);
  EXPECT_EQ(r.extra_annot, 1);
}

TEST(Table2, RecursiveHelperOnlyAnnotationsApply) {
  auto r = row("SPEC77");
  EXPECT_EQ(r.extra_conv, 0);
  EXPECT_EQ(r.extra_annot, 1);
}

TEST(Table2, IndirectIndexArraysNeedUnique) {
  auto r = row("TRACK");
  EXPECT_EQ(r.extra_conv, 0);   // LINK(IOB) subscript defeats analysis
  EXPECT_EQ(r.extra_annot, 1);  // unique() certifies the permutation
}

TEST(Table2, AggregateShapeMatchesPaper) {
  int total_extra_annot = 0, total_extra_conv = 0;
  int total_loss_annot = 0, total_loss_conv = 0;
  for (const auto& app : suite::perfect_suite()) {
    auto r = driver::evaluate_table2_row(app);
    total_extra_annot += r.extra_annot;
    total_extra_conv += r.extra_conv;
    total_loss_annot += r.loss_annot;
    total_loss_conv += r.loss_conv;
  }
  // Paper §IV.A (scaled): annotation-based inlining finds strictly more
  // extra parallel loops than conventional inlining (37 vs 12 in the
  // paper), never loses any (0 vs 90), and conventional inlining loses
  // many.
  EXPECT_GT(total_extra_annot, total_extra_conv);
  EXPECT_EQ(total_loss_annot, 0);
  EXPECT_GT(total_loss_conv, total_extra_conv);
  EXPECT_GT(total_extra_annot, 8);
  EXPECT_GT(total_loss_conv, 4);
}

TEST(Table2, InliningHelpsAboutHalfTheSuite) {
  // Paper: "inlining ... is able to improve the effectiveness of automatic
  // parallelization for 6 out of the 12 PERFECT benchmarks".
  int helped = 0;
  for (const auto& app : suite::perfect_suite()) {
    auto r = driver::evaluate_table2_row(app);
    if (r.extra_annot > 0 || r.extra_conv > 0) ++helped;
  }
  EXPECT_GE(helped, 6);
  EXPECT_LE(helped, 9);
}

// ---------------------------------------------------------------------------
// Per-unit sema: the parallelize pass analyzes each unit on its own
// (sema::analyze_unit in the lane). The reference is the pass as it was
// before, kept only here: one whole-program SemaContext built at begin()
// and shared by every lane.
// ---------------------------------------------------------------------------

class WholeProgramSemaParallelize : public pm::Pass {
 public:
  explicit WholeProgramSemaParallelize(driver::PipelineContext& cx) : cx_(cx) {}
  std::string_view name() const override { return "parallelize"; }
  pm::PassKind kind() const override { return pm::PassKind::PerUnit; }

  void begin(pm::PassState& st) override {
    DiagnosticEngine scratch;
    sema_ = std::make_unique<sema::SemaContext>(*st.program, scratch);
    slots_.assign(st.program->units.size(), par::ParallelizeResult{});
  }
  void run_unit(fir::ProgramUnit& unit, size_t unit_index,
                DiagnosticEngine&) override {
    slots_[unit_index] = par::parallelize_unit(
        unit, *sema_->unit_info(unit.name), cx_.opts.par);
  }
  void end(pm::PassState&) override {
    for (auto& slot : slots_)
      par::merge_results(cx_.result->par, std::move(slot));
  }

 private:
  driver::PipelineContext& cx_;
  std::unique_ptr<sema::SemaContext> sema_;
  std::vector<par::ParallelizeResult> slots_;
};

// The pipeline's pass sequence with parallelize swapped for the reference.
PipelineResult run_whole_program_sema(const suite::BenchmarkApp& app,
                                      InlineConfig cfg, int lanes) {
  PipelineResult result;
  driver::PipelineContext cx;
  cx.app = &app;
  cx.opts.config = cfg;
  cx.result = &result;
  ThreadPool pool(lanes);
  pm::PassManagerOptions mopts;
  if (lanes > 1) mopts.pool = &pool;
  pm::PassManager manager(mopts);
  for (auto& p : driver::build_pass_sequence(cx)) {
    if (p->name() == "parallelize")
      manager.add(std::make_unique<WholeProgramSemaParallelize>(cx));
    else
      manager.add(std::move(p));
  }
  DiagnosticEngine diags;
  pm::PassState st;
  st.diags = &diags;
  EXPECT_TRUE(manager.run(st)) << app.name << ": " << manager.error();
  return result;
}

void expect_same_verdicts(const par::ParallelizeResult& a,
                          const par::ParallelizeResult& b,
                          const std::string& what) {
  EXPECT_EQ(a.parallelized, b.parallelized) << what;
  EXPECT_EQ(a.dep_tests, b.dep_tests) << what;
  EXPECT_EQ(a.dep_tests_unique, b.dep_tests_unique) << what;
  ASSERT_EQ(a.loops.size(), b.loops.size()) << what;
  for (size_t i = 0; i < a.loops.size(); ++i) {
    const par::LoopVerdict& x = a.loops[i];
    const par::LoopVerdict& y = b.loops[i];
    std::string at = what + " verdict " + std::to_string(i);
    EXPECT_EQ(x.origin_id, y.origin_id) << at;
    EXPECT_EQ(x.unit, y.unit) << at;
    EXPECT_EQ(x.do_var, y.do_var) << at;
    EXPECT_EQ(x.parallel, y.parallel) << at;
    EXPECT_EQ(x.reason, y.reason) << at;
    ASSERT_EQ(x.blockers.size(), y.blockers.size()) << at;
    for (size_t k = 0; k < x.blockers.size(); ++k) {
      EXPECT_EQ(x.blockers[k].kind, y.blockers[k].kind) << at;
      EXPECT_EQ(x.blockers[k].subject, y.blockers[k].subject) << at;
      EXPECT_EQ(x.blockers[k].detail, y.blockers[k].detail) << at;
    }
  }
}

TEST(PerUnitSema, MatchesWholeProgramContextOnEveryJob) {
  const InlineConfig configs[] = {InlineConfig::None, InlineConfig::Conventional,
                                  InlineConfig::Annotation};
  for (int lanes : {1, 4}) {
    std::map<InlineConfig, size_t> loops;
    int annotation_losses = 0;
    for (const auto& app : suite::perfect_suite()) {
      std::set<int64_t> none_loops;
      for (InlineConfig cfg : configs) {
        std::string what = app.name + " " + driver::config_name(cfg) +
                           " lanes " + std::to_string(lanes);
        PipelineOptions opts;
        opts.config = cfg;
        opts.unit_threads = lanes;
        PipelineResult got = driver::run_pipeline(app, opts);
        ASSERT_TRUE(got.ok) << what << ": " << got.error;
        PipelineResult want = run_whole_program_sema(app, cfg, lanes);
        expect_same_verdicts(got.par, want.par, what);
        EXPECT_EQ(got.program_text, want.program_text) << what;
        EXPECT_EQ(got.parallel_loops, want.parallel_loops) << what;
        loops[cfg] += got.parallel_loops.size();
        if (cfg == InlineConfig::None) none_loops = got.parallel_loops;
        if (cfg == InlineConfig::Annotation)
          for (int64_t id : none_loops)
            annotation_losses += got.parallel_loops.count(id) ? 0 : 1;
      }
    }
    // Table II: 104 / 99 / 117 parallel loops, no annotation losses.
    EXPECT_EQ(loops[InlineConfig::None], 104u) << "lanes " << lanes;
    EXPECT_EQ(loops[InlineConfig::Conventional], 99u) << "lanes " << lanes;
    EXPECT_EQ(loops[InlineConfig::Annotation], 117u) << "lanes " << lanes;
    EXPECT_EQ(annotation_losses, 0) << "lanes " << lanes;
  }
}

}  // namespace
}  // namespace ap
