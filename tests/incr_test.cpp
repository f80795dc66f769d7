// Tests for the unit-granular incremental compilation cache (src/incr):
// token-level unit fingerprints, the CALL/COMMON dependence graph (directed
// summary-dependence rule and the bidirectional verification mode) and its
// invalidation sets, content-only plan keys (the parse pass's plan equals
// make_plan's), snapshot (de)serialization, the tiered unit-artifact cache
// with its live memory tier and peer hooks, and — the load-bearing
// property — that incremental recompiles are bit-identical to cold
// compiles for every suite app under every inlining configuration,
// including under randomized single-unit edits, hits served only by the
// disk tier, and both dependence modes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "driver/passes.h"
#include "driver/pipeline.h"
#include "fir/parser.h"
#include "fir/unparse.h"
#include "incr/depgraph.h"
#include "incr/fingerprint.h"
#include "incr/plan.h"
#include "incr/unit_cache.h"
#include "incr/unit_serial.h"
#include "interp/interp.h"
#include "suite/suite.h"
#include "support/diagnostics.h"
#include "support/fnv.h"
#include "tests/test_util.h"

namespace ap {
namespace {

namespace fs = std::filesystem;
using driver::InlineConfig;
using driver::PipelineOptions;
using driver::PipelineResult;

// A unique per-test temp directory, removed on scope exit.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("ap_incr_test_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

// A six-unit app with a deliberately shaped dependence graph:
//
//   DRIVER --calls--> INITA, WORKB, LEAF
//   INITA  --calls--> HUB       INITA <--/SHARED/--> CDEF
//   WORKB  --calls--> HUB
//   HUB, LEAF, CDEF: no outgoing edges
//
// INITA and CDEF each both read and write S1, so their COMMON edges point
// both ways. COMMON edges are one-hop summary dependence: closure(CDEF)
// = {CDEF, INITA} — CDEF consults INITA's read/write summary, which does
// not embed HUB's text, so HUB stays out even though INITA calls it. CALL
// edges stay transitive: closure(INITA) = {INITA, HUB, CDEF} and
// closure(DRIVER) = everything. LEAF is the satellite's "leaf unit", CDEF
// the "COMMON-defining unit", HUB the "hub called by everyone".
suite::BenchmarkApp shaped_app() {
  suite::BenchmarkApp app;
  app.name = "SHAPED";
  app.description = "dependence-graph shape fixture";
  app.source = R"(
      PROGRAM DRIVER
      DOUBLE PRECISION R(64)
      CALL INITA(R)
      CALL WORKB(R)
      CALL LEAF(R)
      S = 0.0D0
      DO 90 I = 1, 64
        S = S + R(I)
90    CONTINUE
      WRITE(*,*) 'SHAPED CHECKSUM', S
      END

      SUBROUTINE INITA(R)
      DOUBLE PRECISION R(64)
      COMMON /SHARED/ S1(64)
      DO 10 I = 1, 64
        S1(I) = I * 0.5D0
10    CONTINUE
      DO 11 I = 1, 64
        R(I) = S1(I)
11    CONTINUE
      CALL HUB(R, 1)
      END

      SUBROUTINE WORKB(R)
      DOUBLE PRECISION R(64)
      DO 20 I = 1, 64
        R(I) = R(I) + I * 0.25D0
20    CONTINUE
      CALL HUB(R, 2)
      END

      SUBROUTINE HUB(R, K)
      DOUBLE PRECISION R(64)
      DO 30 I = 1, 64
        R(I) = R(I) + K * 0.125D0
30    CONTINUE
      END

      SUBROUTINE CDEF
      COMMON /SHARED/ S1(64)
      DO 40 I = 1, 64
        S1(I) = S1(I) * 1.5D0
40    CONTINUE
      END

      SUBROUTINE LEAF(R)
      DOUBLE PRECISION R(64)
      DO 50 I = 1, 64
        R(I) = R(I) + 1.0D0
50    CONTINUE
      END
)";
  return app;
}

// Every comparison the service caches care about: the final program text,
// the paper metrics, and the full per-loop verdict list.
void expect_identical(const PipelineResult& a, const PipelineResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.ok, b.ok) << what;
  ASSERT_TRUE(a.program != nullptr) << what;
  ASSERT_TRUE(b.program != nullptr) << what;
  EXPECT_EQ(fir::unparse(*a.program), fir::unparse(*b.program)) << what;
  EXPECT_EQ(a.program_text, b.program_text) << what;
  EXPECT_EQ(a.parallel_loops, b.parallel_loops) << what;
  EXPECT_EQ(a.code_lines, b.code_lines) << what;
  EXPECT_EQ(a.par.parallelized, b.par.parallelized) << what;
  EXPECT_EQ(a.par.dep_tests, b.par.dep_tests) << what;
  EXPECT_EQ(a.par.dep_tests_unique, b.par.dep_tests_unique) << what;
  ASSERT_EQ(a.par.loops.size(), b.par.loops.size()) << what;
  for (size_t i = 0; i < a.par.loops.size(); ++i) {
    const auto& la = a.par.loops[i];
    const auto& lb = b.par.loops[i];
    EXPECT_EQ(la.origin_id, lb.origin_id) << what << " loop " << i;
    EXPECT_EQ(la.unit, lb.unit) << what << " loop " << i;
    EXPECT_EQ(la.do_var, lb.do_var) << what << " loop " << i;
    EXPECT_EQ(la.parallel, lb.parallel) << what << " loop " << i;
    EXPECT_EQ(la.reason, lb.reason) << what << " loop " << i;
    EXPECT_EQ(la.blockers.size(), lb.blockers.size()) << what << " loop " << i;
  }
}

// Execute both programs on `engine` and require identical RunResults.
void expect_identical_runs(const fir::Program& a, const fir::Program& b,
                           interp::Engine engine, const std::string& what) {
  interp::InterpOptions io;
  io.engine = engine;
  io.num_threads = 1;
  interp::RunResult ra = interp::Interpreter(a, io).run();
  interp::RunResult rb = interp::Interpreter(b, io).run();
  EXPECT_EQ(ra.ok, rb.ok) << what;
  EXPECT_EQ(ra.output, rb.output) << what;
  EXPECT_EQ(ra.stop_message, rb.stop_message) << what;
  EXPECT_EQ(ra.statements_executed, rb.statements_executed) << what;
  EXPECT_EQ(ra.statements_in_parallel, rb.statements_in_parallel) << what;
}

std::set<std::string> closure_names(const incr::UnitDepGraph& g,
                                    const std::string& name) {
  std::set<std::string> out;
  for (size_t i : g.closure[g.index.at(name)]) out.insert(g.names[i]);
  return out;
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

TEST(Fingerprint, SplitMatchesParseForEverySuiteApp) {
  for (const auto& app : suite::perfect_suite()) {
    auto fps = incr::fingerprint_units(app.source, app.annotations);
    ASSERT_TRUE(fps.ok) << app.name;
    auto prog = test::parse_ok(app.source);
    ASSERT_TRUE(prog) << app.name;
    ASSERT_EQ(fps.units.size(), prog->units.size()) << app.name;
    for (size_t i = 0; i < fps.units.size(); ++i)
      EXPECT_EQ(fps.units[i].name, prog->units[i]->name)
          << app.name << " unit " << i;
  }
}

TEST(Fingerprint, EditChangesExactlyTheEditedUnit) {
  auto app = shaped_app();
  auto before = incr::fingerprint_units(app.source, app.annotations);
  ASSERT_TRUE(before.ok);
  std::string edited = incr::mutate_unit(app.source, "WORKB", 7);
  ASSERT_NE(edited, app.source);
  auto after = incr::fingerprint_units(edited, app.annotations);
  ASSERT_TRUE(after.ok);
  ASSERT_EQ(before.units.size(), after.units.size());
  for (size_t i = 0; i < before.units.size(); ++i) {
    ASSERT_EQ(before.units[i].name, after.units[i].name);
    if (before.units[i].name == "WORKB")
      EXPECT_NE(before.units[i].fp, after.units[i].fp);
    else
      EXPECT_EQ(before.units[i].fp, after.units[i].fp) << before.units[i].name;
  }
}

TEST(Fingerprint, CommentAndBlankLineEditsChangeNothing) {
  auto app = shaped_app();
  auto before = incr::fingerprint_units(app.source, app.annotations);
  ASSERT_TRUE(before.ok);
  // A comment inside LEAF and a blank line inside HUB: the lexer drops
  // both, so every fingerprint must survive byte-for-byte.
  std::string edited = app.source;
  size_t at = edited.find("      SUBROUTINE LEAF");
  ASSERT_NE(at, std::string::npos);
  edited.insert(at, "C a developer comment that must not invalidate\n");
  size_t hub = edited.find("      SUBROUTINE HUB");
  ASSERT_NE(hub, std::string::npos);
  edited.insert(hub, "\n\n");
  auto after = incr::fingerprint_units(edited, app.annotations);
  ASSERT_TRUE(after.ok);
  ASSERT_EQ(before.units.size(), after.units.size());
  for (size_t i = 0; i < before.units.size(); ++i)
    EXPECT_EQ(before.units[i].fp, after.units[i].fp) << before.units[i].name;
}

TEST(Fingerprint, AnnotationEditInvalidatesOnlyTheNamedUnit) {
  auto app = suite::make_adm();  // annotates SMOOTH
  auto before = incr::fingerprint_units(app.source, app.annotations);
  ASSERT_TRUE(before.ok);
  std::string annots = app.annotations;
  size_t at = annots.find("COL[1:64]");
  ASSERT_NE(at, std::string::npos);
  annots.replace(at, 9, "COL[2:63]");
  auto after = incr::fingerprint_units(app.source, annots);
  ASSERT_TRUE(after.ok);
  ASSERT_EQ(before.units.size(), after.units.size());
  for (size_t i = 0; i < before.units.size(); ++i) {
    if (before.units[i].name == "SMOOTH")
      EXPECT_NE(before.units[i].fp, after.units[i].fp);
    else
      EXPECT_EQ(before.units[i].fp, after.units[i].fp) << before.units[i].name;
  }
}

TEST(Fingerprint, OrphanAnnotationEntrySaltsEveryUnit) {
  auto app = suite::make_adm();
  auto before = incr::fingerprint_units(app.source, app.annotations);
  ASSERT_TRUE(before.ok);
  std::string annots = app.annotations +
                       "\nsubroutine NOSUCHUNIT(X) {\n  dimension X[4];\n}\n";
  auto after = incr::fingerprint_units(app.source, annots);
  ASSERT_TRUE(after.ok);
  for (size_t i = 0; i < before.units.size(); ++i)
    EXPECT_NE(before.units[i].fp, after.units[i].fp) << before.units[i].name;
}

TEST(Fingerprint, MutateUnitUnknownNameReturnsInputUnchanged) {
  auto app = shaped_app();
  EXPECT_EQ(incr::mutate_unit(app.source, "NOSUCH", 3), app.source);
}

// ---------------------------------------------------------------------------
// Dependence graph
// ---------------------------------------------------------------------------

TEST(DepGraph, ExactClosuresOnShapedApp) {
  auto app = shaped_app();
  auto prog = test::parse_ok(app.source);
  ASSERT_TRUE(prog);
  auto g = incr::build_dep_graph(*prog);
  ASSERT_EQ(g.names.size(), 6u);

  EXPECT_EQ(closure_names(g, "LEAF"), (std::set<std::string>{"LEAF"}));
  EXPECT_EQ(closure_names(g, "HUB"), (std::set<std::string>{"HUB"}));
  EXPECT_EQ(closure_names(g, "WORKB"),
            (std::set<std::string>{"HUB", "WORKB"}));
  EXPECT_EQ(closure_names(g, "INITA"),
            (std::set<std::string>{"CDEF", "HUB", "INITA"}));
  // One-hop summary dependence: CDEF consults INITA's read/write summary,
  // not INITA's inlined text, so INITA's callee HUB stays out.
  EXPECT_EQ(closure_names(g, "CDEF"),
            (std::set<std::string>{"CDEF", "INITA"}));
  EXPECT_EQ(closure_names(g, "DRIVER"),
            (std::set<std::string>{"CDEF", "DRIVER", "HUB", "INITA", "LEAF",
                                   "WORKB"}));
}

TEST(DepGraph, InvalidationSetsForLeafCommonAndHubEdits) {
  auto app = shaped_app();
  auto prog = test::parse_ok(app.source);
  ASSERT_TRUE(prog);
  auto g = incr::build_dep_graph(*prog);

  // (a) leaf unit: only itself and the units that (transitively) call it.
  EXPECT_EQ(incr::invalidated_by_edit(g, "LEAF"),
            (std::set<std::string>{"DRIVER", "LEAF"}));
  // (b) COMMON-defining unit: its block sharers and their callers, even
  // though nothing ever CALLs it.
  EXPECT_EQ(incr::invalidated_by_edit(g, "CDEF"),
            (std::set<std::string>{"CDEF", "DRIVER", "INITA"}));
  // (c) hub called by everyone that calls: its callers, but NOT CDEF —
  // CDEF's dependence on INITA is summary-level, and HUB cannot change
  // INITA's read/write summary.
  EXPECT_EQ(incr::invalidated_by_edit(g, "HUB"),
            (std::set<std::string>{"DRIVER", "HUB", "INITA", "WORKB"}));
  // Unknown units invalidate only themselves.
  EXPECT_EQ(incr::invalidated_by_edit(g, "NOSUCH"),
            (std::set<std::string>{"NOSUCH"}));
}

// The saturation-breaking property of directed mode: COMMON dependence is
// one hop (the reader needs the writer's own fingerprint, because the
// read/write summary is intraprocedural), so an edit to the WRITER's
// helper callee does not leak to the reader. Bidirectional mode, which
// closes every edge transitively, does leak it — that is exactly the
// over-invalidation the directed rule removes.
TEST(DepGraph, CommonSummaryDependenceIsOneHop) {
  const char* src = R"(
      PROGRAM TOP
      CALL WRITER
      CALL READER
      END

      SUBROUTINE WRITER
      COMMON /B/ X(8)
      CALL HELPER
      DO 10 I = 1, 8
        X(I) = I * 2.0
10    CONTINUE
      END

      SUBROUTINE HELPER
      T = 1.0
      DO 20 I = 1, 4
        T = T + I
20    CONTINUE
      END

      SUBROUTINE READER
      COMMON /B/ X(8)
      S = 0.0
      DO 30 I = 1, 8
        S = S + X(I)
30    CONTINUE
      WRITE(*,*) S
      END
)";
  auto prog = test::parse_ok(src);
  ASSERT_TRUE(prog);

  auto g = incr::build_dep_graph(*prog, incr::DepMode::Directed);
  // READER depends on WRITER (it writes X) but not on WRITER's callee.
  EXPECT_EQ(closure_names(g, "READER"),
            (std::set<std::string>{"READER", "WRITER"}));
  EXPECT_EQ(closure_names(g, "WRITER"),
            (std::set<std::string>{"HELPER", "WRITER"}));
  // Editing the helper invalidates its callers, not the COMMON reader.
  EXPECT_EQ(incr::invalidated_by_edit(g, "HELPER"),
            (std::set<std::string>{"HELPER", "TOP", "WRITER"}));
  // Editing the read-only READER invalidates no sharer.
  EXPECT_EQ(incr::invalidated_by_edit(g, "READER"),
            (std::set<std::string>{"READER", "TOP"}));

  auto b = incr::build_dep_graph(*prog, incr::DepMode::Bidirectional);
  // The symmetric rule chains READER -> WRITER -> HELPER.
  EXPECT_EQ(closure_names(b, "READER"),
            (std::set<std::string>{"HELPER", "READER", "WRITER"}));
  EXPECT_TRUE(incr::invalidated_by_edit(b, "HELPER").count("READER"));
  EXPECT_TRUE(incr::invalidated_by_edit(b, "READER").count("WRITER"));
}

// Sharers that disagree on a block's member list are positionally coupled;
// name matching is meaningless, so the block falls back to symmetric
// edges — even between two units that only read it.
TEST(DepGraph, LayoutMismatchFallsBackToSymmetricEdges) {
  const char* src = R"(
      PROGRAM TOP
      WRITE(*,*) 'OK'
      END

      SUBROUTINE RA
      COMMON /B/ X(4)
      S = X(1)
      WRITE(*,*) S
      END

      SUBROUTINE RB
      COMMON /B/ Y(4)
      T = Y(2)
      WRITE(*,*) T
      END
)";
  auto prog = test::parse_ok(src);
  ASSERT_TRUE(prog);
  auto g = incr::build_dep_graph(*prog, incr::DepMode::Directed);
  EXPECT_EQ(closure_names(g, "RA"), (std::set<std::string>{"RA", "RB"}));
  EXPECT_EQ(closure_names(g, "RB"), (std::set<std::string>{"RA", "RB"}));
  EXPECT_EQ(incr::invalidated_by_edit(g, "RA"),
            (std::set<std::string>{"RA", "RB"}));
}

// The tentpole measurement on the real fixture: DYFESM's main program
// initialises most COMMON members and calls most units, so the symmetric
// rule (and a naively transitive directed rule) saturates — any edit
// invalidates 11 of 12 units. Directed one-hop COMMON dependence keeps a
// FORMP edit down to {FORMP, its caller FSMP, the main program}: 9 of 12
// units reusable, against the 1/12 ceiling.
TEST(DepGraph, DirectedDyfesmFormpEditInvalidatesOnlyCallChain) {
  const suite::BenchmarkApp* app = suite::find_app("DYFESM");
  ASSERT_TRUE(app != nullptr);
  auto prog = test::parse_ok(app->source);
  ASSERT_TRUE(prog);
  ASSERT_EQ(prog->units.size(), 12u);

  auto g = incr::build_dep_graph(*prog, incr::DepMode::Directed);
  EXPECT_EQ(incr::invalidated_by_edit(g, "FORMP"),
            (std::set<std::string>{"DYFESM", "FORMP", "FSMP"}));
  // A subroutine's closure reaches the main program (which writes what it
  // reads) but stops there — no cycle back through the call tree.
  EXPECT_EQ(closure_names(g, "GETCR"),
            (std::set<std::string>{"DYFESM", "GETCR"}));

  auto b = incr::build_dep_graph(*prog, incr::DepMode::Bidirectional);
  EXPECT_EQ(incr::invalidated_by_edit(b, "FORMP").size(), 11u);

  // Directed never invalidates more than bidirectional, for any edit.
  for (const auto& name : g.names) {
    auto dv = incr::invalidated_by_edit(g, name);
    auto bv = incr::invalidated_by_edit(b, name);
    for (const auto& u : dv)
      EXPECT_TRUE(bv.count(u)) << "edit " << name << " unit " << u;
  }
}

// ---------------------------------------------------------------------------
// Plan
// ---------------------------------------------------------------------------

TEST(Plan, UsableForEverySuiteAppAndKeyedByClosure) {
  for (const auto& app : suite::perfect_suite()) {
    auto plan = incr::make_plan(app.source, app.annotations);
    EXPECT_TRUE(plan.usable) << app.name;
    EXPECT_FALSE(plan.entries.empty()) << app.name;
  }
}

TEST(Plan, UnusableOnUnsplittableSource) {
  auto plan = incr::make_plan("X = 1\n", "");
  EXPECT_FALSE(plan.usable);
}

TEST(Plan, EditChangesExactlyTheInvalidatedKeys) {
  auto app = shaped_app();
  auto before = incr::make_plan(app.source, app.annotations);
  ASSERT_TRUE(before.usable);
  std::string edited = incr::mutate_unit(app.source, "CDEF", 11);
  auto after = incr::make_plan(edited, app.annotations);
  ASSERT_TRUE(after.usable);
  std::set<std::string> expected{"CDEF", "DRIVER", "INITA"};
  for (const auto& [name, entry] : before.entries) {
    const incr::PlanEntry* e = after.find(name);
    ASSERT_TRUE(e != nullptr) << name;
    if (expected.count(name))
      EXPECT_NE(entry.key, e->key) << name;
    else
      EXPECT_EQ(entry.key, e->key) << name;
    // Only the edited unit's own fingerprint moves.
    if (name == "CDEF")
      EXPECT_NE(entry.own_fp, e->own_fp);
    else
      EXPECT_EQ(entry.own_fp, e->own_fp) << name;
  }
}

// A generated program in tests/fuzz_test.cpp's style, shaped for the
// dependence graph: 3-8 subroutines sharing three COMMON blocks under
// random read/write patterns (block /B2/'s member order differs in some
// sharers, which forces the layout-mismatch fallback), a random acyclic
// call graph, and now and then a C$LIBRARY routine.
suite::BenchmarkApp generated_app(uint32_t seed) {
  std::mt19937 rng(seed);
  auto pick = [&](int n) { return static_cast<int>(rng() % n); };
  const int subs = 3 + pick(6);
  std::string src;
  int label = 10;
  for (int self = 0; self <= subs; ++self) {
    if (self == 0) {
      src += "      PROGRAM GMAIN\n";
    } else {
      if (pick(6) == 0) src += "C$LIBRARY\n";
      src += "      SUBROUTINE GS" + std::to_string(self) + "\n";
    }
    std::vector<std::string> blocks;
    for (int b = 0; b < 3; ++b) {
      if (self > 0 && pick(2) == 0) continue;  // the main unit declares all
      std::string n = std::to_string(b);
      std::string x = "X" + n + "(16)", y = "Y" + n + "(16)";
      bool swapped = b == 2 && pick(3) == 0;
      src += "      COMMON /B" + n + "/ " + (swapped ? y + ", " + x : x + ", " + y) +
             "\n";
      blocks.push_back(n);
    }
    for (const std::string& n : blocks) {
      std::string l = std::to_string(label++);
      src += "      DO " + l + " I = 1, 16\n";
      switch (pick(3)) {
        case 0: src += "        X" + n + "(I) = Y" + n + "(I) + 1.0D0\n"; break;
        case 1: src += "        T = T + X" + n + "(I)\n"; break;  // reads only
        default: src += "        Y" + n + "(I) = X" + n + "(I) * 0.5D0\n";
      }
      src += l + "    CONTINUE\n";
    }
    for (int k = self + 1; k <= subs; ++k)
      if (pick(3) == 0) src += "      CALL GS" + std::to_string(k) + "\n";
    src += "      END\n\n";
  }
  suite::BenchmarkApp app;
  app.name = "GEN" + std::to_string(seed);
  app.source = std::move(src);
  return app;
}

// The plan the parse pass builds from its own tokens and AST.
incr::IncrPlan plan_from_parse_pass(const suite::BenchmarkApp& app,
                                    incr::DepMode mode) {
  incr::UnitCache cache(8);
  incr::PassArtifacts artifacts(&cache, "parallelize", 0);
  PipelineResult result;
  driver::PipelineContext cx;
  cx.app = &app;
  cx.opts.bidirectional_common = mode == incr::DepMode::Bidirectional;
  cx.artifacts = &artifacts;
  cx.result = &result;
  auto seq = driver::build_pass_sequence(cx);
  DiagnosticEngine diags;
  pm::PassState st;
  st.diags = &diags;
  seq.front()->run(st);
  EXPECT_FALSE(st.failed) << app.name << ": " << st.error;
  return artifacts.plan();
}

void expect_same_plan(const incr::IncrPlan& a, const incr::IncrPlan& b,
                      const std::string& what) {
  ASSERT_TRUE(a.usable) << what;
  ASSERT_EQ(a.usable, b.usable) << what;
  ASSERT_EQ(a.entries.size(), b.entries.size()) << what;
  for (const auto& [name, entry] : a.entries) {
    const incr::PlanEntry* e = b.find(name);
    ASSERT_TRUE(e != nullptr) << what << " " << name;
    EXPECT_EQ(entry.key, e->key) << what << " " << name;
    EXPECT_EQ(entry.own_fp, e->own_fp) << what << " " << name;
  }
}

// One front end per request must not change a single key: the parse
// pass's plan (tokens lexed once, graph from the pass's own AST) equals
// make_plan over the raw request, in both dependence modes.
TEST(Plan, ParsePassPlanEqualsMakePlanForSuiteAndGeneratedPrograms) {
  std::vector<suite::BenchmarkApp> apps = suite::perfect_suite();
  ASSERT_EQ(apps.size(), 12u);
  for (uint32_t seed = 1; seed <= 24; ++seed)
    apps.push_back(generated_app(seed));
  for (const auto& app : apps) {
    for (auto mode : {incr::DepMode::Directed, incr::DepMode::Bidirectional}) {
      std::string what = app.name + (mode == incr::DepMode::Directed
                                          ? " directed"
                                          : " bidirectional");
      expect_same_plan(plan_from_parse_pass(app, mode),
                       incr::make_plan(app.source, app.annotations, mode),
                       what);
    }
  }
}

// ---------------------------------------------------------------------------
// Summary memo
// ---------------------------------------------------------------------------

// make_plan with a SummaryMemo, from the pipeline's own tokens and AST.
incr::IncrPlan memo_plan(const std::string& source,
                         const std::string& annotations, incr::DepMode mode,
                         incr::SummaryMemo& memo) {
  DiagnosticEngine diags;
  auto toks = fir::lex(source, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.render_all();
  auto fps = incr::fingerprint_units(toks, annotations);
  auto prog = fir::parse_tokens(std::move(toks), diags);
  EXPECT_TRUE(prog) << diags.render_all();
  if (!prog) return {};
  return incr::make_plan(fps, *prog, mode, &memo);
}

// Memoized summaries and graphs never change a key: every suite app and
// generated program, in both modes, twice through one shared memo (the
// second pass is served from it), against a memo-less make_plan.
TEST(SummaryMemo, KeysEqualMemolessPlanForSuiteAndGeneratedPrograms) {
  std::vector<suite::BenchmarkApp> apps = suite::perfect_suite();
  for (uint32_t seed = 1; seed <= 24; ++seed)
    apps.push_back(generated_app(seed));
  incr::UnitCache cache(4096);
  incr::SummaryMemo& memo = cache.summaries();
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& app : apps) {
      for (auto mode : {incr::DepMode::Directed, incr::DepMode::Bidirectional}) {
        std::string what = app.name + " pass " + std::to_string(pass) +
                           (mode == incr::DepMode::Directed ? " directed"
                                                            : " bidirectional");
        expect_same_plan(memo_plan(app.source, app.annotations, mode, memo),
                         incr::make_plan(app.source, app.annotations, mode),
                         what);
      }
    }
  }
  EXPECT_GT(memo.stats().summaries_reused, 0u);
}

// A main program and three subroutines sharing /C/; unit A holds one
// literal, CALLs `a_calls` and assigns `a_assign`.
std::string memo_program(const std::string& literal, const std::string& a_calls,
                         const std::string& a_assign) {
  return "      PROGRAM MAIN\n"
         "      COMMON /C/ X, Y\n"
         "      X = 1.0\n"
         "      CALL A\n"
         "      CALL B\n"
         "      END\n"
         "      SUBROUTINE A\n"
         "      COMMON /C/ X, Y\n"
         "      " + a_assign + " + " + literal + "\n" +
         (a_calls.empty() ? "" : "      CALL " + a_calls + "\n") +
         "      END\n"
         "      SUBROUTINE B\n"
         "      COMMON /C/ X, Y\n"
         "      T = Y\n"
         "      END\n"
         "      SUBROUTINE LEAF\n"
         "      Z = 1.0\n"
         "      END\n";
}

// An edit sequence through one memo: a literal edit recomputes one summary
// and reuses the graph; a changed CALL target and then changed COMMON
// writes each miss the graph memo and move the closures. Every step keys
// exactly as a memo-less plan.
TEST(SummaryMemo, EditSequenceRebuildsTheGraphOnlyWhenASummaryChanges) {
  incr::SummaryMemo memo;
  auto step = [&](const std::string& src, const std::string& what) {
    incr::IncrPlan got = memo_plan(src, "", incr::DepMode::Directed, memo);
    expect_same_plan(got, incr::make_plan(src, ""), what);
    return got;
  };

  incr::IncrPlan base = step(memo_program("2.0", "", "Y = X"), "base");
  incr::SummaryMemo::Stats s0 = memo.stats();
  EXPECT_EQ(s0.summaries_computed, 4u);
  EXPECT_EQ(s0.graphs_built, 1u);

  // Literal edit in A: A's key and MAIN's (A is in MAIN's call closure)
  // and B's (B reads Y, which A writes) move; LEAF's does not.
  incr::IncrPlan lit = step(memo_program("3.0", "", "Y = X"), "literal");
  incr::SummaryMemo::Stats s1 = memo.stats();
  EXPECT_EQ(s1.summaries_computed - s0.summaries_computed, 1u);
  EXPECT_EQ(s1.summaries_reused - s0.summaries_reused, 3u);
  EXPECT_EQ(s1.graphs_reused - s0.graphs_reused, 1u);
  EXPECT_EQ(s1.graphs_built, s0.graphs_built);
  EXPECT_NE(lit.find("A")->key, base.find("A")->key);
  EXPECT_NE(lit.find("MAIN")->key, base.find("MAIN")->key);
  EXPECT_NE(lit.find("B")->key, base.find("B")->key);
  EXPECT_EQ(lit.find("LEAF")->key, base.find("LEAF")->key);

  // A now CALLs LEAF: A's summary changes, the graph is rebuilt, and
  // LEAF joins A's closure — so editing LEAF would now reach A.
  const std::string calls = memo_program("3.0", "LEAF", "Y = X");
  incr::IncrPlan call = step(calls, "call target");
  incr::SummaryMemo::Stats s2 = memo.stats();
  EXPECT_EQ(s2.summaries_computed - s1.summaries_computed, 1u);
  EXPECT_EQ(s2.graphs_built - s1.graphs_built, 1u);
  EXPECT_EQ(s2.graphs_reused, s1.graphs_reused);
  std::string leaf_edited = calls;
  leaf_edited.replace(leaf_edited.find("Z = 1.0"), 7, "Z = 5.0");
  EXPECT_NE(incr::make_plan(leaf_edited, "").find("A")->key,
            call.find("A")->key);

  // A now writes X instead of Y: nothing writes the Y that B reads, so
  // B's closure loses A and B's key changes with the graph.
  incr::IncrPlan writes = step(memo_program("3.0", "LEAF", "X = Y"), "writes");
  incr::SummaryMemo::Stats s3 = memo.stats();
  EXPECT_EQ(s3.summaries_computed - s2.summaries_computed, 1u);
  EXPECT_EQ(s3.graphs_built - s2.graphs_built, 1u);
  EXPECT_NE(writes.find("B")->key, call.find("B")->key);
  EXPECT_EQ(memo.entries(), 4u);  // one summary per unit name
}

// A program of the edit benchmark's size: a main program CALLing 132
// subroutines that share four COMMON blocks, some calling the next; unit
// Wk's coefficient literal is coeffs[k - 1].
std::string wide_program(const std::vector<std::string>& coeffs) {
  const size_t subs = coeffs.size();
  std::string src = "      PROGRAM WMAIN\n";
  for (size_t b = 0; b < 4; ++b)
    src += "      COMMON /W" + std::to_string(b) + "/ P" + std::to_string(b) +
           "(64), Q" + std::to_string(b) + "(64)\n";
  for (size_t k = 1; k <= subs; ++k) src += "      CALL W" + std::to_string(k) + "\n";
  src += "      END\n";
  for (size_t k = 1; k <= subs; ++k) {
    std::string b = std::to_string(k % 4), l = std::to_string(10 + k);
    src += "      SUBROUTINE W" + std::to_string(k) + "\n";
    src += "      COMMON /W" + b + "/ P" + b + "(64), Q" + b + "(64)\n";
    src += "      DO " + l + " I = 1, 64\n";
    src += "        P" + b + "(I) = Q" + b + "(I) * " + coeffs[k - 1] + "\n";
    src += "   " + l + " CONTINUE\n";
    if (k % 7 == 0 && k < subs) src += "      CALL W" + std::to_string(k + 1) + "\n";
    src += "      END\n";
  }
  return src;
}

// The served edit's case: a literal-only edit of one unit of a 133-unit
// program summarizes that unit alone and reuses the graph, and the plan's
// keys still equal a memo-less plan's; the pipeline's parse pass goes
// through the same memo.
TEST(SummaryMemo, LiteralEditOfWideProgramRecomputesOneSummary) {
  incr::UnitCache cache(4096);
  incr::SummaryMemo& memo = cache.summaries();
  std::vector<std::string> coeffs(132, "1.5");
  const std::string base = wide_program(coeffs);
  expect_same_plan(memo_plan(base, "", incr::DepMode::Directed, memo),
                   incr::make_plan(base, ""), "base");
  ASSERT_EQ(memo.entries(), 133u);
  for (size_t edited : {1u, 57u, 132u, 57u}) {
    coeffs[edited - 1] += "5";
    const std::string src = wide_program(coeffs);
    incr::SummaryMemo::Stats before = memo.stats();
    expect_same_plan(memo_plan(src, "", incr::DepMode::Directed, memo),
                     incr::make_plan(src, ""), "W" + std::to_string(edited));
    incr::SummaryMemo::Stats after = memo.stats();
    EXPECT_EQ(after.summaries_computed - before.summaries_computed, 1u);
    EXPECT_EQ(after.summaries_reused - before.summaries_reused, 132u);
    EXPECT_EQ(after.graphs_reused - before.graphs_reused, 1u);
    EXPECT_EQ(after.graphs_built, before.graphs_built);
  }

  // Through the pipeline: an edited compile with the unit cache attached.
  suite::BenchmarkApp app;
  app.name = "WIDE";
  coeffs[89] = "4.5";
  app.source = wide_program(coeffs);
  PipelineOptions opts;
  opts.unit_cache = &cache;
  incr::SummaryMemo::Stats before = memo.stats();
  PipelineResult r = driver::run_pipeline(app, opts);
  ASSERT_TRUE(r.ok) << r.error;
  incr::SummaryMemo::Stats after = memo.stats();
  EXPECT_EQ(after.summaries_computed - before.summaries_computed, 1u);
  EXPECT_EQ(after.graphs_reused - before.graphs_reused, 1u);
  EXPECT_EQ(memo.entries(), 133u);
}

// Plan keys are content-only (the artifact layer adds option hashes per
// boundary): the same source always produces the same keys, and the two
// dependence modes differ exactly where their closures differ.
TEST(Plan, KeysAreContentOnlyAndModeAware) {
  const suite::BenchmarkApp* app = suite::find_app("DYFESM");
  ASSERT_TRUE(app != nullptr);
  auto a = incr::make_plan(app->source, app->annotations);
  auto b = incr::make_plan(app->source, app->annotations);
  ASSERT_TRUE(a.usable);
  ASSERT_TRUE(b.usable);
  for (const auto& [name, entry] : a.entries)
    EXPECT_EQ(entry.key, b.find(name)->key) << name;

  auto bid = incr::make_plan(app->source, app->annotations,
                             incr::DepMode::Bidirectional);
  ASSERT_TRUE(bid.usable);
  // GETCR's closure is {DYFESM, GETCR} directed vs all 12 bidirectional.
  EXPECT_NE(a.find("GETCR")->key, bid.find("GETCR")->key);
  // CHOFAC shares no COMMON block: closure {CHOFAC} in both modes.
  EXPECT_EQ(a.find("CHOFAC")->key, bid.find("CHOFAC")->key);
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

incr::UnitSnapshot sample_snapshot() {
  incr::UnitSnapshot snap;
  snap.do_count = 5;
  fir::OmpInfo omp;
  omp.parallel = true;
  omp.privates = {"I", "T"};
  omp.firstprivates = {"S"};
  omp.reductions.push_back({"+", "ACC"});
  omp.nowait = true;
  snap.marks.push_back({2, omp});
  fir::OmpInfo plain;
  plain.parallel = true;
  snap.marks.push_back({4, plain});
  par::LoopVerdict v;
  v.origin_id = 42;
  v.unit = "WORKB";
  v.do_var = "I";
  v.parallel = false;
  v.reason = "scalar S written";
  par::Blocker b;
  b.kind = par::Blocker::Kind::Scalar;
  b.subject = "S";
  v.blockers.push_back(b);
  snap.par.loops.push_back(v);
  snap.par.parallelized = 1;
  snap.par.dep_tests = 17;
  snap.par.dep_tests_unique = 9;
  return snap;
}

TEST(Snapshot, SerializeRoundTripPreservesEverything) {
  incr::UnitSnapshot snap = sample_snapshot();
  std::string text = serialize_snapshot(snap);
  auto back = incr::deserialize_snapshot(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->do_count, snap.do_count);
  ASSERT_EQ(back->marks.size(), snap.marks.size());
  EXPECT_EQ(back->marks[0].do_index, 2u);
  EXPECT_TRUE(back->marks[0].omp.parallel);
  EXPECT_EQ(back->marks[0].omp.privates, snap.marks[0].omp.privates);
  EXPECT_EQ(back->marks[0].omp.firstprivates,
            snap.marks[0].omp.firstprivates);
  ASSERT_EQ(back->marks[0].omp.reductions.size(), 1u);
  EXPECT_EQ(back->marks[0].omp.reductions[0].op, "+");
  EXPECT_EQ(back->marks[0].omp.reductions[0].var, "ACC");
  EXPECT_TRUE(back->marks[0].omp.nowait);
  EXPECT_EQ(back->marks[1].do_index, 4u);
  ASSERT_EQ(back->par.loops.size(), 1u);
  EXPECT_EQ(back->par.loops[0].origin_id, 42);
  EXPECT_EQ(back->par.loops[0].unit, "WORKB");
  EXPECT_EQ(back->par.loops[0].reason, "scalar S written");
  ASSERT_EQ(back->par.loops[0].blockers.size(), 1u);
  EXPECT_EQ(back->par.loops[0].blockers[0].kind, par::Blocker::Kind::Scalar);
  EXPECT_EQ(back->par.loops[0].blockers[0].subject, "S");
  EXPECT_EQ(back->par.parallelized, 1);
  EXPECT_EQ(back->par.dep_tests, 17u);
  EXPECT_EQ(back->par.dep_tests_unique, 9u);
}

TEST(Snapshot, DeserializeRejectsGarbageAndWrongVersion) {
  EXPECT_FALSE(incr::deserialize_snapshot("").has_value());
  EXPECT_FALSE(incr::deserialize_snapshot("not a snapshot").has_value());
  std::string bytes = serialize_snapshot(sample_snapshot());
  ASSERT_TRUE(incr::deserialize_snapshot(bytes).has_value());
  ASSERT_EQ(bytes[0], static_cast<char>(incr::kSnapshotMagic));
  ASSERT_EQ(bytes[1], static_cast<char>(incr::kUnitCacheFormatVersion));
  std::string wrong = bytes;
  wrong.replace(1, 1, "\xe7\x07");  // varint 999
  EXPECT_FALSE(incr::deserialize_snapshot(wrong).has_value());
}

// Snapshot records arrive from disk and from peers (unit_fill): the
// seeded truncation and mutation pass over a record with every part set.
TEST(Snapshot, TruncatedAndMutatedRecordsNeverCrashTheDecoder) {
  std::string bytes = serialize_snapshot(sample_snapshot());
  std::mt19937 rng(20110913);
  test::expect_mutants_fail_cleanly(
      bytes, rng, "snapshot", [](const std::string& m) {
        auto back = incr::deserialize_snapshot(m);
        if (back) (void)serialize_snapshot(*back);
        return back.has_value();
      });
}

TEST(Snapshot, ApplyRejectsDoShapeMismatch) {
  auto app = shaped_app();
  auto prog = test::parse_ok(app.source);
  ASSERT_TRUE(prog);
  fir::ProgramUnit* unit = prog->find_unit("WORKB");
  ASSERT_TRUE(unit != nullptr);
  incr::UnitSnapshot snap;
  snap.do_count = 99;  // WORKB has one DO loop
  EXPECT_FALSE(incr::apply_snapshot(*unit, snap));
  snap.do_count = 1;
  snap.marks.push_back({7, fir::OmpInfo{}});  // index out of range
  EXPECT_FALSE(incr::apply_snapshot(*unit, snap));
}

// incr/unit_serial: an exact AST round trip.
TEST(Snapshot, UnitSerialRoundTripIsExact) {
  for (const char* name : {"DYFESM", "TRFD"}) {
    const suite::BenchmarkApp* app = suite::find_app(name);
    ASSERT_TRUE(app != nullptr) << name;
    auto prog = test::parse_ok(app->source);
    ASSERT_TRUE(prog) << name;
    for (const auto& unit : prog->units) {
      std::string payload = incr::serialize_unit(*unit);
      auto back = incr::deserialize_unit(payload);
      ASSERT_TRUE(back.has_value() && *back) << name << "/" << unit->name;
      EXPECT_EQ(fir::unparse_unit(**back), fir::unparse_unit(*unit))
          << name << "/" << unit->name;
      // Semantic fields the unparser does not show must round-trip too.
      std::vector<int64_t> ids_a, ids_b;
      fir::walk_stmts(unit->body, [&](const fir::Stmt& s) {
        if (s.kind == fir::StmtKind::Do) ids_a.push_back(s.origin_id);
        return true;
      });
      fir::walk_stmts((*back)->body, [&](const fir::Stmt& s) {
        if (s.kind == fir::StmtKind::Do) ids_b.push_back(s.origin_id);
        return true;
      });
      EXPECT_EQ(ids_a, ids_b) << name << "/" << unit->name;
    }
  }
  EXPECT_FALSE(incr::deserialize_unit("").has_value());
  EXPECT_FALSE(incr::deserialize_unit("APUSER 1 garbage").has_value());
}

// ---------------------------------------------------------------------------
// Unit cache store
// ---------------------------------------------------------------------------

// A live snapshot told apart from others by its dep_tests counter.
incr::SnapshotPtr tagged_snapshot(size_t tag) {
  incr::UnitSnapshot snap = sample_snapshot();
  snap.par.dep_tests = tag;
  return std::make_shared<const incr::UnitSnapshot>(std::move(snap));
}

std::string tagged_bytes(size_t tag) {
  return serialize_snapshot(*tagged_snapshot(tag));
}

TEST(UnitCacheStore, MemoryLruEvictsOldest) {
  incr::UnitCache cache(2);
  cache.store("parallelize", 1, 101, tagged_snapshot(1));
  cache.store("parallelize", 2, 102, tagged_snapshot(2));
  // 1 is now MRU.
  EXPECT_TRUE(cache.find("parallelize", 1, 101).snapshot);
  cache.store("parallelize", 3, 103, tagged_snapshot(3));  // evicts 2
  EXPECT_EQ(cache.memory_entries(), 2u);
  auto r1 = cache.find("parallelize", 1, 101);
  ASSERT_TRUE(r1.snapshot);
  EXPECT_EQ(r1.snapshot->par.dep_tests, 1u);
  EXPECT_EQ(r1.tier, incr::UnitTier::Memory);
  EXPECT_FALSE(cache.find("parallelize", 2, 102).snapshot);
  EXPECT_TRUE(cache.find("parallelize", 3, 103).snapshot);
  incr::IncrStats s = cache.stats();
  EXPECT_EQ(s.stores, 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.memory_hits, 3u);
  EXPECT_EQ(s.misses, 1u);
}

// The memory tier shares the stored object itself: a hit neither parses
// nor copies.
TEST(UnitCacheStore, MemoryHitSharesTheStoredSnapshot) {
  incr::UnitCache cache(8);
  incr::SnapshotPtr snap = tagged_snapshot(5);
  cache.store("parallelize", 1, 11, snap);
  auto hit = cache.find("parallelize", 1, 11);
  EXPECT_EQ(hit.snapshot.get(), snap.get());
  // The wire edge still sees the serialized snapshot record.
  ASSERT_TRUE(cache.peek(1).has_value());
  EXPECT_EQ(*cache.peek(1), serialize_snapshot(*snap));
}

TEST(UnitCacheStore, DiskTierSurvivesRestartAndPromotes) {
  TempDir dir("disk");
  uint64_t key = 0xabcdef12345678ull;
  {
    incr::UnitCache cache(8, dir.path.string());
    cache.store("parallelize", key, 7, tagged_snapshot(17));
  }
  incr::UnitCache cache(8, dir.path.string());
  EXPECT_EQ(cache.memory_entries(), 0u);
  auto hit = cache.find("parallelize", key, 7);  // disk hit, promoted
  ASSERT_TRUE(hit.snapshot);
  EXPECT_EQ(hit.tier, incr::UnitTier::Disk);
  EXPECT_EQ(hit.snapshot->par.dep_tests, 17u);
  EXPECT_EQ(cache.memory_entries(), 1u);
  EXPECT_EQ(cache.find("parallelize", key, 7).tier, incr::UnitTier::Memory);
  incr::IncrStats s = cache.stats();
  EXPECT_EQ(s.disk_hits, 1u);
  EXPECT_EQ(s.memory_hits, 1u);
}

TEST(UnitCacheStore, MissWithKnownFingerprintCountsAsInvalidated) {
  incr::UnitCache cache(8);
  cache.store("parallelize", /*key=*/100, /*own_fp=*/55, tagged_snapshot(1));
  // Same unit fingerprint under a new key: a dependency changed.
  auto r = cache.find("parallelize", /*key=*/200, /*own_fp=*/55);
  EXPECT_FALSE(r.snapshot);
  EXPECT_TRUE(r.invalidated);
  // Unknown fingerprint: a plain (cold or self-edit) miss.
  r = cache.find("parallelize", /*key=*/300, /*own_fp=*/66);
  EXPECT_FALSE(r.snapshot);
  EXPECT_FALSE(r.invalidated);
  incr::IncrStats s = cache.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.invalidated_by_dep, 1u);
}

TEST(UnitCacheStore, StatsAreKeptPerBoundary) {
  incr::UnitCache cache(8);
  cache.store("first", 1, 11, tagged_snapshot(1));
  cache.store("parallelize", 2, 22, tagged_snapshot(2));
  EXPECT_TRUE(cache.find("first", 1, 11).snapshot);
  EXPECT_FALSE(cache.find("parallelize", 9, 22).snapshot);
  auto by = cache.boundary_stats();
  ASSERT_TRUE(by.count("first"));
  ASSERT_TRUE(by.count("parallelize"));
  EXPECT_EQ(by["first"].memory_hits, 1u);
  EXPECT_EQ(by["first"].misses, 0u);
  EXPECT_EQ(by["parallelize"].memory_hits, 0u);
  EXPECT_EQ(by["parallelize"].misses, 1u);
  EXPECT_EQ(by["parallelize"].invalidated_by_dep, 1u);
  incr::IncrStats total = cache.stats();
  EXPECT_EQ(total.memory_hits, 1u);
  EXPECT_EQ(total.misses, 1u);
  EXPECT_EQ(total.stores, 2u);
}

// The peer tier: a local miss consults the hook and adopts the payload;
// peek/adopt (the wire-serving entry points) never recurse into the hooks.
TEST(UnitCacheStore, PeerHookServesMissesWithoutRecursion) {
  incr::UnitCache cache(8);
  int lookups = 0, fills = 0;
  std::string filled;
  cache.set_peer_lookup(
      [&](const std::string& boundary, uint64_t key)
          -> std::optional<std::string> {
        ++lookups;
        EXPECT_EQ(boundary, "parallelize");
        if (key == 7) return tagged_bytes(70);
        if (key == 8) return std::string("not a snapshot");
        return std::nullopt;
      });
  cache.set_store_hook(
      [&](const std::string&, uint64_t, const std::string& payload) {
        ++fills;
        filled = payload;
      });

  auto r = cache.find("parallelize", 7, 1);
  ASSERT_TRUE(r.snapshot);
  EXPECT_EQ(r.snapshot->par.dep_tests, 70u);
  EXPECT_EQ(r.tier, incr::UnitTier::Peer);
  EXPECT_EQ(lookups, 1);
  // The adopted payload was NOT replicated back (no fill recursion).
  EXPECT_EQ(fills, 0);
  // Second find: served from memory, no second probe.
  EXPECT_EQ(cache.find("parallelize", 7, 1).tier, incr::UnitTier::Memory);
  EXPECT_EQ(lookups, 1);
  // A peer answer that does not decode is a miss, like no answer.
  EXPECT_FALSE(cache.find("parallelize", 8, 2).snapshot);
  EXPECT_EQ(lookups, 2);
  incr::IncrStats s = cache.stats();
  EXPECT_EQ(s.peer_hits, 1u);
  EXPECT_EQ(s.misses, 1u);

  // peek (peer-serving read) never consults the peer hook, and serves
  // the bytes the peer sent.
  EXPECT_FALSE(cache.peek(9).has_value());
  EXPECT_EQ(lookups, 2);
  ASSERT_TRUE(cache.peek(7).has_value());
  EXPECT_EQ(*cache.peek(7), tagged_bytes(70));
  // adopt (peer-pushed fill) never fires the store hook, and refuses
  // bytes that do not decode.
  EXPECT_TRUE(cache.adopt("parallelize", 10, tagged_bytes(100)));
  EXPECT_FALSE(cache.adopt("parallelize", 12, "pushed"));
  EXPECT_EQ(fills, 0);
  EXPECT_TRUE(cache.peek(10).has_value());
  EXPECT_FALSE(cache.peek(12).has_value());
  // A local store DOES fire it (replication to peers), with the bytes.
  cache.store("parallelize", 11, 3, tagged_snapshot(110));
  EXPECT_EQ(fills, 1);
  EXPECT_EQ(filled, tagged_bytes(110));
}

// ---------------------------------------------------------------------------
// End-to-end: incremental == cold
// ---------------------------------------------------------------------------

TEST(Incremental, WarmRecompileIsBitIdenticalForAllAppsAndConfigs) {
  for (const auto& app : suite::perfect_suite()) {
    for (InlineConfig cfg : {InlineConfig::None, InlineConfig::Conventional,
                             InlineConfig::Annotation}) {
      incr::UnitCache cache(4096);
      PipelineOptions opts;
      opts.config = cfg;
      PipelineResult cold = driver::run_pipeline(app, opts);
      ASSERT_TRUE(cold.ok) << app.name;

      PipelineOptions iopts = opts;
      iopts.unit_cache = &cache;
      PipelineResult fill = driver::run_pipeline(app, iopts);
      PipelineResult warm = driver::run_pipeline(app, iopts);
      std::string what =
          app.name + std::string("/") + driver::config_name(cfg);
      expect_identical(fill, cold, what + " (fill)");
      expect_identical(warm, cold, what + " (warm)");
      // The fill run computes everything; the warm run computes nothing.
      EXPECT_EQ(fill.unit_hits, 0u) << what;
      EXPECT_GT(fill.unit_misses, 0u) << what;
      EXPECT_GT(warm.unit_hits, 0u) << what;
      EXPECT_EQ(warm.unit_misses, 0u) << what;
      // parallelize is the one snapshot boundary: normalize recomputes.
      const pm::PassRecord* nrec = warm.timings.find("normalize");
      ASSERT_TRUE(nrec != nullptr) << what;
      EXPECT_EQ(nrec->unit_hits + nrec->unit_misses, 0) << what;
    }
  }
}

TEST(Incremental, SeededEditsExactCountersAndIdenticalRuns) {
  auto app = shaped_app();
  struct Case {
    const char* unit;
    size_t invalidated_set;  // |invalidated_by_edit|, edited unit included
  };
  // The closure sizes proven exact in DepGraph.InvalidationSets...
  const Case cases[] = {{"LEAF", 2}, {"CDEF", 3}, {"HUB", 4}};
  for (const auto& c : cases) {
    incr::UnitCache cache(4096);
    PipelineOptions opts;  // config None: all six units survive to the end
    opts.unit_cache = &cache;
    PipelineResult fill = driver::run_pipeline(app, opts);
    ASSERT_TRUE(fill.ok);
    EXPECT_EQ(fill.unit_misses, 6u) << c.unit;

    suite::BenchmarkApp edited = app;
    edited.source = incr::mutate_unit(app.source, c.unit, 31);
    ASSERT_NE(edited.source, app.source) << c.unit;

    PipelineResult incr_r = driver::run_pipeline(edited, opts);
    ASSERT_TRUE(incr_r.ok) << c.unit;
    // Exactly the dependence closure recompiles; of those, all but the
    // edited unit itself are misses with an unchanged own fingerprint.
    EXPECT_EQ(incr_r.unit_misses, c.invalidated_set) << c.unit;
    EXPECT_EQ(incr_r.unit_hits, 6u - c.invalidated_set) << c.unit;
    EXPECT_EQ(incr_r.unit_invalidated, c.invalidated_set - 1) << c.unit;

    PipelineOptions cold_opts;
    PipelineResult cold = driver::run_pipeline(edited, cold_opts);
    ASSERT_TRUE(cold.ok) << c.unit;
    expect_identical(incr_r, cold, std::string("edit ") + c.unit);
    expect_identical_runs(*incr_r.program, *cold.program,
                          interp::Engine::Tree,
                          std::string("tree run, edit ") + c.unit);
    expect_identical_runs(*incr_r.program, *cold.program,
                          interp::Engine::Bytecode,
                          std::string("bytecode run, edit ") + c.unit);
  }
}

// The tentpole end-to-end: an editor loop touching DYFESM's FORMP reuses
// 9 of 12 units under directed dependence; the bidirectional verification
// mode reuses only 1 of 12 (the COMMON-free CHOFAC) — and both produce
// output bit-identical to a cold compile.
TEST(Incremental, DyfesmFormpEditReusesNineOfTwelveUnits) {
  const suite::BenchmarkApp* app = suite::find_app("DYFESM");
  ASSERT_TRUE(app != nullptr);

  incr::UnitCache directed_cache(4096);
  incr::UnitCache bidir_cache(4096);
  PipelineOptions dopts;
  dopts.unit_cache = &directed_cache;
  PipelineOptions bopts;
  bopts.unit_cache = &bidir_cache;
  bopts.bidirectional_common = true;

  PipelineResult dfill = driver::run_pipeline(*app, dopts);
  PipelineResult bfill = driver::run_pipeline(*app, bopts);
  ASSERT_TRUE(dfill.ok);
  ASSERT_TRUE(bfill.ok);
  EXPECT_EQ(dfill.unit_misses, 12u);

  suite::BenchmarkApp edited = *app;
  edited.source = incr::mutate_unit(app->source, "FORMP", 17);
  ASSERT_NE(edited.source, app->source);

  PipelineResult directed = driver::run_pipeline(edited, dopts);
  PipelineResult bidir = driver::run_pipeline(edited, bopts);
  ASSERT_TRUE(directed.ok);
  ASSERT_TRUE(bidir.ok);

  // Directed: only {FORMP, FSMP, DYFESM} recompile.
  EXPECT_EQ(directed.unit_hits, 9u);
  EXPECT_EQ(directed.unit_misses, 3u);
  EXPECT_EQ(directed.unit_invalidated, 2u);
  // Bidirectional: the 1/12 reuse ceiling (CHOFAC shares no COMMON).
  EXPECT_EQ(bidir.unit_hits, 1u);
  EXPECT_EQ(bidir.unit_misses, 11u);

  PipelineOptions cold_opts;
  PipelineResult cold = driver::run_pipeline(edited, cold_opts);
  ASSERT_TRUE(cold.ok);
  expect_identical(directed, cold, "DYFESM directed");
  expect_identical(bidir, cold, "DYFESM bidirectional");
  expect_identical_runs(*directed.program, *cold.program,
                        interp::Engine::Bytecode, "DYFESM directed run");
}

// Differential proof over the whole suite: directed and bidirectional
// dependence produce bit-identical results after any single-unit edit;
// directed never reuses less.
TEST(Incremental, DirectedAndBidirectionalModesAreBitIdentical) {
  std::mt19937 rng(20260809);
  for (const auto& app : suite::perfect_suite()) {
    std::vector<std::string> units = incr::source_unit_names(app.source);
    ASSERT_FALSE(units.empty()) << app.name;
    incr::UnitCache dcache(4096);
    incr::UnitCache bcache(4096);
    PipelineOptions dopts;
    dopts.unit_cache = &dcache;
    PipelineOptions bopts;
    bopts.unit_cache = &bcache;
    bopts.bidirectional_common = true;
    ASSERT_TRUE(driver::run_pipeline(app, dopts).ok) << app.name;
    ASSERT_TRUE(driver::run_pipeline(app, bopts).ok) << app.name;

    size_t pick = rng() % units.size();
    int salt = static_cast<int>(rng() % 100000);
    suite::BenchmarkApp edited = app;
    edited.source = incr::mutate_unit(app.source, units[pick], salt);
    ASSERT_NE(edited.source, app.source) << app.name << " " << units[pick];

    PipelineResult directed = driver::run_pipeline(edited, dopts);
    PipelineResult bidir = driver::run_pipeline(edited, bopts);
    std::string what = app.name + std::string(" edit ") + units[pick];
    expect_identical(directed, bidir, what);
    EXPECT_GE(directed.unit_hits, bidir.unit_hits) << what;
  }
}

TEST(Incremental, RandomizedSingleUnitEditsStayBitIdentical) {
  // A fixed seed keeps the walk reproducible; the property under test is
  // that *any* single-unit edit leaves incremental == cold, with the cache
  // carried across edits the way an editor loop would.
  std::mt19937 rng(20260808);
  for (const char* name : {"DYFESM", "TRFD"}) {
    const suite::BenchmarkApp* app = suite::find_app(name);
    ASSERT_TRUE(app != nullptr) << name;
    std::vector<std::string> units = incr::source_unit_names(app->source);
    ASSERT_FALSE(units.empty()) << name;
    for (InlineConfig cfg : {InlineConfig::None, InlineConfig::Annotation}) {
      incr::UnitCache cache(4096);
      PipelineOptions iopts;
      iopts.config = cfg;
      iopts.unit_cache = &cache;
      ASSERT_TRUE(driver::run_pipeline(*app, iopts).ok) << name;
      for (int iter = 0; iter < 4; ++iter) {
        size_t pick = rng() % units.size();
        int salt = static_cast<int>(rng() % 100000);
        suite::BenchmarkApp edited = *app;
        edited.source = incr::mutate_unit(app->source, units[pick], salt);
        ASSERT_NE(edited.source, app->source) << name << " " << units[pick];
        PipelineResult incr_r = driver::run_pipeline(edited, iopts);
        PipelineOptions cold_opts;
        cold_opts.config = cfg;
        PipelineResult cold = driver::run_pipeline(edited, cold_opts);
        expect_identical(incr_r, cold,
                         std::string(name) + "/" + driver::config_name(cfg) +
                             " edit " + units[pick]);
      }
    }
  }
}

TEST(Incremental, DiskTierServesAFreshProcess) {
  TempDir dir("e2e");
  auto app = shaped_app();
  PipelineResult cold = driver::run_pipeline(app, PipelineOptions{});
  ASSERT_TRUE(cold.ok);
  {
    incr::UnitCache cache(4096, dir.path.string());
    PipelineOptions opts;
    opts.unit_cache = &cache;
    ASSERT_TRUE(driver::run_pipeline(app, opts).ok);
  }
  // A new cache over the same directory — the memory tier is empty, so
  // every unit must come back from disk.
  incr::UnitCache cache(4096, dir.path.string());
  PipelineOptions opts;
  opts.unit_cache = &cache;
  PipelineResult warm = driver::run_pipeline(app, opts);
  expect_identical(warm, cold, "disk-tier warm");
  EXPECT_EQ(warm.unit_hits, 6u);
  EXPECT_EQ(warm.unit_misses, 0u);
  EXPECT_EQ(warm.unit_disk_hits, 6u);
  auto by = cache.boundary_stats();
  EXPECT_EQ(by["parallelize"].disk_hits, 6u);
  EXPECT_EQ(cache.stats().disk_hits, 6u);
}

// The memory tier holds live objects, so only the disk tier (and the
// fleet) still decodes bytes: warm == cold for every suite app and
// config when every hit comes from disk through a fresh cache.
TEST(Incremental, DiskOnlyHitsAreBitIdenticalForAllAppsAndConfigs) {
  TempDir dir("disk_only");
  for (const auto& app : suite::perfect_suite()) {
    for (InlineConfig cfg : {InlineConfig::None, InlineConfig::Conventional,
                             InlineConfig::Annotation}) {
      std::string what =
          app.name + std::string("/") + driver::config_name(cfg);
      PipelineOptions opts;
      opts.config = cfg;
      PipelineResult cold = driver::run_pipeline(app, opts);
      ASSERT_TRUE(cold.ok) << what;
      {
        incr::UnitCache fill_cache(4096, dir.path.string());
        opts.unit_cache = &fill_cache;
        ASSERT_TRUE(driver::run_pipeline(app, opts).ok) << what;
      }
      incr::UnitCache cache(4096, dir.path.string());
      opts.unit_cache = &cache;
      PipelineResult warm = driver::run_pipeline(app, opts);
      expect_identical(warm, cold, what + " (disk)");
      EXPECT_GT(warm.unit_hits, 0u) << what;
      EXPECT_EQ(warm.unit_disk_hits, warm.unit_hits) << what;
      EXPECT_EQ(warm.unit_misses, 0u) << what;
    }
  }
}

// Corrupted disk payloads must never poison a compile: the pass-level
// restore rejects them and the unit recomputes (and re-stores).
TEST(Incremental, CorruptDiskPayloadsFallBackToRecompute) {
  TempDir dir("corrupt");
  auto app = shaped_app();
  PipelineResult cold = driver::run_pipeline(app, PipelineOptions{});
  ASSERT_TRUE(cold.ok);
  {
    incr::UnitCache cache(4096, dir.path.string());
    PipelineOptions opts;
    opts.unit_cache = &cache;
    ASSERT_TRUE(driver::run_pipeline(app, opts).ok);
  }
  // The snapshot magic under a foreign version (varint 999), then junk.
  const std::string foreign{static_cast<char>(incr::kSnapshotMagic), '\xe7',
                            '\x07', 'n', 'o', 't', ' ', 'a', ' ', 'p'};
  size_t corrupted = 0;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    std::ofstream(e.path(), std::ios::binary | std::ios::trunc) << foreign;
    ++corrupted;
  }
  ASSERT_GT(corrupted, 0u);
  incr::UnitCache cache(4096, dir.path.string());
  PipelineOptions opts;
  opts.unit_cache = &cache;
  PipelineResult warm = driver::run_pipeline(app, opts);
  ASSERT_TRUE(warm.ok);
  expect_identical(warm, cold, "corrupt disk tier");
  // Every probe found a file, and none of them decoded.
  EXPECT_EQ(warm.unit_hits, 0u);
  EXPECT_EQ(warm.unit_misses, 6u);
}

}  // namespace
}  // namespace ap
