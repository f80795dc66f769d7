// Unit tests for support utilities (text, diagnostics) and the suite
// registry itself.
#include <gtest/gtest.h>

#include "annot/parser.h"
#include "suite/suite.h"
#include "support/diagnostics.h"
#include "support/json.h"
#include "support/text.h"
#include "tests/test_util.h"

namespace ap {
namespace {

TEST(Text, FoldUpper) {
  EXPECT_EQ(fold_upper("abC_d1"), "ABC_D1");
  EXPECT_EQ(fold_upper(""), "");
}

TEST(Text, CaseInsensitiveEquality) {
  EXPECT_TRUE(ieq("Matmlt", "MATMLT"));
  EXPECT_FALSE(ieq("MAT", "MATM"));
  EXPECT_TRUE(ieq("", ""));
}

TEST(Text, Trim) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Text, Split) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Text, CountLines) {
  EXPECT_EQ(count_lines(""), 0u);
  EXPECT_EQ(count_lines("a\nb\n"), 2u);
  EXPECT_EQ(count_lines("a\nb"), 2u);
  EXPECT_EQ(count_lines("\n"), 1u);
}

TEST(Text, IsIdentifier) {
  EXPECT_TRUE(is_identifier("A1_B"));
  EXPECT_FALSE(is_identifier("1A"));
  EXPECT_FALSE(is_identifier(""));
  EXPECT_FALSE(is_identifier("A-B"));
}

TEST(Diagnostics, CountsAndRenders) {
  DiagnosticEngine d;
  d.set_stream("test.f");
  d.warning(SourceLoc{1, 2}, "watch out");
  EXPECT_FALSE(d.has_errors());
  d.error(SourceLoc{3, 4}, "boom");
  EXPECT_TRUE(d.has_errors());
  EXPECT_EQ(d.error_count(), 1u);
  std::string all = d.render_all();
  EXPECT_NE(all.find("test.f:3:4: error: boom"), std::string::npos);
  EXPECT_NE(all.find("warning: watch out"), std::string::npos);
  d.clear();
  EXPECT_FALSE(d.has_errors());
  EXPECT_TRUE(d.all().empty());
}

TEST(Diagnostics, SynthesizedLocation) {
  Diagnostic diag{Severity::Note, SourceLoc{}, "s", "m"};
  EXPECT_NE(diag.render().find("<synthesized>"), std::string::npos);
}

TEST(Suite, TwelveApplicationsRegistered) {
  const auto& apps = suite::perfect_suite();
  EXPECT_EQ(apps.size(), 12u);
  std::set<std::string> names;
  for (const auto& a : apps) {
    names.insert(a.name);
    EXPECT_FALSE(a.description.empty()) << a.name;
    EXPECT_FALSE(a.source.empty()) << a.name;
  }
  EXPECT_EQ(names.size(), 12u);  // unique names
}

TEST(Suite, FindAppCaseInsensitive) {
  EXPECT_NE(suite::find_app("trfd"), nullptr);
  EXPECT_NE(suite::find_app("DYFESM"), nullptr);
  EXPECT_EQ(suite::find_app("NOPE"), nullptr);
}

TEST(Suite, AnnotatedAppsHaveParsableAnnotations) {
  for (const auto& a : suite::perfect_suite()) {
    if (a.annotations.empty()) continue;
    DiagnosticEngine d;
    annot::AnnotationRegistry reg;
    EXPECT_TRUE(reg.add(a.annotations, d)) << a.name << ": " << d.render_all();
    EXPECT_GE(reg.size(), 1u) << a.name;
  }
}

TEST(Json, EscapeSpecials) {
  EXPECT_EQ(json::escape("plain"), "plain");
  EXPECT_EQ(json::escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json::escape("tab\there"), "tab\\there");
  EXPECT_EQ(json::escape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
}

TEST(Json, BuildAndDumpDeterministic) {
  json::Value obj = json::Value::object();
  obj.set("b", 2).set("a", 1).set("b", 3);  // overwrite keeps position
  json::Value arr = json::Value::array();
  arr.push(true);
  arr.push("x");
  arr.push(json::Value());
  obj.set("arr", std::move(arr));
  EXPECT_EQ(obj.dump(), R"({"b": 3, "a": 1, "arr": [true, "x", null]})");
}

TEST(Json, ParseRoundTripsTypes) {
  auto v = json::parse(
      R"({"i": -42, "big": 9007199254740993, "d": 1.5, "s": "é\n",)"
      R"( "t": true, "n": null, "nested": {"a": [1, 2]}})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->find("i")->as_int(), -42);
  // Past double's 2^53 integer range; must survive as int64.
  EXPECT_EQ(v->find("big")->as_int(), 9007199254740993LL);
  EXPECT_DOUBLE_EQ(v->find("d")->as_double(), 1.5);
  EXPECT_EQ(v->find("s")->as_string(), "\xc3\xa9\n");
  EXPECT_TRUE(v->find("t")->as_bool());
  EXPECT_TRUE(v->find("n")->is_null());
  ASSERT_NE(v->find("nested"), nullptr);
  EXPECT_EQ(v->find("nested")->find("a")->items()[1].as_int(), 2);
  // Dump then re-parse is a fixed point.
  auto again = json::parse(v->dump());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->dump(), v->dump());
}

TEST(Json, ParseRejectsMalformedInput) {
  std::string err;
  EXPECT_FALSE(json::parse("", &err).has_value());
  EXPECT_FALSE(json::parse("{", &err).has_value());
  EXPECT_FALSE(json::parse("[1,]", &err).has_value());
  EXPECT_FALSE(json::parse("{\"a\": 1} trailing", &err).has_value());
  EXPECT_FALSE(json::parse("\"unterminated", &err).has_value());
  EXPECT_FALSE(json::parse("{'a': 1}", &err).has_value());
  EXPECT_FALSE(json::parse("nul", &err).has_value());
  // Raw control characters inside strings are invalid JSON.
  EXPECT_FALSE(json::parse("\"a\nb\"", &err).has_value());
}

TEST(Json, ParseRejectsExcessiveNesting) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  std::string err;
  EXPECT_FALSE(json::parse(deep, &err).has_value());
  EXPECT_NE(err.find("deep"), std::string::npos);
}

// json::parse reads the metrics and trace payloads of peer frames: the
// seeded truncation and mutation pass over a document of every kind.
TEST(Json, TruncatedAndMutatedDocumentsNeverCrashTheParser) {
  json::Value child = json::Value::object();
  child.set("name", "queue").set("wall_ms", 0.5).set("children",
                                                      json::Value::array());
  json::Value children = json::Value::array();
  children.push(std::move(child));
  json::Value doc = json::Value::object();
  doc.set("name", "request \"quoted\"\n\u00e9")
      .set("big", static_cast<int64_t>(9007199254740993))
      .set("neg", -42)
      .set("ratio", 0.125)
      .set("flags", json::Value::array())
      .set("none", json::Value())
      .set("ok", true)
      .set("children", std::move(children));
  std::mt19937 rng(20110913);
  for (int indent : {-1, 2}) {
    test::expect_mutants_fail_cleanly(
        doc.dump(indent), rng, "indent " + std::to_string(indent),
        [](const std::string& m) {
          std::string err;
          auto v = json::parse(m, &err);
          if (!v) {
            EXPECT_FALSE(err.empty()) << "failed without a reason";
            return false;
          }
          (void)v->dump();
          return true;
        });
  }
}

TEST(Json, NumbersRoundTripExactly) {
  for (double d : {0.1, 1.0 / 3.0, 1e-300, 123456789.123456789}) {
    json::Value v(d);
    auto back = json::parse(v.dump());
    ASSERT_TRUE(back.has_value()) << v.dump();
    EXPECT_EQ(back->as_double(), d) << v.dump();
  }
}

}  // namespace
}  // namespace ap
