// Shared helpers for the AnnoPar test suite.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>

#include "fir/ast.h"
#include "fir/parser.h"
#include "support/diagnostics.h"

namespace ap::test {

// Parse a program and fail the test on any diagnostic.
inline std::unique_ptr<fir::Program> parse_ok(std::string_view src) {
  DiagnosticEngine diags;
  auto prog = fir::parse_program(src, diags);
  EXPECT_TRUE(prog != nullptr) << diags.render_all();
  return prog;
}

// Parse a single expression.
inline fir::ExprPtr expr_ok(std::string_view src) {
  DiagnosticEngine diags;
  auto e = fir::parse_expression(src, diags);
  EXPECT_TRUE(e != nullptr) << diags.render_all();
  return e;
}

// The seeded truncation-and-mutation pass over one encoded input. Every
// strict prefix must fail to decode; every single-byte flip and each of 64
// seeded overwrites of 2-8 random bytes must either decode or fail, with
// no crash, exception or out-of-bounds read (the sanitizer builds run
// this). `decode(bytes)` returns whether the bytes decoded; it checks the
// failure reason itself where its decoder reports one.
template <class Decode>
void expect_mutants_fail_cleanly(const std::string& bytes, std::mt19937& rng,
                                 const std::string& label, Decode decode) {
  for (size_t len = 0; len < bytes.size(); ++len)
    EXPECT_FALSE(decode(bytes.substr(0, len)))
        << label << ": prefix of " << len << " bytes decoded";
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5a);
    decode(mutated);
  }
  for (int trial = 0; trial < 64; ++trial) {
    std::string mutated = bytes;
    int flips = 2 + static_cast<int>(rng() % 7);
    for (int f = 0; f < flips; ++f)
      mutated[rng() % mutated.size()] = static_cast<char>(rng() & 0xff);
    decode(mutated);
  }
}

// Find the first DO loop with the given induction variable in a unit.
inline fir::Stmt* find_loop(fir::ProgramUnit& unit, std::string_view var) {
  fir::Stmt* found = nullptr;
  fir::walk_stmts(unit.body, [&](fir::Stmt& s) {
    if (!found && s.kind == fir::StmtKind::Do && s.do_var == var) found = &s;
    return true;
  });
  return found;
}

// Count statements of a given kind in a unit.
inline int count_kind(const fir::ProgramUnit& unit, fir::StmtKind k) {
  int n = 0;
  fir::walk_stmts(unit.body, [&](const fir::Stmt& s) {
    if (s.kind == k) ++n;
    return true;
  });
  return n;
}

}  // namespace ap::test
