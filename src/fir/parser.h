// Recursive-descent parser for the Fortran-77 subset (see DESIGN.md §2).
//
// Supported syntax covers everything the paper's examples and the PERFECT
// mini-suite need: PROGRAM/SUBROUTINE units, INTEGER/REAL/DOUBLE PRECISION/
// LOGICAL/DIMENSION/COMMON/PARAMETER declarations, assignment, DO...ENDDO and
// labeled "DO 200 I=..."/"200 CONTINUE" loops (including label sharing by
// nested loops), block and logical IF, CALL, WRITE, STOP, RETURN, CONTINUE.
//
// A "C$LIBRARY" directive line immediately before SUBROUTINE marks the
// routine as an external-library routine: its body is still parsed (the
// interpreter needs a reference implementation) but the conventional inliner
// must refuse to inline it, reproducing the paper's "source not available"
// constraint.
#pragma once

#include <memory>
#include <string_view>

#include "fir/ast.h"
#include "fir/lexer.h"
#include "support/diagnostics.h"

namespace ap::fir {

// Parse a complete multi-unit program. Returns nullptr if any syntax error
// was reported. On success every DO loop has been assigned an origin_id.
std::unique_ptr<Program> parse_program(std::string_view source,
                                       DiagnosticEngine& diags);

// Parse from the token stream fir::lex produced without errors. Lets a
// caller that also reads the tokens (the incremental fingerprints) lex
// the source once.
std::unique_ptr<Program> parse_tokens(std::vector<Token> toks,
                                      DiagnosticEngine& diags);

// Parse a single expression (testing convenience).
ExprPtr parse_expression(std::string_view source, DiagnosticEngine& diags);

// True for names treated as Fortran intrinsic functions by the parser.
bool is_intrinsic_name(std::string_view name);

}  // namespace ap::fir
