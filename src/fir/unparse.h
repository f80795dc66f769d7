// Unparser: renders a FIR program back to Fortran-like source text,
// including `!$OMP PARALLEL DO` directives inserted by the parallelizer and
// the `C$ANNOT BEGIN/END` tags around annotation-inlined regions (paper
// Fig. 18). The rendered text (comments stripped) is the paper's code-size
// metric for Table II.
#pragma once

#include <string>
#include <string_view>

#include "fir/ast.h"

namespace ap::fir {

struct UnparseOptions {
  bool emit_tags = true;       // render TaggedRegion markers
  bool emit_omp = true;        // render OMP directives
  int indent_width = 2;
};

std::string unparse(const Program& prog, const UnparseOptions& opts = {});
std::string unparse_unit(const ProgramUnit& unit, const UnparseOptions& opts = {});
std::string unparse_stmt(const Stmt& s, const UnparseOptions& opts = {});

// The paper's Table II code-size metric: rendered source lines, comments
// removed (tags are comments; OMP directives count as code since the paper's
// output growth "is mostly due to the extra OpenMP directives").
size_t code_size_lines(const Program& prog);

// The same metric over one rendered unit: non-empty lines, `C$` comment
// lines (tags) skipped. Lets a caller that renders the program anyway
// count without a second unparse.
size_t count_code_lines(std::string_view unit_text);

}  // namespace ap::fir
