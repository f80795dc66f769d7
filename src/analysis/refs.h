// Memory-reference collection for one loop nest.
//
// Given a DO loop L, collect_loop_refs() flattens every scalar and array
// access in L's body into MemRef records carrying: program order within one
// iteration, conditional context (under an IF), the stack of inner loops
// enclosing the access, and whether the access is a write. The dependence
// tester (deptest.h), the scalar classifier (scalars.h) and the array-kill
// privatizer (sections.h) all consume this one collection.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "fir/ast.h"
#include "sema/symbols.h"

namespace ap::analysis {

// One inner loop enclosing a reference (relative to the analyzed loop).
struct InnerLoop {
  std::string var;
  const fir::Expr* lo = nullptr;
  const fir::Expr* hi = nullptr;
  const fir::Expr* step = nullptr;  // null => 1
};

struct MemRef {
  std::string array;                   // upper-cased name; scalars too
  bool is_write = false;
  bool is_scalar = false;              // VarRef to a scalar symbol
  bool whole_array = false;            // VarRef naming an array (annotation
                                       // whole-array read/write)
  std::vector<const fir::Expr*> subs;  // subscripts (may contain Sections)
  const fir::Stmt* stmt = nullptr;
  int seq = 0;                         // program order within one iteration
  bool conditional = false;            // under an IF inside the loop body
  std::vector<InnerLoop> inner_loops;  // loops enclosing the ref INSIDE L,
                                       // outermost first
};

struct LoopRefs {
  std::vector<MemRef> refs;
  bool has_call = false;       // un-inlined CALL => unanalyzable (Polaris
                               // default behaviour without IPA)
  bool has_io = false;         // WRITE inside the loop
  bool has_stop = false;       // STOP inside the loop
  bool has_return = false;     // premature exit
};

// Collect every reference inside `loop`'s body. `sym_of` resolves a name to
// its symbol info in the enclosing unit (to distinguish scalars from
// arrays); names without symbols are treated as scalars.
LoopRefs collect_loop_refs(const fir::Stmt& loop, const sema::UnitInfo& unit);

// Constant loop bounds for Banerjee-style range reasoning: var -> [lo, hi]
// when both bounds fold to integers in `unit`.
struct LoopBounds {
  std::optional<int64_t> lo, hi;
  std::optional<int64_t> trip() const {
    if (!lo || !hi) return std::nullopt;
    return *hi >= *lo ? *hi - *lo + 1 : 0;
  }
};

LoopBounds fold_bounds(const fir::Stmt& do_stmt, const sema::UnitInfo& unit);

}  // namespace ap::analysis
