// Semantic layer: per-unit symbol tables with storage classes, array shapes
// with PARAMETER-folded constant extents, an interprocedural call graph, and
// structural validation. Every later stage (dependence analysis, the three
// inliners, the parallelizer, the interpreter) queries this layer instead of
// re-deriving facts from raw declarations.
//
// Two entry points share one analysis:
//
//   analyze_unit(unit) — the facts of ONE unit, computed from that unit
//     alone (symbols, folded PARAMETER constants, callees). The
//     parallelizer reads nothing else, so the pipeline's parallelize pass
//     builds a UnitInfo lane-locally for each unit it analyzes and none
//     for a unit the incremental tier restores.
//   SemaContext(program) — analyze_unit over every unit plus the
//     cross-unit checks (duplicate units, CALL targets and arity,
//     subscript ranks) and the call-graph queries the inliners and the
//     annotation generator need.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "fir/ast.h"
#include "support/diagnostics.h"

namespace ap::sema {

enum class Storage : uint8_t {
  Local,   // unit-local variable
  Param,   // dummy argument
  Common,  // lives in a COMMON block: globally visible state
};

// One array dimension with folded bounds. `extent` is nullopt for assumed
// size (`*`) or when bounds are not compile-time constants.
struct DimInfo {
  int64_t lower = 1;
  std::optional<int64_t> upper;
  bool lower_known = true;
  std::optional<int64_t> extent() const {
    if (!upper || !lower_known) return std::nullopt;
    return *upper - lower + 1;
  }
};

struct SymbolInfo {
  std::string name;
  fir::Type type = fir::Type::Real;
  Storage storage = Storage::Local;
  std::string common_block;  // when storage == Common
  std::vector<DimInfo> dims; // empty => scalar
  bool is_param_const = false;
  std::optional<int64_t> const_value;  // folded PARAMETER value (integers)

  bool is_array() const { return !dims.empty(); }
  // Total element count if every extent is constant.
  std::optional<int64_t> element_count() const;
};

struct UnitInfo {
  const fir::ProgramUnit* unit = nullptr;
  std::map<std::string, SymbolInfo, std::less<>> symbols;
  // Every folded PARAMETER constant, built once with the symbols: the
  // environment fold_int reads.
  std::map<std::string, int64_t> consts;
  std::set<std::string> callees;        // direct CALL targets
  size_t stmt_count = 0;                // executable statements (inliner heuristic)
  bool has_io = false;                  // WRITE anywhere in the body
  bool has_stop = false;                // STOP anywhere in the body

  const SymbolInfo* find(std::string_view name) const;

  // Fold an integer-valued expression of this unit using its PARAMETER
  // constants. Returns nullopt for anything non-constant.
  std::optional<int64_t> fold_int(const fir::Expr& e) const;
};

// The facts of one unit, from that unit alone. Cross-unit problems
// (undefined CALL targets, rank mismatches) are SemaContext's to report.
UnitInfo analyze_unit(const fir::ProgramUnit& u);

class SemaContext {
 public:
  // Analyzes the whole program. Reports structural problems (CALL to an
  // undefined unit, argument-count mismatch, subscript-rank mismatch) to
  // `diags` as errors.
  SemaContext(const fir::Program& prog, DiagnosticEngine& diags);

  const fir::Program& program() const { return *prog_; }
  const UnitInfo* unit_info(std::string_view name) const;
  const SymbolInfo* symbol(std::string_view unit, std::string_view var) const;

  // Transitive callee set (including indirect); used by the conventional
  // inliner to detect recursion and by heuristics about "compositional"
  // routines.
  std::set<std::string> transitive_callees(std::string_view unit) const;
  bool is_recursive(std::string_view unit) const;

  // Fold an integer-valued expression inside `unit` using PARAMETER
  // constants (UnitInfo::fold_int). Returns nullopt for anything
  // non-constant or an unknown unit.
  std::optional<int64_t> fold_int(std::string_view unit, const fir::Expr& e) const;

  bool valid() const { return valid_; }

 private:
  void validate_calls(DiagnosticEngine& diags);

  const fir::Program* prog_;
  std::map<std::string, UnitInfo> units_;
  bool valid_ = true;
};

// Standalone folder behind UnitInfo::fold_int: folds +,-,*,/,**,unary
// minus over integer literals and the supplied constant environment.
std::optional<int64_t> fold_int_expr(
    const fir::Expr& e,
    const std::map<std::string, int64_t>& consts);

}  // namespace ap::sema
