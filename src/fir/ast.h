// FIR: the Fortran-77-subset IR every stage of the pipeline operates on.
//
// One AST serves three producers:
//   * the source parser (fir/parser.h) for benchmark programs,
//   * the annotation-DSL parser (annot/parser.h) — annotations share the
//     expression/statement core and add `unknown`/`unique` and array
//     sections, which are first-class nodes here so that the dependence
//     analyzer, the inliners and the unparser handle them uniformly,
//   * the transformation passes (inlining, normalization, parallelization),
//     which synthesize nodes.
//
// Ownership: plain unique_ptr trees. Passes clone subtrees when moving code
// across procedure boundaries; nothing is shared.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "support/source_location.h"

namespace ap::fir {

// ---------------------------------------------------------------------------
// Scalar types
// ---------------------------------------------------------------------------

enum class Type : uint8_t {
  Integer,
  Real,     // REAL and DOUBLE PRECISION both map here (we compute in double)
  Logical,
  Character,
  Unknown,  // not yet resolved / annotation-only temporaries
};

const char* type_name(Type t);

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind : uint8_t {
  IntLit,
  RealLit,
  LogicalLit,
  StrLit,
  VarRef,       // scalar variable or whole-array reference (no subscripts)
  ArrayRef,     // NAME(e1, ..., en); subscripts may include Section nodes
  Section,      // lo:hi[:stride] inside an ArrayRef subscript list (F90 style)
  Unary,
  Binary,
  Intrinsic,    // MIN/MAX/MOD/ABS/SQRT/DBLE/...
  Unknown,      // annotation operator: unknown(e1..en) — opaque value read
                // from the listed operands
  Unique,       // annotation operator: unique(e1..en) — injective function
                // of the listed operands
};

enum class UnOp : uint8_t { Neg, Not, Plus };
enum class BinOp : uint8_t {
  Add, Sub, Mul, Div, Pow,
  Eq, Ne, Lt, Le, Gt, Ge,
  And, Or,
};

const char* binop_spelling(BinOp op);   // Fortran spelling: .EQ. etc. -> "=="
bool binop_commutative(BinOp op);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind kind;
  SourceLoc loc;

  // Literals.
  int64_t int_val = 0;
  double real_val = 0.0;
  bool logical_val = false;
  std::string str_val;

  // VarRef / ArrayRef / Intrinsic: upper-cased name.
  std::string name;

  // Operators.
  UnOp un_op = UnOp::Neg;
  BinOp bin_op = BinOp::Add;

  // Children: operands, subscripts, call args, or section {lo,hi,stride}
  // (any of the three may be null for defaulted parts of a section).
  std::vector<ExprPtr> args;

  ExprPtr clone() const;

  bool is_int_lit(int64_t v) const { return kind == ExprKind::IntLit && int_val == v; }
};

// Builders ------------------------------------------------------------------
ExprPtr make_int(int64_t v);
ExprPtr make_real(double v);
ExprPtr make_logical(bool v);
ExprPtr make_str(std::string s);
ExprPtr make_var(std::string name);
ExprPtr make_array_ref(std::string name, std::vector<ExprPtr> subs);
ExprPtr make_section(ExprPtr lo, ExprPtr hi, ExprPtr stride = nullptr);
ExprPtr make_unary(UnOp op, ExprPtr e);
ExprPtr make_binary(BinOp op, ExprPtr l, ExprPtr r);
ExprPtr make_intrinsic(std::string name, std::vector<ExprPtr> args);
ExprPtr make_unknown(std::vector<ExprPtr> args);
ExprPtr make_unique(std::vector<ExprPtr> args);

// Structural equality (exact; no algebraic normalization).
bool expr_equal(const Expr& a, const Expr& b);

// Render a single expression (used by diagnostics and tests).
std::string expr_to_string(const Expr& e);

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind : uint8_t {
  Assign,        // lhs = rhs; lhs is VarRef or ArrayRef (may contain Sections
                 // => F90 array-region assignment)
  TupleAssign,   // (a, b, c) = unknown(...)  — annotation form
  Do,            // DO var = lo, hi [, step] ... ENDDO
  If,            // block IF / ELSE; logical IF is an If with a single stmt
  Call,          // CALL name(args)
  Write,         // WRITE(*,*) args — models program I/O
  Stop,          // STOP ['msg'] — early termination (error handling)
  Return,
  Continue,      // labeled CONTINUE that terminates labeled DO loops; kept as
                 // a no-op marker after parsing
  TaggedRegion,  // the pair of special tags around annotation-inlined code
                 // (paper Fig. 18): body + callee identity for reverse inlining
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

// OpenMP parallel-do metadata attached to a Do statement by the parallelizer.
struct OmpInfo {
  bool parallel = false;
  std::vector<std::string> privates;     // privatized scalars and arrays
  std::vector<std::string> firstprivates;
  struct Reduction { std::string op; std::string var; };
  std::vector<Reduction> reductions;
  bool nowait = false;
};

struct Stmt {
  StmtKind kind;
  SourceLoc loc;

  // Assign / TupleAssign: targets (VarRef/ArrayRef) and value.
  std::vector<ExprPtr> lhs;
  ExprPtr rhs;

  // Do: induction variable and bounds.
  std::string do_var;
  ExprPtr do_lo, do_hi, do_step;  // step may be null => 1
  std::vector<StmtPtr> body;
  OmpInfo omp;
  // Stable identity of the loop in the ORIGINAL program. Inliner copies
  // preserve origin_id so Table II counts each original loop once even when
  // inlining duplicates it (paper §IV.A).
  int64_t origin_id = -1;

  // If: condition, then-branch in `body`, else-branch here.
  ExprPtr cond;
  std::vector<StmtPtr> else_body;

  // Call / Write / Stop: callee name (upper-cased) and arguments; Stop
  // reuses `name` for its message.
  std::string name;
  std::vector<ExprPtr> args;

  // TaggedRegion: body holds the inlined annotation code; `name` is the
  // callee; `tag_id` distinguishes multiple inlined sites; `arg_hints` are
  // the original actual arguments (used only to disambiguate formals that do
  // not appear in the template — the reverse inliner re-derives bindings by
  // pattern matching and cross-checks the hints).
  int64_t tag_id = -1;
  std::vector<ExprPtr> arg_hints;

  StmtPtr clone() const;
};

StmtPtr make_assign(ExprPtr lhs, ExprPtr rhs);
StmtPtr make_tuple_assign(std::vector<ExprPtr> lhs, ExprPtr rhs);
StmtPtr make_do(std::string var, ExprPtr lo, ExprPtr hi, ExprPtr step,
                std::vector<StmtPtr> body);
StmtPtr make_if(ExprPtr cond, std::vector<StmtPtr> then_body,
                std::vector<StmtPtr> else_body = {});
StmtPtr make_call(std::string name, std::vector<ExprPtr> args);
StmtPtr make_write(std::vector<ExprPtr> args);
StmtPtr make_stop(std::string msg);
StmtPtr make_return();
StmtPtr make_continue();
StmtPtr make_tagged_region(std::string callee, int64_t tag_id,
                           std::vector<StmtPtr> body,
                           std::vector<ExprPtr> arg_hints);

std::vector<StmtPtr> clone_stmts(const std::vector<StmtPtr>& stmts);

// ---------------------------------------------------------------------------
// Declarations and program units
// ---------------------------------------------------------------------------

// One array dimension: lower:upper. `upper` null means assumed-size `*`
// (legal only as the last dimension of a dummy argument).
struct Dim {
  ExprPtr lo;  // null => 1
  ExprPtr hi;  // null => assumed size '*'
  Dim clone() const;
};

struct VarDecl {
  std::string name;   // upper-cased
  Type type = Type::Real;
  std::vector<Dim> dims;  // empty => scalar
  bool is_param_const = false;  // PARAMETER (NAME = value)
  ExprPtr param_value;          // for PARAMETER constants
  // Declaration imported into the caller by the annotation-based inliner so
  // dependence analysis knows shapes of callee globals; the reverse inliner
  // removes it again when it is no longer referenced.
  bool annot_imported = false;
  SourceLoc loc;
  bool is_array() const { return !dims.empty(); }
  VarDecl clone() const;
};

struct CommonBlock {
  std::string name;                 // upper-cased; "" for blank common
  std::vector<std::string> vars;    // member names in declaration order

  bool operator==(const CommonBlock&) const = default;
};

enum class UnitKind : uint8_t { Program, Subroutine };

struct ProgramUnit {
  UnitKind kind = UnitKind::Subroutine;
  std::string name;                    // upper-cased
  std::vector<std::string> params;     // dummy argument names, in order
  std::vector<VarDecl> decls;
  std::vector<CommonBlock> commons;
  std::vector<StmtPtr> body;
  // True for subroutines that model external-library routines: the body is
  // the reference implementation used by the interpreter, but the inliners
  // must treat the source as unavailable (paper §I: conventional inlining
  // cannot touch them; annotation-based inlining can).
  bool external_library = false;
  SourceLoc loc;

  const VarDecl* find_decl(std::string_view nm) const;
  VarDecl* find_decl(std::string_view nm);
  bool is_param(std::string_view nm) const;

  std::unique_ptr<ProgramUnit> clone() const;
};

struct Program {
  std::vector<std::unique_ptr<ProgramUnit>> units;

  ProgramUnit* find_unit(std::string_view name);
  const ProgramUnit* find_unit(std::string_view name) const;
  ProgramUnit* main();

  std::unique_ptr<Program> clone() const;
};

// ---------------------------------------------------------------------------
// Traversal helpers
// ---------------------------------------------------------------------------

// Pre-order walk over every statement in a body, recursing into Do/If/
// TaggedRegion bodies. Callback may return false to skip children.
void walk_stmts(std::vector<StmtPtr>& body,
                const std::function<bool(Stmt&)>& fn);
void walk_stmts(const std::vector<StmtPtr>& body,
                const std::function<bool(const Stmt&)>& fn);

// Walk every expression reachable from a statement (lhs, rhs, cond, bounds,
// args), recursing into nested statements.
void walk_exprs(Stmt& s, const std::function<void(Expr&)>& fn);
void walk_exprs(const Stmt& s, const std::function<void(const Expr&)>& fn);
void walk_expr_tree(Expr& e, const std::function<void(Expr&)>& fn);
void walk_expr_tree(const Expr& e, const std::function<void(const Expr&)>& fn);

// Assign fresh origin_ids to every Do loop in the program (parser does this;
// exposed for tests that build ASTs by hand).
void number_loops(Program& p);

}  // namespace ap::fir
