#include "analysis/refs.h"

#include <cassert>

namespace ap::analysis {

namespace {

class RefCollector {
 public:
  RefCollector(const sema::UnitInfo& unit, LoopRefs& out)
      : unit_(unit), out_(out) {}

  void body(const std::vector<fir::StmtPtr>& stmts) {
    for (const auto& s : stmts)
      if (s) stmt(*s);
  }

 private:
  const sema::UnitInfo& unit_;
  LoopRefs& out_;
  int seq_ = 0;
  int cond_depth_ = 0;
  std::vector<InnerLoop> loops_;

  bool is_array(const std::string& name) const {
    const sema::SymbolInfo* s = unit_.find(name);
    return s && s->is_array();
  }

  void add_ref(const fir::Expr& e, bool is_write, const fir::Stmt& in_stmt) {
    MemRef r;
    r.array = e.name;
    r.is_write = is_write;
    r.stmt = &in_stmt;
    r.seq = seq_;
    r.conditional = cond_depth_ > 0;
    r.inner_loops = loops_;
    if (e.kind == fir::ExprKind::VarRef) {
      if (is_array(e.name)) {
        r.whole_array = true;
      } else {
        r.is_scalar = true;
      }
    } else {
      assert(e.kind == fir::ExprKind::ArrayRef);
      if (!is_array(e.name)) {
        // An "ArrayRef" whose base is not an array symbol would have been a
        // function call; sema validation rejects undeclared arrays, so treat
        // defensively as a scalar read of the name.
        r.is_scalar = true;
      }
      for (const auto& s : e.args) r.subs.push_back(s.get());
    }
    out_.refs.push_back(std::move(r));
  }

  // Record reads inside an expression tree. Array subscripts are themselves
  // reads (of the subscript arrays/scalars): T(IX(7)+I) reads IX and T.
  void reads(const fir::Expr& e, const fir::Stmt& in_stmt) {
    switch (e.kind) {
      case fir::ExprKind::VarRef:
        add_ref(e, /*is_write=*/false, in_stmt);
        return;
      case fir::ExprKind::ArrayRef:
        add_ref(e, /*is_write=*/false, in_stmt);
        for (const auto& a : e.args)
          if (a) reads(*a, in_stmt);
        return;
      default:
        for (const auto& a : e.args)
          if (a) reads(*a, in_stmt);
        return;
    }
  }

  // LHS of an assignment: the base access is a write; subscript expressions
  // are reads.
  void write_target(const fir::Expr& e, const fir::Stmt& in_stmt) {
    add_ref(e, /*is_write=*/true, in_stmt);
    if (e.kind == fir::ExprKind::ArrayRef) {
      for (const auto& a : e.args)
        if (a) reads(*a, in_stmt);
    }
  }

  void stmt(const fir::Stmt& s) {
    ++seq_;
    switch (s.kind) {
      case fir::StmtKind::Assign:
      case fir::StmtKind::TupleAssign:
        // Evaluate RHS reads first (they precede the write in execution).
        if (s.rhs) reads(*s.rhs, s);
        for (const auto& l : s.lhs)
          if (l) write_target(*l, s);
        return;
      case fir::StmtKind::Do: {
        if (s.do_lo) reads(*s.do_lo, s);
        if (s.do_hi) reads(*s.do_hi, s);
        if (s.do_step) reads(*s.do_step, s);
        InnerLoop il;
        il.var = s.do_var;
        il.lo = s.do_lo.get();
        il.hi = s.do_hi.get();
        il.step = s.do_step.get();
        loops_.push_back(il);
        body(s.body);
        loops_.pop_back();
        return;
      }
      case fir::StmtKind::If: {
        if (s.cond) reads(*s.cond, s);
        ++cond_depth_;
        body(s.body);
        body(s.else_body);
        --cond_depth_;
        return;
      }
      case fir::StmtKind::Call:
        out_.has_call = true;
        // Arguments may be written by the callee; without IPA everything the
        // call touches is opaque, so has_call alone disables the loop.
        for (const auto& a : s.args)
          if (a) reads(*a, s);
        return;
      case fir::StmtKind::Write:
        out_.has_io = true;
        for (const auto& a : s.args)
          if (a) reads(*a, s);
        return;
      case fir::StmtKind::Stop:
        out_.has_stop = true;
        return;
      case fir::StmtKind::Return:
        out_.has_return = true;
        return;
      case fir::StmtKind::Continue:
        return;
      case fir::StmtKind::TaggedRegion:
        // Tags are transparent for analysis: their body is ordinary code.
        body(s.body);
        return;
    }
  }
};

}  // namespace

LoopRefs collect_loop_refs(const fir::Stmt& loop, const sema::UnitInfo& unit) {
  LoopRefs out;
  RefCollector rc(unit, out);
  rc.body(loop.body);
  return out;
}

LoopBounds fold_bounds(const fir::Stmt& do_stmt, const sema::UnitInfo& unit) {
  LoopBounds b;
  if (do_stmt.do_lo) b.lo = unit.fold_int(*do_stmt.do_lo);
  if (do_stmt.do_hi) b.hi = unit.fold_int(*do_stmt.do_hi);
  // Non-unit steps keep bounds but the tester treats trip conservatively.
  if (do_stmt.do_step) {
    auto st = unit.fold_int(*do_stmt.do_step);
    if (!st || *st != 1) return LoopBounds{};
  }
  return b;
}

}  // namespace ap::analysis
