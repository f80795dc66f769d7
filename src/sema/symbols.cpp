#include "sema/symbols.h"

#include <algorithm>
#include <functional>

#include "support/text.h"

namespace ap::sema {

std::optional<int64_t> SymbolInfo::element_count() const {
  int64_t n = 1;
  for (const auto& d : dims) {
    auto e = d.extent();
    if (!e) return std::nullopt;
    n *= *e;
  }
  return n;
}

const SymbolInfo* UnitInfo::find(std::string_view name) const {
  // Symbol names are upper-cased; only a mixed-case query (an AST built by
  // hand) pays for a folded copy.
  bool mixed = std::any_of(name.begin(), name.end(),
                           [](char c) { return c >= 'a' && c <= 'z'; });
  auto it = mixed ? symbols.find(fold_upper(name)) : symbols.find(name);
  return it == symbols.end() ? nullptr : &it->second;
}

std::optional<int64_t> UnitInfo::fold_int(const fir::Expr& e) const {
  return fold_int_expr(e, consts);
}

std::optional<int64_t> fold_int_expr(
    const fir::Expr& e, const std::map<std::string, int64_t>& consts) {
  using fir::ExprKind;
  switch (e.kind) {
    case ExprKind::IntLit:
      return e.int_val;
    case ExprKind::VarRef: {
      auto it = consts.find(e.name);
      if (it != consts.end()) return it->second;
      return std::nullopt;
    }
    case ExprKind::Unary: {
      auto v = fold_int_expr(*e.args[0], consts);
      if (!v) return std::nullopt;
      switch (e.un_op) {
        case fir::UnOp::Neg: return -*v;
        case fir::UnOp::Plus: return *v;
        case fir::UnOp::Not: return std::nullopt;
      }
      return std::nullopt;
    }
    case ExprKind::Binary: {
      auto l = fold_int_expr(*e.args[0], consts);
      auto r = fold_int_expr(*e.args[1], consts);
      if (!l || !r) return std::nullopt;
      switch (e.bin_op) {
        case fir::BinOp::Add: return *l + *r;
        case fir::BinOp::Sub: return *l - *r;
        case fir::BinOp::Mul: return *l * *r;
        case fir::BinOp::Div:
          if (*r == 0) return std::nullopt;
          return *l / *r;
        case fir::BinOp::Pow: {
          if (*r < 0 || *r > 62) return std::nullopt;
          int64_t out = 1;
          for (int64_t i = 0; i < *r; ++i) out *= *l;
          return out;
        }
        default:
          return std::nullopt;
      }
    }
    case ExprKind::Intrinsic: {
      if ((ieq(e.name, "MAX") || ieq(e.name, "MAX0")) && e.args.size() == 2) {
        auto l = fold_int_expr(*e.args[0], consts);
        auto r = fold_int_expr(*e.args[1], consts);
        if (l && r) return std::max(*l, *r);
      }
      if ((ieq(e.name, "MIN") || ieq(e.name, "MIN0")) && e.args.size() == 2) {
        auto l = fold_int_expr(*e.args[0], consts);
        auto r = fold_int_expr(*e.args[1], consts);
        if (l && r) return std::min(*l, *r);
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

UnitInfo analyze_unit(const fir::ProgramUnit& u) {
  UnitInfo info;
  info.unit = &u;

  // PARAMETER constants first so later dims can fold.
  std::map<std::string, int64_t> consts;
  for (const auto& d : u.decls) {
    if (d.is_param_const && d.param_value) {
      auto v = fold_int_expr(*d.param_value, consts);
      if (v) consts[d.name] = *v;
    }
  }

  // Which vars belong to COMMON blocks.
  std::map<std::string, std::string> common_of;
  for (const auto& blk : u.commons)
    for (const auto& v : blk.vars) common_of[fold_upper(v)] = blk.name;

  for (const auto& d : u.decls) {
    SymbolInfo s;
    s.name = d.name;
    s.type = d.type;
    s.is_param_const = d.is_param_const;
    if (d.is_param_const && d.param_value)
      s.const_value = fold_int_expr(*d.param_value, consts);
    if (u.is_param(d.name))
      s.storage = Storage::Param;
    else if (auto it = common_of.find(d.name); it != common_of.end()) {
      s.storage = Storage::Common;
      s.common_block = it->second;
    } else {
      s.storage = Storage::Local;
    }
    for (const auto& dim : d.dims) {
      DimInfo di;
      if (dim.lo) {
        auto lo = fold_int_expr(*dim.lo, consts);
        if (lo)
          di.lower = *lo;
        else
          di.lower_known = false;
      }
      if (dim.hi) di.upper = fold_int_expr(*dim.hi, consts);
      s.dims.push_back(di);
    }
    info.symbols[d.name] = std::move(s);
  }

  // Implicitly-typed variables: anything referenced but never declared gets
  // Fortran implicit typing (I-N => INTEGER else REAL) and Local storage.
  fir::walk_stmts(u.body, [&](const fir::Stmt& s) {
    fir::walk_exprs(s, [&](const fir::Expr& e) {
      if (e.kind != fir::ExprKind::VarRef && e.kind != fir::ExprKind::ArrayRef)
        return;
      if (info.symbols.count(e.name)) return;
      if (e.kind == fir::ExprKind::ArrayRef) return;  // array must be declared;
                                                      // handled by validation
      SymbolInfo sym;
      sym.name = e.name;
      sym.type = (!e.name.empty() && e.name[0] >= 'I' && e.name[0] <= 'N')
                     ? fir::Type::Integer
                     : fir::Type::Real;
      sym.storage =
          u.is_param(e.name) ? Storage::Param : Storage::Local;
      info.symbols[e.name] = std::move(sym);
    });
    if (s.kind == fir::StmtKind::Do && !s.do_var.empty() &&
        !info.symbols.count(s.do_var)) {
      SymbolInfo sym;
      sym.name = s.do_var;
      sym.type = fir::Type::Integer;
      sym.storage = Storage::Local;
      info.symbols[s.do_var] = std::move(sym);
    }
    if (s.kind == fir::StmtKind::Call) info.callees.insert(s.name);
    if (s.kind == fir::StmtKind::Write) info.has_io = true;
    if (s.kind == fir::StmtKind::Stop) info.has_stop = true;
    if (s.kind != fir::StmtKind::Continue) ++info.stmt_count;
    return true;
  });

  // Undeclared dummy arguments still need symbols (scalar by implicit rule).
  for (const auto& p : u.params) {
    std::string nm = fold_upper(p);
    if (info.symbols.count(nm)) continue;
    SymbolInfo sym;
    sym.name = nm;
    sym.type = (!nm.empty() && nm[0] >= 'I' && nm[0] <= 'N') ? fir::Type::Integer
                                                             : fir::Type::Real;
    sym.storage = Storage::Param;
    info.symbols[nm] = std::move(sym);
  }

  // fold_int's environment: every symbol whose PARAMETER value folded.
  for (const auto& [nm, sym] : info.symbols)
    if (sym.const_value)
      info.consts.emplace_hint(info.consts.end(), nm, *sym.const_value);
  return info;
}

SemaContext::SemaContext(const fir::Program& prog, DiagnosticEngine& diags)
    : prog_(&prog) {
  for (const auto& u : prog.units) {
    if (units_.count(u->name))
      diags.error(u->loc, "duplicate program unit '" + u->name + "'");
    units_[u->name] = analyze_unit(*u);
  }
  validate_calls(diags);
  valid_ = !diags.has_errors();
}

void SemaContext::validate_calls(DiagnosticEngine& diags) {
  for (const auto& [name, info] : units_) {
    // Array references must match their declared rank (assumed-size last
    // dimensions still fix the rank). Mis-ranked references would otherwise
    // only surface as runtime subscript errors.
    fir::walk_stmts(info.unit->body, [&](const fir::Stmt& s) {
      fir::walk_exprs(s, [&](const fir::Expr& e) {
        if (e.kind != fir::ExprKind::ArrayRef) return;
        const SymbolInfo* sym = info.find(e.name);
        if (!sym) {
          diags.error(e.loc, "reference to undeclared array '" + e.name +
                                 "' in '" + name + "'");
          return;
        }
        if (!sym->is_array()) {
          diags.error(e.loc, "'" + e.name + "' is not an array in '" + name +
                                 "' but is subscripted");
          return;
        }
        if (sym->dims.size() != e.args.size()) {
          diags.error(e.loc, "array '" + e.name + "' has rank " +
                                 std::to_string(sym->dims.size()) + " but is "
                                 "referenced with " +
                                 std::to_string(e.args.size()) +
                                 " subscripts in '" + name + "'");
        }
      });
      return true;
    });
    fir::walk_stmts(info.unit->body, [&](const fir::Stmt& s) {
      if (s.kind != fir::StmtKind::Call) return true;
      auto it = units_.find(s.name);
      if (it == units_.end()) {
        diags.error(s.loc, "CALL to undefined subroutine '" + s.name +
                               "' from '" + name + "'");
        return true;
      }
      const auto& callee = *it->second.unit;
      if (callee.kind != fir::UnitKind::Subroutine) {
        diags.error(s.loc, "CALL target '" + s.name + "' is not a subroutine");
        return true;
      }
      if (callee.params.size() != s.args.size()) {
        diags.error(s.loc, "CALL to '" + s.name + "' passes " +
                               std::to_string(s.args.size()) +
                               " arguments, expected " +
                               std::to_string(callee.params.size()));
      }
      return true;
    });
  }
}

const UnitInfo* SemaContext::unit_info(std::string_view name) const {
  auto it = units_.find(fold_upper(name));
  return it == units_.end() ? nullptr : &it->second;
}

const SymbolInfo* SemaContext::symbol(std::string_view unit,
                                      std::string_view var) const {
  const UnitInfo* u = unit_info(unit);
  return u ? u->find(var) : nullptr;
}

std::set<std::string> SemaContext::transitive_callees(
    std::string_view unit) const {
  std::set<std::string> out;
  std::function<void(std::string_view)> visit = [&](std::string_view nm) {
    const UnitInfo* info = unit_info(nm);
    if (!info) return;
    for (const auto& c : info->callees) {
      if (out.insert(c).second) visit(c);
    }
  };
  visit(unit);
  return out;
}

bool SemaContext::is_recursive(std::string_view unit) const {
  auto t = transitive_callees(unit);
  return t.count(fold_upper(unit)) > 0;
}

std::optional<int64_t> SemaContext::fold_int(std::string_view unit,
                                             const fir::Expr& e) const {
  const UnitInfo* info = unit_info(unit);
  if (!info) return std::nullopt;
  return info->fold_int(e);
}

}  // namespace ap::sema
