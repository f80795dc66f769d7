#include "fir/unparse.h"

#include "support/text.h"

namespace ap::fir {

namespace {

class Unparser {
 public:
  Unparser(const UnparseOptions& opts) : opts_(opts) {}

  std::string take() { return std::move(out_); }

  void unit(const ProgramUnit& u) {
    if (u.external_library) line("C$LIBRARY");
    std::string head = (u.kind == UnitKind::Program) ? "PROGRAM " : "SUBROUTINE ";
    head += u.name;
    if (!u.params.empty()) {
      head += "(";
      for (size_t i = 0; i < u.params.size(); ++i) {
        if (i) head += ", ";
        head += u.params[i];
      }
      head += ")";
    }
    line(head);
    ++depth_;
    decls(u);
    stmts(u.body);
    --depth_;
    line("END");
  }

  void stmts(const std::vector<StmtPtr>& body) {
    for (const auto& s : body)
      if (s) stmt(*s);
  }

  void stmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::Assign:
        line(expr(*s.lhs[0]) + " = " + expr(*s.rhs));
        return;
      case StmtKind::TupleAssign: {
        std::string l = "(";
        for (size_t i = 0; i < s.lhs.size(); ++i) {
          if (i) l += ", ";
          l += expr(*s.lhs[i]);
        }
        l += ") = " + expr(*s.rhs);
        line(l);
        return;
      }
      case StmtKind::Do: {
        if (opts_.emit_omp && s.omp.parallel) omp_directive(s);
        std::string h = "DO " + s.do_var + " = " + expr(*s.do_lo) + ", " +
                        expr(*s.do_hi);
        if (s.do_step) h += ", " + expr(*s.do_step);
        line(h);
        ++depth_;
        stmts(s.body);
        --depth_;
        line("ENDDO");
        if (opts_.emit_omp && s.omp.parallel) {
          line("!$OMP END DO" + std::string(s.omp.nowait ? " NOWAIT" : ""));
          line("!$OMP END PARALLEL");
        }
        return;
      }
      case StmtKind::If: {
        line("IF (" + expr(*s.cond) + ") THEN");
        ++depth_;
        stmts(s.body);
        --depth_;
        if (!s.else_body.empty()) {
          line("ELSE");
          ++depth_;
          stmts(s.else_body);
          --depth_;
        }
        line("ENDIF");
        return;
      }
      case StmtKind::Call: {
        std::string c = "CALL " + s.name;
        c += "(";
        for (size_t i = 0; i < s.args.size(); ++i) {
          if (i) c += ", ";
          c += expr(*s.args[i]);
        }
        c += ")";
        line(c);
        return;
      }
      case StmtKind::Write: {
        std::string w = "WRITE(*,*) ";
        for (size_t i = 0; i < s.args.size(); ++i) {
          if (i) w += ", ";
          w += expr(*s.args[i]);
        }
        line(w);
        return;
      }
      case StmtKind::Stop:
        line(s.name.empty() ? "STOP" : "STOP '" + s.name + "'");
        return;
      case StmtKind::Return:
        line("RETURN");
        return;
      case StmtKind::Continue:
        line("CONTINUE");
        return;
      case StmtKind::TaggedRegion: {
        if (opts_.emit_tags)
          line("C$ANNOT BEGIN " + s.name + " " + std::to_string(s.tag_id));
        stmts(s.body);
        if (opts_.emit_tags)
          line("C$ANNOT END " + s.name + " " + std::to_string(s.tag_id));
        return;
      }
    }
  }

 private:
  const UnparseOptions& opts_;
  std::string out_;
  int depth_ = 0;

  void line(std::string_view text) {
    out_.append(static_cast<size_t>(depth_ * opts_.indent_width), ' ');
    out_.append(text);
    out_.push_back('\n');
  }

  void omp_directive(const Stmt& s) {
    std::string d = "!$OMP PARALLEL DO DEFAULT(SHARED)";
    if (!s.omp.privates.empty()) {
      d += " PRIVATE(";
      for (size_t i = 0; i < s.omp.privates.size(); ++i) {
        if (i) d += ",";
        d += s.omp.privates[i];
      }
      d += ")";
    }
    if (!s.omp.firstprivates.empty()) {
      d += " FIRSTPRIVATE(";
      for (size_t i = 0; i < s.omp.firstprivates.size(); ++i) {
        if (i) d += ",";
        d += s.omp.firstprivates[i];
      }
      d += ")";
    }
    for (const auto& r : s.omp.reductions)
      d += " REDUCTION(" + r.op + ":" + r.var + ")";
    line(d);
  }

  std::string expr(const Expr& e) { return expr_to_string(e); }

  void decls(const ProgramUnit& u) {
    for (const auto& d : u.decls) {
      if (d.is_param_const) {
        line("PARAMETER (" + d.name + " = " + expr(*d.param_value) + ")");
        continue;
      }
      std::string t;
      switch (d.type) {
        case Type::Integer: t = "INTEGER "; break;
        case Type::Real: t = "DOUBLE PRECISION "; break;
        case Type::Logical: t = "LOGICAL "; break;
        case Type::Character: t = "CHARACTER "; break;
        case Type::Unknown: t = "REAL "; break;
      }
      std::string l = t + d.name;
      if (!d.dims.empty()) {
        l += "(";
        for (size_t i = 0; i < d.dims.size(); ++i) {
          if (i) l += ", ";
          const Dim& dim = d.dims[i];
          if (dim.lo) l += expr(*dim.lo) + ":";
          l += dim.hi ? expr(*dim.hi) : "*";
        }
        l += ")";
      }
      line(l);
    }
    for (const auto& c : u.commons) {
      std::string l = "COMMON ";
      if (!c.name.empty()) l += "/" + c.name + "/ ";
      for (size_t i = 0; i < c.vars.size(); ++i) {
        if (i) l += ", ";
        l += c.vars[i];
      }
      line(l);
    }
  }
};

}  // namespace

std::string unparse_unit(const ProgramUnit& unit, const UnparseOptions& opts) {
  Unparser up(opts);
  up.unit(unit);
  return up.take();
}

std::string unparse(const Program& prog, const UnparseOptions& opts) {
  std::string out;
  for (const auto& u : prog.units) {
    out += unparse_unit(*u, opts);
    out += "\n";
  }
  return out;
}

std::string unparse_stmt(const Stmt& s, const UnparseOptions& opts) {
  Unparser up(opts);
  up.stmt(s);
  return up.take();
}

size_t code_size_lines(const Program& prog) {
  // External-library units model vendor code whose source the application
  // does not own; the paper's metric counts benchmark source only, so the
  // measurement is restricted to application units in every configuration.
  size_t lines = 0;
  for (const auto& u : prog.units)
    if (!u->external_library) lines += count_code_lines(unparse_unit(*u));
  return lines;
}

size_t count_code_lines(std::string_view unit_text) {
  size_t lines = 0;
  while (!unit_text.empty()) {
    size_t nl = unit_text.find('\n');
    std::string_view t = trim(unit_text.substr(0, nl));
    // Tags render as `C$ANNOT ...`: comments, which the paper strips.
    if (!t.empty() && t.substr(0, 2) != "C$") ++lines;
    unit_text.remove_prefix(nl == std::string_view::npos ? unit_text.size()
                                                         : nl + 1);
  }
  return lines;
}

}  // namespace ap::fir
