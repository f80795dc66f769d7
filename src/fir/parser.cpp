#include "fir/parser.h"

#include <array>
#include <cassert>
#include <optional>

#include "fir/lexer.h"
#include "support/text.h"

namespace ap::fir {

bool is_intrinsic_name(std::string_view name) {
  static const std::array<std::string_view, 26> kIntrinsics = {
      "MIN",  "MAX",  "MOD",   "ABS",  "SQRT", "EXP",  "LOG",   "SIN",
      "COS",  "TAN",  "DBLE",  "REAL", "INT",  "NINT", "FLOAT", "SIGN",
      "IABS", "DABS", "DSQRT", "DMOD", "AMAX1", "AMIN1", "MAX0", "MIN0",
      "DEXP", "DLOG"};
  for (auto k : kIntrinsics)
    if (ieq(k, name)) return true;
  return false;
}

namespace {

class Parser {
 public:
  Parser(std::vector<Token> toks, DiagnosticEngine& diags)
      : cur_(std::move(toks)), diags_(diags) {}

  std::unique_ptr<Program> parse() {
    auto prog = std::make_unique<Program>();
    cur_.skip_newlines();
    bool next_is_library = false;
    while (!cur_.at(Tok::End)) {
      if (cur_.at_ident("$LIBRARY")) {
        cur_.advance();
        cur_.skip_newlines();
        next_is_library = true;
        continue;
      }
      auto unit = parse_unit(next_is_library);
      next_is_library = false;
      if (!unit) return nullptr;
      prog->units.push_back(std::move(unit));
      cur_.skip_newlines();
    }
    if (diags_.has_errors()) return nullptr;
    number_loops(*prog);
    return prog;
  }

  ExprPtr parse_single_expr() {
    cur_.skip_newlines();
    auto e = parse_expr();
    return diags_.has_errors() ? nullptr : std::move(e);
  }

 private:
  TokenCursor cur_;
  DiagnosticEngine& diags_;
  ProgramUnit* unit_ = nullptr;
  // Label of the most recently closed labeled-DO terminator; lets nested
  // loops that share one "200 CONTINUE" all close on it.
  int64_t just_closed_label_ = -1;

  void error_here(std::string msg) { diags_.error(cur_.peek().loc, std::move(msg)); }

  bool expect(Tok k) {
    if (cur_.accept(k)) return true;
    error_here(std::string("expected ") + tok_name(k) + ", found " +
               tok_name(cur_.peek().kind) +
               (cur_.peek().kind == Tok::Ident ? " '" + cur_.peek().text + "'" : ""));
    return false;
  }

  void sync_to_newline() {
    while (!cur_.at(Tok::Newline) && !cur_.at(Tok::End)) cur_.advance();
    cur_.accept(Tok::Newline);
  }

  // ---- program units -----------------------------------------------------

  std::unique_ptr<ProgramUnit> parse_unit(bool library) {
    auto unit = std::make_unique<ProgramUnit>();
    unit->loc = cur_.peek().loc;
    unit->external_library = library;
    if (cur_.accept_ident("PROGRAM")) {
      unit->kind = UnitKind::Program;
    } else if (cur_.accept_ident("SUBROUTINE")) {
      unit->kind = UnitKind::Subroutine;
    } else {
      error_here("expected PROGRAM or SUBROUTINE, found '" + cur_.peek().text + "'");
      return nullptr;
    }
    if (!cur_.at(Tok::Ident)) {
      error_here("expected unit name");
      return nullptr;
    }
    unit->name = cur_.advance().text;
    if (cur_.accept(Tok::LParen)) {
      if (!cur_.accept(Tok::RParen)) {
        do {
          if (!cur_.at(Tok::Ident)) {
            error_here("expected parameter name");
            return nullptr;
          }
          unit->params.push_back(cur_.advance().text);
        } while (cur_.accept(Tok::Comma));
        if (!expect(Tok::RParen)) return nullptr;
      }
    }
    if (!expect(Tok::Newline)) return nullptr;

    unit_ = unit.get();
    // Body: declarations and statements until END.
    unit->body = parse_stmt_list(/*until_label=*/-1, /*top_level=*/true);
    unit_ = nullptr;
    return diags_.has_errors() ? nullptr : std::move(unit);
  }

  // ---- declarations -------------------------------------------------------

  // ProgramUnit::find_decl with exact matching: lexed identifiers are
  // upper-cased on both sides, so `==` is its case-insensitive match.
  VarDecl* find_decl(const std::string& name) {
    for (auto& d : unit_->decls)
      if (d.name == name) return &d;
    return nullptr;
  }

  // Returns true if the upcoming line is a declaration it consumed.
  bool try_parse_declaration() {
    if (cur_.at_ident("INTEGER")) return parse_type_decl(Type::Integer);
    if (cur_.at_ident("REAL")) return parse_type_decl(Type::Real);
    if (cur_.at_ident("LOGICAL")) return parse_type_decl(Type::Logical);
    if (cur_.at_ident("DOUBLE")) {
      cur_.advance();
      if (!cur_.accept_ident("PRECISION")) {
        error_here("expected PRECISION after DOUBLE");
        sync_to_newline();
        return true;
      }
      return parse_decl_list(Type::Real);
    }
    if (cur_.at_ident("DIMENSION")) {
      cur_.advance();
      return parse_decl_list(Type::Unknown);
    }
    if (cur_.at_ident("COMMON")) {
      cur_.advance();
      return parse_common();
    }
    if (cur_.at_ident("PARAMETER")) {
      cur_.advance();
      return parse_parameter();
    }
    return false;
  }

  bool parse_type_decl(Type t) {
    cur_.advance();  // keyword
    return parse_decl_list(t);
  }

  // Shared by INTEGER/REAL/... and DIMENSION (type Unknown = keep previous
  // or default REAL).
  bool parse_decl_list(Type t) {
    do {
      if (!cur_.at(Tok::Ident)) {
        error_here("expected variable name in declaration");
        sync_to_newline();
        return true;
      }
      SourceLoc loc = cur_.peek().loc;
      std::string name = cur_.advance().text;
      std::vector<Dim> dims;
      if (cur_.accept(Tok::LParen)) {
        do {
          dims.push_back(parse_dim());
        } while (cur_.accept(Tok::Comma));
        if (!expect(Tok::RParen)) {
          sync_to_newline();
          return true;
        }
      }
      VarDecl* existing = find_decl(name);
      if (existing) {
        // DIMENSION after a type statement (or vice versa) merges.
        if (t != Type::Unknown) existing->type = t;
        if (!dims.empty()) existing->dims = std::move(dims);
      } else {
        VarDecl d;
        d.name = name;
        d.type = (t == Type::Unknown) ? Type::Real : t;
        d.dims = std::move(dims);
        d.loc = loc;
        // Fortran implicit typing: I..N default INTEGER when no explicit
        // type was given (DIMENSION only).
        if (t == Type::Unknown && !name.empty() && name[0] >= 'I' && name[0] <= 'N')
          d.type = Type::Integer;
        unit_->decls.push_back(std::move(d));
      }
    } while (cur_.accept(Tok::Comma));
    expect(Tok::Newline);
    return true;
  }

  Dim parse_dim() {
    Dim d;
    if (cur_.accept(Tok::Star)) {
      // assumed size: lo=1, hi=null
      return d;
    }
    ExprPtr first = parse_expr();
    if (cur_.accept(Tok::Colon)) {
      d.lo = std::move(first);
      if (cur_.accept(Tok::Star)) return d;  // lo:* assumed size
      d.hi = parse_expr();
    } else {
      d.hi = std::move(first);
    }
    return d;
  }

  bool parse_common() {
    std::string block_name;
    if (cur_.accept(Tok::Slash)) {
      if (cur_.at(Tok::Ident)) block_name = cur_.advance().text;
      if (!expect(Tok::Slash)) {
        sync_to_newline();
        return true;
      }
    }
    CommonBlock blk;
    blk.name = block_name;
    do {
      if (!cur_.at(Tok::Ident)) {
        error_here("expected variable name in COMMON");
        sync_to_newline();
        return true;
      }
      SourceLoc loc = cur_.peek().loc;
      std::string name = cur_.advance().text;
      std::vector<Dim> dims;
      if (cur_.accept(Tok::LParen)) {
        do {
          dims.push_back(parse_dim());
        } while (cur_.accept(Tok::Comma));
        if (!expect(Tok::RParen)) {
          sync_to_newline();
          return true;
        }
      }
      blk.vars.push_back(name);
      if (VarDecl* existing = find_decl(name)) {
        if (!dims.empty()) existing->dims = std::move(dims);
      } else {
        VarDecl d;
        d.name = name;
        d.type = (!name.empty() && name[0] >= 'I' && name[0] <= 'N')
                     ? Type::Integer
                     : Type::Real;
        d.dims = std::move(dims);
        d.loc = loc;
        unit_->decls.push_back(std::move(d));
      }
    } while (cur_.accept(Tok::Comma));
    unit_->commons.push_back(std::move(blk));
    expect(Tok::Newline);
    return true;
  }

  bool parse_parameter() {
    if (!expect(Tok::LParen)) {
      sync_to_newline();
      return true;
    }
    do {
      if (!cur_.at(Tok::Ident)) {
        error_here("expected constant name in PARAMETER");
        sync_to_newline();
        return true;
      }
      SourceLoc loc = cur_.peek().loc;
      std::string name = cur_.advance().text;
      if (!expect(Tok::Assign)) {
        sync_to_newline();
        return true;
      }
      ExprPtr value = parse_expr();
      VarDecl* existing = find_decl(name);
      if (existing) {
        existing->is_param_const = true;
        existing->param_value = std::move(value);
      } else {
        VarDecl d;
        d.name = name;
        d.type = (!name.empty() && name[0] >= 'I' && name[0] <= 'N')
                     ? Type::Integer
                     : Type::Real;
        d.is_param_const = true;
        d.param_value = std::move(value);
        d.loc = loc;
        unit_->decls.push_back(std::move(d));
      }
    } while (cur_.accept(Tok::Comma));
    expect(Tok::RParen);
    expect(Tok::Newline);
    return true;
  }

  // ---- statements ----------------------------------------------------------

  // Parses statements until one of:
  //  * END / ENDDO / ELSE / ENDIF (not consumed except END at top level),
  //  * the statement carrying `until_label` has been parsed (labeled DO).
  std::vector<StmtPtr> parse_stmt_list(int64_t until_label, bool top_level) {
    std::vector<StmtPtr> out;
    for (;;) {
      cur_.skip_newlines();
      // A nested loop sharing our terminator label already closed it.
      if (until_label >= 0 && just_closed_label_ == until_label) return out;
      if (cur_.at(Tok::End)) {
        if (top_level) error_here("missing END");
        return out;
      }
      if (cur_.at_ident("END")) {
        if (top_level) {
          cur_.advance();
          cur_.accept(Tok::Newline);
        }
        return out;
      }
      if (cur_.at_ident("ENDDO") || cur_.at_ident("ELSE") ||
          cur_.at_ident("ENDIF") || cur_.at_ident("ELSEIF"))
        return out;

      if (top_level && try_parse_declaration()) continue;

      // Optional statement label.
      int64_t label = -1;
      if (cur_.at(Tok::IntLit) && cur_.peek().at_line_start) {
        label = cur_.advance().int_val;
      }
      StmtPtr s = parse_stmt();
      if (label >= 0) just_closed_label_ = label;
      if (s) {
        // Drop bare CONTINUE markers: they only exist to carry terminator
        // labels and have no effect.
        if (s->kind != StmtKind::Continue) out.push_back(std::move(s));
      }
      if (until_label >= 0 && just_closed_label_ == until_label) return out;
      if (diags_.error_count() > 20) return out;  // bail out of error storms
    }
  }

  StmtPtr parse_stmt() {
    SourceLoc loc = cur_.peek().loc;
    if (cur_.accept_ident("DO")) return parse_do(loc);
    if (cur_.accept_ident("IF")) return parse_if(loc);
    if (cur_.accept_ident("CALL")) return parse_call(loc);
    if (cur_.accept_ident("WRITE")) return parse_write(loc);
    if (cur_.accept_ident("PRINT")) return parse_print(loc);
    if (cur_.accept_ident("STOP")) {
      std::string msg;
      if (cur_.at(Tok::StrLit)) msg = cur_.advance().text;
      else if (cur_.at(Tok::IntLit)) msg = std::to_string(cur_.advance().int_val);
      expect(Tok::Newline);
      auto s = make_stop(std::move(msg));
      s->loc = loc;
      return s;
    }
    if (cur_.accept_ident("RETURN")) {
      expect(Tok::Newline);
      auto s = make_return();
      s->loc = loc;
      return s;
    }
    if (cur_.accept_ident("CONTINUE")) {
      expect(Tok::Newline);
      auto s = make_continue();
      s->loc = loc;
      return s;
    }
    // Assignment.
    if (cur_.at(Tok::Ident)) {
      ExprPtr lhs = parse_designator();
      if (!lhs) {
        sync_to_newline();
        return nullptr;
      }
      if (!expect(Tok::Assign)) {
        sync_to_newline();
        return nullptr;
      }
      ExprPtr rhs = parse_expr();
      expect(Tok::Newline);
      auto s = make_assign(std::move(lhs), std::move(rhs));
      s->loc = loc;
      return s;
    }
    error_here("expected a statement, found " + std::string(tok_name(cur_.peek().kind)));
    sync_to_newline();
    return nullptr;
  }

  StmtPtr parse_do(SourceLoc loc) {
    int64_t label = -1;
    if (cur_.at(Tok::IntLit)) label = cur_.advance().int_val;
    if (!cur_.at(Tok::Ident)) {
      error_here("expected DO variable");
      sync_to_newline();
      return nullptr;
    }
    std::string var = cur_.advance().text;
    if (!expect(Tok::Assign)) {
      sync_to_newline();
      return nullptr;
    }
    ExprPtr lo = parse_expr();
    if (!expect(Tok::Comma)) {
      sync_to_newline();
      return nullptr;
    }
    ExprPtr hi = parse_expr();
    ExprPtr step;
    if (cur_.accept(Tok::Comma)) step = parse_expr();
    expect(Tok::Newline);

    std::vector<StmtPtr> body;
    if (label >= 0) {
      // Forget the previous terminator: labels are per unit, and a stale
      // match (an earlier unit's "10 CONTINUE") would close this loop
      // before its first statement.
      just_closed_label_ = -1;
      body = parse_stmt_list(label, /*top_level=*/false);
    } else {
      body = parse_stmt_list(-1, /*top_level=*/false);
      if (!cur_.accept_ident("ENDDO"))
        error_here("expected ENDDO");
      cur_.accept(Tok::Newline);
    }
    auto s = make_do(std::move(var), std::move(lo), std::move(hi),
                     std::move(step), std::move(body));
    s->loc = loc;
    return s;
  }

  StmtPtr parse_if(SourceLoc loc) {
    if (!expect(Tok::LParen)) {
      sync_to_newline();
      return nullptr;
    }
    ExprPtr cond = parse_expr();
    if (!expect(Tok::RParen)) {
      sync_to_newline();
      return nullptr;
    }
    if (cur_.accept_ident("THEN")) {
      expect(Tok::Newline);
      std::vector<StmtPtr> then_body = parse_stmt_list(-1, false);
      std::vector<StmtPtr> else_body;
      if (cur_.accept_ident("ELSE")) {
        cur_.accept(Tok::Newline);
        else_body = parse_stmt_list(-1, false);
      }
      if (!cur_.accept_ident("ENDIF")) error_here("expected ENDIF");
      cur_.accept(Tok::Newline);
      auto s = make_if(std::move(cond), std::move(then_body), std::move(else_body));
      s->loc = loc;
      return s;
    }
    // Logical IF: one statement on the same line.
    StmtPtr inner = parse_stmt();
    std::vector<StmtPtr> then_body;
    if (inner) then_body.push_back(std::move(inner));
    auto s = make_if(std::move(cond), std::move(then_body));
    s->loc = loc;
    return s;
  }

  StmtPtr parse_call(SourceLoc loc) {
    if (!cur_.at(Tok::Ident)) {
      error_here("expected subroutine name after CALL");
      sync_to_newline();
      return nullptr;
    }
    std::string name = cur_.advance().text;
    std::vector<ExprPtr> args;
    if (cur_.accept(Tok::LParen)) {
      if (!cur_.at(Tok::RParen)) {
        do {
          args.push_back(parse_expr());
        } while (cur_.accept(Tok::Comma));
      }
      expect(Tok::RParen);
    }
    expect(Tok::Newline);
    auto s = make_call(std::move(name), std::move(args));
    s->loc = loc;
    return s;
  }

  StmtPtr parse_write(SourceLoc loc) {
    // WRITE ( unit , fmt ) items...   — unit/fmt tokens are skipped loosely.
    if (expect(Tok::LParen)) {
      int depth = 1;
      while (depth > 0 && !cur_.at(Tok::End) && !cur_.at(Tok::Newline)) {
        if (cur_.at(Tok::LParen)) ++depth;
        if (cur_.at(Tok::RParen)) --depth;
        cur_.advance();
      }
    }
    std::vector<ExprPtr> items;
    if (!cur_.at(Tok::Newline) && !cur_.at(Tok::End)) {
      do {
        items.push_back(parse_expr());
      } while (cur_.accept(Tok::Comma));
    }
    expect(Tok::Newline);
    auto s = make_write(std::move(items));
    s->loc = loc;
    return s;
  }

  StmtPtr parse_print(SourceLoc loc) {
    // PRINT *, items
    cur_.accept(Tok::Star);
    cur_.accept(Tok::Comma);
    std::vector<ExprPtr> items;
    if (!cur_.at(Tok::Newline) && !cur_.at(Tok::End)) {
      do {
        items.push_back(parse_expr());
      } while (cur_.accept(Tok::Comma));
    }
    expect(Tok::Newline);
    auto s = make_write(std::move(items));
    s->loc = loc;
    return s;
  }

  // Designator for assignment LHS: scalar or array element/section.
  ExprPtr parse_designator() {
    SourceLoc loc = cur_.peek().loc;
    std::string name = cur_.advance().text;
    if (cur_.accept(Tok::LParen)) {
      std::vector<ExprPtr> subs;
      do {
        subs.push_back(parse_subscript());
      } while (cur_.accept(Tok::Comma));
      if (!expect(Tok::RParen)) return nullptr;
      auto e = make_array_ref(std::move(name), std::move(subs));
      e->loc = loc;
      return e;
    }
    auto e = make_var(std::move(name));
    e->loc = loc;
    return e;
  }

  // A subscript may be an expression or a section lo:hi[:stride]; any part
  // of the section may be omitted (":", "lo:", ":hi").
  ExprPtr parse_subscript() {
    ExprPtr lo;
    if (!cur_.at(Tok::Colon)) {
      lo = parse_expr();
      if (!cur_.at(Tok::Colon)) return lo;  // plain expression subscript
    }
    cur_.advance();  // ':'
    ExprPtr hi;
    if (!cur_.at(Tok::Comma) && !cur_.at(Tok::RParen) && !cur_.at(Tok::RBracket) &&
        !cur_.at(Tok::Colon))
      hi = parse_expr();
    ExprPtr stride;
    if (cur_.accept(Tok::Colon)) stride = parse_expr();
    return make_section(std::move(lo), std::move(hi), std::move(stride));
  }

  // ---- expressions ---------------------------------------------------------

  ExprPtr parse_expr() { return parse_or(); }

  ExprPtr parse_or() {
    ExprPtr lhs = parse_and();
    while (cur_.accept(Tok::OrOr))
      lhs = make_binary(BinOp::Or, std::move(lhs), parse_and());
    return lhs;
  }

  ExprPtr parse_and() {
    ExprPtr lhs = parse_not();
    while (cur_.accept(Tok::AndAnd))
      lhs = make_binary(BinOp::And, std::move(lhs), parse_not());
    return lhs;
  }

  ExprPtr parse_not() {
    if (cur_.accept(Tok::NotNot))
      return make_unary(UnOp::Not, parse_not());
    return parse_rel();
  }

  ExprPtr parse_rel() {
    ExprPtr lhs = parse_add();
    BinOp op;
    switch (cur_.peek().kind) {
      case Tok::EqEq: op = BinOp::Eq; break;
      case Tok::NotEq: op = BinOp::Ne; break;
      case Tok::Less: op = BinOp::Lt; break;
      case Tok::LessEq: op = BinOp::Le; break;
      case Tok::Greater: op = BinOp::Gt; break;
      case Tok::GreaterEq: op = BinOp::Ge; break;
      default: return lhs;
    }
    cur_.advance();
    return make_binary(op, std::move(lhs), parse_add());
  }

  ExprPtr parse_add() {
    ExprPtr lhs;
    if (cur_.accept(Tok::Minus))
      lhs = make_unary(UnOp::Neg, parse_mul());
    else {
      cur_.accept(Tok::Plus);
      lhs = parse_mul();
    }
    for (;;) {
      if (cur_.accept(Tok::Plus))
        lhs = make_binary(BinOp::Add, std::move(lhs), parse_mul());
      else if (cur_.accept(Tok::Minus))
        lhs = make_binary(BinOp::Sub, std::move(lhs), parse_mul());
      else
        return lhs;
    }
  }

  ExprPtr parse_mul() {
    ExprPtr lhs = parse_pow();
    for (;;) {
      if (cur_.accept(Tok::Star))
        lhs = make_binary(BinOp::Mul, std::move(lhs), parse_pow());
      else if (cur_.accept(Tok::Slash))
        lhs = make_binary(BinOp::Div, std::move(lhs), parse_pow());
      else
        return lhs;
    }
  }

  ExprPtr parse_pow() {
    ExprPtr base = parse_primary();
    if (cur_.accept(Tok::Power))
      return make_binary(BinOp::Pow, std::move(base), parse_pow());
    return base;
  }

  ExprPtr parse_primary() {
    SourceLoc loc = cur_.peek().loc;
    switch (cur_.peek().kind) {
      case Tok::IntLit: {
        auto e = make_int(cur_.advance().int_val);
        e->loc = loc;
        return e;
      }
      case Tok::RealLit: {
        auto e = make_real(cur_.advance().real_val);
        e->loc = loc;
        return e;
      }
      case Tok::StrLit: {
        auto e = make_str(cur_.advance().text);
        e->loc = loc;
        return e;
      }
      case Tok::TrueLit:
        cur_.advance();
        return make_logical(true);
      case Tok::FalseLit:
        cur_.advance();
        return make_logical(false);
      case Tok::Minus:
        cur_.advance();
        return make_unary(UnOp::Neg, parse_primary());
      case Tok::LParen: {
        cur_.advance();
        ExprPtr inner = parse_expr();
        expect(Tok::RParen);
        return inner;
      }
      case Tok::Ident: {
        std::string name = cur_.advance().text;
        if (cur_.accept(Tok::LParen)) {
          std::vector<ExprPtr> args;
          if (!cur_.at(Tok::RParen)) {
            do {
              args.push_back(parse_subscript());
            } while (cur_.accept(Tok::Comma));
          }
          expect(Tok::RParen);
          ExprPtr e;
          if (ieq(name, "UNKNOWN"))
            e = make_unknown(std::move(args));
          else if (ieq(name, "UNIQUE"))
            e = make_unique(std::move(args));
          else if (is_intrinsic_name(name))
            e = make_intrinsic(std::move(name), std::move(args));
          else
            e = make_array_ref(std::move(name), std::move(args));
          e->loc = loc;
          return e;
        }
        auto e = make_var(std::move(name));
        e->loc = loc;
        return e;
      }
      default:
        error_here(std::string("expected an expression, found ") +
                   tok_name(cur_.peek().kind));
        cur_.advance();
        return make_int(0);
    }
  }
};

}  // namespace

std::unique_ptr<Program> parse_program(std::string_view source,
                                       DiagnosticEngine& diags) {
  auto toks = lex(source, diags);
  if (diags.has_errors()) return nullptr;
  return parse_tokens(std::move(toks), diags);
}

std::unique_ptr<Program> parse_tokens(std::vector<Token> toks,
                                      DiagnosticEngine& diags) {
  Parser p(std::move(toks), diags);
  return p.parse();
}

ExprPtr parse_expression(std::string_view source, DiagnosticEngine& diags) {
  auto toks = lex(source, diags);
  if (diags.has_errors()) return nullptr;
  Parser p(std::move(toks), diags);
  return p.parse_single_expr();
}

}  // namespace ap::fir
