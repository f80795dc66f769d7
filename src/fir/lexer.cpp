#include "fir/lexer.h"

#include <cstdlib>

#include "support/text.h"

namespace ap::fir {

const char* tok_name(Tok t) {
  switch (t) {
    case Tok::End: return "end of input";
    case Tok::Newline: return "end of line";
    case Tok::Ident: return "identifier";
    case Tok::IntLit: return "integer literal";
    case Tok::RealLit: return "real literal";
    case Tok::StrLit: return "string literal";
    case Tok::LParen: return "'('";
    case Tok::RParen: return "')'";
    case Tok::LBracket: return "'['";
    case Tok::RBracket: return "']'";
    case Tok::LBrace: return "'{'";
    case Tok::RBrace: return "'}'";
    case Tok::Comma: return "','";
    case Tok::Semicolon: return "';'";
    case Tok::Colon: return "':'";
    case Tok::Assign: return "'='";
    case Tok::Plus: return "'+'";
    case Tok::Minus: return "'-'";
    case Tok::Star: return "'*'";
    case Tok::Slash: return "'/'";
    case Tok::Power: return "'**'";
    case Tok::EqEq: return "'.EQ.'";
    case Tok::NotEq: return "'.NE.'";
    case Tok::Less: return "'.LT.'";
    case Tok::LessEq: return "'.LE.'";
    case Tok::Greater: return "'.GT.'";
    case Tok::GreaterEq: return "'.GE.'";
    case Tok::AndAnd: return "'.AND.'";
    case Tok::OrOr: return "'.OR.'";
    case Tok::NotNot: return "'.NOT.'";
    case Tok::TrueLit: return "'.TRUE.'";
    case Tok::FalseLit: return "'.FALSE.'";
  }
  return "?";
}

namespace {

// ASCII classes (the C locale's isalpha/isdigit/isalnum/isspace), inline:
// the lexer asks once per character.
inline bool is_alpha(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z');
}
inline bool is_digit(char c) { return c >= '0' && c <= '9'; }
inline bool is_ident_char(char c) {
  return is_alpha(c) || is_digit(c) || c == '_' || c == '$';
}
inline bool is_blank(char c) {  // whitespace other than '\n'
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}
inline char upper(char c) { return c >= 'a' && c <= 'z' ? c - 'a' + 'A' : c; }

struct Lexer {
  std::string_view in;
  DiagnosticEngine& diags;
  size_t pos = 0;
  uint32_t line = 1;
  uint32_t col = 1;
  bool line_has_token = false;
  std::vector<Token> out;

  char cur() const { return pos < in.size() ? in[pos] : '\0'; }
  char ahead(size_t n = 1) const {
    return pos + n < in.size() ? in[pos + n] : '\0';
  }
  void bump() {
    if (cur() == '\n') {
      ++line;
      col = 1;
    } else {
      ++col;
    }
    ++pos;
  }

  // Advances over `n` characters known to hold no newline.
  void skip(size_t n) {
    pos += n;
    col += static_cast<uint32_t>(n);
  }

  // Length of the run of characters from `pos` that satisfy `pred`.
  template <typename Pred>
  size_t span(Pred pred) const {
    size_t e = pos;
    while (e < in.size() && pred(in[e])) ++e;
    return e - pos;
  }

  // The rest of the current line, up to (not including) its newline or a
  // NUL byte.
  void skip_to_eol() {
    skip(span([](char ch) { return ch != '\n' && ch != '\0'; }));
  }

  // The span starting at `pos` of length `n`, upper-cased, consumed.
  std::string take_upper(size_t n) {
    std::string word(in.substr(pos, n));
    for (char& c : word) c = upper(c);
    skip(n);
    return word;
  }

  SourceLoc here() const { return SourceLoc{line, col}; }

  void push(Tok k, SourceLoc loc, std::string text = {}) {
    Token t;
    t.kind = k;
    t.loc = loc;
    t.text = std::move(text);
    t.at_line_start = !line_has_token;
    if (k != Tok::Newline) line_has_token = true;
    out.push_back(std::move(t));
  }

  // Dot-delimited operator or logical literal: .EQ. .AND. .TRUE. ...
  bool lex_dot_op() {
    size_t save = pos;
    SourceLoc loc = here();
    bump();  // '.'
    std::string word = take_upper(span(is_alpha));
    if (cur() != '.' || word.empty()) {
      pos = save;
      col = loc.column;
      return false;
    }
    bump();  // trailing '.'
    Tok k;
    if (word == "EQ") k = Tok::EqEq;
    else if (word == "NE") k = Tok::NotEq;
    else if (word == "LT") k = Tok::Less;
    else if (word == "LE") k = Tok::LessEq;
    else if (word == "GT") k = Tok::Greater;
    else if (word == "GE") k = Tok::GreaterEq;
    else if (word == "AND") k = Tok::AndAnd;
    else if (word == "OR") k = Tok::OrOr;
    else if (word == "NOT") k = Tok::NotNot;
    else if (word == "TRUE") k = Tok::TrueLit;
    else if (word == "FALSE") k = Tok::FalseLit;
    else {
      diags.error(loc, "unknown dot-operator '." + word + ".'");
      return true;  // consumed; error reported
    }
    push(k, loc);
    return true;
  }

  void lex_number() {
    SourceLoc loc = here();
    size_t n = span(is_digit);
    std::string digits(in.substr(pos, n));
    skip(n);
    bool is_real = false;
    // Fractional part. Careful: "1.EQ." must lex as 1 .EQ., so a '.' is part
    // of the number only when NOT followed by a letter-then-dot pattern.
    if (cur() == '.') {
      bool dot_op = false;
      if (is_alpha(ahead())) {
        // Peek for a dot-operator: .<letters>.
        size_t p = pos + 1;
        while (p < in.size() && is_alpha(in[p])) ++p;
        if (p < in.size() && in[p] == '.') {
          // Exponent letters D/E immediately followed by digits are NOT
          // dot-ops (e.g. "2.D0"): the scan above would have consumed D0... —
          // but D0 ends with a digit, so in[p]=='.' can't hit that case.
          dot_op = true;
        }
      }
      if (!dot_op) {
        is_real = true;
        digits.push_back('.');
        skip(1);
        n = span(is_digit);
        digits.append(in.substr(pos, n));
        skip(n);
      }
    }
    // Exponent: E/D with optional sign.
    char c = upper(cur());
    if (c == 'E' || c == 'D') {
      size_t p = pos + 1;
      size_t q = p;
      if (q < in.size() && (in[q] == '+' || in[q] == '-')) ++q;
      if (q < in.size() && is_digit(in[q])) {
        is_real = true;
        digits.push_back('E');
        skip(q - pos);  // E/D and the sign
        if (q == p + 1) digits.push_back(in[p]);
        n = span(is_digit);
        digits.append(in.substr(pos, n));
        skip(n);
      }
    }
    Token t;
    t.loc = loc;
    t.at_line_start = !line_has_token;
    if (is_real) {
      t.kind = Tok::RealLit;
      t.real_val = std::strtod(digits.c_str(), nullptr);
    } else {
      t.kind = Tok::IntLit;
      t.int_val = std::strtoll(digits.c_str(), nullptr, 10);
    }
    line_has_token = true;
    out.push_back(std::move(t));
  }

  void run() {
    // About one token per five source bytes in fixed-form F77.
    out.reserve(in.size() / 5 + 16);
    while (pos < in.size()) {
      char c = cur();
      // Column-1 comment lines.
      if (col == 1 && (c == 'C' || c == 'c' || c == '*')) {
        // "C$WORD" directives survive as tokens; plain comments are skipped.
        if ((c == 'C' || c == 'c') && ahead() == '$') {
          SourceLoc loc = here();
          skip(2);  // C$
          std::string word = take_upper(span([](char ch) {
            return is_alpha(ch) || is_digit(ch) || ch == '_';
          }));
          push(Tok::Ident, loc, "$" + word);
          // Rest of the directive line is ignored.
          skip_to_eol();
          continue;
        }
        // But a lone 'C'/'c' might start an identifier in free-ish form only
        // if followed by something identifier-like AND the line is code. We
        // adopt the F77 rule: column-1 C/c/* always comments the line.
        skip_to_eol();
        continue;
      }
      if (c == '!') {
        skip_to_eol();
        continue;
      }
      if (c == '\n') {
        if (line_has_token) push(Tok::Newline, here());
        line_has_token = false;
        bump();
        continue;
      }
      if (is_blank(c)) {
        skip(span(is_blank));
        continue;
      }
      if (is_digit(c)) {
        lex_number();
        continue;
      }
      if (c == '.') {
        if (is_digit(ahead())) {
          lex_number();
          continue;
        }
        if (lex_dot_op()) continue;
        diags.error(here(), "stray '.'");
        bump();
        continue;
      }
      if (is_alpha(c) || c == '_' || c == '$') {
        SourceLoc loc = here();
        push(Tok::Ident, loc, take_upper(span(is_ident_char)));
        continue;
      }
      if (c == '\'') {
        SourceLoc loc = here();
        bump();
        std::string body;
        while (cur() != '\'' && cur() != '\n' && cur() != '\0') {
          body.push_back(cur());
          bump();
        }
        if (cur() == '\'')
          bump();
        else
          diags.error(loc, "unterminated string literal");
        push(Tok::StrLit, loc, std::move(body));
        continue;
      }
      SourceLoc loc = here();
      switch (c) {
        case '(': bump(); push(Tok::LParen, loc); break;
        case ')': bump(); push(Tok::RParen, loc); break;
        case '[': bump(); push(Tok::LBracket, loc); break;
        case ']': bump(); push(Tok::RBracket, loc); break;
        case '{': bump(); push(Tok::LBrace, loc); break;
        case '}': bump(); push(Tok::RBrace, loc); break;
        case ',': bump(); push(Tok::Comma, loc); break;
        case ';': bump(); push(Tok::Semicolon, loc); break;
        case ':': bump(); push(Tok::Colon, loc); break;
        case '+': bump(); push(Tok::Plus, loc); break;
        case '-': bump(); push(Tok::Minus, loc); break;
        case '*':
          bump();
          if (cur() == '*') {
            bump();
            push(Tok::Power, loc);
          } else {
            push(Tok::Star, loc);
          }
          break;
        case '/':
          bump();
          if (cur() == '=') {
            bump();
            push(Tok::NotEq, loc);
          } else {
            push(Tok::Slash, loc);
          }
          break;
        case '=':
          bump();
          if (cur() == '=') {
            bump();
            push(Tok::EqEq, loc);
          } else {
            push(Tok::Assign, loc);
          }
          break;
        case '<':
          bump();
          if (cur() == '=') {
            bump();
            push(Tok::LessEq, loc);
          } else {
            push(Tok::Less, loc);
          }
          break;
        case '>':
          bump();
          if (cur() == '=') {
            bump();
            push(Tok::GreaterEq, loc);
          } else {
            push(Tok::Greater, loc);
          }
          break;
        default:
          diags.error(loc, std::string("unexpected character '") + c + "'");
          bump();
          break;
      }
    }
    if (line_has_token) push(Tok::Newline, here());
  }
};

}  // namespace

std::vector<Token> lex(std::string_view input, DiagnosticEngine& diags) {
  Lexer lx{input, diags, 0, 1, 1, false, {}};
  lx.run();
  return std::move(lx.out);
}

bool TokenCursor::at_ident(std::string_view kw) const {
  const Token& t = peek();
  return t.kind == Tok::Ident && ieq(t.text, kw);
}

bool TokenCursor::accept_ident(std::string_view kw) {
  if (at_ident(kw)) {
    advance();
    return true;
  }
  return false;
}

}  // namespace ap::fir
