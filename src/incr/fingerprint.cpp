#include "incr/fingerprint.h"

#include <cctype>
#include <cstring>
#include <map>

#include "fir/lexer.h"
#include "support/diagnostics.h"
#include "support/fnv.h"
#include "support/text.h"

namespace ap::incr {

namespace {

uint64_t fold_token(uint64_t h, const fir::Token& t) {
  h = fnv_u64(h, static_cast<uint64_t>(t.kind));
  h = fnv1a(h, t.text);
  h = fnv1a(h, std::string_view("\0", 1));
  h = fnv_u64(h, static_cast<uint64_t>(t.int_val));
  uint64_t real_bits = 0;
  static_assert(sizeof(real_bits) == sizeof(t.real_val));
  std::memcpy(&real_bits, &t.real_val, sizeof(real_bits));
  h = fnv_u64(h, real_bits);
  h = fnv_u64(h, t.at_line_start ? 1u : 0u);
  return h;
}

bool is_unit_header(const std::vector<fir::Token>& toks, size_t i,
                    bool at_stmt_start) {
  if (!at_stmt_start) return false;
  const fir::Token& t = toks[i];
  if (t.kind != fir::Tok::Ident) return false;
  if (t.text != "PROGRAM" && t.text != "SUBROUTINE") return false;
  // The header keyword is followed by the unit name.
  return i + 1 < toks.size() && toks[i + 1].kind == fir::Tok::Ident;
}

// Splits the annotation DSL (`subroutine NAME(...) { ... }` entries) at
// top-level `SUBROUTINE` idents and hashes each entry. Returns the per-name
// entry hashes plus a salt folded from any token outside a named entry.
void hash_annotations(std::string_view annotations,
                      std::map<std::string, uint64_t>& by_name,
                      uint64_t& salt) {
  if (annotations.empty()) return;
  DiagnosticEngine diags;
  auto toks = fir::lex(annotations, diags);
  if (diags.has_errors()) {
    // Unlexable annotations: salt everything (the pipeline will report the
    // real error; the incremental plan must just not claim false hits).
    salt = fnv1a(salt, annotations);
    return;
  }
  int depth = 0;
  std::string current;  // "" = outside any entry
  uint64_t h = kFnvOffset;
  auto flush = [&]() {
    if (current.empty()) return;
    auto [it, inserted] = by_name.emplace(current, h);
    if (!inserted) it->second = fnv_u64(it->second, h);
    current.clear();
  };
  for (size_t i = 0; i < toks.size(); ++i) {
    const fir::Token& t = toks[i];
    if (t.kind == fir::Tok::End) break;
    if (depth == 0 && t.kind == fir::Tok::Ident && t.text == "SUBROUTINE" &&
        i + 1 < toks.size() && toks[i + 1].kind == fir::Tok::Ident) {
      flush();
      current = toks[i + 1].text;
      h = kFnvOffset;
    }
    if (t.kind == fir::Tok::LBrace) ++depth;
    if (t.kind == fir::Tok::RBrace && depth > 0) --depth;
    if (current.empty()) {
      if (t.kind != fir::Tok::Newline) salt = fold_token(salt, t);
    } else {
      h = fold_token(h, t);
    }
  }
  flush();
}

// The token-level unit split: names and own-token hashes, before any
// annotation folding.
SourceFingerprints split_units(const std::vector<fir::Token>& toks) {
  SourceFingerprints out;
  bool at_stmt_start = true;
  bool pending_library = false;
  bool have_unit = false;
  UnitFingerprint cur;
  for (size_t i = 0; i < toks.size(); ++i) {
    const fir::Token& t = toks[i];
    if (t.kind == fir::Tok::End) break;
    bool stmt_start = at_stmt_start;
    at_stmt_start = (t.kind == fir::Tok::Newline);
    if (stmt_start && t.kind == fir::Tok::Ident && t.text == "$LIBRARY") {
      // Belongs to the unit the directive marks, which starts next.
      pending_library = true;
      continue;
    }
    if (is_unit_header(toks, i, stmt_start)) {
      if (have_unit) out.units.push_back(std::move(cur));
      cur = UnitFingerprint{};
      cur.name = toks[i + 1].text;
      cur.fp = kFnvOffset;
      if (pending_library) cur.fp = fnv_u64(cur.fp, 0x11B);
      pending_library = false;
      have_unit = true;
    }
    if (!have_unit) return out;  // tokens before any unit header: give up
    if (t.kind != fir::Tok::Newline) cur.fp = fold_token(cur.fp, t);
  }
  if (have_unit) out.units.push_back(std::move(cur));
  out.ok = !out.units.empty();
  return out;
}

}  // namespace

SourceFingerprints fingerprint_units(std::string_view source,
                                     std::string_view annotations) {
  DiagnosticEngine diags;
  auto toks = fir::lex(source, diags);
  if (diags.has_errors()) return {};
  return fingerprint_units(toks, annotations);
}

SourceFingerprints fingerprint_units(const std::vector<fir::Token>& source_toks,
                                     std::string_view annotations) {
  SourceFingerprints out = split_units(source_toks);
  if (!out.ok) return out;

  std::map<std::string, uint64_t> annot_by_name;
  uint64_t salt = kFnvOffset;
  hash_annotations(annotations, annot_by_name, salt);
  for (auto& u : out.units) {
    auto it = annot_by_name.find(u.name);
    if (it != annot_by_name.end()) u.fp = fnv_u64(u.fp, it->second);
  }
  // Annotation entries naming no source unit (and stray tokens) fold into
  // every fingerprint: conservative global invalidation.
  for (auto& [name, h] : annot_by_name) {
    bool matched = false;
    for (const auto& u : out.units) matched |= (u.name == name);
    if (!matched) salt = fnv_u64(salt, h);
  }
  if (salt != kFnvOffset)
    for (auto& u : out.units) u.fp = fnv_u64(u.fp, salt);
  return out;
}

std::vector<std::string> source_unit_names(std::string_view source) {
  std::vector<std::string> names;
  for (auto& u : fingerprint_units(source, "").units) names.push_back(u.name);
  return names;
}

std::string mutate_unit(std::string_view source, std::string_view unit_name,
                        int salt) {
  // Line scan: find the header line of `unit_name`, then the first
  // top-level END line after it, and insert the edit statement before it.
  std::string target = fold_upper(unit_name);
  std::string out;
  out.reserve(source.size() + 32);
  bool in_target = false;
  bool done = false;
  size_t pos = 0;
  while (pos <= source.size()) {
    size_t nl = source.find('\n', pos);
    std::string_view line = source.substr(
        pos, nl == std::string_view::npos ? std::string_view::npos : nl - pos);
    std::string t = fold_upper(trim(line));
    bool comment = !line.empty() && (line[0] == 'C' || line[0] == 'c' ||
                                     line[0] == '*' || line[0] == '!');
    if (!comment) {
      if (t.rfind("PROGRAM ", 0) == 0 || t.rfind("SUBROUTINE ", 0) == 0) {
        std::string rest = t.substr(t.find(' ') + 1);
        size_t end = 0;
        while (end < rest.size() &&
               (std::isalnum(static_cast<unsigned char>(rest[end])) ||
                rest[end] == '_'))
          ++end;
        in_target = (rest.substr(0, end) == target);
      } else if (in_target && !done && t == "END") {
        out += "      IEDIT = " + std::to_string(salt) + "\n";
        done = true;
      }
    }
    out.append(line);
    if (nl == std::string_view::npos) break;
    out += '\n';
    pos = nl + 1;
  }
  return done ? out : std::string(source);
}

}  // namespace ap::incr
