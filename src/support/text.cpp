#include "support/text.h"

#include <cctype>

namespace ap {

std::string fold_upper(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) out.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
  return out;
}

bool ieq(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  auto upper = [](char c) { return c >= 'a' && c <= 'z' ? c - 'a' + 'A' : c; };
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i] && upper(a[i]) != upper(b[i])) return false;
  return true;
}

std::string_view trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

size_t count_lines(std::string_view text) {
  if (text.empty()) return 0;
  size_t n = 0;
  for (char c : text)
    if (c == '\n') ++n;
  if (text.back() != '\n') ++n;
  return n;
}

bool is_identifier(std::string_view s) {
  if (s.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(s[0]))) return false;
  for (char c : s.substr(1)) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  return true;
}

}  // namespace ap
