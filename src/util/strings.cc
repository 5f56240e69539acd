#include "util/strings.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace datacell {

std::vector<std::string> SplitString(std::string_view input, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      break;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string JoinStrings(const std::vector<std::string>& pieces,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

std::string_view TrimWhitespace(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

namespace {

// strtoll/strtod need a NUL-terminated copy. Literals that fit (every
// number the codec or the SQL lexer produces) are copied onto the stack;
// only longer ones, e.g. heavily zero-padded, go to the heap.
constexpr size_t kStackLiteral = 128;

template <typename T, typename Fn>
bool ParseTerminated(std::string_view s, Fn parse, T* out, bool* range) {
  char stack[kStackLiteral];
  std::string heap;
  char* buf = stack;
  if (s.size() >= kStackLiteral) {
    heap.assign(s);
    buf = heap.data();
  } else {
    std::memcpy(stack, s.data(), s.size());
    stack[s.size()] = '\0';
  }
  errno = 0;
  char* end = nullptr;
  *out = parse(buf, &end);
  *range = errno == ERANGE;
  return end == buf + s.size();
}

}  // namespace

Result<int64_t> ParseInt64(std::string_view s) {
  if (s.empty()) return Status::ParseError("empty integer literal");
  // Fast path: from_chars accepts a subset of what strtoll does (no '+',
  // no leading whitespace) and agrees on the value wherever both accept.
  int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec == std::errc() && ptr == s.data() + s.size()) return v;
  long long slow = 0;
  bool range = false;
  const bool whole = ParseTerminated(
      s, [](const char* b, char** e) { return std::strtoll(b, e, 10); },
      &slow, &range);
  if (range) {
    return Status::ParseError("integer out of range: " + std::string(s));
  }
  if (!whole) return Status::ParseError("invalid integer: " + std::string(s));
  return static_cast<int64_t>(slow);
}

Result<double> ParseDouble(std::string_view s) {
  if (s.empty()) return Status::ParseError("empty double literal");
  // Fast path for normal numbers and zero only: strtod sets ERANGE on
  // subnormal results, and it alone spells out nan/inf signs and
  // payloads, hex floats, '+' and leading whitespace.
  double v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec == std::errc() && ptr == s.data() + s.size() &&
      (std::isnormal(v) || v == 0.0)) {
    return v;
  }
  bool range = false;
  const bool whole = ParseTerminated(
      s, [](const char* b, char** e) { return std::strtod(b, e); }, &v,
      &range);
  if (range) {
    return Status::ParseError("double out of range: " + std::string(s));
  }
  if (!whole) return Status::ParseError("invalid double: " + std::string(s));
  return v;
}

std::string StringPrintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

}  // namespace datacell
