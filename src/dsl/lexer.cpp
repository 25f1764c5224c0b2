#include "dsl/lexer.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace dsl {
namespace {

/// The duration units, largest first.
constexpr std::pair<const char*, std::int64_t> kUnits[] = {
    {"s", 1'000'000'000}, {"ms", 1'000'000}, {"us", 1'000}, {"ns", 1}};

[[noreturn]] void bad(const std::string& why) {
  throw std::invalid_argument(why);
}

/// Reads `tok` through `read`, failing at its line and column.
template <typename Read>
auto at(const Line& line, const Token& tok, Read read) {
  try {
    return read(tok.text);
  } catch (const std::invalid_argument& e) {
    line.fail(tok.col, e.what());
  }
}

/// The whole of `digits` as a number in `base`: false when it is
/// malformed, true with `*overflow` set when it does not fit 64 bits.
bool parse_u64(std::string_view digits, int base, std::uint64_t* value,
               bool* overflow) {
  const char* last = digits.data() + digits.size();
  const auto [end, ec] = std::from_chars(digits.data(), last, *value, base);
  *overflow = ec == std::errc::result_out_of_range;
  return ec != std::errc::invalid_argument && end == last;
}

}  // namespace

std::uint64_t read_integer(std::string_view text, std::uint64_t lo,
                           std::uint64_t hi, const char* what, int base) {
  std::string_view digits = text;
  if (base == 0) {
    base = 10;
    if (digits.size() > 2 && digits[0] == '0' &&
        (digits[1] == 'x' || digits[1] == 'X')) {
      base = 16;
      digits.remove_prefix(2);
    } else if (digits.size() > 1 && digits[0] == '0') {
      base = 8;
      digits.remove_prefix(1);
    }
  }
  std::uint64_t value = 0;
  bool overflow = false;
  if (!parse_u64(digits, base, &value, &overflow)) {
    bad(std::string(what) + " must be an integer, got \"" + std::string(text) +
        "\"");
  }
  if (overflow || value < lo || value > hi) {
    bad(std::string(what) + " must be in " + std::to_string(lo) + ".." +
        std::to_string(hi) + ", got " + std::string(text));
  }
  return value;
}

double read_fraction(std::string_view text, const char* what, bool zero_ok) {
  const std::string s(text);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size()) {
    bad(std::string(what) + " must be a fraction, got \"" + s + "\"");
  }
  if (!(v >= 0.0 && v <= 1.0) || (!zero_ok && v == 0.0)) {
    bad(std::string(what) + " must be in " + (zero_ok ? "[0, 1]" : "(0, 1]") +
        ", got " + s);
  }
  return v;
}

sim::Duration parse_duration(std::string_view text) {
  const std::string s(text);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || !std::isfinite(v) || v < 0) {
    bad("bad duration: " + s);
  }
  const std::string_view unit(end);
  const auto* u = std::find_if(std::begin(kUnits), std::end(kUnits),
                               [&](const auto& e) { return unit == e.first; });
  if (u == std::end(kUnits)) bad("bad duration unit: " + s);
  const std::int64_t scale = u->second;
  // A whole number of units is read exactly; anything else through `v`.
  std::uint64_t n = 0;
  bool overflow = false;
  if (parse_u64(std::string_view(s.c_str(), end - s.c_str()), 10, &n,
                &overflow)) {
    if (overflow || n > std::uint64_t(INT64_MAX / scale)) {
      bad("duration above INT64_MAX ns: " + s);
    }
    return sim::Duration(std::int64_t(n) * scale);
  }
  const double ns = v * double(scale) + 0.5;
  if (ns >= 0x1p63) bad("duration above INT64_MAX ns: " + s);
  return sim::Duration(static_cast<std::int64_t>(ns));
}

std::uint64_t read_bytes(std::string_view text, const char* what) {
  int shift = 0;
  switch (text.empty() ? '\0' : text.back()) {
    case 'K': case 'k': shift = 10; break;
    case 'M': case 'm': shift = 20; break;
    case 'G': case 'g': shift = 30; break;
    default: break;
  }
  const std::string_view digits = text.substr(0, text.size() - (shift > 0));
  std::uint64_t value = 0;
  bool overflow = false;
  if (!parse_u64(digits, 10, &value, &overflow)) {
    bad(std::string(what) + " must be bytes (digits with optional K/M/G), " +
        "got \"" + std::string(text) + "\"");
  }
  if (overflow || value > (UINT64_MAX >> shift)) {
    bad(std::string(what) + " must be below 2^64 bytes, got " +
        std::string(text));
  }
  return value << shift;
}

std::string format_duration(sim::Duration d) {
  const std::int64_t ns = d.ns();
  for (const auto& [unit, scale] : kUnits) {
    if (ns != 0 && ns % scale == 0) return std::to_string(ns / scale) + unit;
  }
  return "0ns";
}

std::optional<KeyValue> key_value(const Token& tok) {
  const std::size_t eq = tok.text.find('=');
  if (eq == std::string::npos) return std::nullopt;
  return KeyValue{tok.text.substr(0, eq),
                  Token{tok.text.substr(eq + 1), tok.col + int(eq) + 1}};
}

Line::Line(const char* dsl, int number, std::string text)
    : dsl_(dsl), number_(number), text_(std::move(text)) {
  const std::size_t stop = std::min(text_.find('#'), text_.size());
  const auto space = [this](std::size_t i) {
    return std::isspace(static_cast<unsigned char>(text_[i])) != 0;
  };
  std::size_t i = 0;
  while (true) {
    while (i < stop && space(i)) ++i;
    if (i >= stop) break;
    const std::size_t start = i;
    while (i < stop && !space(i)) ++i;
    tokens_.push_back(Token{text_.substr(start, i - start), int(start) + 1});
  }
}

void Line::fail(int col, const std::string& why) const {
  throw std::invalid_argument(std::string(dsl_) + " DSL line " +
                              std::to_string(number_) + " col " +
                              std::to_string(col) + ": " + why + " in \"" +
                              text_ + "\"");
}

std::uint64_t Line::integer(const Token& tok, std::uint64_t lo,
                            std::uint64_t hi, const char* what) const {
  return at(*this, tok, [&](std::string_view s) {
    return read_integer(s, lo, hi, what);
  });
}

double Line::fraction(const Token& tok, const char* what, bool zero_ok) const {
  return at(*this, tok, [&](std::string_view s) {
    return read_fraction(s, what, zero_ok);
  });
}

sim::Duration Line::duration(const Token& tok) const {
  return at(*this, tok, parse_duration);
}

std::uint64_t Line::bytes(const Token& tok, const char* what) const {
  return at(*this, tok,
            [&](std::string_view s) { return read_bytes(s, what); });
}

std::vector<Line> lines(const char* dsl, const std::string& text) {
  std::vector<Line> out;
  std::istringstream in(text);
  std::string raw;
  int number = 0;
  while (std::getline(in, raw)) {
    Line line(dsl, ++number, std::move(raw));
    if (!line.tokens().empty()) out.push_back(std::move(line));
  }
  return out;
}

}  // namespace dsl
