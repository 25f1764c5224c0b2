// The one text front end of the line-oriented DSLs (the chaos schedules of
// docs/faults.md, the tenant specs of docs/jobs.md) and of the tools' flag
// values: one tokenizer, one error format and one reader per kind of
// number. Every reader checks its range, so a value outside it is an error
// naming the value, never a wrapped or clamped number — the way the Trio
// Compiler rejects a program over its resource budget instead of trimming
// it (paper §3).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace dsl {

// --- Readers ---------------------------------------------------------------
// Each reads one whole token and throws std::invalid_argument saying what
// is wrong with it; Line's readers below add the token's position.

/// An unsigned integer in [lo, hi], called `what` in errors. Decimal
/// digits; `base` 0 also takes C's prefixes (`0x` hex, leading-`0` octal)
/// as strtoull does. No sign.
std::uint64_t read_integer(std::string_view text, std::uint64_t lo,
                           std::uint64_t hi, const char* what, int base = 10);

/// A real number in [0, 1], or in (0, 1] when `zero_ok` is false.
double read_fraction(std::string_view text, const char* what,
                     bool zero_ok = true);

/// `10ms`, `250us`, `1.5s`, `4000ns`: a finite, non-negative number and a
/// unit, rounded to the nanosecond (a whole number of units is exact); at
/// most INT64_MAX ns.
sim::Duration parse_duration(std::string_view text);

/// A byte count with an optional K/M/G suffix (binary multiples), e.g.
/// `96M`; below 2^64 bytes.
std::uint64_t read_bytes(std::string_view text, const char* what);

/// The spelling parse_duration reads back exactly: the largest unit that
/// divides `d` evenly (`2ms`, `1500us`, `0ns`).
std::string format_duration(sim::Duration d);

// --- Lines -----------------------------------------------------------------

/// One whitespace-delimited token and the 1-based column of its first
/// character.
struct Token {
  std::string text;
  int col = 0;
};

/// `key=value` split at the first `=`; the value is a token of its own,
/// at its own column.
struct KeyValue {
  std::string key;
  Token value;
};
std::optional<KeyValue> key_value(const Token& tok);

/// One line of DSL text, split on whitespace. A comment runs from the
/// first `#` to the end of the line.
class Line {
 public:
  Line(const char* dsl, int number, std::string text);

  int number() const { return number_; }
  const std::vector<Token>& tokens() const { return tokens_; }

  /// Throws std::invalid_argument
  /// `<dsl> DSL line N col M: <why> in "<line>"`.
  [[noreturn]] void fail(int col, const std::string& why) const;

  // The readers above, failing at `tok`'s line and column.
  std::uint64_t integer(const Token& tok, std::uint64_t lo, std::uint64_t hi,
                        const char* what) const;
  double fraction(const Token& tok, const char* what,
                  bool zero_ok = true) const;
  sim::Duration duration(const Token& tok) const;
  std::uint64_t bytes(const Token& tok, const char* what) const;

 private:
  const char* dsl_;
  int number_;
  std::string text_;
  std::vector<Token> tokens_;
};

/// Every line of `text` that holds a token, numbered from 1. `dsl` names
/// the language in errors ("faults", "jobs").
std::vector<Line> lines(const char* dsl, const std::string& text);

}  // namespace dsl
