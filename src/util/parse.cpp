#include "util/parse.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <system_error>

namespace sysgo::util {

namespace {

[[noreturn]] void bad_value(std::string_view what, std::string_view kind,
                            std::string_view text) {
  throw std::invalid_argument(std::string(what) + ": expected " +
                              std::string(kind) + ", got '" +
                              std::string(text) + "'");
}

template <typename T>
T parse_with_from_chars(std::string_view text, std::string_view what,
                        std::string_view kind) {
  T value{};
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec == std::errc::result_out_of_range)
    throw std::invalid_argument(std::string(what) + ": value out of range: '" +
                                std::string(text) + "'");
  // Reject both parse failures and trailing garbage ("4x", "1.5.2").
  if (ec != std::errc{} || ptr != last) bad_value(what, kind, text);
  return value;
}

}  // namespace

long long parse_i64(std::string_view text, std::string_view what) {
  return parse_with_from_chars<long long>(text, what, "an integer");
}

int parse_int(std::string_view text, std::string_view what) {
  const long long v = parse_i64(text, what);
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max())
    throw std::invalid_argument(std::string(what) + ": value out of range: '" +
                                std::string(text) + "'");
  return static_cast<int>(v);
}

std::uint64_t parse_u64(std::string_view text, std::string_view what) {
  // from_chars<unsigned> rejects a leading '-' already; the explicit check
  // keeps the message honest ("-3" is not "garbage", it is negative).
  if (!text.empty() && text.front() == '-')
    throw std::invalid_argument(std::string(what) +
                                ": must be non-negative, got '" +
                                std::string(text) + "'");
  return parse_with_from_chars<std::uint64_t>(text, what,
                                              "a non-negative integer");
}

double parse_double(std::string_view text, std::string_view what) {
  // from_chars also reads "nan" and "inf"; no flag means either, and a NaN
  // threshold or budget would compare false everywhere.
  const double v = parse_any_double(text, what);
  if (!std::isfinite(v)) bad_value(what, "a finite number", text);
  return v;
}

double parse_any_double(std::string_view text, std::string_view what) {
  return parse_with_from_chars<double>(text, what, "a number");
}

long long parse_i64_in(std::string_view text, std::string_view what,
                       IntRange range) {
  const long long v = parse_i64(text, what);
  if (v < range.lo || v > range.hi)
    throw std::invalid_argument(
        std::string(what) + " must be in [" + std::to_string(range.lo) + ", " +
        std::to_string(range.hi) + "], got '" + std::string(text) + "'");
  return v;
}

int parse_int_in(std::string_view text, std::string_view what, IntRange range) {
  return static_cast<int>(parse_i64_in(text, what, range));
}

std::optional<IntRange> cli_flag_range(std::string_view flag) {
  // One row per scalar numeric flag of the sysgo CLI.  Contextual flags
  // (--d, --D, --periods: list-valued, bounds differ by subcommand) and
  // non-integer flags (--seed: u64, --time-budget: double) validate at
  // their call sites.
  struct Row {
    std::string_view flag;
    IntRange range;
  };
  static constexpr Row kTable[] = {
      {"--threads", {1, 256}},
      {"--round-threads", {1, 256}},
      {"--solver-threads", {1, 256}},
      {"--synth-threads", {0, 256}},
      {"--restarts", {1, 1024}},
      {"--iterations", {0, 1 << 30}},
      {"--max-rounds", {1, 1 << 30}},
      {"--max-states", {1, std::numeric_limits<long long>::max()}},
  };
  for (const Row& row : kTable)
    if (row.flag == flag) return row.range;
  return std::nullopt;
}

ShardSpec parse_shard(std::string_view text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos)
    bad_value("--shard", "'i/m' (e.g. 1/4)", text);
  ShardSpec spec;
  spec.index = parse_int(text.substr(0, slash), "--shard index");
  spec.count = parse_int(text.substr(slash + 1), "--shard count");
  if (spec.count < 1)
    throw std::invalid_argument("--shard count must be >= 1, got '" +
                                std::string(text) + "'");
  if (spec.index < 1 || spec.index > spec.count)
    throw std::invalid_argument("--shard index must be in [1, " +
                                std::to_string(spec.count) + "], got '" +
                                std::string(text) + "'");
  return spec;
}

}  // namespace sysgo::util
