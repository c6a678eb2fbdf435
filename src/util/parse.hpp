// Checked numeric parsing for CLI flags and text formats.
//
// std::atoi silently returns 0 on garbage; std::stoi accepts trailing junk
// ("4x" parses as 4) and throws a bare "stoi" on overflow.  Every
// user-facing numeric parse goes through these helpers instead: they reject
// empty input, trailing garbage and overflow, and their error messages name
// the offending flag/field and the rejected text.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace sysgo::util {

/// Inclusive accepted range for a checked integer parse.
struct IntRange {
  long long lo = 0;
  long long hi = 0;
  friend bool operator==(const IntRange&, const IntRange&) = default;
};

/// Parse the whole of `text` as an integer / unsigned / double.  `what`
/// names the source ("--threads", "sweep field 'd'") in error messages.
/// Throws std::invalid_argument on empty input, trailing garbage, or
/// overflow; parse_double also rejects "nan" and "inf".
[[nodiscard]] long long parse_i64(std::string_view text, std::string_view what);
[[nodiscard]] int parse_int(std::string_view text, std::string_view what);
[[nodiscard]] std::uint64_t parse_u64(std::string_view text,
                                      std::string_view what);
[[nodiscard]] double parse_double(std::string_view text, std::string_view what);
/// parse_double without the finiteness check, for record codecs
/// (io/sweep_io) that round-trip every double, ±inf included.
[[nodiscard]] double parse_any_double(std::string_view text,
                                      std::string_view what);

/// Range-checked variants: "<what> must be in [lo, hi], got '<text>'".
[[nodiscard]] long long parse_i64_in(std::string_view text,
                                     std::string_view what, IntRange range);
[[nodiscard]] int parse_int_in(std::string_view text, std::string_view what,
                               IntRange range);

/// Accepted range for each numeric sysgo CLI flag — the single validator
/// table (unit-tested directly), so zero/negative thread counts, restart
/// budgets and state caps are rejected at parse time with a clear message
/// instead of propagating into the engine.  Returns nullopt for flags whose
/// validation is contextual (e.g. --d differs between subcommands).
[[nodiscard]] std::optional<IntRange> cli_flag_range(std::string_view flag);

/// A "i/m" shard spec: this process covers shard `index` of `count`
/// (1-based; job j of the expanded grid belongs to shard (j mod count) + 1).
struct ShardSpec {
  int index = 1;
  int count = 1;
  friend bool operator==(const ShardSpec&, const ShardSpec&) = default;
};

/// Parse "i/m" with 1 <= i <= m (so "--shard 0/2" and negative values are
/// rejected, not silently wrapped).  Throws std::invalid_argument.
[[nodiscard]] ShardSpec parse_shard(std::string_view text);

}  // namespace sysgo::util
