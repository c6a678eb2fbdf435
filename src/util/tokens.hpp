// Two-way lookup over an enum's token table: one row per enumerator, in
// enum order, each row the token itself or a struct with a `token` member.
// A failed parse is nullopt, so each caller keeps its own error text.
#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <type_traits>

namespace sysgo::util {

/// The row of enumerator `e`; std::out_of_range for a value with no row.
template <class Row, std::size_t N, class Enum>
[[nodiscard]] constexpr const Row& row_of(const Row (&rows)[N], Enum e) {
  const auto i = static_cast<std::size_t>(e);
  if (i >= N) throw std::out_of_range("enumerator has no table row");
  return rows[i];
}

template <class Row>
[[nodiscard]] constexpr std::string_view row_token(const Row& row) noexcept {
  if constexpr (std::is_convertible_v<const Row&, std::string_view>)
    return row;
  else
    return row.token;
}

template <class Row, std::size_t N, class Enum>
[[nodiscard]] constexpr std::string_view token_of(const Row (&rows)[N], Enum e) {
  return row_token(row_of(rows, e));
}

/// The enumerator whose row spells `token`, or nullopt.
template <class Enum, class Row, std::size_t N>
[[nodiscard]] constexpr std::optional<Enum> enum_of(const Row (&rows)[N],
                                                    std::string_view token) noexcept {
  for (std::size_t i = 0; i < N; ++i)
    if (row_token(rows[i]) == token) return static_cast<Enum>(i);
  return std::nullopt;
}

}  // namespace sysgo::util
