#include "protocol/protocol.hpp"

#include <algorithm>
#include <iterator>

#include "util/tokens.hpp"

namespace sysgo::protocol {

// One token per Mode enumerator, in enum order.
constexpr std::string_view kModeTokens[] = {"half", "full"};
static_assert(std::size(kModeTokens) == kModeCount);

std::string_view mode_token(Mode m) { return util::token_of(kModeTokens, m); }

std::optional<Mode> parse_mode_token(std::string_view token) noexcept {
  return util::enum_of<Mode>(kModeTokens, token);
}

void Round::canonicalize() {
  std::sort(arcs.begin(), arcs.end());
  arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
}

}  // namespace sysgo::protocol
