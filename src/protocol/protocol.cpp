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

bool is_systolic(const Protocol& p, int s) {
  if (s <= 0) return false;
  std::vector<Round> canon = p.rounds;
  for (auto& r : canon) r.canonicalize();
  for (std::size_t i = 0; i + static_cast<std::size_t>(s) < canon.size(); ++i)
    if (!(canon[i] == canon[i + static_cast<std::size_t>(s)])) return false;
  return true;
}

int minimal_period(const Protocol& p) {
  for (int s = 1; s < p.length(); ++s)
    if (is_systolic(p, s)) return s;
  return p.length();
}

}  // namespace sysgo::protocol
