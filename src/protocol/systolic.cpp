#include "protocol/systolic.hpp"

namespace sysgo::protocol {

Protocol SystolicSchedule::expand(int t) const {
  Protocol p;
  p.n = n;
  p.mode = mode;
  p.rounds.reserve(static_cast<std::size_t>(t));
  for (int i = 1; i <= t; ++i) p.rounds.push_back(round_at(i));
  return p;
}

}  // namespace sysgo::protocol
