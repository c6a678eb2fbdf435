#include "simulator/broadcast_sim.hpp"

#include <algorithm>
#include <stdexcept>

#include "simulator/periodic.hpp"

namespace sysgo::simulator {
namespace {

/// Fill reach[v] with the round v first knows src's item (0 for src, -1
/// while never) and return the round every vertex knew it, or -1.
int run_reach(const protocol::CompiledSchedule& cs, int src, int max_rounds,
              std::vector<int>& reach) {
  const int n = cs.n();
  if (src < 0 || src >= n)
    throw std::invalid_argument("broadcast: source out of range");
  reach.assign(static_cast<std::size_t>(n), -1);
  reach[static_cast<std::size_t>(src)] = 0;
  int informed = 1;
  return run_periodic(
      cs.period_length(), max_rounds,
      [&](int r, int round_no) {
        // Compiled rounds are matchings: a vertex informed by this round's
        // arc has no other arc to forward along in the same round (a
        // full-duplex pair's reverse arc points back at an informed
        // tail), so marking immediately equals start-of-round semantics.
        const int before = informed;
        for (const auto& a : cs.round_arcs(r)) {
          int& head = reach[static_cast<std::size_t>(a.head)];
          if (head == -1 && reach[static_cast<std::size_t>(a.tail)] != -1) {
            head = round_no;
            ++informed;
          }
        }
        return informed != before;  // the informed set grew
      },
      [&] { return informed == n; });
}

}  // namespace

std::vector<int> broadcast_reach(const protocol::CompiledSchedule& cs, int src,
                                 int max_rounds) {
  std::vector<int> reach;
  (void)run_reach(cs, src, max_rounds, reach);
  return reach;
}

int broadcast_time(const protocol::CompiledSchedule& cs, int src, int max_rounds) {
  std::vector<int> reach;
  return run_reach(cs, src, max_rounds, reach);
}

std::vector<std::vector<int>> arrival_times(const protocol::CompiledSchedule& cs,
                                            int max_rounds) {
  std::vector<std::vector<int>> out;
  out.reserve(static_cast<std::size_t>(cs.n()));
  for (int src = 0; src < cs.n(); ++src)
    out.push_back(broadcast_reach(cs, src, max_rounds));
  return out;
}

int gossip_completion_from_arrivals(const std::vector<std::vector<int>>& arrivals) {
  int worst = 0;
  for (const auto& row : arrivals)
    for (int t : row) {
      if (t == -1) return -1;
      worst = std::max(worst, t);
    }
  return worst;
}

}  // namespace sysgo::simulator
