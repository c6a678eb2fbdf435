#include "protocol/compiled.hpp"

#include <algorithm>
#include <string>

#include "graph/matching.hpp"

namespace sysgo::protocol {

namespace {

[[noreturn]] void fail(int round, const std::string& what) {
  throw std::invalid_argument("CompiledSchedule: round " +
                              std::to_string(round) + " " + what);
}

}  // namespace

CompiledSchedule CompiledSchedule::build(int n, Mode mode, bool periodic,
                                         std::span<const Round> rounds,
                                         const graph::Digraph* g) {
  if (n < 1) throw std::invalid_argument("CompiledSchedule: need n >= 1");
  if (periodic && rounds.empty())
    throw std::invalid_argument("CompiledSchedule: empty period");

  CompiledSchedule cs;
  cs.n_ = n;
  cs.mode_ = mode;
  cs.periodic_ = periodic;
  const std::size_t nr = rounds.size();
  cs.arc_begin_.reserve(nr + 1);
  if (mode == Mode::kFullDuplex) cs.pair_begin_.reserve(nr + 1);
  if (mode == Mode::kFullDuplex) cs.pair_begin_.push_back(0);

  for (std::size_t r = 0; r < nr; ++r) {
    const int round_no = static_cast<int>(r) + 1;
    // Validate the round AS AUTHORED — canonicalize() dedups, and a
    // duplicated arc must fail the matching check, not be silently
    // repaired.
    for (const graph::Arc& a : rounds[r].arcs) {
      if (a.tail < 0 || a.tail >= n || a.head < 0 || a.head >= n)
        fail(round_no, "activates an endpoint outside [0, n)");
      if (g != nullptr && !g->has_arc(a.tail, a.head))
        fail(round_no, "activates arc (" + std::to_string(a.tail) + "," +
                           std::to_string(a.head) +
                           ") absent from the network");
    }
    const bool matching = mode == Mode::kFullDuplex
                              ? graph::is_full_duplex_matching(rounds[r].arcs, n)
                              : graph::is_half_duplex_matching(rounds[r].arcs, n);
    if (!matching)
      fail(round_no, std::string("is not a valid ") +
                         (mode == Mode::kFullDuplex ? "full" : "half") +
                         "-duplex matching");
    Round canon = rounds[r];
    canon.canonicalize();
    if (mode == Mode::kFullDuplex)
      for (const graph::Arc& a : canon.arcs)
        if (a.tail < a.head) cs.pairs_.push_back(a);
    cs.arcs_.insert(cs.arcs_.end(), canon.arcs.begin(), canon.arcs.end());
    cs.arc_begin_.push_back(static_cast<std::int32_t>(cs.arcs_.size()));
    if (mode == Mode::kFullDuplex)
      cs.pair_begin_.push_back(static_cast<std::int32_t>(cs.pairs_.size()));
  }
  return cs;
}

void CompiledSchedule::require_periodic(const char* who) const {
  if (!periodic_)
    throw std::invalid_argument(std::string(who) +
                                ": needs a periodic schedule");
}

void CompiledSchedule::require_finite(const char* who) const {
  if (periodic_)
    throw std::invalid_argument(std::string(who) +
                                ": needs a compiled finite protocol");
}

CompiledSchedule CompiledSchedule::compile(const SystolicSchedule& s,
                                           const graph::Digraph* g) {
  return build(s.n, s.mode, /*periodic=*/true, s.period, g);
}

CompiledSchedule CompiledSchedule::compile(const Protocol& p,
                                           const graph::Digraph* g) {
  return build(p.n, p.mode, /*periodic=*/false, p.rounds, g);
}

}  // namespace sysgo::protocol
