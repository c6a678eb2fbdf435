// Generic systolic schedule builders.
//
// * edge_coloring_schedule — the Liestman–Richards "periodic" construction:
//   a proper edge coloring induces one (full-duplex) or two (half-duplex)
//   rounds per color class.
// * random_systolic_schedule — randomized matchings, used by property tests
//   and as weak baselines.
#pragma once

#include "graph/digraph.hpp"
#include "protocol/systolic.hpp"
#include "util/rng.hpp"

namespace sysgo::protocol {

/// Periodic schedule from a greedy proper edge coloring of g's undirected
/// support.  Half-duplex: period = 2 · #colors (each color forward then
/// backward).  Full-duplex: period = #colors.
///
/// Because the coloring runs on the undirected support, schedules for
/// non-symmetric digraphs activate reversed arcs that g itself lacks (the
/// backward rounds / the opposite full-duplex directions); compile such
/// schedules without a graph, or against the support.
[[nodiscard]] SystolicSchedule edge_coloring_schedule(const graph::Digraph& g,
                                                      Mode mode);

/// Random s-periodic schedule: each period round is a greedy matching over
/// a shuffled arc pool of g.  Always structurally valid; completeness is
/// whatever it is (property tests only).  Run with a cap of s rounds, it is
/// a random s-round protocol.
[[nodiscard]] SystolicSchedule random_systolic_schedule(const graph::Digraph& g,
                                                        int s, Mode mode,
                                                        util::Rng& rng);

}  // namespace sysgo::protocol
