// Compiled schedule IR: the flat, pre-validated round representation every
// executor consumes.
//
// SystolicSchedule (Definition 3.2) is the authoring format: readable,
// mutable, pointer-chasing (one heap vector of arcs per round).  A finite
// t-round protocol (Definition 3.1) is the schedule whose period is its t
// rounds, run with a cap of t rounds, so every compiled schedule is
// periodic and no executor asks which kind it holds.  A CompiledSchedule is
// built from a schedule exactly once and stores the period as CSR-style
// arrays over one contiguous arc buffer, so executing a round is one walk
// over a flat span instead of a pointer chase:
//
//   arcs_       one contiguous buffer of all rounds' arcs (canonical order)
//   arc_begin_  per-round spans into arcs_ (round r = [begin[r], begin[r+1]))
//   pairs_      full-duplex only: one tail < head representative per active
//               link (the simulator's merge work list)
//
// There are no dense per-round, per-vertex tables: compiled memory is
// O(arcs + rounds), whatever n.  A consumer that needs what each vertex
// does per round (the audit's activity summaries, the gap analysis's
// in/out rounds) walks each round's arc or pair span once.
//
// compile() performs the structural validation all consumers used to repeat
// — a non-empty period, every round a matching in the schedule's mode,
// every arc present in the network (when given), endpoints in range,
// full-duplex opposite pairs — and a successfully constructed
// CompiledSchedule records that proof in the type: the simulator, auditor,
// delay-digraph builder, gap analysis, sweep engine and search witness
// checks all execute compiled rounds without re-checking anything.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/digraph.hpp"
#include "protocol/systolic.hpp"

namespace sysgo::protocol {

class CompiledSchedule {
 public:
  CompiledSchedule() = default;

  /// Compile a schedule.  Throws std::invalid_argument when the
  /// period is empty, an endpoint is out of [0, n), a round is not a
  /// matching in the schedule's mode (full-duplex additionally requires
  /// every arc's opposite), or — with g non-null — an activated arc is
  /// absent from *g.
  [[nodiscard]] static CompiledSchedule compile(const SystolicSchedule& s,
                                                const graph::Digraph* g = nullptr);

  [[nodiscard]] int n() const noexcept { return n_; }
  [[nodiscard]] Mode mode() const noexcept { return mode_; }

  /// Stored rounds: the period length (the paper's s), at least 1 once
  /// compiled.
  [[nodiscard]] int period_length() const noexcept {
    return static_cast<int>(arc_begin_.size()) - 1;
  }

  /// Stored round executed at 1-based time step i: the period wraps.
  /// Throws std::out_of_range for i < 1 (a negative step would otherwise
  /// produce a negative C++ remainder and an out-of-bounds span) and on a
  /// default-constructed schedule, whose empty period has no round.
  [[nodiscard]] int round_index(int step) const {
    if (step < 1)
      throw std::out_of_range("CompiledSchedule: step must be >= 1");
    if (period_length() == 0)
      throw std::out_of_range("CompiledSchedule: no compiled period");
    return (step - 1) % period_length();
  }

  /// All arcs of stored round r, canonical (sorted, deduplicated) order.
  [[nodiscard]] std::span<const graph::Arc> round_arcs(int r) const noexcept {
    return {arcs_.data() + arc_begin_[static_cast<std::size_t>(r)],
            arcs_.data() + arc_begin_[static_cast<std::size_t>(r) + 1]};
  }

  /// The round's merge work list: half-duplex rounds are their arc span;
  /// full-duplex rounds list each active link once as its tail < head
  /// representative.
  [[nodiscard]] std::span<const graph::Arc> round_pairs(int r) const noexcept {
    if (mode_ != Mode::kFullDuplex) return round_arcs(r);
    return {pairs_.data() + pair_begin_[static_cast<std::size_t>(r)],
            pairs_.data() + pair_begin_[static_cast<std::size_t>(r) + 1]};
  }

  /// Total arcs across all stored rounds.
  [[nodiscard]] std::size_t arc_total() const noexcept { return arcs_.size(); }

  /// Structural equality: same network size, mode and per-round arc sets.
  /// Authored arc order does not matter (rounds are canonical); the pair
  /// spans are determined by these fields.
  friend bool operator==(const CompiledSchedule& a, const CompiledSchedule& b) {
    return a.n_ == b.n_ && a.mode_ == b.mode_ &&
           a.arc_begin_ == b.arc_begin_ && a.arcs_ == b.arcs_;
  }

 private:
  int n_ = 0;
  Mode mode_ = Mode::kHalfDuplex;
  std::vector<std::int32_t> arc_begin_{0};  // size period_length() + 1
  std::vector<graph::Arc> arcs_;
  std::vector<std::int32_t> pair_begin_;  // full-duplex only
  std::vector<graph::Arc> pairs_;         // full-duplex only
};

}  // namespace sysgo::protocol
