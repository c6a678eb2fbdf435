// Compiled schedule IR: the flat, pre-validated round representation every
// executor consumes.
//
// Protocol / SystolicSchedule (Definitions 3.1/3.2) are authoring formats:
// readable, mutable, pointer-chasing (one heap vector of arcs per round).
// A CompiledSchedule is built from them exactly once and stores the rounds
// as CSR-style arrays over one contiguous arc buffer, so executing a round
// is one walk over a flat span instead of a pointer chase:
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
// — every round a matching in the schedule's mode, every arc present in the
// network (when given), endpoints in range, full-duplex opposite pairs —
// and a successfully constructed CompiledSchedule records that proof in the
// type: the simulator, auditor, delay-digraph builder, gap analysis, sweep
// engine and search witness checks all execute compiled rounds without
// re-checking anything.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/digraph.hpp"
#include "protocol/protocol.hpp"
#include "protocol/systolic.hpp"

namespace sysgo::protocol {

class CompiledSchedule {
 public:
  CompiledSchedule() = default;

  /// Compile a periodic schedule.  Throws std::invalid_argument when the
  /// period is empty, an endpoint is out of [0, n), a round is not a
  /// matching in the schedule's mode (full-duplex additionally requires
  /// every arc's opposite), or — with g non-null — an activated arc is
  /// absent from *g.
  [[nodiscard]] static CompiledSchedule compile(const SystolicSchedule& s,
                                                const graph::Digraph* g = nullptr);

  /// Compile a finite protocol (periodic() == false; round_count() may be
  /// zero).  Same validation as the schedule overload.
  [[nodiscard]] static CompiledSchedule compile(const Protocol& p,
                                                const graph::Digraph* g = nullptr);

  [[nodiscard]] int n() const noexcept { return n_; }
  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  /// Periodic schedules repeat their stored rounds forever; finite
  /// protocols execute them once.
  [[nodiscard]] bool periodic() const noexcept { return periodic_; }

  /// Stored rounds: the period of a schedule, the length of a protocol.
  [[nodiscard]] int round_count() const noexcept {
    return static_cast<int>(arc_begin_.size()) - 1;
  }
  /// Alias of round_count() in the periodic reading (the paper's s).
  [[nodiscard]] int period_length() const noexcept { return round_count(); }

  /// Stored round executed at 1-based time step i: periodic schedules wrap,
  /// finite protocols require i <= round_count().  Throws std::out_of_range
  /// for steps outside the valid range (a negative step would otherwise
  /// produce a negative C++ remainder and an out-of-bounds span).
  [[nodiscard]] int round_index(int step) const {
    if (step < 1)
      throw std::out_of_range("CompiledSchedule: step must be >= 1");
    if (periodic_) return (step - 1) % round_count();
    if (step > round_count())
      throw std::out_of_range("CompiledSchedule: step beyond finite protocol");
    return step - 1;
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

  /// Precondition helpers for consumers that only make sense in one
  /// reading: throw std::invalid_argument naming `who` unless the schedule
  /// is periodic (resp. finite).
  void require_periodic(const char* who) const;
  void require_finite(const char* who) const;

  /// Structural equality: same network size, mode, periodicity and per-round
  /// arc sets.  Authored arc order does not matter (rounds are canonical);
  /// the pair spans are determined by these fields.
  friend bool operator==(const CompiledSchedule& a, const CompiledSchedule& b) {
    return a.n_ == b.n_ && a.mode_ == b.mode_ && a.periodic_ == b.periodic_ &&
           a.arc_begin_ == b.arc_begin_ && a.arcs_ == b.arcs_;
  }

 private:
  static CompiledSchedule build(int n, Mode mode, bool periodic,
                                std::span<const Round> rounds,
                                const graph::Digraph* g);

  int n_ = 0;
  Mode mode_ = Mode::kHalfDuplex;
  bool periodic_ = false;
  std::vector<std::int32_t> arc_begin_{0};  // size round_count() + 1
  std::vector<graph::Arc> arcs_;
  std::vector<std::int32_t> pair_begin_;  // full-duplex only
  std::vector<graph::Arc> pairs_;         // full-duplex only
};

}  // namespace sysgo::protocol
