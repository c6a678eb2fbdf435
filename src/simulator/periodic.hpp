// The one round loop every schedule run goes through.
//
// A systolic schedule is one period of matchings repeated round after
// round (Definition 3.2); a finite t-round protocol is the period of its t
// rounds run with max_rounds = t, which never wraps.  run_periodic owns
// everything about *when* rounds execute, so each caller only says what a
// round does and what "done" means:
//
//   * the round-0 check: a state already done before any round (n == 1)
//     completes at round 0;
//   * 1-based round numbering (round i is the i-th executed round);
//   * the stored-round wrap: executed round i runs stored round
//     (i - 1) mod stored_rounds;
//   * the stop test after every round;
//   * the stall exit: a run whose last stored_rounds rounds in a row
//     changed nothing is over.
//
// Why the stall exit is exact.  Knowledge only grows, and a round's effect
// depends only on the state it starts from.  Any stored_rounds consecutive
// executed rounds run every stored round exactly once.  If none of them
// changed the state S, then each stored round maps S to S, so every later
// round leaves S as it is: S is a fixed point of the schedule.  done() was
// false at S, so it stays false, and the run would end at the cap with the
// state S it has now.  Returning -1 there gives the same answer and the
// same final state as running to the cap, only sooner.
#pragma once

namespace sysgo::simulator {

/// Run stored rounds 0, 1, ..., wrapping after the last, until `done()`
/// holds, max_rounds rounds have executed, or stored_rounds consecutive
/// rounds changed nothing.  `step(r, i)` executes stored round r as the
/// i-th (1-based) round and returns whether it changed the state (any value
/// that converts to bool: the gossip steps return the bits they gained).
/// Returns the first round count after which done() held (0 when it held
/// before round 1), or -1 when the cap ran out or the state stalled first.
/// Needs stored_rounds >= 1.
template <typename Step, typename Done>
int run_periodic(int stored_rounds, int max_rounds, Step&& step, Done&& done) {
  if (done()) return 0;
  int r = 0;
  int idle = 0;  // consecutive rounds that changed nothing
  for (int i = 1; i <= max_rounds; ++i) {
    const bool changed = static_cast<bool>(step(r, i));
    if (done()) return i;
    idle = changed ? 0 : idle + 1;
    if (idle == stored_rounds) return -1;  // a fixed point: never done
    if (++r == stored_rounds) r = 0;
  }
  return -1;
}

}  // namespace sysgo::simulator
