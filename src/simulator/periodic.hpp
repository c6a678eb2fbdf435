// The one round loop every schedule run goes through.
//
// A systolic schedule is one period of matchings repeated round after
// round (Definition 3.2); a finite protocol is the same list executed once.
// run_periodic owns everything about *when* rounds execute, so each caller
// only says what a round does and what "done" means:
//
//   * the round-0 check: a state already done before any round (n == 1)
//     completes at round 0;
//   * 1-based round numbering (round i is the i-th executed round);
//   * the stored-round wrap: executed round i runs stored round
//     (i - 1) mod stored_rounds;
//   * the finite cap: a non-periodic run stops after its stored rounds,
//     whatever max_rounds asks for;
//   * the stop test after every round.
#pragma once

namespace sysgo::simulator {

/// Run stored rounds 0, 1, ..., wrapping when `periodic`, until `done()`
/// holds or max_rounds rounds have executed.  `step(r, i)` executes stored
/// round r as the i-th (1-based) round.  Returns the first round count
/// after which done() held (0 when it held before round 1), or -1 when the
/// cap ran out first.  A periodic run needs stored_rounds >= 1.
template <typename Step, typename Done>
int run_periodic(int stored_rounds, bool periodic, int max_rounds, Step&& step,
                 Done&& done) {
  if (done()) return 0;
  if (!periodic && max_rounds > stored_rounds) max_rounds = stored_rounds;
  int r = 0;
  for (int i = 1; i <= max_rounds; ++i) {
    step(r, i);
    if (done()) return i;
    if (++r == stored_rounds) r = 0;
  }
  return -1;
}

}  // namespace sysgo::simulator
