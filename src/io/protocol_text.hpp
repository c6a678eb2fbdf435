// Plain-text (de)serialization of systolic schedules, the one schedule
// text format.
//
// Format (one period round per line, 1-based round numbers, arcs
// "tail>head"):
//
//   sysgo-schedule v1
//   n 4 mode half
//   round 1: 0>1 2>3
//   round 2: 1>2
//
// A finite t-round protocol is written as the schedule whose period is its
// t rounds.  Endpoints, round numbers and n are checked integers: "0x>1" or
// an endpoint that overflows int is an error naming its line, never a
// guess.  n is at most kMaxTextVertices (text_limits.hpp).
#pragma once

#include <string>

#include "protocol/systolic.hpp"

namespace sysgo::io {

[[nodiscard]] std::string serialize(const protocol::SystolicSchedule& s);

/// Parse; throws std::invalid_argument whose message names the line
/// ("protocol_text: line 3: ...") on malformed input.
[[nodiscard]] protocol::SystolicSchedule parse_schedule(const std::string& text);

}  // namespace sysgo::io
