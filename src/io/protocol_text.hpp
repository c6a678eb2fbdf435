// Plain-text (de)serialization of protocols and schedules.
//
// Format (one round per line, 1-based round numbers, arcs "tail>head"):
//
//   sysgo-protocol v1
//   n 4 mode half
//   round 1: 0>1 2>3
//   round 2: 1>2
//
// Schedules use header "sysgo-schedule v1"; their rounds are one period.
// Endpoints, round numbers and n are checked integers: "0x>1" or an
// endpoint that overflows int is an error naming its line, never a guess.
// n is at most kMaxTextVertices (text_limits.hpp).
#pragma once

#include <string>

#include "protocol/protocol.hpp"
#include "protocol/systolic.hpp"

namespace sysgo::io {

[[nodiscard]] std::string serialize(const protocol::Protocol& p);
[[nodiscard]] std::string serialize(const protocol::SystolicSchedule& s);

/// Parse; throws std::invalid_argument whose message names the line
/// ("protocol_text: line 3: ...") on malformed input.
[[nodiscard]] protocol::Protocol parse_protocol(const std::string& text);
[[nodiscard]] protocol::SystolicSchedule parse_schedule(const std::string& text);

}  // namespace sysgo::io
