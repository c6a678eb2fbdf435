// Plain-text digraph (de)serialization:
//
//   sysgo-digraph v1
//   n 4
//   arc 0 1
//   arc 1 0
//
// Round-trips through Digraph::finalize() (sorted, deduplicated arcs).
// Parsing is line by line: one "arc <tail> <head>" per line, n and the
// endpoints checked integers, n at most kMaxTextVertices (text_limits.hpp).
#pragma once

#include <string>

#include "graph/digraph.hpp"

namespace sysgo::io {

[[nodiscard]] std::string serialize(const graph::Digraph& g);

/// Parse; throws std::invalid_argument whose message names the line
/// ("graph_text: line 3: ...") on malformed input, and std::out_of_range
/// (also naming the line) for an arc endpoint outside [0, n).
[[nodiscard]] graph::Digraph parse_digraph(const std::string& text);

}  // namespace sysgo::io
