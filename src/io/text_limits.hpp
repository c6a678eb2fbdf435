// The vertex limit shared by the plain-text formats (graph_text,
// protocol_text).
#pragma once

namespace sysgo::io {

/// Largest n a "sysgo-digraph" or "sysgo-schedule" header may declare,
/// 2^22 = 4,194,304.  Knowledge matrices are O(n^2) bits, so a header such
/// as "n 2147483647" fails at parse time naming this limit instead of dying
/// later in std::bad_alloc.  The sweeps build at most
/// 24,576 vertices; `sysgo simulate` and `sysgo audit` still finish at the
/// limit itself.
inline constexpr int kMaxTextVertices = 1 << 22;

}  // namespace sysgo::io
