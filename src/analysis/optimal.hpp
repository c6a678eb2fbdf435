// Compatibility alias: the matching generator lives in search/matchings.hpp.
//
// The end-to-end benchmark's traced run (perfbench/src/traced.cpp) includes
// this header by name for its move-set probe and reports the probe's
// per-layer metrics as absent without it.  Delete it in the next change to
// the benchmark, once the probe includes search/matchings.hpp; library code
// includes that header directly.
#pragma once

#include "search/matchings.hpp"

namespace sysgo::analysis { using search::maximal_matchings; }
