// Seeded byte-level mutation of a valid document, shared by the suites that
// test sysgo's readers against hostile input (the obs JSON readers, the
// text formats, the store log).  Every mutant must either be rejected with
// the reader's documented exception or be accepted by the consumer; any
// other exception — std::bad_alloc, an out-of-range read surfacing as a
// stray type — fails the test.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <functional>
#include <string>

#include "util/rng.hpp"

namespace sysgo::test {

/// One to three byte-level edits: flip a bit, overwrite a byte with a
/// random value, insert a short random run, or truncate.
inline std::string mutate(const std::string& base, util::Rng& rng) {
  std::string s = base;
  const int edits = rng.uniform_int(1, 3);
  for (int k = 0; k < edits && !s.empty(); ++k) {
    const std::size_t at = rng.uniform_index(s.size());
    switch (rng.uniform_index(4)) {
      case 0:
        s[at] = static_cast<char>(s[at] ^ (1 << rng.uniform_int(0, 7)));
        break;
      case 1:
        s[at] = static_cast<char>(rng.uniform_int(0, 255));
        break;
      case 2: {
        std::string run(static_cast<std::size_t>(rng.uniform_int(1, 8)), '\0');
        for (char& c : run) c = static_cast<char>(rng.uniform_int(0, 255));
        s.insert(at, run);
        break;
      }
      default:
        s.resize(at);
        break;
    }
  }
  return s;
}

/// "Reject cleanly or round-trip": `consume` returns false when it
/// rejected the input with the reader's documented exception.
using Consumer = std::function<bool(const std::string&)>;

inline void run_mutations(const std::string& base, std::uint64_t seed,
                          const std::string& what, const Consumer& consume) {
  constexpr int kMutations = 3000;
  ASSERT_TRUE(consume(base)) << what;
  util::Rng rng(seed);
  int parsed = 0;
  for (int i = 0; i < kMutations; ++i) {
    const std::string input = mutate(base, rng);
    try {
      parsed += consume(input) ? 1 : 0;
    } catch (const std::exception& e) {
      FAIL() << what << " mutation " << i
             << " threw an unexpected exception: " << e.what();
    }
  }
  // Both outcomes occur: the test exercises the reader, not just its
  // first byte.
  EXPECT_GT(parsed, 0) << what;
  EXPECT_LT(parsed, kMutations) << what;
}

}  // namespace sysgo::test
