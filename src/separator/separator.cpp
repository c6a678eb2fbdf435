#include "separator/separator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "graph/search.hpp"
#include "topology/butterfly.hpp"
#include "topology/de_bruijn.hpp"
#include "topology/kautz.hpp"
#include "topology/words.hpp"
#include "topology/wrapped_butterfly.hpp"

namespace sysgo::separator {

using topology::Family;

SeparatorParams lemma31_params(Family f, int d) {
  const topology::Lemma31Pair pair = topology::family_row(f).lemma31;
  if (pair.num == 0)  // classic testbed families: no Lemma 3.1 analysis
    throw std::invalid_argument("lemma31_params: no separator analysis for " +
                                topology::family_name(f, d));
  const double num_logd =
      static_cast<double>(pair.num) * std::log2(static_cast<double>(d));
  return {num_logd / pair.den, pair.den / num_logd};
}

std::vector<int> shift_robust_positions(int D, int h) {
  std::vector<int> pos;
  for (int p = 0; p < D; ++p) {
    const bool in_block = p < h || p >= D - h;
    const bool on_progression = p % h == 0;
    if (in_block || on_progression) pos.push_back(p);
  }
  return pos;
}

namespace {

// Top-digit split: "low" digits {0 .. ceil(d/2)-1}, "high" the rest.
// (The paper splits {1..d} at d/2; any balanced split works.)
bool digit_low(int digit, int d) { return digit < (d + 1) / 2; }

// Words over {0..d-1} whose digits at every position of `positions` are all
// low (want_low) or all high — the shift-robust de Bruijn / WBF word sets.
std::vector<std::int64_t> constrained_words(int d, int D,
                                            const std::vector<int>& positions,
                                            bool want_low) {
  std::vector<std::int64_t> out;
  const std::int64_t total = topology::ipow(d, D);
  for (std::int64_t x = 0; x < total; ++x) {
    bool ok = true;
    for (std::size_t i = 0; i < positions.size() && ok; ++i)
      ok = (digit_low(topology::digit(x, positions[i], d), d) == want_low);
    if (ok) out.push_back(x);
  }
  return out;
}

// Positions h·j only — the paper's literal sets, sound for the butterfly
// networks whose arcs rewrite digits in place.
std::vector<int> progression_positions(int D, int h) {
  std::vector<int> pos;
  for (int p = 0; p < D; p += h) pos.push_back(p);
  return pos;
}

int sqrt_stride(int D) {
  return std::max(1, static_cast<int>(std::ceil(std::sqrt(static_cast<double>(D)))));
}

// For Kautz with d = 2 the "high" class has a single symbol, so a block of
// high digits would violate the adjacent-distinct rule.  Fix the constrained
// digits by absolute parity instead: X1 = 0/1, X2 = 2/0 on even/odd
// positions.  Any constrained pair (p in X1, q in X2) conflicts unless
// p is even and q is odd; choosing h odd guarantees a conflicting witness
// among consecutive progression elements.
int kautz_pattern_digit(int p, bool low_side) {
  if (low_side) return p % 2 == 0 ? 0 : 1;
  return p % 2 == 0 ? 2 : 0;
}

}  // namespace

Separator build_separator(Family f, int d, int D) {
  Separator sep;
  sep.params = lemma31_params(f, d);

  switch (f) {
    case Family::kButterfly: {
      // V1/V2: level-0 vertices split on the top digit; distance 2D
      // (digit D-1 is only changed by the level-D<->D-1 rung).
      const std::int64_t words = topology::ipow(d, D);
      for (std::int64_t x = 0; x < words; ++x) {
        const bool low = digit_low(topology::digit(x, D - 1, d), d);
        (low ? sep.v1 : sep.v2)
            .push_back(topology::butterfly_index(x, 0, d, D));
      }
      sep.designed_distance = 2 * D;
      return sep;
    }
    case Family::kWrappedButterflyDirected: {
      // V1 at level D-1, V2 at level 0, split on the top digit; the only
      // arcs rewriting digit D-1 go from level 0 to level D-1, so the
      // directed distance is (D-1) + 1 + (D-1) = 2D - 1.
      const std::int64_t words = topology::ipow(d, D);
      for (std::int64_t x = 0; x < words; ++x) {
        if (digit_low(topology::digit(x, D - 1, d), d))
          sep.v1.push_back(topology::wrapped_butterfly_index(x, D - 1, d, D));
        else
          sep.v2.push_back(topology::wrapped_butterfly_index(x, 0, d, D));
      }
      sep.designed_distance = 2 * D - 1;
      return sep;
    }
    case Family::kWrappedButterfly: {
      // Words differing on every ~sqrt(D)-th position; V1 at level 0,
      // V2 at level floor(D/2).  Distance 3D/2 - O(sqrt(D)).  WBF arcs
      // rewrite digits in place, so the paper's progression-only sets are
      // sound here.
      const int h = sqrt_stride(D);
      const auto pos = progression_positions(D, h);
      for (std::int64_t x : constrained_words(d, D, pos, /*want_low=*/true))
        sep.v1.push_back(topology::wrapped_butterfly_index(x, 0, d, D));
      for (std::int64_t x : constrained_words(d, D, pos, /*want_low=*/false))
        sep.v2.push_back(topology::wrapped_butterfly_index(x, D / 2, d, D));
      sep.designed_distance = 0;  // asymptotic only; verified empirically
      return sep;
    }
    case Family::kDeBruijnDirected:
    case Family::kDeBruijn: {
      // Shift-robust sets (see header): every overlap offset hits a
      // low-vs-high conflict, so dist = D - O(sqrt(D)).
      const int h = sqrt_stride(D);
      const auto pos = shift_robust_positions(D, h);
      for (std::int64_t x : constrained_words(d, D, pos, true))
        sep.v1.push_back(static_cast<int>(x));
      for (std::int64_t x : constrained_words(d, D, pos, false))
        sep.v2.push_back(static_cast<int>(x));
      sep.designed_distance = 0;  // D - O(sqrt(D))
      return sep;
    }
    case Family::kKautzDirected:
    case Family::kKautz: {
      // Shift-robust sets adapted to the adjacent-distinct alphabet.
      int h = sqrt_stride(D);
      if (d == 2 && h % 2 == 0) ++h;  // parity-pattern fix needs h odd
      const auto pos = shift_robust_positions(D, h);
      std::vector<char> constrained(static_cast<std::size_t>(D), 0);
      for (int p : pos) constrained[static_cast<std::size_t>(p)] = 1;
      const auto words = topology::kautz_words(d, D);
      for (std::size_t i = 0; i < words.size(); ++i) {
        bool all_low = true;
        bool all_high = true;
        for (int p = 0; p < D; ++p) {
          if (!constrained[static_cast<std::size_t>(p)]) continue;
          const int digit = words[i][static_cast<std::size_t>(p)];
          if (d == 2) {
            all_low = all_low && digit == kautz_pattern_digit(p, true);
            all_high = all_high && digit == kautz_pattern_digit(p, false);
          } else {
            // Alphabet {0..d}: split at ceil((d+1)/2); both classes have
            // >= 2 symbols for d >= 3, so blocks stay adjacent-distinct.
            const bool low = digit < (d + 2) / 2;
            all_low = all_low && low;
            all_high = all_high && !low;
          }
        }
        if (all_low) sep.v1.push_back(static_cast<int>(i));
        if (all_high) sep.v2.push_back(static_cast<int>(i));
      }
      sep.designed_distance = 0;  // D - O(sqrt(D))
      return sep;
    }
    default:
      break;  // classic testbed families: no Lemma 3.1 construction
  }
  throw std::invalid_argument("build_separator: no separator construction for " +
                              topology::family_name(f, d));
}

SeparatorCheck verify_separator(const graph::Digraph& g, const Separator& sep) {
  SeparatorCheck chk;
  chk.size1 = sep.v1.size();
  chk.size2 = sep.v2.size();
  if (sep.v1.empty() || sep.v2.empty()) return chk;
  const auto dist = graph::multi_source_bfs(g, sep.v1);
  int best = graph::kUnreachable;
  for (int v : sep.v2) best = std::min(best, dist[static_cast<std::size_t>(v)]);
  chk.min_distance = best;
  return chk;
}

}  // namespace sysgo::separator
