#include "topology/topology.hpp"

#include <iterator>
#include <stdexcept>

#include "topology/butterfly.hpp"
#include "topology/ccc.hpp"
#include "topology/classic.hpp"
#include "topology/de_bruijn.hpp"
#include "topology/kautz.hpp"
#include "topology/knodel.hpp"
#include "topology/random.hpp"
#include "topology/shuffle_exchange.hpp"
#include "topology/wrapped_butterfly.hpp"
#include "util/rng.hpp"
#include "util/tokens.hpp"

namespace sysgo::topology {

namespace {

// One row per Family enumerator, in enum order.
constexpr FamilyRow kFamilies[] = {
    // token       stem     shows_d symmetric seeded  Lemma 3.1
    {"bf",         "BF",    true,   true,     false,  {1, 2}},
    {"wbf-dir",    "WBF->", true,   false,    false,  {1, 2}},
    {"wbf",        "WBF",   true,   true,     false,  {2, 3}},
    {"db-dir",     "DB->",  true,   false,    false,  {1, 1}},
    {"db",         "DB",    true,   true,     false,  {1, 1}},
    {"kautz-dir",  "K->",   true,   false,    false,  {1, 1}},
    {"kautz",      "K",     true,   true,     false,  {1, 1}},
    {"cycle",      "C",     false,  true,     false,  {}},
    {"complete",   "K",     false,  true,     false,  {}},
    {"hypercube",  "Q",     false,  true,     false,  {}},
    {"ccc",        "CCC",   false,  true,     false,  {}},
    {"se",         "SE",    false,  true,     false,  {}},
    {"knodel",     "W",     true,   true,     false,  {}},
    {"rr",         "RR",    true,   true,     true,   {}},
    {"gnp",        "GNP",   true,   true,     true,   {}},
};
static_assert(std::size(kFamilies) == kFamilyCount,
              "one registry row per Family enumerator");

}  // namespace

const FamilyRow& family_row(Family f) { return util::row_of(kFamilies, f); }

std::string family_name(Family f, int d) {
  const FamilyRow& row = family_row(f);
  std::string name(row.stem);
  name += '(';
  if (row.shows_d) name += std::to_string(d) + ',';
  name += "D)";
  return name;
}

std::string family_token(Family f) {
  return std::string(util::token_of(kFamilies, f));
}

Family parse_family_token(std::string_view token) {
  if (const auto f = util::enum_of<Family>(kFamilies, token)) return *f;
  throw std::invalid_argument("unknown family: " + std::string(token));
}

bool family_is_symmetric(Family f) { return family_row(f).symmetric; }

bool family_has_separator_analysis(Family f) {
  return family_row(f).lemma31.num != 0;
}

bool family_is_seeded(Family f) { return family_row(f).seeded; }

namespace {

/// G(n, p) member: p chosen so the expected degree is the grid's d.
double gnp_probability(int d, int n) {
  const double p = static_cast<double>(d) / static_cast<double>(n - 1);
  return p > 1.0 ? 1.0 : p;
}

/// Per-member instance seed: distinct (family, d, D) members of one run
/// are independent instances of the same user seed.
std::uint64_t member_seed(Family f, int d, int D, std::uint64_t seed) {
  const std::uint64_t tag = (static_cast<std::uint64_t>(f) << 40) ^
                            (static_cast<std::uint64_t>(d) << 20) ^
                            static_cast<std::uint64_t>(D);
  return util::derive_seed(seed, tag);
}

}  // namespace

graph::Digraph make_family(Family f, int d, int D) {
  return make_family(f, d, D, kDefaultTopologySeed);
}

graph::Digraph make_family(Family f, int d, int D, std::uint64_t seed) {
  switch (f) {
    case Family::kButterfly: return butterfly(d, D);
    case Family::kWrappedButterflyDirected: return wrapped_butterfly_directed(d, D);
    case Family::kWrappedButterfly: return wrapped_butterfly(d, D);
    case Family::kDeBruijnDirected: return de_bruijn_directed(d, D);
    case Family::kDeBruijn: return de_bruijn(d, D);
    case Family::kKautzDirected: return kautz_directed(d, D);
    case Family::kKautz: return kautz(d, D);
    case Family::kCycle: return cycle(D);
    case Family::kComplete: return complete(D);
    case Family::kHypercube: return hypercube(D);
    case Family::kCubeConnectedCycles: return cube_connected_cycles(D);
    case Family::kShuffleExchange: return shuffle_exchange(D);
    case Family::kKnodel: return knodel(d, D);
    case Family::kRandomRegular:
    case Family::kRandomGnp:
      // Route the parameter validation through family_order so both entry
      // points accept/reject identically (size cap, gnp degree range).
      (void)family_order(f, d, D);
      return f == Family::kRandomRegular
                 ? random_regular(d, D, member_seed(f, d, D, seed))
                 : random_gnp(D, gnp_probability(d, D),
                              member_seed(f, d, D, seed));
  }
  throw std::invalid_argument("make_family: unknown family");
}

std::int64_t family_order(Family f, int d, int D) {
  // Mirrors the parameter validation of each family constructor so the
  // throw conditions match make_family without building anything.
  const auto check = [](bool ok, const char* message) {
    if (!ok) throw std::invalid_argument(message);
  };
  const auto check_size = [&check](std::int64_t n, const char* message) {
    check(n <= (1 << 24), message);
    return n;
  };
  switch (f) {
    case Family::kButterfly:
      check(d >= 2 && D >= 1, "butterfly: need d >= 2, D >= 1");
      return check_size(butterfly_order(d, D), "butterfly: too large");
    case Family::kWrappedButterflyDirected:
    case Family::kWrappedButterfly:
      check(d >= 2 && D >= 2, "wrapped_butterfly: need d >= 2, D >= 2");
      return check_size(wrapped_butterfly_order(d, D),
                        "wrapped_butterfly: too large");
    case Family::kDeBruijnDirected:
    case Family::kDeBruijn:
      check(d >= 2 && D >= 1, "de_bruijn: need d >= 2, D >= 1");
      return check_size(de_bruijn_order(d, D), "de_bruijn: too large");
    case Family::kKautzDirected:
    case Family::kKautz:
      check(d >= 2 && D >= 1, "kautz: need d >= 2, D >= 1");
      return check_size(kautz_order(d, D), "kautz: too large");
    case Family::kCycle:
      check(D >= 3, "cycle: need n >= 3");
      return D;
    case Family::kComplete:
      check(D >= 2, "complete: need n >= 2");
      check(D <= kMaxCompleteOrder, "complete: too large");
      return D;
    case Family::kHypercube:
      check(D >= 1 && D <= 24, "hypercube: need 1 <= D <= 24");
      return std::int64_t{1} << D;
    case Family::kCubeConnectedCycles:
      check(D >= 3 && D <= 20, "cube_connected_cycles: need 3 <= D <= 20");
      return check_size(ccc_order(D), "cube_connected_cycles: too large");
    case Family::kShuffleExchange:
      check(D >= 2 && D <= 24, "shuffle_exchange: need 2 <= D <= 24");
      return std::int64_t{1} << D;
    case Family::kKnodel:
      check(D >= 2 && D % 2 == 0, "knodel: n must be even and >= 2");
      check(d >= 1 && d <= knodel_max_delta(D),
            "knodel: need 1 <= delta <= floor(log2(n))");
      return D;
    case Family::kRandomRegular:
      check(d >= 2 && d < D, "random_regular: need 2 <= d < n");
      check((static_cast<std::int64_t>(D) * d) % 2 == 0,
            "random_regular: n*d must be even");
      check(D <= 4096, "random_regular: too large");
      return D;
    case Family::kRandomGnp:
      check(D >= 2, "random_gnp: need n >= 2");
      check(d >= 1 && d <= D - 1, "random_gnp: need 1 <= d <= n - 1");
      check(D <= 4096, "random_gnp: too large");
      return D;
  }
  throw std::invalid_argument("family_order: unknown family");
}

}  // namespace sysgo::topology
