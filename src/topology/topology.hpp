// Unified registry over the paper's network families.
//
// Benches/examples iterate "all families the paper tabulates"; this header
// gives them a single factory plus the family metadata (name, degree
// parameter d, dimension D) used in table rows.
//
// Every fact about a family lives in its row of one table (topology.cpp):
// token, display name, symmetry, seeding and the Lemma 3.1 pair; the
// names, parsers, predicates and family lists all read it.  To add a
// family: append an enumerator and its row, add a case to make_family and
// one to family_order, and, when the family has Lemma 3.1 analysis, a case
// to separator::build_separator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "graph/digraph.hpp"

namespace sysgo::topology {

/// Every registered network family.  The first seven are the families of
/// Figs. 5, 6 and 8 of the paper; the rest are the classic testbed
/// topologies implemented under topology/ (registered so sweeps and the
/// exact-search solver can enumerate them by name).
enum class Family {
  kButterfly,                 // BF(d, D), symmetric
  kWrappedButterflyDirected,  // WBF→(d, D)
  kWrappedButterfly,          // WBF(d, D), undirected
  kDeBruijnDirected,          // DB→(d, D)
  kDeBruijn,                  // DB(d, D), undirected
  kKautzDirected,             // K→(d, D)
  kKautz,                     // K(d, D), undirected
  kCycle,                     // C_D (D = vertex count; d unused)
  kComplete,                  // K_D (D = vertex count; d unused)
  kHypercube,                 // Q_D (d unused)
  kCubeConnectedCycles,       // CCC(D) (d unused)
  kShuffleExchange,           // SE(D), undirected (d unused)
  kKnodel,                    // W(d, D) Knödel graph (D = vertex count, even)
  kRandomRegular,             // RR(d, D): connected random d-regular on D
                              // vertices (seeded; see topology/random.hpp)
  kRandomGnp,                 // GNP(d, D): connected G(n = D, p = d/(D-1))
                              // (d = target expected degree; seeded)
};

/// Number of Family enumerators: the registry table has one row each.
inline constexpr std::size_t kFamilyCount =
    static_cast<std::size_t>(Family::kRandomGnp) + 1;

/// Lemma 3.1's <alpha, l> separator pair as a ratio: alpha = num*log2(d)/den
/// and l = den/(num*log2(d)), so alpha*l = 1.  num = 0: no analysis.
struct Lemma31Pair {
  int num = 0;
  int den = 0;
};

/// One row of the family registry.
struct FamilyRow {
  std::string_view token;  // CSV/JSON/CLI token, e.g. "wbf-dir"
  std::string_view stem;   // display-name stem, e.g. "WBF->"
  bool shows_d = false;    // display name is stem(d,D), otherwise stem(D)
  bool symmetric = false;  // the digraph is symmetric (undirected network)
  bool seeded = false;     // random family: the member follows the seed
  Lemma31Pair lemma31;     // set for the paper's seven families only
};

/// The registry row of f.
[[nodiscard]] const FamilyRow& family_row(Family f);

/// Short display name matching the paper's notation, e.g. "WBF(2,D)".
[[nodiscard]] std::string family_name(Family f, int d);

/// Stable family token for CSV/JSON output and CLI flags: "bf" | "wbf-dir" |
/// "wbf" | "db-dir" | "db" | "kautz-dir" | "kautz" | "cycle" | "complete" |
/// "hypercube" | "ccc" | "se" | "knodel" | "rr" | "gnp".
[[nodiscard]] std::string family_token(Family f);
/// Throws std::invalid_argument("unknown family: <token>").
[[nodiscard]] Family parse_family_token(std::string_view token);

/// Instantiate the family at dimension D.  For kCycle / kComplete / kKnodel
/// and the random families the "dimension" is the vertex count; d
/// parameterizes only the degree-d families (it is ignored by the
/// fixed-degree classics).  Random members are built from
/// kDefaultTopologySeed (topology/random.hpp) mixed per (family, d, D),
/// so repeated calls are identical.
[[nodiscard]] graph::Digraph make_family(Family f, int d, int D);

/// Same, but random families derive their instance from `seed` instead of
/// the default (deterministic families ignore it).  This is the overload
/// behind the CLI's --seed flag.
[[nodiscard]] graph::Digraph make_family(Family f, int d, int D,
                                         std::uint64_t seed);

/// Vertex count of make_family(f, d, D) in closed form, validating the
/// same parameter constraints (throws std::invalid_argument exactly when
/// make_family would).  Lets callers size-gate a member without paying for
/// its construction.
[[nodiscard]] std::int64_t family_order(Family f, int d, int D);

/// True for families whose digraph is symmetric (undirected networks).
[[nodiscard]] bool family_is_symmetric(Family f);

/// True for the seven families with Lemma 3.1 separator analysis (the
/// paper's tables); the classic testbed families have none, and the
/// separator-based tasks reject them.
[[nodiscard]] bool family_has_separator_analysis(Family f);

/// True for the random families, whose member depends on the seed.
[[nodiscard]] bool family_is_seeded(Family f);

}  // namespace sysgo::topology
