// Graph symmetry for state-space reduction.
//
// Two knowledge states that differ by an automorphism of the network reach
// the goal in the same number of rounds, so the solver only ever stores one
// canonical representative per orbit.  This file provides the three pieces:
// vertex classification by iterated color refinement (the pruning signal),
// automorphism-group enumeration by class-guided backtracking, and a
// Canonicalizer that maps a state to the lexicographic minimum of its orbit
// under the enumerated group.
//
// Canonicalization is sound for any SUBGROUP of Aut(G): orbits under a
// subgroup refine the true orbits, so distinct states are never merged,
// only less deduplication happens.  When the full group is larger than the
// enumeration cap we therefore fall back to the identity-only subgroup
// rather than an arbitrary (non-closed) truncation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"
#include "search/state.hpp"

namespace sysgo::search {

/// perm[v] = image of vertex v.
using Perm = std::vector<int>;

/// Stable vertex classification: color[v] == color[w] iff refinement cannot
/// distinguish v and w by degrees and iterated neighborhood colors.  Colors
/// are dense in [0, num_classes) and canonical for a given digraph.
[[nodiscard]] std::vector<int> vertex_classes(const graph::Digraph& g);

struct AutomorphismGroup {
  /// Group elements; perms[0] is always the identity.  When complete is
  /// false the true group exceeded the enumeration cap and only the
  /// identity is retained (see file comment on subgroup soundness).
  std::vector<Perm> perms;
  bool complete = true;

  [[nodiscard]] std::size_t order() const noexcept { return perms.size(); }
};

/// Enumerate Aut(g) by backtracking, pruned by vertex_classes and partial
/// adjacency consistency.  Aborts once more than max_order automorphisms
/// are found and returns the identity-only group with complete = false.
[[nodiscard]] AutomorphismGroup automorphisms(const graph::Digraph& g,
                                              std::size_t max_order = 4096);

/// The subgroup fixing vertex v (used by broadcast, whose source breaks
/// the symmetry).
[[nodiscard]] AutomorphismGroup vertex_stabilizer(const AutomorphismGroup& group,
                                                  int v);

/// Maps states to the lexicographic minimum of their orbit.
///
/// Layout.  Row 0 of p(s) is the column-permuted row p^{-1}(0) of s, so the
/// elements are ordered by that source vertex: the elements sharing it form
/// one contiguous run and read the same row of s.  Each element's column
/// bit-permutation is two 6-bit lookup tables (bits 0..5 and 6..11), stored
/// transposed as [mask][element], so one row mask addresses a contiguous
/// run of images.  The two tables take 256 B per element.  A run table
/// holds, for every source u and row mask, the minimum image of the mask
/// over u's run: n·max(2^n, 64) entries of 2 B, 96 KB at n = 12, built once
/// per Canonicalizer.
///
/// canonical() reads row 0's minimum from the run table (one entry per
/// source), then scans, in run order, only the runs whose entry equals it,
/// collecting the elements that reach it: the same tie list as scoring
/// row 0 of every element.  Rows 1..n-1 are scored only for the tied
/// elements, each row narrowing the ties to its minimum, so the rows found
/// are the orbit minimum.  Among the elements left, the one with the
/// lowest index in group().perms wins, whatever the run order (witness
/// replay depends on that choice).  The tie list is thread_local scratch
/// owned by canonical() itself, so concurrent calls may share one
/// Canonicalizer.
class Canonicalizer {
 public:
  /// n <= kMaxVertices; every perm in group must have size n.
  Canonicalizer(int n, AutomorphismGroup group);

  [[nodiscard]] const AutomorphismGroup& group() const noexcept { return group_; }
  [[nodiscard]] std::size_t group_order() const noexcept {
    return group_.order();
  }
  [[nodiscard]] const Perm& perm(std::size_t i) const { return group_.perms[i]; }

  /// Canonical representative of s's orbit.  When perm_index is non-null
  /// it receives the lowest index i with perm(i) applied to s equal to the
  /// result (needed to rebuild witness protocols); when ties is non-null it
  /// grows by the number of elements tied on row 0, whose later rows were
  /// scored.
  [[nodiscard]] State canonical(const State& s,
                                std::size_t* perm_index = nullptr,
                                std::uint64_t* ties = nullptr) const;

  /// Orbit minimum of an n-bit vertex set (broadcast informed sets).
  [[nodiscard]] std::uint16_t canonical_mask(std::uint16_t mask) const;

 private:
  /// Column permutation of the element at run position j applied to mask.
  [[nodiscard]] std::uint16_t col_permute(std::size_t j,
                                          std::uint16_t mask) const noexcept {
    const std::size_t k = order_.size();
    return static_cast<std::uint16_t>(lo_[(mask & 63u) * k + j] |
                                      hi_[((mask >> 6) & 63u) * k + j]);
  }

  int n_;
  AutomorphismGroup group_;
  std::vector<std::uint32_t> order_;  // run position -> index in group_.perms
  std::vector<std::uint32_t> run_;    // run of source u: [run_[u], run_[u+1])
  std::vector<std::array<std::uint8_t, kMaxVertices>> inv_;  // by position
  std::vector<std::uint16_t> lo_;  // [mask of bits 0..5][position]
  std::vector<std::uint16_t> hi_;  // [mask of bits 6..11][position]
  std::size_t run_stride_ = 0;  // max(2^n, 64) row masks per source
  std::vector<std::uint16_t> run_min_;  // [source u][row mask]: run minimum
};

}  // namespace sysgo::search
