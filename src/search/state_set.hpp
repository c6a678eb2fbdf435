// Open-addressing hash storage for knowledge states.
//
// StateSet is a linear-probing table keyed by the 192-bit State
// (state.hpp); the all-zero state marks empty slots, which is safe
// because reachable knowledge states always contain the diagonal.  The
// sharded variant partitions by hash so frontier-parallel BFS can insert
// concurrently: membership and size are set properties, independent of
// insertion order, which is what makes threaded sweeps byte-identical to
// serial ones.
#pragma once

#include <array>
#include <cstddef>
#include <mutex>
#include <vector>

#include "search/state.hpp"

namespace sysgo::search {

/// Linear-probing hash set of non-zero States.  Grows at 60% load.
class StateSet {
 public:
  explicit StateSet(std::size_t min_capacity = 64);

  /// True when s was not present before.  s must not be all-zero.
  bool insert(const State& s);
  [[nodiscard]] bool contains(const State& s) const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  void clear();

 private:
  void grow();

  std::vector<State> slots_;
  std::size_t mask_ = 0;   // slots_.size() - 1 (power of two)
  std::size_t size_ = 0;
};

/// StateSet sharded by hash with per-shard locking, for concurrent inserts
/// from the parallel frontier.  size() is exact when no insert is in
/// flight (the solver only reads it at batch barriers).
class ShardedStateSet {
 public:
  static constexpr std::size_t kShards = 64;

  bool insert(const State& s);
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool contains(const State& s) const;

 private:
  struct Shard {
    mutable std::mutex mutex;
    StateSet set;
  };
  std::array<Shard, kShards> shards_;
};

}  // namespace sysgo::search
