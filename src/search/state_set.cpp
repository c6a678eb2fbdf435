#include "search/state_set.hpp"

#include <bit>

namespace sysgo::search {

namespace {

std::size_t table_capacity(std::size_t min_capacity) {
  return std::bit_ceil(min_capacity < 16 ? std::size_t{16} : min_capacity);
}

}  // namespace

// ------------------------------------------------------------------ StateSet

StateSet::StateSet(std::size_t min_capacity)
    : slots_(table_capacity(min_capacity)), mask_(slots_.size() - 1) {}

bool StateSet::insert(const State& s) {
  std::size_t i = StateHash{}(s) & mask_;
  for (;;) {
    State& slot = slots_[i];
    if (slot == s) return false;
    if (slot.is_zero()) {
      slot = s;
      if (++size_ * 5 > slots_.size() * 3) grow();  // > 60% load
      return true;
    }
    i = (i + 1) & mask_;
  }
}

bool StateSet::contains(const State& s) const noexcept {
  std::size_t i = StateHash{}(s) & mask_;
  for (;;) {
    const State& slot = slots_[i];
    if (slot == s) return true;
    if (slot.is_zero()) return false;
    i = (i + 1) & mask_;
  }
}

void StateSet::clear() {
  for (State& s : slots_) s = State{};
  size_ = 0;
}

void StateSet::grow() {
  std::vector<State> old = std::move(slots_);
  slots_.assign(old.size() * 2, State{});
  mask_ = slots_.size() - 1;
  for (const State& s : old) {
    if (s.is_zero()) continue;
    std::size_t i = StateHash{}(s) & mask_;
    while (!slots_[i].is_zero()) i = (i + 1) & mask_;
    slots_[i] = s;
  }
}

// ---------------------------------------------------------- ShardedStateSet

bool ShardedStateSet::insert(const State& s) {
  // Shard by high hash bits; StateSet re-hashes with the low bits.
  Shard& shard = shards_[StateHash{}(s) >> 58];
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.set.insert(s);
}

std::size_t ShardedStateSet::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.set.size();
  }
  return total;
}

bool ShardedStateSet::contains(const State& s) const {
  const Shard& shard = shards_[StateHash{}(s) >> 58];
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.set.contains(s);
}

}  // namespace sysgo::search
