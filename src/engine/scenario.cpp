#include "engine/scenario.hpp"

#include <iterator>
#include <set>
#include <stdexcept>
#include <tuple>

#include "util/tokens.hpp"

namespace sysgo::engine {

using topology::Family;

namespace {

struct TaskRow {
  std::string_view token;
  bool needs_dimension;  // see task_needs_dimension
};

// One row per Task enumerator, in enum order.
constexpr TaskRow kTasks[] = {
    {"bound", false},         {"diameter", false},
    {"simulate", true},       {"audit", true},
    {"separator", true},      {"solve-gossip", true},
    {"solve-broadcast", true}, {"synth", true},
};
static_assert(std::size(kTasks) == kTaskCount,
              "one row per Task enumerator");

}  // namespace

std::string task_name(Task t) { return std::string(util::token_of(kTasks, t)); }

Task parse_task_name(std::string_view name) {
  if (const auto t = util::enum_of<Task>(kTasks, name)) return *t;
  throw std::invalid_argument("unknown task: " + std::string(name));
}

bool task_needs_dimension(Task t) noexcept {
  return util::row_of(kTasks, t).needs_dimension;
}

std::size_t ScenarioKeyHash::operator()(const ScenarioKey& k) const noexcept {
  std::size_t h = static_cast<std::size_t>(k.family);
  h = h * 1000003u + static_cast<std::size_t>(k.d);
  h = h * 1000003u + static_cast<std::size_t>(k.D);
  h = h * 1000003u + static_cast<std::size_t>(k.mode);
  return h;
}

std::vector<SweepJob> shard_jobs(const std::vector<SweepJob>& jobs,
                                 util::ShardSpec shard) {
  if (shard.count < 1 || shard.index < 1 || shard.index > shard.count)
    throw std::invalid_argument("invalid shard spec: " +
                                std::to_string(shard.index) + "/" +
                                std::to_string(shard.count));
  std::vector<SweepJob> out;
  out.reserve(jobs.size() / static_cast<std::size_t>(shard.count) + 1);
  for (std::size_t j = static_cast<std::size_t>(shard.index) - 1;
       j < jobs.size(); j += static_cast<std::size_t>(shard.count))
    out.push_back(jobs[j]);
  return out;
}

std::vector<Family> all_families() {
  std::vector<Family> fams;
  for (Family f : registry_families())
    if (topology::family_has_separator_analysis(f)) fams.push_back(f);
  return fams;
}

std::vector<Family> registry_families() {
  std::vector<Family> fams;
  for (std::size_t i = 0; i < topology::kFamilyCount; ++i)
    fams.push_back(static_cast<Family>(i));
  return fams;
}

std::vector<SweepJob> ScenarioSpec::expand() const {
  std::vector<ScenarioKey> keys;
  const std::vector<int> dims = dimensions.empty() ? std::vector<int>{0}
                                                   : dimensions;
  for (Family f : families)
    for (int d : degrees)
      for (int D : dims)
        for (protocol::Mode m : modes) keys.push_back({f, d, D, m});

  // Asymptotic tasks are emitted once per (family, d, mode, task, period)
  // with D normalized to 0, regardless of how many dimensions the grid
  // crosses them with.
  std::set<std::tuple<Family, int, int, Task, int>> seen_asymptotic;
  std::vector<SweepJob> jobs;
  for (const ScenarioKey& key : keys) {
    for (Task task : tasks) {
      if (task_needs_dimension(task)) {
        if (key.D > 0) jobs.push_back({key, task, 0});
        continue;
      }
      ScenarioKey base = key;
      base.D = 0;
      const std::vector<int> ss =
          task == Task::kBound ? periods : std::vector<int>{0};
      for (int s : ss)
        if (seen_asymptotic
                .emplace(base.family, base.d, static_cast<int>(base.mode), task, s)
                .second)
          jobs.push_back({base, task, s});
    }
  }
  return jobs;
}

bool same_result(const SweepRecord& a, const SweepRecord& b) {
  bool same = true;
  for_each_result_field(
      [&same](std::string_view, const auto& x, const auto& y) {
        same = same && x == y;
      },
      a, b);
  return same;
}

std::string mode_name(protocol::Mode m) {
  return std::string(protocol::mode_token(m));
}

protocol::Mode parse_mode_name(std::string_view name) {
  if (const auto m = protocol::parse_mode_token(name)) return *m;
  throw std::invalid_argument("unknown mode: " + std::string(name));
}

core::Duplex duplex_of(protocol::Mode m) noexcept {
  return m == protocol::Mode::kFullDuplex ? core::Duplex::kFull
                                          : core::Duplex::kHalf;
}

}  // namespace sysgo::engine
