#include "obs/perf.hpp"

#include <atomic>
#include <cstring>
#include <vector>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace sysgo::obs::perf {

namespace {

std::atomic<bool>& enabled_flag() noexcept {
  static std::atomic<bool> flag{false};
  return flag;
}

#if defined(__linux__)

/// Slots within each group's read buffer, in the order the events were
/// attached to the leader (PERF_FORMAT_GROUP preserves attach order).
enum HwSlot { kCycles = 0, kInstructions, kBranchMisses, kCacheRefs,
              kCacheMisses, kHwCount };
enum SwSlot { kTaskClock = 0, kMinorFaults, kMajorFaults, kSwCount };

/// One perf_event_open counter group: a leader fd plus siblings, read in a
/// single syscall.  Values are cumulative from open; consumers diff two
/// reads.  All-or-nothing: if any member fails to open the whole group is
/// torn down, so a Sample never mixes present and absent fields within a
/// group.
class Group {
 public:
  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;

  Group(const std::uint32_t* types, const std::uint64_t* configs,
        std::size_t count) {
    fds_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      perf_event_attr attr;
      std::memset(&attr, 0, sizeof attr);
      attr.size = sizeof attr;
      attr.type = types[i];
      attr.config = configs[i];
      attr.exclude_kernel = 1;
      attr.exclude_hv = 1;
      attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                         PERF_FORMAT_TOTAL_TIME_RUNNING;
      const int leader = fds_.empty() ? -1 : fds_.front();
      const long fd =
          syscall(SYS_perf_event_open, &attr, /*pid=*/0, /*cpu=*/-1, leader,
                  /*flags=*/0UL);
      if (fd < 0) {  // EACCES/EPERM/ENOENT: no PMU or paranoid sysctl
        close_all();
        return;
      }
      fds_.push_back(static_cast<int>(fd));
    }
  }

  ~Group() { close_all(); }

  [[nodiscard]] bool open() const noexcept { return !fds_.empty(); }

  /// Read the group and write the multiplex-scaled values into out[0..n).
  /// Returns false (zero-filled out) when the group is closed or the read
  /// fails.
  bool read_scaled(std::uint64_t* out, std::size_t count) const noexcept {
    for (std::size_t i = 0; i < count; ++i) out[i] = 0;
    if (fds_.empty()) return false;
    // Layout: nr, time_enabled, time_running, value[nr].
    std::uint64_t buf[3 + kHwCount];
    const auto want =
        static_cast<long>((3 + count) * sizeof(std::uint64_t));
    if (::read(fds_.front(), buf, static_cast<std::size_t>(want)) != want)
      return false;
    if (buf[0] != count) return false;
    for (std::size_t i = 0; i < count; ++i)
      out[i] = scale_value(buf[3 + i], buf[1], buf[2]);
    return true;
  }

 private:
  void close_all() noexcept {
    for (auto it = fds_.rbegin(); it != fds_.rend(); ++it) ::close(*it);
    fds_.clear();
  }

  std::vector<int> fds_;
};

/// Per-thread counter groups, opened on first use and kept for the thread
/// lifetime (a Scope on a pool worker measures that worker's work).
struct ThreadGroups {
  Group hardware;
  Group software;

  ThreadGroups()
      : hardware(kHwTypes, kHwConfigs, kHwCount),
        software(kSwTypes, kSwConfigs, kSwCount) {}

  static constexpr std::uint32_t kHwTypes[kHwCount] = {
      PERF_TYPE_HARDWARE, PERF_TYPE_HARDWARE, PERF_TYPE_HARDWARE,
      PERF_TYPE_HARDWARE, PERF_TYPE_HARDWARE};
  static constexpr std::uint64_t kHwConfigs[kHwCount] = {
      PERF_COUNT_HW_CPU_CYCLES, PERF_COUNT_HW_INSTRUCTIONS,
      PERF_COUNT_HW_BRANCH_MISSES, PERF_COUNT_HW_CACHE_REFERENCES,
      PERF_COUNT_HW_CACHE_MISSES};
  static constexpr std::uint32_t kSwTypes[kSwCount] = {
      PERF_TYPE_SOFTWARE, PERF_TYPE_SOFTWARE, PERF_TYPE_SOFTWARE};
  static constexpr std::uint64_t kSwConfigs[kSwCount] = {
      PERF_COUNT_SW_TASK_CLOCK, PERF_COUNT_SW_PAGE_FAULTS_MIN,
      PERF_COUNT_SW_PAGE_FAULTS_MAJ};
};

ThreadGroups& thread_groups() {
  thread_local ThreadGroups groups;
  return groups;
}

#endif  // defined(__linux__)

}  // namespace

bool enabled() noexcept {
  return enabled_flag().load(std::memory_order_relaxed);
}

void set_enabled(bool on) noexcept {
  enabled_flag().store(on, std::memory_order_relaxed);
}

std::uint64_t scale_value(std::uint64_t raw, std::uint64_t time_enabled,
                          std::uint64_t time_running) noexcept {
  if (time_running == 0) return 0;
  if (time_running >= time_enabled) return raw;  // never multiplexed
  const double scale = static_cast<double>(time_enabled) /
                       static_cast<double>(time_running);
  return static_cast<std::uint64_t>(static_cast<double>(raw) * scale);
}

Availability available() {
#if defined(__linux__)
  const ThreadGroups& g = thread_groups();
  return {g.hardware.open(), g.software.open()};
#else
  return {};
#endif
}

Sample read_sample() {
  Sample s;
  if (!enabled()) return s;
#if defined(__linux__)
  const ThreadGroups& g = thread_groups();
  std::uint64_t hw[kHwCount];
  if (g.hardware.read_scaled(hw, kHwCount)) {
    s.cycles = hw[kCycles];
    s.instructions = hw[kInstructions];
    s.branch_misses = hw[kBranchMisses];
    s.cache_refs = hw[kCacheRefs];
    s.cache_misses = hw[kCacheMisses];
  }
  std::uint64_t sw[kSwCount];
  if (g.software.read_scaled(sw, kSwCount)) {
    s.task_clock_ns = sw[kTaskClock];
    s.minor_faults = sw[kMinorFaults];
    s.major_faults = sw[kMajorFaults];
  }
#endif
  return s;
}

PerfRollup::PerfRollup(const std::string& prefix)
    : cycles(counter(prefix + ".perf.cycles")),
      instructions(counter(prefix + ".perf.instructions")),
      branch_misses(counter(prefix + ".perf.branch_misses")),
      cache_refs(counter(prefix + ".perf.cache_refs")),
      cache_misses(counter(prefix + ".perf.cache_misses")),
      task_clock_us(counter(prefix + ".perf.task_clock_us")),
      ipc_milli(histogram(prefix + ".perf.ipc_milli")),
      cache_miss_permille(histogram(prefix + ".perf.cache_miss_permille")),
      branch_miss_permille(histogram(prefix + ".perf.branch_miss_permille")) {}

}  // namespace sysgo::obs::perf
