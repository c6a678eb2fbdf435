#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "util/fs.hpp"

namespace sysgo::obs::trace {

namespace {

std::atomic<bool>& enabled_flag() noexcept {
  static std::atomic<bool> flag{false};
  return flag;
}

std::chrono::steady_clock::time_point epoch() noexcept {
  static const auto t0 = std::chrono::steady_clock::now();
  return t0;
}

// ------------------------------------------------------------- string table

struct StringTable {
  std::mutex mutex;
  std::vector<std::string> strings{""};  // id 0 reserved: the empty string
  std::unordered_map<std::string, NameId> ids{{"", 0}};
};

StringTable& string_table() {
  static StringTable t;
  return t;
}

// -------------------------------------------------------------------- lanes

/// Ring slot: seqlock-stamped event payload.  The sequence protocol makes
/// concurrent drain safe against the single producer: a slot holding the
/// i-th event (0-based) carries seq == 2 * (i + 1); the producer sets seq
/// odd before rewriting the payload and even after, so a drainer that reads
/// an unexpected or changed seq discards the copy as torn.  The producer
/// writes the payload with release stores and the drainer reads it with
/// acquire loads, so a drainer that sees any field of a newer write also
/// sees that write's odd seq on its re-check.  No fences: ThreadSanitizer
/// models these orderings (it does not model fences), and on x86 they
/// compile to the same plain loads and stores.
struct Slot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> ts{0};
  std::atomic<std::uint64_t> dur{0};
  std::atomic<NameId> name{0};
  std::atomic<std::uint8_t> argc{0};
  std::atomic<std::uint8_t> smask{0};
  std::array<std::atomic<NameId>, kMaxArgs> keys{};
  std::array<std::atomic<std::int64_t>, kMaxArgs> vals{};
};

struct Lane {
  std::string name;          // registry-mutex guarded
  std::vector<Slot> ring;    // fixed power-of-two size, set at creation
  std::size_t mask = 0;
  /// Events ever written; the ring holds [max(0, head - ring.size()), head).
  std::atomic<std::uint64_t> head{0};
  /// reset_for_testing rewinds head; drops are tracked against this base so
  /// wraparound accounting survives the rewind.
  std::atomic<std::uint64_t> base{0};
};

struct LaneRegistry {
  std::mutex mutex;
  std::vector<std::unique_ptr<Lane>> lanes;  // never shrinks: drained after
                                             // thread death, too
};

LaneRegistry& lane_registry() {
  static LaneRegistry r;
  return r;
}

std::atomic<std::size_t>& ring_capacity() noexcept {
  static std::atomic<std::size_t> cap{kDefaultRingCapacity};
  return cap;
}

thread_local Lane* t_lane = nullptr;
// Name chosen before the lane exists (pool workers name themselves at
// startup).  Held by value so a thread that never emits an event — and
// therefore never creates a lane — still releases it at thread exit.
thread_local bool t_pending_name_set = false;
thread_local std::string t_pending_name;

Lane& this_lane() {
  if (t_lane != nullptr) return *t_lane;
  auto lane = std::make_unique<Lane>();
  const std::size_t cap =
      std::bit_ceil(std::max<std::size_t>(ring_capacity().load(), 2));
  lane->ring = std::vector<Slot>(cap);
  lane->mask = cap - 1;
  LaneRegistry& reg = lane_registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  lane->name = t_pending_name_set
                   ? t_pending_name
                   : "lane-" + std::to_string(reg.lanes.size());
  t_pending_name_set = false;
  t_pending_name.clear();
  t_lane = lane.get();
  reg.lanes.push_back(std::move(lane));
  return *t_lane;
}

// ---------------------------------------------------------------- rendering

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string_view string_of(const TraceDump& dump, NameId id) {
  return id < dump.strings.size() ? std::string_view(dump.strings[id])
                                  : std::string_view("");
}

void append_args(std::string& out, const TraceDump& dump, const Event& e) {
  if (e.arg_count == 0) return;
  out += ",\"args\":{";
  for (std::size_t a = 0; a < e.arg_count; ++a) {
    if (a > 0) out += ',';
    append_json_string(out, string_of(dump, e.arg_keys[a]));
    out += ':';
    if ((e.str_mask >> a) & 1u)
      append_json_string(
          out, string_of(dump, static_cast<NameId>(e.arg_vals[a])));
    else
      out += std::to_string(e.arg_vals[a]);
  }
  out += '}';
}

}  // namespace

bool enabled() noexcept {
  return enabled_flag().load(std::memory_order_relaxed);
}

void set_enabled(bool on) noexcept {
  enabled_flag().store(on, std::memory_order_relaxed);
}

NameId intern(std::string_view name) {
  StringTable& t = string_table();
  std::lock_guard<std::mutex> lock(t.mutex);
  const auto it = t.ids.find(std::string(name));
  if (it != t.ids.end()) return it->second;
  const auto id = static_cast<NameId>(t.strings.size());
  t.strings.emplace_back(name);
  t.ids.emplace(std::string(name), id);
  return id;
}

std::uint64_t now_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch())
          .count());
}

void set_ring_capacity(std::size_t events_per_lane) {
  ring_capacity().store(std::max<std::size_t>(events_per_lane, 2));
}

void set_this_lane_name(std::string_view name) {
  if (t_lane != nullptr) {
    std::lock_guard<std::mutex> lock(lane_registry().mutex);
    t_lane->name = std::string(name);
    return;
  }
  t_pending_name_set = true;
  t_pending_name.assign(name.data(), name.size());
}

void emit(NameId name, std::uint64_t ts_us, std::uint64_t dur_us,
          const Arg* args, std::size_t arg_count) noexcept {
  if (!enabled()) return;
  Lane& lane = this_lane();
  const std::uint64_t idx = lane.head.load(std::memory_order_relaxed);
  Slot& s = lane.ring[idx & lane.mask];
  // Seqlock write: odd while the payload is inconsistent, 2*(idx+1) after.
  // Each payload store is a release, so it publishes the odd seq before it.
  constexpr auto kPublish = std::memory_order_release;
  s.seq.store(2 * idx + 1, std::memory_order_relaxed);
  s.ts.store(ts_us, kPublish);
  s.dur.store(dur_us, kPublish);
  s.name.store(name, kPublish);
  const auto argc =
      static_cast<std::uint8_t>(std::min(arg_count, kMaxArgs));
  s.argc.store(argc, kPublish);
  std::uint8_t smask = 0;
  for (std::size_t a = 0; a < argc; ++a) {
    s.keys[a].store(args[a].key, kPublish);
    s.vals[a].store(args[a].value, kPublish);
    if (args[a].is_string) smask |= static_cast<std::uint8_t>(1u << a);
  }
  s.smask.store(smask, kPublish);
  s.seq.store(2 * (idx + 1), std::memory_order_release);
  lane.head.store(idx + 1, std::memory_order_release);
}

// -------------------------------------------------------------------- drain

TraceDump drain() {
  TraceDump dump;
  {
    StringTable& t = string_table();
    std::lock_guard<std::mutex> lock(t.mutex);
    dump.strings = t.strings;
  }
  LaneRegistry& reg = lane_registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  dump.lanes.reserve(reg.lanes.size());
  for (const auto& lane : reg.lanes) {
    LaneDump out;
    out.name = lane->name;
    const std::uint64_t head = lane->head.load(std::memory_order_acquire);
    const std::uint64_t base = lane->base.load(std::memory_order_relaxed);
    const std::uint64_t cap = lane->ring.size();
    const std::uint64_t live = head - base;
    const std::uint64_t first = live > cap ? head - cap : base;
    out.dropped = first - base;  // overwritten by wraparound
    out.events.reserve(static_cast<std::size_t>(head - first));
    for (std::uint64_t i = first; i < head; ++i) {
      const Slot& s = lane->ring[i & lane->mask];
      const std::uint64_t want = 2 * (i + 1);
      if (s.seq.load(std::memory_order_acquire) != want) {
        ++out.dropped;  // already overwritten (or mid-write) by the producer
        continue;
      }
      // Acquire loads: a field from a newer write brings that write's odd
      // seq with it, so the re-check below sees the tear.
      constexpr auto kObserve = std::memory_order_acquire;
      Event e;
      e.ts_us = s.ts.load(kObserve);
      e.dur_us = s.dur.load(kObserve);
      e.name = s.name.load(kObserve);
      e.arg_count = std::min<std::uint8_t>(s.argc.load(kObserve), kMaxArgs);
      e.str_mask = s.smask.load(kObserve);
      for (std::size_t a = 0; a < e.arg_count; ++a) {
        e.arg_keys[a] = s.keys[a].load(kObserve);
        e.arg_vals[a] = s.vals[a].load(kObserve);
      }
      if (s.seq.load(std::memory_order_relaxed) != want) {
        ++out.dropped;  // torn: the producer lapped us mid-copy
        continue;
      }
      out.events.push_back(e);
    }
    dump.lanes.push_back(std::move(out));
  }
  return dump;
}

void reset_for_testing() {
  LaneRegistry& reg = lane_registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& lane : reg.lanes) {
    const std::uint64_t head = lane->head.load(std::memory_order_relaxed);
    lane->base.store(head, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------- exporters

std::string to_chrome_json(const TraceDump& dump) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  for (std::size_t l = 0; l < dump.lanes.size(); ++l) {
    const LaneDump& lane = dump.lanes[l];
    sep();
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(l) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":";
    append_json_string(out, lane.name);
    out += "}}";
    if (lane.dropped > 0) {
      sep();
      out += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(l) +
             ",\"name\":\"sysgo_lane_dropped\",\"args\":{\"dropped\":" +
             std::to_string(lane.dropped) + "}}";
    }
    for (const Event& e : lane.events) {
      sep();
      out += "{\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(l) +
             ",\"ts\":" + std::to_string(e.ts_us) +
             ",\"dur\":" + std::to_string(e.dur_us) + ",\"name\":";
      append_json_string(out, string_of(dump, e.name));
      out += ",\"cat\":\"sysgo\"";
      append_args(out, dump, e);
      out += '}';
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

void write_trace_file(const std::string& path) {
  util::write_file_atomic(path, to_chrome_json(drain()));
}

}  // namespace sysgo::obs::trace
