#include "obs/trace_report.hpp"

#include "obs/json.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

namespace sysgo::obs::trace {

namespace {

/// Dump-local interner (parsed documents rebuild their own string table).
struct DumpInterner {
  TraceDump& dump;
  std::unordered_map<std::string, NameId> ids{{"", 0}};

  explicit DumpInterner(TraceDump& d) : dump(d) {
    dump.strings.assign(1, "");
  }

  NameId id(const std::string& s) {
    const auto it = ids.find(s);
    if (it != ids.end()) return it->second;
    const auto nid = static_cast<NameId>(dump.strings.size());
    dump.strings.push_back(s);
    ids.emplace(s, nid);
    return nid;
  }
};

// --------------------------------------------------------- flight-bytes I/O

struct ByteReader {
  const std::string& bytes;
  std::size_t pos = 0;

  template <class T>
  T get() {
    if (pos + sizeof(T) > bytes.size())
      throw std::runtime_error("trace flight: truncated payload");
    T v;
    std::memcpy(&v, bytes.data() + pos, sizeof(T));
    pos += sizeof(T);
    return v;
  }

  std::string get_string(std::size_t len) {
    if (pos + len > bytes.size())
      throw std::runtime_error("trace flight: truncated string");
    std::string s = bytes.substr(pos, len);
    pos += len;
    return s;
  }

  /// Read a record count and check it against the bytes left, given each
  /// record's smallest encoding — so a corrupt count fails here instead of
  /// sizing an allocation.
  template <class T>
  std::size_t get_count(std::size_t min_record_bytes, const char* what) {
    const auto count = get<T>();
    if (count > (bytes.size() - pos) / min_record_bytes)
      throw std::runtime_error(std::string("trace flight: ") + what +
                               " count " + std::to_string(count) +
                               " exceeds the payload");
    return static_cast<std::size_t>(count);
  }
};

// Smallest encodings: a string is its u32 length; an event is ts, dur (u64
// each), name (u32), kind/argc/mask/pad (u8 each) and flow (u32), no args.
constexpr std::size_t kMinStringBytes = 4;
constexpr std::size_t kMinEventBytes = 8 + 8 + 4 + 4 * 1 + 4;

constexpr std::string_view kFlightMagic = "SYSGOFR1";

}  // namespace

TraceDump parse_chrome_json(const std::string& json) {
  const json::Value root = json::parse(json);
  if (root.kind != json::Value::Kind::kObject)
    throw std::runtime_error("trace json: document is not an object");
  const json::Value* events = root.find("traceEvents");
  if (events == nullptr || events->kind != json::Value::Kind::kArray)
    throw std::runtime_error("trace json: missing traceEvents array");

  TraceDump dump;
  DumpInterner intern(dump);
  std::unordered_map<std::int64_t, std::size_t> lane_of_tid;
  const auto lane_index = [&](std::int64_t tid) {
    const auto it = lane_of_tid.find(tid);
    if (it != lane_of_tid.end()) return it->second;
    const std::size_t idx = dump.lanes.size();
    lane_of_tid.emplace(tid, idx);
    LaneDump lane;
    lane.name = "tid-" + std::to_string(tid);
    dump.lanes.push_back(std::move(lane));
    return idx;
  };

  for (const json::Value& ev : events->items) {
    if (ev.kind != json::Value::Kind::kObject) continue;
    const json::Value* ph = ev.find("ph");
    if (ph == nullptr || ph->kind != json::Value::Kind::kString) continue;
    const json::Value* tid = ev.find("tid");
    LaneDump& lane = dump.lanes[lane_index(
        tid != nullptr && tid->kind == json::Value::Kind::kNumber
            ? json::as_i64(*tid)
            : 0)];
    const json::Value* name = ev.find("name");
    const std::string name_str =
        name != nullptr && name->kind == json::Value::Kind::kString ? name->str
                                                                  : "";
    const json::Value* args = ev.find("args");
    if (ph->str == "M") {
      if (args == nullptr) continue;
      if (name_str == "thread_name") {
        if (const json::Value* n = args->find("name"))
          if (n->kind == json::Value::Kind::kString) lane.name = n->str;
      } else if (name_str == "sysgo_lane_dropped") {
        if (const json::Value* n = args->find("dropped"))
          if (n->kind == json::Value::Kind::kNumber)
            lane.dropped = static_cast<std::uint64_t>(json::as_i64(*n));
      }
      continue;
    }
    Event e;
    if (ph->str == "X") e.kind = EventKind::kComplete;
    else if (ph->str == "i" || ph->str == "I") e.kind = EventKind::kInstant;
    else if (ph->str == "s") e.kind = EventKind::kFlowBegin;
    else if (ph->str == "f") e.kind = EventKind::kFlowEnd;
    else continue;  // foreign phase: skip
    e.name = intern.id(name_str);
    if (const json::Value* ts = ev.find("ts"))
      if (ts->kind == json::Value::Kind::kNumber)
        e.ts_us = static_cast<std::uint64_t>(json::as_i64(*ts));
    if (const json::Value* dur = ev.find("dur"))
      if (dur->kind == json::Value::Kind::kNumber)
        e.dur_us = static_cast<std::uint64_t>(json::as_i64(*dur));
    if (const json::Value* id = ev.find("id"))
      if (id->kind == json::Value::Kind::kNumber)
        e.flow_id = static_cast<std::uint32_t>(json::as_i64(*id));
    if (args != nullptr && args->kind == json::Value::Kind::kObject) {
      for (const auto& [key, val] : args->members) {
        if (e.arg_count >= kMaxArgs) break;
        if (val.kind == json::Value::Kind::kNumber) {
          e.arg_keys[e.arg_count] = intern.id(key);
          e.arg_vals[e.arg_count] = json::as_i64(val);
          ++e.arg_count;
        } else if (val.kind == json::Value::Kind::kString) {
          e.arg_keys[e.arg_count] = intern.id(key);
          e.arg_vals[e.arg_count] =
              static_cast<std::int64_t>(intern.id(val.str));
          e.str_mask |= static_cast<std::uint8_t>(1u << e.arg_count);
          ++e.arg_count;
        }
      }
    }
    lane.events.push_back(e);
  }
  return dump;
}

TraceDump parse_flight_bytes(const std::string& bytes) {
  if (bytes.size() < kFlightMagic.size() ||
      bytes.compare(0, kFlightMagic.size(), kFlightMagic) != 0)
    throw std::runtime_error("trace flight: bad magic");
  ByteReader in{bytes, kFlightMagic.size()};
  const auto version = in.get<std::uint32_t>();
  if (version != 1)
    throw std::runtime_error("trace flight: unsupported version " +
                             std::to_string(version));
  TraceDump dump;
  const std::size_t nstrings =
      in.get_count<std::uint32_t>(kMinStringBytes, "string");
  dump.strings.reserve(nstrings);
  for (std::size_t i = 0; i < nstrings; ++i)
    dump.strings.push_back(in.get_string(in.get<std::uint32_t>()));
  const auto nlanes = in.get<std::uint32_t>();
  for (std::uint32_t l = 0; l < nlanes; ++l) {
    LaneDump lane;
    lane.name = in.get_string(in.get<std::uint32_t>());
    lane.dropped = in.get<std::uint64_t>();
    const std::size_t nevents =
        in.get_count<std::uint64_t>(kMinEventBytes, "event");
    lane.events.reserve(nevents);
    for (std::size_t i = 0; i < nevents; ++i) {
      Event e;
      e.ts_us = in.get<std::uint64_t>();
      e.dur_us = in.get<std::uint64_t>();
      e.name = in.get<std::uint32_t>();
      e.kind = static_cast<EventKind>(in.get<std::uint8_t>());
      e.arg_count = in.get<std::uint8_t>();
      e.str_mask = in.get<std::uint8_t>();
      (void)in.get<std::uint8_t>();  // pad
      e.flow_id = in.get<std::uint32_t>();
      if (e.arg_count > kMaxArgs)
        throw std::runtime_error("trace flight: bad arg count");
      for (std::size_t a = 0; a < e.arg_count; ++a) {
        e.arg_keys[a] = in.get<std::uint32_t>();
        e.arg_vals[a] = in.get<std::int64_t>();
      }
      if (e.name >= dump.strings.size())
        throw std::runtime_error("trace flight: name id out of range");
      lane.events.push_back(e);
    }
    dump.lanes.push_back(std::move(lane));
  }
  return dump;
}

TraceDump parse_trace(const std::string& bytes) {
  if (bytes.size() >= kFlightMagic.size() &&
      bytes.compare(0, kFlightMagic.size(), kFlightMagic) == 0)
    return parse_flight_bytes(bytes);
  return parse_chrome_json(bytes);
}

// ----------------------------------------------------------------- analysis

namespace {

struct FlatSpan {
  std::size_t lane = 0;
  NameId name = 0;
  std::uint64_t ts = 0;
  std::uint64_t end = 0;  // ts + dur
};

std::string_view dump_string(const TraceDump& dump, NameId id) {
  return id < dump.strings.size() ? std::string_view(dump.strings[id])
                                  : std::string_view("?");
}

/// Union length of [ts, end) intervals (assumes `spans` sorted by ts).
std::uint64_t merged_busy(const std::vector<const FlatSpan*>& spans) {
  std::uint64_t busy = 0;
  std::uint64_t cur_lo = 0;
  std::uint64_t cur_hi = 0;
  bool open = false;
  for (const FlatSpan* s : spans) {
    if (!open || s->ts > cur_hi) {
      if (open) busy += cur_hi - cur_lo;
      cur_lo = s->ts;
      cur_hi = s->end;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, s->end);
    }
  }
  if (open) busy += cur_hi - cur_lo;
  return busy;
}

void append_row(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void append_row(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

double ms(std::uint64_t us) { return static_cast<double>(us) / 1000.0; }

}  // namespace

Report analyze(const TraceDump& dump, const ReportOptions& opts) {
  Report rep;
  std::vector<FlatSpan> spans;
  bool any_event = false;
  std::uint64_t first = ~std::uint64_t{0};
  std::uint64_t last = 0;
  for (std::size_t l = 0; l < dump.lanes.size(); ++l) {
    const LaneDump& lane = dump.lanes[l];
    rep.dropped += lane.dropped;
    for (const Event& e : lane.events) {
      any_event = true;
      first = std::min(first, e.ts_us);
      last = std::max(last, e.ts_us + e.dur_us);
      if (e.kind == EventKind::kComplete) {
        spans.push_back({l, e.name, e.ts_us, e.ts_us + e.dur_us});
        ++rep.span_count;
      } else if (e.kind == EventKind::kInstant) {
        ++rep.instant_count;
      }
    }
  }
  if (!any_event) return rep;
  rep.first_us = first;
  rep.last_us = last;
  rep.wall_us = last - first;

  // Per-lane utilization: union of that lane's span intervals over the
  // trace wall-clock (idle lanes report 0 spans, 0 busy).
  for (std::size_t l = 0; l < dump.lanes.size(); ++l) {
    std::vector<const FlatSpan*> lane_spans;
    for (const FlatSpan& s : spans)
      if (s.lane == l) lane_spans.push_back(&s);
    std::sort(lane_spans.begin(), lane_spans.end(),
              [](const FlatSpan* a, const FlatSpan* b) {
                return a->ts < b->ts || (a->ts == b->ts && a->end < b->end);
              });
    LaneUtilization u;
    u.name = dump.lanes[l].name;
    u.spans = lane_spans.size();
    u.busy_us = merged_busy(lane_spans);
    u.utilization = rep.wall_us > 0 ? static_cast<double>(u.busy_us) /
                                          static_cast<double>(rep.wall_us)
                                    : 0.0;
    rep.lanes.push_back(std::move(u));
  }

  // Per-stage breakdown: aggregate by span name, largest total first.
  std::map<std::string_view, StageRow> stages;
  for (const FlatSpan& s : spans) {
    const std::string_view name = dump_string(dump, s.name);
    StageRow& row = stages[name];
    if (row.count == 0) row.name = std::string(name);
    ++row.count;
    row.total_us += s.end - s.ts;
    row.max_us = std::max(row.max_us, s.end - s.ts);
  }
  for (auto& [name, row] : stages) rep.stages.push_back(std::move(row));
  std::sort(rep.stages.begin(), rep.stages.end(),
            [](const StageRow& a, const StageRow& b) {
              if (a.total_us != b.total_us) return a.total_us > b.total_us;
              return a.name < b.name;
            });

  // Span-duration top-K.
  std::vector<const FlatSpan*> by_dur;
  by_dur.reserve(spans.size());
  for (const FlatSpan& s : spans) by_dur.push_back(&s);
  std::sort(by_dur.begin(), by_dur.end(),
            [](const FlatSpan* a, const FlatSpan* b) {
              const std::uint64_t da = a->end - a->ts;
              const std::uint64_t db = b->end - b->ts;
              if (da != db) return da > db;
              if (a->ts != b->ts) return a->ts < b->ts;
              return a->lane < b->lane;
            });
  for (std::size_t i = 0; i < std::min(opts.top_k, by_dur.size()); ++i) {
    const FlatSpan& s = *by_dur[i];
    rep.top_spans.push_back({std::string(dump_string(dump, s.name)),
                             dump.lanes[s.lane].name, s.ts, s.end - s.ts});
  }

  // Critical path: walk backwards from the latest-finishing span, each time
  // to the latest-ending span that finished no later than the current span
  // began.  Predecessor positions strictly decrease in the (end, ts, lane)
  // order, so the walk terminates.
  std::vector<const FlatSpan*> by_end = by_dur;
  std::sort(by_end.begin(), by_end.end(),
            [](const FlatSpan* a, const FlatSpan* b) {
              if (a->end != b->end) return a->end < b->end;
              if (a->ts != b->ts) return a->ts < b->ts;
              return a->lane < b->lane;
            });
  if (!by_end.empty()) {
    std::vector<const FlatSpan*> path;
    std::size_t cur = by_end.size() - 1;
    path.push_back(by_end[cur]);
    for (;;) {
      const std::uint64_t start = by_end[cur]->ts;
      // Largest index before cur whose end <= start.
      std::size_t pred = cur;
      bool found = false;
      for (std::size_t i = cur; i-- > 0;) {
        if (by_end[i]->end <= start) {
          pred = i;
          found = true;
          break;
        }
      }
      if (!found) break;
      path.push_back(by_end[pred]);
      cur = pred;
    }
    std::reverse(path.begin(), path.end());
    for (const FlatSpan* s : path) {
      rep.critical_path.push_back({std::string(dump_string(dump, s->name)),
                                   dump.lanes[s->lane].name, s->ts,
                                   s->end - s->ts});
      rep.critical_busy_us += s->end - s->ts;
    }
  }
  return rep;
}

std::string report_text(const Report& rep) {
  std::string out;
  append_row(out,
             "trace report\n"
             "  wall-clock %.3f ms, %zu spans, %zu instants, %llu dropped\n",
             ms(rep.wall_us), rep.span_count, rep.instant_count,
             static_cast<unsigned long long>(rep.dropped));
  if (rep.span_count == 0) {
    out += "  (no spans)\n";
    return out;
  }

  out += "\nper-worker utilization\n";
  append_row(out, "  %-24s %8s %12s %8s\n", "lane", "spans", "busy-ms",
             "util%");
  for (const LaneUtilization& u : rep.lanes)
    append_row(out, "  %-24s %8zu %12.3f %8.1f\n", u.name.c_str(), u.spans,
               ms(u.busy_us), 100.0 * u.utilization);

  out += "\nstage breakdown\n";
  append_row(out, "  %-32s %8s %12s %10s %10s\n", "stage", "count",
             "total-ms", "mean-ms", "max-ms");
  for (const StageRow& s : rep.stages)
    append_row(out, "  %-32s %8zu %12.3f %10.3f %10.3f\n", s.name.c_str(),
               s.count, ms(s.total_us),
               ms(s.total_us) / static_cast<double>(s.count), ms(s.max_us));

  append_row(out, "\ntop %zu spans by duration\n", rep.top_spans.size());
  append_row(out, "  %10s %12s  %-20s %s\n", "dur-ms", "start-ms", "lane",
             "name");
  for (const SpanRow& s : rep.top_spans)
    append_row(out, "  %10.3f %12.3f  %-20s %s\n", ms(s.dur_us),
               ms(s.ts_us - rep.first_us), s.lane.c_str(), s.name.c_str());

  const double cover =
      rep.wall_us > 0 ? 100.0 * static_cast<double>(rep.critical_busy_us) /
                            static_cast<double>(rep.wall_us)
                      : 0.0;
  append_row(out, "\ncritical path (%zu spans, %.3f ms busy, %.1f%% of wall)\n",
             rep.critical_path.size(), ms(rep.critical_busy_us), cover);
  append_row(out, "  %12s %10s  %-20s %s\n", "start-ms", "dur-ms", "lane",
             "name");
  for (const SpanRow& s : rep.critical_path)
    append_row(out, "  %12.3f %10.3f  %-20s %s\n", ms(s.ts_us - rep.first_us),
               ms(s.dur_us), s.lane.c_str(), s.name.c_str());
  return out;
}

}  // namespace sysgo::obs::trace
