#include "obs/trace_report.hpp"

#include "obs/json.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
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

/// A numeric field read as an integer in [0, limit); absent or
/// non-numeric fields read 0, like the writer's defaults.
std::uint64_t bounded_field(const json::Value& ev, const char* key,
                            std::uint64_t limit) {
  const json::Value* v = ev.find(key);
  if (v == nullptr || v->kind != json::Value::Kind::kNumber) return 0;
  const double x = std::round(v->number);
  if (!(x >= 0.0 && x < static_cast<double>(limit)))
    throw std::runtime_error(std::string("trace json: ") + key + " " +
                             std::to_string(v->number) + " outside [0, " +
                             std::to_string(limit) + ")");
  return static_cast<std::uint64_t>(x);
}

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
    else if (ph->str == "s") e.kind = EventKind::kFlowBegin;
    else if (ph->str == "f") e.kind = EventKind::kFlowEnd;
    else continue;  // foreign phase: skip
    e.name = intern.id(name_str);
    // Timestamps stay below 2^62 us so ts + dur cannot wrap.
    constexpr std::uint64_t kMaxMicros = std::uint64_t{1} << 62;
    e.ts_us = bounded_field(ev, "ts", kMaxMicros);
    e.dur_us = bounded_field(ev, "dur", kMaxMicros);
    e.flow_id = static_cast<std::uint32_t>(
        bounded_field(ev, "id", std::uint64_t{1} << 32));
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
             "  wall-clock %.3f ms, %zu spans, %llu dropped\n",
             ms(rep.wall_us), rep.span_count,
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
