// The traced run: alternates an untraced engine pass with a replay of the
// same layer calls the engine's job bodies make, in the same order, each
// wrapped in a span kept in this file's own memory (never the obs ring,
// which synth.accept instants flood).  Per-layer busy times come from the
// spans; counts come from the calls' results and the program's own
// counters, read by name so a renamed or deleted counter is reported
// absent instead of failing the run.
#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "core/audit.hpp"
#include "core/separator_bound.hpp"
#include "io/sweep_io.hpp"
#include "perfbench.hpp"
#include "protocol/builders.hpp"
#include "protocol/compiled.hpp"
#include "search/solver.hpp"
#include "search/state.hpp"
#include "search/symmetry.hpp"
#include "separator/separator.hpp"
#include "simulator/batch.hpp"
#include "simulator/gossip_sim.hpp"
#include "synth/synthesizer.hpp"
#include "topology/topology.hpp"

// A planned refactor moves the matching generator out of analysis/; the
// probe is then reported absent rather than breaking the build.
#if __has_include("analysis/optimal.hpp")
#include "analysis/optimal.hpp"
#define PERFBENCH_HAVE_MATCHINGS 1
#endif

namespace perfbench {

namespace engine = sysgo::engine;
using sysgo::protocol::Mode;

namespace {

/// The layer calls the replay times.  Probes are timed beside the replay
/// (search::solve recomputes both), so they are reported but not summed.
enum Call : std::size_t {
  kMakeFamily,
  kColoring,
  kCompile,
  kGossip,
  kAuditHalf,
  kAuditFull,
  kBound,
  kSolve,
  kSynthesize,
  kRender,
  kMatchingsProbe,
  kAutomorphismsProbe,
  kJob,  // the replay's per-job wrapper: parent of that job's layer spans
  kCallCount,
};

struct CallInfo {
  const char* span;    // Chrome trace event name
  const char* layer;   // module, the trace category
  const char* metric;  // per-layer busy-time metric ("" = not summed)
};

constexpr std::array<CallInfo, kCallCount> kCalls = {{
    {"topology::make_family", "topology", "topology.build_s"},
    {"protocol::edge_coloring_schedule", "protocol", "protocol.coloring_s"},
    {"protocol::CompiledSchedule::compile", "protocol", "protocol.compile_s"},
    {"simulator::gossip_time", "simulator", "simulator.gossip_s"},
    {"core::audit_schedule (half)", "core", "core.audit_half_s"},
    {"core::audit_schedule (full)", "core", "core.audit_full_s"},
    {"core::separator_bound", "core", "core.bound_s"},
    {"search::solve", "search", "search.solve_s"},
    {"synth::synthesize", "synth", "synth.synthesize_s"},
    {"io::sweep_csv_row", "io", "io.render_s"},
    {"analysis::maximal_matchings (probe)", "search", ""},
    {"search::automorphisms (probe)", "search", ""},
    {"engine job (replay)", "engine", ""},
}};

struct Span {
  Call call;
  double start_s = 0.0;
  double dur_s = 0.0;
  std::size_t pass = 0;
  std::size_t job = 0;
};

/// Span storage for the whole invocation, written as Chrome trace JSON at
/// exit.  Reserved up front so recording never reallocates mid-pass.
class Recorder {
 public:
  Recorder() { spans_.reserve(1 << 16); }

  void set_job(std::size_t pass, std::size_t job) {
    pass_ = pass;
    job_ = job;
  }

  /// Time f() as one span of `call` and return its result.
  template <class F>
  auto timed(Call call, F&& f) {
    const Scope scope(*this, call);
    return f();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  class Scope {
   public:
    Scope(Recorder& rec, Call call)
        : rec_(rec), call_(call), start_(wall_now_s()) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      rec_.spans_.push_back(
          {call_, start_, wall_now_s() - start_, rec_.pass_, rec_.job_});
    }

   private:
    Recorder& rec_;
    Call call_;
    double start_;
  };

  std::vector<Span> spans_;
  std::size_t pass_ = 0;
  std::size_t job_ = 0;
};

struct Artifacts {
  sysgo::graph::Digraph graph;
  sysgo::protocol::SystolicSchedule schedule;
  sysgo::protocol::CompiledSchedule compiled;
};

/// A synthesized winner kept for the after-pass re-compile check.
struct Winner {
  std::size_t job = 0;
  sysgo::graph::Digraph graph;
  sysgo::protocol::SystolicSchedule schedule;
  int rounds = 0;
};

/// Everything one traced pass measured, by metric name.
using PassValues = std::map<std::string, double>;

/// Rows a compiled run merges and the bytes it moves, from the compiled
/// spans × rounds executed (not measured inside the simulator): a
/// half-duplex arc reads a source and a destination row and writes the
/// destination (3 row transfers, 1 row merge); a full-duplex pair reads and
/// writes both rows (4 transfers, 2 row merges).  Rows are 64-byte-aligned
/// bitsets of ceil(n / 512) cache lines.
void add_computed_merges(const sysgo::protocol::CompiledSchedule& cs,
                         int rounds, PassValues& v) {
  const int period = cs.period_length();
  if (period <= 0 || rounds <= 0) return;
  double per_period = 0.0;
  double tail = 0.0;
  const int rem = rounds % period;
  for (int r = 0; r < period; ++r) {
    const auto work = static_cast<double>(cs.round_pairs(r).size());
    per_period += work;
    if (r < rem) tail += work;
  }
  const double units = per_period * (rounds / period) + tail;
  const bool full = cs.mode() == Mode::kFullDuplex;
  const double row_bytes = 64.0 * ((cs.n() + 511) / 512);
  v["simulator.row_merges"] += units * (full ? 2.0 : 1.0);
  v["simulator.gb_moved"] += units * (full ? 4.0 : 3.0) * row_bytes / 1e9;
}

/// One traced replay of the workload at `seed`.  Returns the replayed
/// records (for the cross-check against the engine pass) and fills `v`.
std::vector<engine::SweepRecord> replay_pass(const Workload& w,
                                             std::uint64_t seed,
                                             std::size_t pass, Recorder& rec,
                                             PassValues& v,
                                             std::vector<Winner>& winners,
                                             double& wall_s) {
  engine::ExecutionLimits limits = w.limits;
  limits.seed = seed;
  std::unordered_map<engine::ScenarioKey, Artifacts, engine::ScenarioKeyHash>
      cache;
  sysgo::simulator::GossipArena arena;
  std::vector<engine::SweepRecord> records(w.jobs.size());
  std::string csv =
      "# seed=" + std::to_string(seed) + "\n" + sysgo::io::sweep_csv_header();

  const auto artifacts =
      [&](const engine::ScenarioKey& key) -> const Artifacts& {
    auto it = cache.find(key);
    if (it != cache.end()) return it->second;
    Artifacts a;
    a.graph = rec.timed(kMakeFamily, [&] {
      return sysgo::topology::make_family(key.family, key.d, key.D, seed);
    });
    a.schedule = rec.timed(kColoring, [&] {
      return sysgo::protocol::edge_coloring_schedule(a.graph, key.mode);
    });
    a.compiled = rec.timed(kCompile, [&] {
      return sysgo::protocol::CompiledSchedule::compile(
          a.schedule, a.graph.is_symmetric() ? &a.graph : nullptr);
    });
    v["protocol.arcs"] += static_cast<double>(a.compiled.arc_total());
    return cache.emplace(key, std::move(a)).first->second;
  };

  const double t0 = wall_now_s();
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    const engine::SweepJob& job = w.jobs[i];
    rec.set_job(pass, i);
    rec.timed(kJob, [&] {
      engine::SweepRecord& r = records[i];
      r.key = job.key;
      r.task = job.task;
      r.s = job.s;
      switch (job.task) {
        case engine::Task::kBound: {
          if (!sysgo::topology::family_has_separator_analysis(job.key.family)) {
            r.alpha = r.ell = r.e = r.lambda = -1.0;
            break;
          }
          rec.timed(kBound, [&] {
            const auto params =
                sysgo::separator::lemma31_params(job.key.family, job.key.d);
            r.alpha = params.alpha;
            r.ell = params.ell;
            const auto sb = sysgo::core::separator_bound(
                job.key.family, job.key.d, job.s,
                engine::duplex_of(job.key.mode));
            r.e = sb.e;
            r.lambda = sb.lambda;
          });
          break;
        }
        case engine::Task::kSimulate: {
          const Artifacts& a = artifacts(job.key);
          r.n = a.compiled.n();
          r.s = a.compiled.period_length();
          sysgo::simulator::GossipOptions gopts;
          gopts.parallel = limits.simulate_parallel_rounds;
          r.rounds = rec.timed(kGossip, [&] {
            return sysgo::simulator::gossip_time(
                a.compiled, limits.simulate_max_rounds, gopts, arena);
          });
          const int executed =
              r.rounds >= 0 ? r.rounds : limits.simulate_max_rounds;
          v["simulator.rounds"] += executed;
          add_computed_merges(a.compiled, executed, v);
          break;
        }
        case engine::Task::kAudit: {
          const Artifacts& a = artifacts(job.key);
          r.n = a.compiled.n();
          r.s = a.compiled.period_length();
          const auto audit = rec.timed(
              job.key.mode == Mode::kFullDuplex ? kAuditFull : kAuditHalf,
              [&] { return sysgo::core::audit_schedule(a.compiled); });
          r.lambda = audit.lambda_star;
          r.e = audit.e_coeff;
          r.rounds = audit.round_lower_bound;
          break;
        }
        case engine::Task::kSolveGossip:
        case engine::Task::kSolveBroadcast: {
          const auto g = rec.timed(kMakeFamily, [&] {
            const std::int64_t order = sysgo::topology::family_order(
                job.key.family, job.key.d, job.key.D);
            if (order > sysgo::search::kMaxVertices)
              throw std::invalid_argument("solve member beyond n <= 12");
            return sysgo::topology::make_family(job.key.family, job.key.d,
                                                job.key.D, seed);
          });
          r.n = g.vertex_count();
          sysgo::search::SolveOptions so;
          so.problem = job.task == engine::Task::kSolveGossip
                           ? sysgo::search::Problem::kGossip
                           : sysgo::search::Problem::kBroadcast;
          so.mode = job.key.mode;
          so.max_rounds = limits.solve_max_rounds;
          so.max_states = limits.solve_max_states;
          so.threads = limits.solve_threads;
          const auto sr =
              rec.timed(kSolve, [&] { return sysgo::search::solve(g, so); });
          r.rounds = sr.rounds;
          r.states = static_cast<std::int64_t>(sr.states_explored);
          r.group = static_cast<std::int64_t>(sr.group_order);
          r.budget = sr.budget_exhausted ? 1 : 0;
          break;
        }
        case engine::Task::kSynthesize: {
          const auto g = rec.timed(kMakeFamily, [&] {
            (void)sysgo::topology::family_order(job.key.family, job.key.d,
                                                job.key.D);
            return sysgo::topology::make_family(job.key.family, job.key.d,
                                                job.key.D, seed);
          });
          r.n = g.vertex_count();
          // Only the fields the engine sets: everything else keeps the
          // synthesizer's defaults, as in the engine's job body.
          sysgo::synth::SynthOptions so;
          so.mode = job.key.mode;
          so.objective.max_rounds = limits.simulate_max_rounds;
          so.restarts = limits.synth_restarts;
          so.iterations = limits.synth_iterations;
          so.time_budget_ms = limits.synth_time_budget_ms;
          so.threads = limits.synth_threads;
          so.seed = limits.seed;
          const auto sr = rec.timed(
              kSynthesize, [&] { return sysgo::synth::synthesize(g, so); });
          r.s = sr.schedule.period_length();
          r.rounds = sr.objective.rounds;
          r.objective = sr.objective.score();
          r.restarts = sr.restarts_run;
          r.accepted = sr.moves_accepted;
          v["synth.moves"] += static_cast<double>(sr.moves_proposed);
          v["synth.accepted"] += static_cast<double>(sr.moves_accepted);
          winners.push_back({i, g, sr.schedule, sr.objective.rounds});
          break;
        }
        default:
          throw std::logic_error("perfbench: task not replayed: " +
                                 engine::task_name(job.task));
      }
      rec.timed(kRender, [&] { csv += sysgo::io::sweep_csv_row(r); });
    });
  }
  wall_s = wall_now_s() - t0;
  v["io.bytes"] += static_cast<double>(csv.size());
  return records;
}

/// Side probes for the solve instances: the move set and the symmetry
/// group search::solve builds internally, timed on their own.
void probe_solve(const Workload& w, std::uint64_t seed, std::size_t pass,
                 Recorder& rec, PassValues& v) {
  for (std::size_t i = 0; i < w.instance_names.size(); ++i) {
    const engine::SweepJob& job = w.jobs[i];
    const std::string& label = w.instance_names[i];
    rec.set_job(pass, i);
    const auto g = sysgo::topology::make_family(job.key.family, job.key.d,
                                                job.key.D, seed);
#if defined(PERFBENCH_HAVE_MATCHINGS)
    const auto moves = rec.timed(kMatchingsProbe, [&] {
      return sysgo::analysis::maximal_matchings(g, job.key.mode);
    });
    v["search.matchings_s." + label] = rec.spans().back().dur_s;
    v["search.matchings." + label] = static_cast<double>(moves.size());
#endif
    (void)rec.timed(kAutomorphismsProbe, [&] {
      return sysgo::search::automorphisms(
          g, sysgo::search::SolveOptions{}.max_group_order);
    });
    v["search.automorphisms_s." + label] = rec.spans().back().dur_s;
  }
}

std::string chrome_json(const std::vector<Span>& spans) {
  double first = spans.empty() ? 0.0 : spans.front().start_s;
  for (const Span& s : spans) first = std::min(first, s.start_s);
  std::string out = "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const CallInfo& c = kCalls[s.call];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"ph\": \"X\", \"pid\": 1, \"tid\": %zu, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"name\": \"%s\", \"cat\": \"%s\", "
                  "\"args\": {\"pass\": %zu, \"job\": %zu, \"metric\": "
                  "\"%s\"}}%s\n",
                  s.pass + 1, (s.start_s - first) * 1e6, s.dur_s * 1e6, c.span,
                  c.layer, s.pass, s.job, c.metric,
                  i + 1 < spans.size() ? "," : "");
    out += buf;
  }
  return out + "], \"displayTimeUnit\": \"ms\"}\n";
}

/// Where a per-layer metric's value comes from.  Replay metrics read 0 on
/// a workload that never enters their layer; metrics derived from the
/// program's own counters (or from a probe the program may drop) are
/// reported absent when the program no longer provides them.
enum class Source { kReplay, kProgram, kMatchingsProbe, kAccounting };

struct LayerMetric {
  std::string name;
  std::string unit;
  bool busy;  // a layer busy time: summed into the accounting
  Source source;
};

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = [] {
    std::vector<LayerMetric> m = {
        {"topology.build_s", "s", true, Source::kReplay},
        {"protocol.coloring_s", "s", true, Source::kReplay},
        {"protocol.compile_s", "s", true, Source::kReplay},
        {"protocol.arcs", "arcs", false, Source::kReplay},
        {"simulator.gossip_s", "s", true, Source::kReplay},
        {"simulator.rounds", "rounds", false, Source::kReplay},
        {"simulator.row_merges", "merges_computed", false, Source::kReplay},
        {"simulator.gb_moved", "GB_computed", false, Source::kReplay},
        {"simulator.merges_per_s", "merges/s", false, Source::kReplay},
        {"core.audit_half_s", "s", true, Source::kReplay},
        {"core.audit_full_s", "s", true, Source::kReplay},
        {"core.bound_s", "s", true, Source::kReplay},
    };
    for (const std::string& l : make_workload("solve_mix").instance_names) {
      m.push_back({"search.solve_s." + l, "s", true, Source::kReplay});
      m.push_back({"search.states." + l, "states", false, Source::kReplay});
      m.push_back({"search.states_per_s." + l, "states/s", false,
                   Source::kReplay});
      m.push_back({"search.matchings_s." + l, "s", false,
                   Source::kMatchingsProbe});
      m.push_back({"search.matchings." + l, "matchings", false,
                   Source::kMatchingsProbe});
      m.push_back({"search.automorphisms_s." + l, "s", false, Source::kReplay});
      m.push_back({"search.group." + l, "elements", false, Source::kReplay});
    }
    const std::vector<LayerMetric> rest = {
        {"search.dedup_ratio", "ratio", false, Source::kProgram},
        {"synth.synthesize_s", "s", true, Source::kReplay},
        {"synth.moves", "moves", false, Source::kReplay},
        {"synth.moves_per_s", "moves/s", false, Source::kReplay},
        {"synth.accept_ratio", "ratio", false, Source::kReplay},
        {"synth.evals", "evals", false, Source::kProgram},
        {"synth.rounds_per_eval", "rounds/eval", false, Source::kProgram},
        {"synth.deep_eval_share", "ratio", false, Source::kProgram},
        {"synth.restart_s_max", "s", false, Source::kProgram},
        {"engine.leftover_s", "s", false, Source::kAccounting},
        {"engine.jobs", "jobs", false, Source::kReplay},
        {"engine.cache_hits", "count", false, Source::kReplay},
        {"engine.cache_misses", "count", false, Source::kReplay},
        {"io.render_s", "s", true, Source::kReplay},
        {"io.bytes", "bytes", false, Source::kReplay},
        {"obs.trace_overhead_s", "s", false, Source::kAccounting},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return metrics;
}

/// Values read from the program's registry between two snapshots taken
/// around a traced replay.  Nothing is set for a name the program lacks.
void read_program_metrics(const sysgo::obs::Snapshot& before,
                          const sysgo::obs::Snapshot& after, PassValues& v) {
  const auto delta = [&](const char* name) -> std::optional<double> {
    const auto a = find_counter(after, name);
    const auto b = find_counter(before, name);
    if (!a || !b) return std::nullopt;
    return static_cast<double>(*a - *b);
  };
  const auto deduped = delta("search.states_deduped");
  const auto discovered = delta("search.states_discovered");
  if (deduped && discovered)
    v["search.dedup_ratio"] = *discovered > 0 ? *deduped / *discovered : 0.0;

  const auto depth = find_histogram(after, "synth.replay_depth");
  const auto depth0 = find_histogram(before, "synth.replay_depth");
  if (depth && depth0) {
    const auto d = histogram_delta(*depth0, *depth);
    v["synth.evals"] = static_cast<double>(d.count);
    v["synth.rounds_per_eval"] =
        d.count > 0
            ? static_cast<double>(d.sum_us) / static_cast<double>(d.count)
            : 0.0;
    v["synth.deep_eval_share"] = share_at_or_above(d, 1024);
  }
  // A lifetime maximum: the untraced passes run the same restarts.
  if (const auto restart = find_histogram(after, "synth.restart.micros"))
    v["synth.restart_s_max"] =
        v["synth.moves"] > 0.0 ? static_cast<double>(restart->max_us) * 1e-6
                               : 0.0;
}

}  // namespace

TracedReport run_traced(const Workload& w, std::uint64_t seed, double seconds,
                        const Golden* golden, Tally& tally) {
  Recorder rec;
  std::vector<PassValues> passes;
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  const double start = wall_now_s();
  double pair_s = 0.0;  // duration of the last untraced/traced pair
  for (std::size_t k = 0; k == 0 || wall_now_s() - start + pair_s <= seconds;
       ++k) {
    const double pair_start = wall_now_s();
    const std::uint64_t s = pass_seed(seed, k);
    PassValues v;
    for (const LayerMetric& m : layer_metrics()) {
      const bool zero = m.source == Source::kReplay
#if defined(PERFBENCH_HAVE_MATCHINGS)
                        || m.source == Source::kMatchingsProbe
#endif
          ;
      if (zero) v[m.name] = 0.0;
    }

    // Odd pairs replay first, so drift within a pair cancels in the medians.
    PassResult untraced;
    if (k % 2 == 0) untraced = run_engine_pass(w, s);
    const sysgo::obs::Snapshot before = sysgo::obs::snapshot();
    std::vector<Winner> winners;
    std::vector<engine::SweepRecord> replayed;
    double traced_wall = 0.0;
    const std::size_t first_span = rec.spans().size();
    try {
      replayed = replay_pass(w, s, k, rec, v, winners, traced_wall);
    } catch (const std::exception& e) {
      tally.fail_all(w.jobs.size(),
                     std::string("traced replay threw: ") + e.what());
      break;
    }
    const sysgo::obs::Snapshot after = sysgo::obs::snapshot();
    if (k % 2 == 1) untraced = run_engine_pass(w, s);
    tally.add(check_pass(w, untraced, golden));
    if (!untraced.error.empty()) break;
    v["engine.jobs"] = static_cast<double>(w.jobs.size());
    v["engine.cache_hits"] = static_cast<double>(untraced.cache.hits);
    v["engine.cache_misses"] = static_cast<double>(untraced.cache.misses);
    untraced_walls.push_back(untraced.wall_s);
    traced_walls.push_back(traced_wall);
    for (std::size_t i = first_span; i < rec.spans().size(); ++i) {
      const Span& span = rec.spans()[i];
      if (span.call == kSolve)
        v["search.solve_s." + w.instance_names.at(span.job)] += span.dur_s;
      else if (*kCalls[span.call].metric != '\0')
        v[kCalls[span.call].metric] += span.dur_s;
    }
    for (std::size_t i = 0; i < w.instance_names.size(); ++i) {
      const std::string& l = w.instance_names[i];
      v["search.states." + l] = static_cast<double>(replayed[i].states);
      v["search.group." + l] = static_cast<double>(replayed[i].group);
    }
    read_program_metrics(before, after, v);

    // The replay must reproduce the engine's records (all but millis), and
    // each synthesized winner, re-compiled against its graph, must gossip
    // in exactly the rounds the synthesizer reported.
    std::vector<std::string> verdicts(w.jobs.size());
    for (std::size_t i = 0; i < w.jobs.size(); ++i)
      if (!engine::same_result(replayed[i], untraced.records[i]))
        verdicts[i] = "traced replay diverged from the engine: " +
                      golden_row(replayed[i]) + " vs " +
                      golden_row(untraced.records[i]);
    for (const Winner& win : winners) {
      const Mode mode = w.jobs[win.job].key.mode;
      const bool membership =
          !(mode == Mode::kFullDuplex && !win.graph.is_symmetric());
      const auto cs = sysgo::protocol::CompiledSchedule::compile(
          win.schedule, membership ? &win.graph : nullptr);
      const int t =
          sysgo::simulator::gossip_time(cs, w.limits.simulate_max_rounds);
      if (t != win.rounds && verdicts[win.job].empty())
        verdicts[win.job] = "synth winner re-simulates in " +
                            std::to_string(t) + " rounds, reported " +
                            std::to_string(win.rounds);
    }
    tally.add(verdicts);

    if (!w.instance_names.empty()) probe_solve(w, s, k, rec, v);

    const auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    v["simulator.merges_per_s"] =
        ratio(v["simulator.row_merges"], v["simulator.gossip_s"]);
    v["synth.moves_per_s"] = ratio(v["synth.moves"], v["synth.synthesize_s"]);
    v["synth.accept_ratio"] = ratio(v["synth.accepted"], v["synth.moves"]);
    for (const std::string& l : w.instance_names)
      v["search.states_per_s." + l] =
          ratio(v["search.states." + l], v["search.solve_s." + l]);
    passes.push_back(std::move(v));
    pair_s = wall_now_s() - pair_start;
  }

  TracedReport report;
  report.pairs = passes.size();
  if (passes.empty()) return report;
  report.untraced_wall_s = median(untraced_walls);
  // Medians across pairs, metric by metric; the leftover closes the
  // accounting against the median untraced wall exactly.
  const auto values_of = [&](const std::string& name) {
    std::vector<double> xs;
    for (const PassValues& v : passes)
      if (const auto it = v.find(name); it != v.end()) xs.push_back(it->second);
    return xs;
  };
  for (const LayerMetric& m : layer_metrics())
    if (m.busy) report.layer_busy_s += median(values_of(m.name));
  for (const LayerMetric& m : layer_metrics()) {
    if (m.name == "engine.leftover_s") {
      report.layers.put(m.name, report.untraced_wall_s - report.layer_busy_s,
                        m.unit);
      continue;
    }
    if (m.name == "obs.trace_overhead_s") {
      report.layers.put(m.name, median(traced_walls) - report.untraced_wall_s,
                        m.unit);
      continue;
    }
    const std::vector<double> xs = values_of(m.name);
    if (xs.size() != passes.size()) {
      report.layers.absent.push_back(m.name);
      continue;
    }
    report.layers.put(m.name, median(xs), m.unit);
  }
  report.chrome_json = chrome_json(rec.spans());
  return report;
}

}  // namespace perfbench
