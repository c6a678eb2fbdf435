// sysgo command-line interface.
//
//   sysgo bound <s|inf> [half|full]       general coefficient e(s)
//   sysgo table <fig4|fig5|fig6|fig8>     reproduce a paper table (CSV)
//   sysgo sweep fig5|fig6                 engine-reproduced paper tables
//   sysgo sweep [grid flags]              parallel scenario sweep (CSV/JSON)
//   sysgo solve [grid flags]              exact gossip/broadcast optima
//   sysgo synth [grid flags]              heuristic schedule synthesis
//   sysgo store merge|stats|compact       persistent result-store tooling
//   sysgo audit <schedule-file>           certify a lower bound
//   sysgo simulate <schedule-file> [max]  measured gossip time
//   sysgo topology <name> <d> <D>         emit a network as sysgo-digraph
//   sysgo kernels [--have K]              SIMD row-kernel dispatch report
//   sysgo metrics dump                    render the obs metric catalog
//   sysgo trace report <PATH>             analyze a saved span trace
//   sysgo bench compare BASE CUR          gate on benchmark regressions
//   sysgo bench list|context              snapshot / host introspection
//
// sweep/solve/synth accept --metrics PATH (write an obs snapshot at exit),
// --progress (throttled stderr heartbeat with ETA and cache hit rate),
// --trace PATH (record a span timeline: Chrome trace-event JSON for *.json,
// binary flight-recorder bytes otherwise; analyze with `sysgo trace
// report`), and --perf (collect perf_event counters into the --metrics
// snapshot and --trace span args; degrades to a no-op without PMU access).
//
// Schedule files use the io/protocol_text format ("sysgo-schedule v1").
// All numeric flags go through util/parse: garbage ("--threads 4x"),
// overflow, and zero/negative values are rejected at parse time with the
// offending flag and value named, never silently accepted (the old
// std::atoi paths) or reported as a bare "stoi" (the old std::stoi paths).
#include <atomic>
#include <cstdio>
#if !defined(_WIN32)
#include <unistd.h>  // isatty: --progress suppresses \r off a TTY
#endif
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "core/audit.hpp"
#include "core/bounds.hpp"
#include "engine/figures.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep.hpp"
#include "io/csv.hpp"
#include "io/graph_text.hpp"
#include "io/protocol_text.hpp"
#include "io/sweep_io.hpp"
#include "obs/bench_compare.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/resource.hpp"
#include "obs/trace.hpp"
#include "obs/trace_report.hpp"
#include "obs/wall_timer.hpp"
#include "simulator/gossip_sim.hpp"
#include "simulator/kernels.hpp"
#include "store/result_store.hpp"
#include "topology/topology.hpp"
#include "util/fs.hpp"
#include "util/parse.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  sysgo bound <s|inf> [half|full]\n"
               "  sysgo table <fig4|fig5|fig6|fig8>\n"
               "  sysgo sweep fig5|fig6\n"
               "  sysgo sweep [--families f1,f2,..] [--d 2,3] [--D lo:hi]\n"
               "              [--modes half,full] [--tasks bound,diameter,"
               "simulate,audit,separator,solve-gossip,solve-broadcast]\n"
               "              [--periods 3:8,inf] [--threads N] "
               "[--round-threads N]\n"
               "              [--format csv|json] [--max-rounds M] "
               "[--seed S] [--no-cache]\n"
               "              [--store PATH] [--resume] [--shard i/m]\n"
               "              [--metrics PATH] [--progress] [--trace PATH] "
               "[--perf]\n"
               "      families: bf wbf-dir wbf db-dir db kautz-dir kautz "
               "cycle complete hypercube ccc se knodel rr gnp\n"
               "      (rr/gnp are seeded random members; --seed picks the "
               "instance\n"
               "       and is echoed in the output header)\n"
               "      (default: the paper's seven, d=2, bound at s=3..8;\n"
               "       --round-threads N>1 enables within-round parallel "
               "merges\n"
               "       on the process-wide pool — results are identical "
               "for any N)\n"
               "      --store PATH   write finished records to a persistent "
               "result store\n"
               "      --resume       skip records already in the store "
               "(byte-identical output)\n"
               "      --shard i/m    run shard i of m (disjoint round-robin "
               "partition)\n"
               "      --metrics PATH write an obs snapshot at exit (JSON, or "
               "CSV for *.csv)\n"
               "      --progress     throttled stderr heartbeat: done/total, "
               "ETA, cache hit rate\n"
               "      --trace PATH   record a span timeline: Chrome "
               "trace-event JSON for *.json\n"
               "                     (chrome://tracing / Perfetto), binary "
               "flight bytes otherwise\n"
               "      --perf         collect perf_event counters (cycles, "
               "IPC, cache misses)\n"
               "                     into --metrics rollups and --trace span "
               "args; no-op\n"
               "                     where counters are unavailable\n"
               "  sysgo solve [--families f1,..] [--d 2] [--D lo:hi] "
               "[--modes half,full]\n"
               "              [--problems gossip,broadcast] [--threads N] "
               "[--solver-threads N]\n"
               "              [--max-rounds M] [--max-states S] [--format "
               "csv|json] [--no-cache]\n"
               "              [--store PATH] [--resume] [--shard i/m] "
               "[--metrics PATH] [--progress]\n"
               "              [--trace PATH] [--perf]\n"
               "      exact optima via the symmetry-reduced search (n <= 12;\n"
               "      default: cycle, D=4:9, both modes, both problems)\n"
               "  sysgo synth [--families f1,..] [--d 2] [--D lo:hi] "
               "[--modes half,full]\n"
               "              [--restarts K] [--iterations N] "
               "[--time-budget MS]\n"
               "              [--synth-threads N] [--threads N] [--seed S] "
               "[--max-rounds M]\n"
               "              [--format csv|json] [--no-cache]\n"
               "              [--store PATH] [--resume] [--shard i/m] "
               "[--metrics PATH] [--progress]\n"
               "              [--trace PATH] [--perf]\n"
               "      multi-start annealing schedule synthesis (src/synth/);\n"
               "      default: db,kautz, d=2, D=3:5, half duplex\n"
               "  sysgo store merge --out OUT IN1 [IN2 ...]\n"
               "      union shard stores into OUT; conflicting records for "
               "the same key\n"
               "      are reported and fail the merge\n"
               "  sysgo store stats <PATH>\n"
               "  sysgo store compact <PATH>\n"
               "  sysgo audit <schedule-file>\n"
               "  sysgo simulate <schedule-file> [max-rounds]\n"
               "  sysgo topology <family> <d> <D>\n"
               "  sysgo kernels [--have scalar|avx2|avx512]\n"
               "      report the SIMD row-kernel dispatch (compiled / "
               "supported / active,\n"
               "      honoring SYSGO_FORCE_KERNEL); --have K exits 0 iff "
               "kernel K is\n"
               "      runnable on this host (CI matrix gate)\n"
               "  sysgo metrics dump [--format json|csv]\n"
               "      render the metric catalog (zeros in a fresh process) — "
               "the --metrics schema\n"
               "  sysgo trace report <PATH> [--top K]\n"
               "      analyze a --trace file (JSON or flight binary): "
               "critical path,\n"
               "      per-worker utilization, span-duration top-K, per-stage "
               "breakdown\n"
               "  sysgo bench compare <BASELINE.json> <CURRENT.json> "
               "[--threshold PCT]\n"
               "                      [--counters] "
               "[--allow-context-mismatch]\n"
               "      diff two BENCH_*.json snapshots; exit 1 when a median "
               "real time\n"
               "      regresses more than PCT%% (default 10; --counters also "
               "gates rate\n"
               "      counters).  Refuses kernel/build/num_cpus mismatches "
               "unless overridden\n"
               "  sysgo bench list <SNAPSHOT.json>\n"
               "      one line per benchmark: median, p90, reps\n"
               "  sysgo bench context\n"
               "      the context a bench run would record on this host "
               "(cpus, kernel,\n"
               "      build type, git sha, perf availability)\n");
  return 2;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Checked parse of a scalar numeric flag, range-validated against the
/// util::cli_flag_range table.
int flag_int(const std::string& flag, const std::string& value) {
  if (const auto range = sysgo::util::cli_flag_range(flag))
    return sysgo::util::parse_int_in(value, flag, *range);
  return sysgo::util::parse_int(value, flag);
}

long long flag_i64(const std::string& flag, const std::string& value) {
  if (const auto range = sysgo::util::cli_flag_range(flag))
    return sysgo::util::parse_i64_in(value, flag, *range);
  return sysgo::util::parse_i64(value, flag);
}

int cmd_bound(int argc, char** argv) {
  if (argc < 1) return usage();
  const int s = std::strcmp(argv[0], "inf") == 0
                    ? sysgo::core::kUnboundedPeriod
                    : sysgo::util::parse_int_in(argv[0], "<s>", {3, 1 << 30});
  const auto duplex = (argc >= 2 && std::strcmp(argv[1], "full") == 0)
                          ? sysgo::core::Duplex::kFull
                          : sysgo::core::Duplex::kHalf;
  const double lam = sysgo::core::lambda_star(s, duplex);
  std::printf("s=%s duplex=%s lambda*=%.9f e(s)=%.6f\n", argv[0],
              duplex == sysgo::core::Duplex::kFull ? "full" : "half", lam,
              sysgo::core::e_coefficient(lam));
  return 0;
}

int cmd_table(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string which = argv[0];
  std::string csv;
  if (which == "fig4") csv = sysgo::io::fig4_csv();
  else if (which == "fig5") csv = sysgo::io::fig5_csv();
  else if (which == "fig6") csv = sysgo::io::fig6_csv();
  else if (which == "fig8") csv = sysgo::io::fig8_csv();
  else return usage();
  std::fputs(csv.c_str(), stdout);
  return 0;
}

// --------------------------------------------------------------- sweep

/// Split "a,b,c" into tokens; each token may be a "lo:hi" inclusive range.
std::vector<std::string> split_list(const std::string& arg) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= arg.size()) {
    const std::size_t comma = arg.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(arg.substr(start));
      break;
    }
    out.push_back(arg.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

std::vector<int> parse_int_list(const std::string& arg, const std::string& flag,
                                bool allow_inf) {
  std::vector<int> out;
  for (const std::string& tok : split_list(arg)) {
    if (allow_inf && tok == "inf") {
      out.push_back(sysgo::core::kUnboundedPeriod);
      continue;
    }
    const std::size_t colon = tok.find(':');
    if (colon != std::string::npos) {
      const int lo = sysgo::util::parse_int(tok.substr(0, colon), flag);
      const int hi = sysgo::util::parse_int(tok.substr(colon + 1), flag);
      for (int v = lo; v <= hi; ++v) out.push_back(v);
    } else {
      out.push_back(sysgo::util::parse_int(tok, flag));
    }
  }
  return out;
}

/// Flushes per-job output lines in deterministic (index) order as jobs
/// finish, so a threaded sweep streams exactly what a serial one would.
class OrderedEmitter {
 public:
  void emit(std::size_t index, std::string line) {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_[index] = std::move(line);
    while (!pending_.empty() && pending_.begin()->first == next_) {
      std::fputs(pending_.begin()->second.c_str(), stdout);
      std::fflush(stdout);
      pending_.erase(pending_.begin());
      ++next_;
    }
  }

 private:
  std::mutex mutex_;
  std::map<std::size_t, std::string> pending_;
  std::size_t next_ = 0;
};

/// Output/persistence configuration shared by sweep/solve/synth.
struct StreamConfig {
  bool json = false;
  std::string store_path;  // --store
  bool resume = false;     // --resume (requires --store)
  sysgo::util::ShardSpec shard{};  // --shard i/m (1/1 = whole grid)
  std::string metrics_path;  // --metrics: obs snapshot written at exit
  bool progress = false;     // --progress: stderr heartbeat
  std::string trace_path;    // --trace: span trace written at exit
  bool perf = false;         // --perf: perf_event counter collection
};

/// Throttled stderr heartbeat (--progress): done/total, percentage, elapsed
/// and estimated remaining wall-clock, plus the artifact-cache hit rate so
/// far.  tick() runs inside on_record callbacks — possibly concurrently —
/// and prints at most every ~500 ms (the final record always prints).
///
/// On a TTY intermediate lines rewrite in place with '\r'; anywhere else
/// (CI logs, redirects) every line is newline-terminated.  finish() always
/// prints a final newline-terminated 100% summary.
class ProgressMeter {
 public:
  explicit ProgressMeter(std::size_t total)
      : total_(total), tty_(stderr_is_tty()) {}

  /// The runner is constructed after the callbacks are wired; attach()
  /// before run_jobs so ticks can read its cache stats.
  void attach(const sysgo::engine::SweepRunner* runner) { runner_ = runner; }

  void tick() {
    const std::size_t done =
        done_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::lock_guard<std::mutex> lock(mutex_);
    const double ms = timer_.millis();
    if (done < total_ && ms - last_print_ms_ < 500.0) return;
    // Off a TTY every line is permanent; finish() owns the 100% summary.
    if (done == total_ && !tty_) return;
    last_print_ms_ = ms;
    print_line(done, ms, /*final=*/false);
  }

  /// Unconditional completion summary (and the '\n' that closes a TTY's
  /// rewritten line).  Call once, after the run.
  void finish() {
    std::lock_guard<std::mutex> lock(mutex_);
    print_line(done_.load(std::memory_order_relaxed), timer_.millis(),
               /*final=*/true);
  }

 private:
  static bool stderr_is_tty() {
#if defined(_WIN32)
    return false;
#else
    return isatty(fileno(stderr)) != 0;
#endif
  }

  void print_line(std::size_t done, double ms, bool final) {
    const double pct =
        total_ > 0 ? 100.0 * static_cast<double>(done) /
                         static_cast<double>(total_)
                   : 100.0;
    const double eta_s =
        done > 0 ? ms / 1000.0 / static_cast<double>(done) *
                       static_cast<double>(total_ - done)
                 : 0.0;
    double hit_pct = 0.0;
    if (runner_ != nullptr) {
      const auto cs = runner_->cache_stats();
      if (cs.hits + cs.misses > 0)
        hit_pct = 100.0 * static_cast<double>(cs.hits) /
                  static_cast<double>(cs.hits + cs.misses);
    }
    // Trailing spaces on the TTY rewrite path cover a shrinking line.
    std::fprintf(stderr,
                 "%sprogress: %zu/%zu (%.0f%%) elapsed=%.1fs eta=%.1fs "
                 "cache-hit=%.0f%%%s",
                 tty_ ? "\r" : "", done, total_, pct, ms / 1000.0, eta_s,
                 hit_pct, tty_ && !final ? "   " : "\n");
  }

  const std::size_t total_;
  const bool tty_;
  const sysgo::engine::SweepRunner* runner_ = nullptr;
  std::atomic<std::size_t> done_{0};
  std::mutex mutex_;
  sysgo::obs::WallTimer timer_;
  double last_print_ms_ = -1e9;  // first record always prints
};

/// Expand, shard, execute and stream a spec: CSV rows or JSON records
/// flushed in deterministic order as jobs finish (identical output for any
/// thread count), followed by cache/store stats on stderr.  The run's
/// effective seed is echoed so randomized runs (random families, synthesis)
/// can be replayed: CSV gets a "# seed=N" header comment (the parser skips
/// '#' lines), JSON — whose document is a bare array — gets a stderr line.
/// With a store attached, finished records are written back; with --resume,
/// present records are emitted from the store (stored wall-clock included,
/// so a warm re-run is byte-identical) without executing anything.
int stream_spec(const sysgo::engine::ScenarioSpec& spec,
                sysgo::engine::SweepOptions opts, const StreamConfig& cfg) {
  namespace engine = sysgo::engine;
  if (cfg.resume && cfg.store_path.empty())
    throw std::invalid_argument("--resume requires --store");
  auto jobs = spec.expand();
  if (cfg.shard.count > 1) jobs = engine::shard_jobs(jobs, cfg.shard);
  std::unique_ptr<sysgo::store::ResultStore> store;
  if (!cfg.store_path.empty()) {
    store = std::make_unique<sysgo::store::ResultStore>(cfg.store_path);
    opts.store = store.get();
    opts.resume = cfg.resume;
  }
  OrderedEmitter emitter;
  ProgressMeter meter(jobs.size());
  if (cfg.perf) sysgo::obs::perf::set_enabled(true);
  if (!cfg.trace_path.empty()) {
    // Recording starts here, so the trace covers exactly this run; the
    // caller's lane is "main" (workers name theirs on startup).
    sysgo::obs::trace::set_this_lane_name("main");
    sysgo::obs::trace::set_enabled(true);
  }
  if (cfg.json) {
    std::fprintf(stderr, "seed: %llu\n",
                 static_cast<unsigned long long>(spec.limits.seed));
    std::fputs("[\n", stdout);
    opts.on_record = [&](std::size_t i, const engine::SweepRecord& r) {
      emitter.emit(i, "  " + sysgo::io::sweep_json_record(r) +
                          (i + 1 < jobs.size() ? ",\n" : "\n"));
      if (cfg.progress) meter.tick();
    };
  } else {
    std::fprintf(stdout, "# seed=%llu\n",
                 static_cast<unsigned long long>(spec.limits.seed));
    std::fputs(sysgo::io::sweep_csv_header().c_str(), stdout);
    opts.on_record = [&](std::size_t i, const engine::SweepRecord& r) {
      emitter.emit(i, sysgo::io::sweep_csv_row(r));
      if (cfg.progress) meter.tick();
    };
  }
  engine::SweepRunner runner(opts);
  meter.attach(&runner);
  const auto records = runner.run_jobs(jobs, spec.limits);
  if (cfg.progress) meter.finish();
  if (!cfg.trace_path.empty()) {
    sysgo::obs::trace::set_enabled(false);
    sysgo::obs::trace::write_trace_file(cfg.trace_path);
    std::fprintf(stderr, "trace: wrote %s\n", cfg.trace_path.c_str());
  }
  if (cfg.json) std::fputs("]\n", stdout);
  const auto stats = runner.cache_stats();
  const double hit_pct =
      stats.hits + stats.misses > 0
          ? 100.0 * static_cast<double>(stats.hits) /
                static_cast<double>(stats.hits + stats.misses)
          : 0.0;
  std::fprintf(stderr,
               "sweep: %zu records, cache %zu hits / %zu misses "
               "(%.1f%% hit rate)\n",
               records.size(), stats.hits, stats.misses, hit_pct);
  // The snapshot is written even when conflicts fail the run below — a
  // diverging campaign is exactly when the metrics are worth reading.
  if (!cfg.metrics_path.empty()) {
    // End-of-run resource gauges (RSS high-watermark, fault and context-
    // switch totals) ride along in the same snapshot.
    sysgo::obs::resource::update_resource_gauges();
    sysgo::obs::write_metrics_file(cfg.metrics_path);
  }
  if (store != nullptr) {
    const auto rs = runner.run_stats();
    std::fprintf(stderr,
                 "store: hits=%zu executed=%zu conflicts=%zu "
                 "(%zu records in %s)\n",
                 rs.store_hits, rs.executed, rs.store_conflicts, store->size(),
                 store->path().c_str());
    if (rs.store_conflicts > 0) return 1;
  }
  return 0;
}

int cmd_sweep(int argc, char** argv) {
  namespace engine = sysgo::engine;
  if (argc >= 1 && (std::strcmp(argv[0], "fig5") == 0 ||
                    std::strcmp(argv[0], "fig6") == 0)) {
    engine::SweepRunner runner;
    const std::string csv = std::strcmp(argv[0], "fig5") == 0
                                ? engine::fig5_csv(runner)
                                : engine::fig6_csv(runner);
    std::fputs(csv.c_str(), stdout);
    return 0;
  }

  engine::ScenarioSpec spec;
  spec.families = engine::all_families();
  spec.degrees = {2};
  spec.periods = {3, 4, 5, 6, 7, 8};
  spec.tasks = {engine::Task::kBound};
  engine::SweepOptions opts;
  StreamConfig cfg;
  for (int i = 0; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc)
        throw std::invalid_argument("missing value for " + flag);
      return argv[++i];
    };
    try {
    if (flag == "--families") {
      spec.families.clear();
      for (const auto& tok : split_list(value()))
        spec.families.push_back(engine::parse_family_token(tok));
    } else if (flag == "--d") {
      spec.degrees = parse_int_list(value(), flag, false);
      for (int d : spec.degrees)
        if (d < 2 || d > 64)
          throw std::invalid_argument("--d values must be in [2, 64]");
    } else if (flag == "--D") {
      spec.dimensions = parse_int_list(value(), flag, false);
      for (int D : spec.dimensions)
        if (D < 1 || D > 30)
          throw std::invalid_argument("--D values must be in [1, 30]");
    } else if (flag == "--modes") {
      spec.modes.clear();
      for (const auto& tok : split_list(value()))
        spec.modes.push_back(engine::parse_mode_name(tok));
    } else if (flag == "--tasks") {
      spec.tasks.clear();
      for (const auto& tok : split_list(value()))
        spec.tasks.push_back(engine::parse_task_name(tok));
    } else if (flag == "--periods") {
      spec.periods = parse_int_list(value(), flag, true);
      for (int s : spec.periods)
        if (s != sysgo::core::kUnboundedPeriod && s < 3)
          throw std::invalid_argument("--periods values must be >= 3 or inf");
    } else if (flag == "--threads") {
      opts.threads = static_cast<unsigned>(flag_int(flag, value()));
    } else if (flag == "--round-threads") {
      // A toggle, not a degree: any N > 1 turns on the simulator's
      // within-round parallel merges, which run on the process-wide pool
      // at its lane count (results are identical for any value; see
      // ExecutionLimits::simulate_parallel_rounds).
      spec.limits.simulate_parallel_rounds = flag_int(flag, value()) > 1;
    } else if (flag == "--max-rounds") {
      spec.limits.simulate_max_rounds = flag_int(flag, value());
    } else if (flag == "--format") {
      const std::string fmt = value();
      if (fmt == "json") cfg.json = true;
      else if (fmt != "csv") throw std::invalid_argument("unknown format: " + fmt);
    } else if (flag == "--seed") {
      spec.limits.seed = sysgo::util::parse_u64(value(), flag);
    } else if (flag == "--no-cache") {
      opts.use_cache = false;
    } else if (flag == "--store") {
      cfg.store_path = value();
    } else if (flag == "--resume") {
      cfg.resume = true;
    } else if (flag == "--shard") {
      cfg.shard = sysgo::util::parse_shard(value());
    } else if (flag == "--metrics") {
      cfg.metrics_path = value();
    } else if (flag == "--progress") {
      cfg.progress = true;
    } else if (flag == "--trace") {
      cfg.trace_path = value();
    } else if (flag == "--perf") {
      cfg.perf = true;
    } else {
      std::fprintf(stderr, "unknown sweep flag: %s\n", flag.c_str());
      return usage();
    }
    } catch (const std::invalid_argument& e) {
      // The checked parsers name the flag already; wrap only messages that
      // do not, so every error reports the offending flag.
      const std::string what = e.what();
      if (what.find(flag) == std::string::npos)
        throw std::invalid_argument("bad value for " + flag + ": " + what);
      throw;
    }
  }

  if (spec.dimensions.empty()) {
    for (engine::Task t : spec.tasks)
      if (engine::task_needs_dimension(t))
        throw std::invalid_argument("task '" + engine::task_name(t) +
                                    "' needs concrete dimensions: pass --D");
  }

  return stream_spec(spec, opts, cfg);
}

int cmd_solve(int argc, char** argv) {
  namespace engine = sysgo::engine;
  engine::ScenarioSpec spec;
  spec.families = {sysgo::topology::Family::kCycle};
  spec.degrees = {2};
  spec.dimensions = {4, 5, 6, 7, 8, 9};
  spec.modes = {sysgo::protocol::Mode::kHalfDuplex,
                sysgo::protocol::Mode::kFullDuplex};
  spec.tasks = {engine::Task::kSolveGossip, engine::Task::kSolveBroadcast};
  engine::SweepOptions opts;
  StreamConfig cfg;
  for (int i = 0; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc)
        throw std::invalid_argument("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--families") {
        spec.families.clear();
        for (const auto& tok : split_list(value()))
          spec.families.push_back(engine::parse_family_token(tok));
      } else if (flag == "--d") {
        spec.degrees = parse_int_list(value(), flag, false);
        for (int d : spec.degrees)
          if (d < 1 || d > 64)  // d = 1 is a valid Knödel delta
            throw std::invalid_argument("--d values must be in [1, 64]");
      } else if (flag == "--D") {
        spec.dimensions = parse_int_list(value(), flag, false);
        for (int D : spec.dimensions)
          if (D < 1 || D > 30)
            throw std::invalid_argument("--D values must be in [1, 30]");
      } else if (flag == "--modes") {
        spec.modes.clear();
        for (const auto& tok : split_list(value()))
          spec.modes.push_back(engine::parse_mode_name(tok));
      } else if (flag == "--problems") {
        spec.tasks.clear();
        for (const auto& tok : split_list(value())) {
          if (tok == "gossip") spec.tasks.push_back(engine::Task::kSolveGossip);
          else if (tok == "broadcast")
            spec.tasks.push_back(engine::Task::kSolveBroadcast);
          else throw std::invalid_argument("unknown problem: " + tok);
        }
      } else if (flag == "--threads") {
        opts.threads = static_cast<unsigned>(flag_int(flag, value()));
      } else if (flag == "--solver-threads") {
        spec.limits.solve_threads =
            static_cast<unsigned>(flag_int(flag, value()));
      } else if (flag == "--max-rounds") {
        spec.limits.solve_max_rounds = flag_int(flag, value());
      } else if (flag == "--max-states") {
        spec.limits.solve_max_states =
            static_cast<std::size_t>(flag_i64(flag, value()));
      } else if (flag == "--format") {
        const std::string fmt = value();
        if (fmt == "json") cfg.json = true;
        else if (fmt != "csv")
          throw std::invalid_argument("unknown format: " + fmt);
      } else if (flag == "--seed") {
        spec.limits.seed = sysgo::util::parse_u64(value(), flag);
      } else if (flag == "--no-cache") {
        opts.use_cache = false;
      } else if (flag == "--store") {
        cfg.store_path = value();
      } else if (flag == "--resume") {
        cfg.resume = true;
      } else if (flag == "--shard") {
        cfg.shard = sysgo::util::parse_shard(value());
      } else if (flag == "--metrics") {
        cfg.metrics_path = value();
      } else if (flag == "--progress") {
        cfg.progress = true;
      } else if (flag == "--trace") {
        cfg.trace_path = value();
      } else if (flag == "--perf") {
        cfg.perf = true;
      } else {
        std::fprintf(stderr, "unknown solve flag: %s\n", flag.c_str());
        return usage();
      }
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      if (what.find(flag) == std::string::npos)
        throw std::invalid_argument("bad value for " + flag + ": " + what);
      throw;
    }
  }
  if (spec.dimensions.empty())
    throw std::invalid_argument("solve needs concrete dimensions: pass --D");

  return stream_spec(spec, opts, cfg);
}

int cmd_synth(int argc, char** argv) {
  namespace engine = sysgo::engine;
  engine::ScenarioSpec spec;
  spec.families = {sysgo::topology::Family::kDeBruijn,
                   sysgo::topology::Family::kKautz};
  spec.degrees = {2};
  spec.dimensions = {3, 4, 5};
  spec.tasks = {engine::Task::kSynthesize};
  engine::SweepOptions opts;
  StreamConfig cfg;
  for (int i = 0; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc)
        throw std::invalid_argument("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--families") {
        spec.families.clear();
        for (const auto& tok : split_list(value()))
          spec.families.push_back(engine::parse_family_token(tok));
      } else if (flag == "--d") {
        spec.degrees = parse_int_list(value(), flag, false);
        for (int d : spec.degrees)
          if (d < 1 || d > 64)
            throw std::invalid_argument("--d values must be in [1, 64]");
      } else if (flag == "--D") {
        // Wider than the sweep commands' cap of 30: for the linear-n
        // families (rr, gnp) D *is* n, so this cap bounds n itself.
        // Exponential families are still guarded by their topology
        // builders (hypercube D <= 24).
        spec.dimensions = parse_int_list(value(), flag, false);
        for (int D : spec.dimensions)
          if (D < 1 || D > 4096)
            throw std::invalid_argument("--D values must be in [1, 4096]");
      } else if (flag == "--modes") {
        spec.modes.clear();
        for (const auto& tok : split_list(value()))
          spec.modes.push_back(engine::parse_mode_name(tok));
      } else if (flag == "--restarts") {
        spec.limits.synth_restarts = flag_int(flag, value());
      } else if (flag == "--iterations") {
        spec.limits.synth_iterations = flag_int(flag, value());
      } else if (flag == "--time-budget") {
        spec.limits.synth_time_budget_ms =
            sysgo::util::parse_double(value(), flag);
        if (spec.limits.synth_time_budget_ms < 0.0)
          throw std::invalid_argument("--time-budget must be >= 0");
      } else if (flag == "--synth-threads") {
        spec.limits.synth_threads =
            static_cast<unsigned>(flag_int(flag, value()));
      } else if (flag == "--threads") {
        opts.threads = static_cast<unsigned>(flag_int(flag, value()));
      } else if (flag == "--max-rounds") {
        spec.limits.simulate_max_rounds = flag_int(flag, value());
      } else if (flag == "--seed") {
        spec.limits.seed = sysgo::util::parse_u64(value(), flag);
      } else if (flag == "--format") {
        const std::string fmt = value();
        if (fmt == "json") cfg.json = true;
        else if (fmt != "csv")
          throw std::invalid_argument("unknown format: " + fmt);
      } else if (flag == "--no-cache") {
        opts.use_cache = false;
      } else if (flag == "--store") {
        cfg.store_path = value();
      } else if (flag == "--resume") {
        cfg.resume = true;
      } else if (flag == "--shard") {
        cfg.shard = sysgo::util::parse_shard(value());
      } else if (flag == "--metrics") {
        cfg.metrics_path = value();
      } else if (flag == "--progress") {
        cfg.progress = true;
      } else if (flag == "--trace") {
        cfg.trace_path = value();
      } else if (flag == "--perf") {
        cfg.perf = true;
      } else {
        std::fprintf(stderr, "unknown synth flag: %s\n", flag.c_str());
        return usage();
      }
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      if (what.find(flag) == std::string::npos)
        throw std::invalid_argument("bad value for " + flag + ": " + what);
      throw;
    }
  }
  if (spec.dimensions.empty())
    throw std::invalid_argument("synth needs concrete dimensions: pass --D");

  return stream_spec(spec, opts, cfg);
}

// --------------------------------------------------------------- store

int cmd_store(int argc, char** argv) {
  namespace store = sysgo::store;
  // ResultStore creates missing files (the right behavior under --store);
  // the store tooling instead fails loudly on a typo'd path — silently
  // merging a nonexistent shard would drop its records from the campaign.
  const auto require_exists = [](const std::string& path) {
    if (!sysgo::util::file_exists(path))
      throw std::runtime_error("no such store: " + path);
  };
  if (argc < 1) return usage();
  const std::string verb = argv[0];
  if (verb == "stats") {
    if (argc != 2) return usage();
    require_exists(argv[1]);
    store::ResultStore s(argv[1]);
    std::printf("store: %zu records in %s\n", s.size(), s.path().c_str());
    return 0;
  }
  if (verb == "compact") {
    if (argc != 2) return usage();
    require_exists(argv[1]);
    store::ResultStore s(argv[1]);
    s.compact();
    std::printf("store: compacted %zu records in %s\n", s.size(),
                s.path().c_str());
    return 0;
  }
  if (verb == "merge") {
    std::string out_path;
    std::vector<std::string> inputs;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--out") {
        if (i + 1 >= argc)
          throw std::invalid_argument("missing value for --out");
        out_path = argv[++i];
      } else {
        inputs.push_back(arg);
      }
    }
    if (out_path.empty() || inputs.empty()) return usage();
    for (const std::string& in_path : inputs) require_exists(in_path);
    store::ResultStore out(out_path);
    std::size_t conflicts = 0;
    for (const std::string& in_path : inputs) {
      const store::ResultStore in(in_path);
      const auto stats = out.merge_from(in);
      std::fprintf(stderr,
                   "merge %s: %zu inserted, %zu duplicates, %zu conflicts\n",
                   in_path.c_str(), stats.inserted, stats.duplicates,
                   stats.conflicts.size());
      for (const std::string& key : stats.conflicts)
        std::fprintf(stderr, "  conflict: %s\n", key.c_str());
      conflicts += stats.conflicts.size();
    }
    // Deterministic merged bytes for any input order.
    out.compact();
    std::printf("store: %zu records in %s\n", out.size(), out.path().c_str());
    return conflicts == 0 ? 0 : 1;
  }
  return usage();
}

int cmd_audit(int argc, char** argv) {
  if (argc < 1) return usage();
  const auto sched = sysgo::io::parse_schedule(read_file(argv[0]));
  const auto valid = sysgo::protocol::validate_structure(sched);
  if (!valid.ok) {
    std::fprintf(stderr, "invalid schedule: %s\n", valid.message.c_str());
    return 1;
  }
  const auto res = sysgo::core::audit_schedule(sched);
  std::printf("n=%d period=%d lambda*=%.6f e=%.4f certified-rounds>=%d "
              "worst-vertex=%d\n",
              sched.n, sched.period_length(), res.lambda_star, res.e_coeff,
              res.round_lower_bound, res.worst_vertex);
  return 0;
}

int cmd_simulate(int argc, char** argv) {
  if (argc < 1) return usage();
  const auto sched = sysgo::io::parse_schedule(read_file(argv[0]));
  const int max_rounds =
      argc >= 2
          ? sysgo::util::parse_int_in(argv[1], "max-rounds", {1, 1 << 30})
          : 1 << 20;
  const int t = sysgo::simulator::gossip_time(sched, max_rounds);
  if (t < 0) {
    std::printf("gossip incomplete after %d rounds\n", max_rounds);
    return 1;
  }
  std::printf("gossip complete after %d rounds\n", t);
  return 0;
}

// -------------------------------------------------------------- metrics

/// `sysgo metrics dump [--format json|csv]`: render the registry snapshot.
/// In a fresh process every counter and histogram is zero, but the full
/// metric catalog is present (every instrumented TU registers its names
/// eagerly) — the quick way to see what --metrics will produce and to
/// smoke-test the schema.  The proc.* resource gauges are sampled live so
/// the dump doubles as a quick `where is my memory` probe.
int cmd_metrics(int argc, char** argv) {
  if (argc < 1 || std::strcmp(argv[0], "dump") != 0) return usage();
  bool csv = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--format") {
      if (i + 1 >= argc)
        throw std::invalid_argument("missing value for --format");
      const std::string fmt = argv[++i];
      if (fmt == "csv") csv = true;
      else if (fmt != "json")
        throw std::invalid_argument("unknown format: " + fmt);
    } else {
      std::fprintf(stderr, "unknown metrics flag: %s\n", flag.c_str());
      return usage();
    }
  }
  sysgo::obs::resource::update_resource_gauges();
  const auto snap = sysgo::obs::snapshot();
  std::fputs(
      (csv ? sysgo::obs::to_csv(snap) : sysgo::obs::to_json(snap)).c_str(),
      stdout);
  return 0;
}

// ---------------------------------------------------------------- bench

/// `sysgo bench compare|list|context`: the benchmark-regression harness.
/// compare diffs two BENCH_*.json snapshots (written by the bench/ binaries
/// via bench_json.hpp) and exits non-zero on a regression beyond the
/// threshold — the CI gate.  list/context are introspection helpers.
int cmd_bench(int argc, char** argv) {
  namespace bench = sysgo::obs::bench;
  if (argc < 1) return usage();
  const std::string verb = argv[0];
  if (verb == "context") {
    if (argc != 1) return usage();
    std::fputs(bench::render_context(bench::local_context()).c_str(), stdout);
    return 0;
  }
  if (verb == "list") {
    if (argc != 2) return usage();
    const auto snap = bench::parse_snapshot(read_file(argv[1]));
    std::fputs(bench::render_list(snap).c_str(), stdout);
    return 0;
  }
  if (verb != "compare" || argc < 3) return usage();
  const std::string base_path = argv[1];
  const std::string cur_path = argv[2];
  bench::CompareOptions opts;
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--threshold") {
      if (i + 1 >= argc)
        throw std::invalid_argument("missing value for --threshold");
      opts.threshold_pct = sysgo::util::parse_double(argv[++i], flag);
      if (opts.threshold_pct <= 0.0)
        throw std::invalid_argument("--threshold must be > 0");
    } else if (flag == "--counters") {
      opts.counters = true;
    } else if (flag == "--allow-context-mismatch") {
      opts.allow_context_mismatch = true;
    } else {
      std::fprintf(stderr, "unknown bench flag: %s\n", flag.c_str());
      return usage();
    }
  }
  const auto baseline = bench::parse_snapshot(read_file(base_path));
  const auto current = bench::parse_snapshot(read_file(cur_path));
  const auto report = bench::compare(baseline, current, opts);
  std::printf("bench compare: %s (baseline) vs %s (current)\n",
              base_path.c_str(), cur_path.c_str());
  std::fputs(bench::render_report(report, opts).c_str(), stdout);
  return report.ok() ? 0 : 1;
}

// ---------------------------------------------------------------- trace

/// `sysgo trace report <PATH> [--top K]`: parse a saved trace (Chrome JSON
/// or flight binary, auto-detected) and print the derived tables — critical
/// path, per-worker utilization, top-K spans, per-stage breakdown.
int cmd_trace(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[0], "report") != 0) return usage();
  const std::string path = argv[1];
  sysgo::obs::trace::ReportOptions opts;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--top") {
      if (i + 1 >= argc)
        throw std::invalid_argument("missing value for --top");
      opts.top_k = static_cast<std::size_t>(
          sysgo::util::parse_int_in(argv[++i], flag, {1, 1 << 20}));
    } else {
      std::fprintf(stderr, "unknown trace flag: %s\n", flag.c_str());
      return usage();
    }
  }
  std::ifstream in(path, std::ios::binary);  // flight bytes are binary
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto dump = sysgo::obs::trace::parse_trace(buf.str());
  const auto report = sysgo::obs::trace::analyze(dump, opts);
  std::fputs(sysgo::obs::trace::report_text(report).c_str(), stdout);
  return 0;
}

int cmd_kernels(int argc, char** argv) {
  using sysgo::simulator::KernelKind;
  const auto parse_kind = [](const std::string& name) {
    for (int k = 0; k < sysgo::simulator::kKernelKindCount; ++k)
      if (name == sysgo::simulator::kernel_name(static_cast<KernelKind>(k)))
        return static_cast<KernelKind>(k);
    throw std::invalid_argument("unknown kernel: " + name +
                                " (expected scalar, avx2, or avx512)");
  };
  if (argc >= 1 && std::strcmp(argv[0], "--have") == 0) {
    if (argc < 2) return usage();
    // Quiet gate for scripting: exit 0 iff the kernel can actually run
    // here (compiled in AND the CPU has the ISA).
    return sysgo::simulator::kernel_supported(parse_kind(argv[1])) ? 0 : 1;
  }
  if (argc != 0) return usage();
  const KernelKind active = sysgo::simulator::active_kernel();
  std::printf("kernel,compiled,supported,active\n");
  for (int k = 0; k < sysgo::simulator::kKernelKindCount; ++k) {
    const auto kind = static_cast<KernelKind>(k);
    std::printf("%s,%d,%d,%d\n", sysgo::simulator::kernel_name(kind),
                sysgo::simulator::kernel_compiled(kind) ? 1 : 0,
                sysgo::simulator::kernel_supported(kind) ? 1 : 0,
                kind == active ? 1 : 0);
  }
  return 0;
}

int cmd_topology(int argc, char** argv) {
  if (argc < 3) return usage();
  const int d = sysgo::util::parse_int_in(argv[1], "<d>", {1, 1 << 20});
  const int D = sysgo::util::parse_int_in(argv[2], "<D>", {1, 1 << 20});
  sysgo::topology::Family f;
  try {
    f = sysgo::engine::parse_family_token(argv[0]);
  } catch (const std::invalid_argument&) {
    return usage();
  }
  const auto g = sysgo::topology::make_family(f, d, D);
  std::fputs(sysgo::io::serialize(g).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "bound") return cmd_bound(argc - 2, argv + 2);
    if (cmd == "table") return cmd_table(argc - 2, argv + 2);
    if (cmd == "sweep") return cmd_sweep(argc - 2, argv + 2);
    if (cmd == "solve") return cmd_solve(argc - 2, argv + 2);
    if (cmd == "synth") return cmd_synth(argc - 2, argv + 2);
    if (cmd == "store") return cmd_store(argc - 2, argv + 2);
    if (cmd == "audit") return cmd_audit(argc - 2, argv + 2);
    if (cmd == "simulate") return cmd_simulate(argc - 2, argv + 2);
    if (cmd == "topology") return cmd_topology(argc - 2, argv + 2);
    if (cmd == "kernels") return cmd_kernels(argc - 2, argv + 2);
    if (cmd == "metrics") return cmd_metrics(argc - 2, argv + 2);
    if (cmd == "trace") return cmd_trace(argc - 2, argv + 2);
    if (cmd == "bench") return cmd_bench(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
