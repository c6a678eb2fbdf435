// Workload definitions, the untraced engine pass, golden records and the
// correctness checks behind fail_ratio.
#include <time.h>

#include <chrono>
#include <map>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "core/bounds.hpp"
#include "io/csv.hpp"
#include "io/sweep_io.hpp"
#include "perfbench.hpp"
#include "protocol/builders.hpp"
#include "protocol/compiled.hpp"
#include "simulator/gossip_sim.hpp"
#include "topology/topology.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace engine = sysgo::engine;
using sysgo::protocol::Mode;
using sysgo::topology::Family;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sweep_validate", "solve_synth", "solve_mix", "synth_corpus",
      "synth_large"};
  return names;
}

bool job_uses_seed(const engine::SweepJob& job) {
  return job.key.family == Family::kRandomRegular ||
         job.key.family == Family::kRandomGnp ||
         job.task == engine::Task::kSynthesize;
}

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  engine::ScenarioSpec spec;
  if (name == "sweep_validate") {
    w.command =
        "sysgo sweep --families bf,wbf,kautz,db --d 2 --D 4:11 --modes "
        "half,full --tasks simulate,audit,bound --periods 3:8,inf";
    for (const char* token : {"bf", "wbf", "kautz", "db"})
      spec.families.push_back(engine::parse_family_token(token));
    spec.degrees = {2};
    for (int D = 4; D <= 11; ++D) spec.dimensions.push_back(D);
    spec.modes = {Mode::kHalfDuplex, Mode::kFullDuplex};
    spec.tasks = {engine::Task::kSimulate, engine::Task::kAudit,
                  engine::Task::kBound};
    spec.periods = {3, 4, 5, 6, 7, 8, sysgo::core::kUnboundedPeriod};
  } else if (name == "solve_mix") {
    // Four `sysgo solve` instances, each dominated by a different search
    // phase (see README): state storage, canonicalization, move-set
    // generation, hashing without symmetry reduction.
    w.command =
        "sysgo solve --families cycle --D 7 --modes half --problems gossip; "
        "... complete --D 6 half gossip; kautz --D 3 half broadcast; "
        "complete --D 7 full gossip";
    struct Instance {
      const char* label;
      Family family;
      int D;
      Mode mode;
      engine::Task task;
    };
    const Instance instances[] = {
        {"c7_half_gossip", Family::kCycle, 7, Mode::kHalfDuplex,
         engine::Task::kSolveGossip},
        {"k6_half_gossip", Family::kComplete, 6, Mode::kHalfDuplex,
         engine::Task::kSolveGossip},
        {"kautz23_half_bcast", Family::kKautz, 3, Mode::kHalfDuplex,
         engine::Task::kSolveBroadcast},
        {"k7_full_gossip", Family::kComplete, 7, Mode::kFullDuplex,
         engine::Task::kSolveGossip},
    };
    for (const Instance& in : instances) {
      w.jobs.push_back({{in.family, 2, in.D, in.mode}, in.task, 0});
      w.instance_names.push_back(in.label);
    }
    return w;
  } else if (name == "solve_synth") {
    // solve_mix's four solves, then synth_corpus's twelve synth jobs, in
    // one job list.  Both run at the default limits.
    const Workload solve = make_workload("solve_mix");
    const Workload synth = make_workload("synth_corpus");
    w.command = solve.command + "; then " + synth.command;
    w.jobs = solve.jobs;
    w.jobs.insert(w.jobs.end(), synth.jobs.begin(), synth.jobs.end());
    w.instance_names = solve.instance_names;
    w.seeded = true;
    return w;
  } else if (name == "synth_corpus") {
    w.command = "sysgo synth --modes half,full";
    w.seeded = true;
    spec.families = {Family::kDeBruijn, Family::kKautz};
    spec.degrees = {2};
    spec.dimensions = {3, 4, 5};
    spec.modes = {Mode::kHalfDuplex, Mode::kFullDuplex};
    spec.tasks = {engine::Task::kSynthesize};
  } else if (name == "synth_large") {
    w.command =
        "sysgo synth --families rr --d 3,4 --D 128,256 --restarts 2 "
        "--iterations 2000";
    w.seeded = true;
    spec.families = {Family::kRandomRegular};
    spec.degrees = {3, 4};
    spec.dimensions = {128, 256};
    spec.tasks = {engine::Task::kSynthesize};
    spec.limits.synth_restarts = 2;
    spec.limits.synth_iterations = 2000;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  w.limits = spec.limits;
  w.jobs = spec.expand();
  return w;
}

std::uint64_t pass_seed(std::uint64_t seed, std::size_t pass) {
  return pass == 0 ? seed : sysgo::util::derive_seed(seed, pass);
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wall_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------- engine pass

PassResult run_engine_pass(const Workload& w, std::uint64_t seed,
                           bool dispatch) {
  PassResult p;
  p.seed = seed;
  engine::ExecutionLimits limits = w.limits;
  limits.seed = seed;
  engine::SweepOptions opts;
  opts.threads = 1;
  opts.on_record = [&p](std::size_t, const engine::SweepRecord& r) {
    p.csv += sysgo::io::sweep_csv_row(r);
  };
  engine::SweepRunner runner(opts);
  p.csv = "# seed=" + std::to_string(seed) + "\n" +
          sysgo::io::sweep_csv_header();
  const double cpu0 = process_cpu_s();
  p.dispatch_at_s = wall_now_s();
  if (!dispatch) return p;
  try {
    p.records = runner.run_jobs(w.jobs, limits);
  } catch (const std::exception& e) {
    p.error = e.what();
  }
  p.wall_s = wall_now_s() - p.dispatch_at_s;
  p.cpu_s = process_cpu_s() - cpu0;
  p.cache = runner.cache_stats();
  return p;
}

// ------------------------------------------------------------------ golden

namespace {

/// csv_line without its trailing newline.
std::string join_cells(const std::vector<std::string>& cells) {
  std::string line = sysgo::io::csv_line(cells);
  if (!line.empty() && line.back() == '\n') line.pop_back();
  return line;
}

}  // namespace

std::string golden_header() {
  std::vector<std::string> cols = sysgo::io::sweep_csv_columns();
  if (cols.empty() || cols.back() != "millis")
    throw std::logic_error("sweep CSV no longer ends with millis");
  cols.pop_back();
  return join_cells(cols);
}

std::string golden_row(const engine::SweepRecord& r) {
  std::vector<std::string> cells =
      sysgo::io::parse_csv_line(sysgo::io::sweep_csv_row(r));
  cells.pop_back();  // millis
  return join_cells(cells);
}

Golden parse_golden(const std::string& text) {
  const std::string header = golden_header();
  const std::size_t columns = sysgo::io::parse_csv_line(header).size();
  Golden g;
  bool seen_header = false;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    if (!seen_header) {
      if (line != header)
        throw std::invalid_argument("golden header does not match the sweep "
                                    "CSV columns: " + line);
      seen_header = true;
      continue;
    }
    if (sysgo::io::parse_csv_line(line).size() != columns)
      throw std::invalid_argument("golden row has the wrong column count: " +
                                  line);
    g.rows.push_back(line);
  }
  if (!seen_header)
    throw std::invalid_argument("golden document has no header");
  return g;
}

// ------------------------------------------------------------------ checks

namespace {

std::string sentinel_reason(const engine::SweepRecord& r,
                            const engine::ExecutionLimits& limits) {
  switch (r.task) {
    case engine::Task::kBound:
      return r.alpha > 0.0 && r.e > 0.0 ? "" : "bound sentinel";
    case engine::Task::kSimulate:
      return r.n > 0 && r.rounds >= 1 ? "" : "simulate incomplete";
    case engine::Task::kAudit:
      return r.n > 0 && r.rounds >= 1 && r.lambda > 0.0 ? "" : "audit sentinel";
    case engine::Task::kSolveGossip:
    case engine::Task::kSolveBroadcast:
      return r.n > 0 && r.rounds >= 0 && r.budget == 0 && r.states > 0 &&
                     r.group >= 1
                 ? ""
                 : "solve sentinel or budget exhausted";
    case engine::Task::kSynthesize:
      return r.n > 0 && r.rounds >= 1 && r.restarts == limits.synth_restarts
                 ? ""
                 : "synth sentinel";
    default:
      return "";
  }
}

std::string describe(const engine::SweepRecord& r) {
  return engine::family_token(r.key.family) + "(" + std::to_string(r.key.d) +
         "," + std::to_string(r.key.D) + ") " + engine::mode_name(r.key.mode) +
         " " + engine::task_name(r.task);
}

/// Gossip time of the member's edge-colouring schedule — restart 0 of the
/// synthesizer warm-starts from it, so synthesis can never do worse.
int coloring_gossip_time(const engine::SweepRecord& r, std::uint64_t seed,
                         int max_rounds) {
  const auto g = sysgo::topology::make_family(r.key.family, r.key.d, r.key.D,
                                              seed);
  const auto coloring = sysgo::protocol::edge_coloring_schedule(g, r.key.mode);
  const auto cs = sysgo::protocol::CompiledSchedule::compile(
      coloring, g.is_symmetric() ? &g : nullptr);
  return sysgo::simulator::gossip_time(cs, max_rounds);
}

}  // namespace

bool golden_applies(const engine::SweepJob& job, std::uint64_t seed) {
  return !job_uses_seed(job) || seed == kDefaultSeed;
}

std::vector<std::string> check_pass(const Workload& w, const PassResult& pass,
                                    const Golden* golden) {
  std::vector<std::string> verdicts(w.jobs.size());
  if (!pass.error.empty() || pass.records.size() != w.jobs.size()) {
    const std::string why =
        pass.error.empty() ? "record count mismatch" : "threw: " + pass.error;
    for (std::string& v : verdicts) v = why;
    return verdicts;
  }
  const auto fail = [&](std::size_t i, const std::string& why) {
    if (verdicts[i].empty())
      verdicts[i] = describe(pass.records[i]) + ": " + why;
  };
  engine::ExecutionLimits limits = w.limits;
  limits.seed = pass.seed;
  std::map<std::tuple<int, int, int, int>, std::size_t> simulate_of;
  for (std::size_t i = 0; i < pass.records.size(); ++i) {
    const engine::SweepRecord& r = pass.records[i];
    if (!(r.key == w.jobs[i].key) || r.task != w.jobs[i].task)
      fail(i, "record out of job order");
    if (const std::string why = sentinel_reason(r, limits); !why.empty())
      fail(i, why);
    const auto member = std::make_tuple(static_cast<int>(r.key.family), r.key.d,
                                        r.key.D, static_cast<int>(r.key.mode));
    if (r.task == engine::Task::kSimulate) simulate_of[member] = i;
    if (r.task == engine::Task::kSynthesize && r.n > 0) {
      const int bound =
          coloring_gossip_time(r, pass.seed, limits.simulate_max_rounds);
      if (bound >= 0 && r.rounds > bound)
        fail(i, "synthesized " + std::to_string(r.rounds) +
                    " rounds, worse than the edge-colouring schedule's " +
                    std::to_string(bound));
    }
  }
  // Upper vs lower bound per member: the measured gossip time of the
  // schedule can never beat its own Theorem 4.1 certificate.
  for (std::size_t i = 0; i < pass.records.size(); ++i) {
    const engine::SweepRecord& r = pass.records[i];
    if (r.task != engine::Task::kAudit) continue;
    const auto it = simulate_of.find(std::make_tuple(
        static_cast<int>(r.key.family), r.key.d, r.key.D,
        static_cast<int>(r.key.mode)));
    if (it == simulate_of.end()) continue;
    const int measured = pass.records[it->second].rounds;
    if (measured < r.rounds)
      fail(it->second, "simulated " + std::to_string(measured) +
                           " rounds, below the certified lower bound " +
                           std::to_string(r.rounds));
  }
  if (golden != nullptr) {
    if (golden->rows.size() != pass.records.size()) {
      for (std::size_t i = 0; i < pass.records.size(); ++i)
        fail(i, "golden has " + std::to_string(golden->rows.size()) +
                    " rows for " + std::to_string(pass.records.size()) +
                    " jobs");
    } else {
      for (std::size_t i = 0; i < pass.records.size(); ++i)
        if (golden_applies(w.jobs[i], pass.seed) &&
            golden_row(pass.records[i]) != golden->rows[i])
          fail(i, "differs from golden: " + golden_row(pass.records[i]) +
                      " vs " + golden->rows[i]);
    }
  }
  return verdicts;
}

void Tally::add(const std::vector<std::string>& verdicts) {
  attempted += verdicts.size();
  for (const std::string& v : verdicts) {
    if (v.empty()) continue;
    ++failed;
    if (reasons.size() < 8) reasons.push_back(v);
  }
}

void Tally::fail_all(std::size_t jobs, const std::string& reason) {
  attempted += jobs;
  failed += jobs;
  if (reasons.size() < 8) reasons.push_back(reason);
}

double Tally::fail_ratio() const {
  return attempted == 0 ? 1.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

double schedule_rounds(const PassResult& pass) {
  double sum = 0.0;
  for (const engine::SweepRecord& r : pass.records) {
    const bool schedule = r.task == engine::Task::kSimulate ||
                          r.task == engine::Task::kSolveGossip ||
                          r.task == engine::Task::kSolveBroadcast ||
                          r.task == engine::Task::kSynthesize;
    if (schedule && r.rounds > 0) sum += r.rounds;
  }
  return sum;
}

}  // namespace perfbench
