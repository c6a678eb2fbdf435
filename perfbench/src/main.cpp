// perfbench: runs one workload per process and prints its metrics.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                    [--golden-dir DIR] [--trace-out PATH]
//                    [--setup-samples S1,S2,...] [--setup-only]
//
// --trace 0 prints the end-to-end metrics (wall_s, cpu_s, setup_s,
// peak_rss_mb, schedule_rounds; fail_ratio on its own line), --trace 1 the
// per-layer metrics of the traced replay.  The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}.  --setup-only stops
// where the first job would be dispatched and prints that process's set-up
// time, so run.py can sample set-up in several processes.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/bench_compare.hpp"
#include "obs/resource.hpp"
#include "perfbench.hpp"
#include "util/parse.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string golden_dir = "perfbench/golden";
  std::string trace_out;
  std::vector<double> setup_samples;
  bool setup_only = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc)
        throw std::invalid_argument("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = sysgo::util::parse_u64(value(), flag);
    } else if (flag == "--seconds") {
      a.seconds = sysgo::util::parse_double(value(), flag);
      if (a.seconds < 0.0)
        throw std::invalid_argument("--seconds must be >= 0");
    } else if (flag == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = t == "1";
    } else if (flag == "--golden-dir") {
      a.golden_dir = value();
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else if (flag == "--setup-samples") {
      std::stringstream list(value());
      std::string tok;
      while (std::getline(list, tok, ','))
        a.setup_samples.push_back(sysgo::util::parse_double(tok, flag));
    } else if (flag == "--setup-only") {
      a.setup_only = true;
    } else {
      throw std::invalid_argument("unknown flag: " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void print_metrics(const MetricSet& set) {
  for (const Metric& m : set.metrics)
    std::printf("  %-40s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const std::string& name : set.absent)
    std::printf("  %-40s absent (the program no longer provides it)\n",
                name.c_str());
}

/// The run's identity and host context (obs::bench::local_context probes
/// perf_event_open, so it runs only after the set-up time is taken).
void print_header(const Args& args, const Workload& w) {
  const auto ctx = sysgo::obs::bench::local_context();
  std::printf("perfbench workload=%s seed=%llu inputs=%s trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              w.seeded ? "seeded (pass k > 0 uses derived seeds)"
                       : "deterministic (the seed changes nothing)",
              args.trace ? 1 : 0);
  std::printf("command: %s\n", w.command.c_str());
  std::printf("context: num_cpus=%d kernel=%s build_type=%s git_sha=%s\n",
              ctx.num_cpus, ctx.kernel.c_str(), ctx.build_type.c_str(),
              ctx.git_sha.c_str());
}

int finish(const Tally& tally, const MetricSet& metrics) {
  for (const std::string& why : tally.reasons)
    std::fprintf(stderr, "perfbench: FAILED %s\n", why.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              tally.correct() ? "true" : "false", tally.attempted,
              tally.failed, metrics_json(metrics).c_str());
  std::fflush(stdout);
  return tally.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Set-up starts at process start: the CPU time spent before main (exec,
  // dynamic loading, static initializers) plus main to first dispatch.
  const double cpu_before_main = process_cpu_s();
  const double main_at = wall_now_s();
  try {
    const Args args = parse_args(argc, argv);
    const Workload w = make_workload(args.workload);

    if (args.setup_only) {
      const PassResult probe =
          run_engine_pass(w, args.seed, /*dispatch=*/false);
      std::printf("setup_s %.9f\n",
                  cpu_before_main + probe.dispatch_at_s - main_at);
      return 0;
    }

    Tally tally;
    std::optional<Golden> golden;
    const auto load_golden = [&] {
      golden = parse_golden(read_file(args.golden_dir + "/" + w.name + ".csv"));
    };

    if (args.trace) {
      load_golden();
      const TracedReport report =
          run_traced(w, args.seed, args.seconds, &*golden, tally);
      if (!args.trace_out.empty()) {
        std::ofstream out(args.trace_out);
        out << report.chrome_json;
        if (!out) throw std::runtime_error("cannot write " + args.trace_out);
      }
      print_header(args, w);
      std::printf("traced: %zu untraced/traced pass pairs; untraced wall_s "
                  "%.6f = layer busy %.6f + engine.leftover_s %.6f\n",
                  report.pairs, report.untraced_wall_s, report.layer_busy_s,
                  report.untraced_wall_s - report.layer_busy_s);
      print_metrics(report.layers);
      return finish(tally, report.layers);
    }

    std::vector<double> walls, cpus, rounds;
    double setup_s = 0.0;
    double start = 0.0;
    double peak_rss_mb = 0.0;
    // Passes run back to back while the next one still fits the budget.
    for (std::size_t k = 0;
         k == 0 || wall_now_s() - start + walls.back() <= args.seconds; ++k) {
      const PassResult pass = run_engine_pass(w, pass_seed(args.seed, k));
      if (k == 0) {
        setup_s = cpu_before_main + pass.dispatch_at_s - main_at;
        start = pass.dispatch_at_s;
        // The peak of one execution, as a `sysgo` invocation would reach;
        // later passes only add allocator retention from repeating in one
        // process.
        peak_rss_mb =
            static_cast<double>(sysgo::obs::resource::sample().rss_peak_kb) /
            1024.0;
        load_golden();
      }
      tally.add(check_pass(w, pass, &*golden));
      if (!pass.error.empty()) break;
      walls.push_back(pass.wall_s);
      cpus.push_back(pass.cpu_s);
      rounds.push_back(schedule_rounds(pass));
    }
    std::vector<double> setups = args.setup_samples;
    setups.push_back(setup_s);

    MetricSet m;
    m.put("wall_s", median(walls), "s");
    m.put("cpu_s", median(cpus), "s");
    m.put("setup_s", median(setups), "s");
    m.put("peak_rss_mb", peak_rss_mb, "MB");
    m.put("schedule_rounds", median(rounds), "rounds");
    print_header(args, w);
    std::printf("passes: %zu (medians over passes; setup over %zu processes)\n",
                walls.size(), setups.size());
    for (std::size_t k = 0; k < walls.size(); ++k)
      std::fprintf(stderr, "pass %zu: wall_s %.6f cpu_s %.6f rounds %.0f\n", k,
                   walls[k], cpus[k], rounds[k]);
    print_metrics(m);
    std::printf("  %-40s %.9g ratio (%zu of %zu jobs failed)\n", "fail_ratio",
                tally.fail_ratio(), tally.failed, tally.attempted);
    return finish(tally, m);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
