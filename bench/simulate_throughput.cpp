// Compiled simulation throughput.
//
// Corpus: the paper's fig5/fig6 families (edge-coloring schedules at d = 2,
// half-duplex for the fig5 reading, full-duplex for fig6/fig8) plus the
// large-D de Bruijn and Kautz members the sweep engine grinds through.
// Each member is simulated to gossip completion through
// gossip_time(CompiledSchedule) (flat CSR spans), plus the one-off compile
// cost.  On top of that, the SIMD and arena arms: per-row-kernel gossip
// (simulate/kernel/<scalar|avx2|avx512>/..., rows/s) and arena-backed
// gossip (simulate/arena/...).  Run: build with -DSYSGO_BENCH=ON and
// `./bench_simulate_throughput`.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <string>
#include <tuple>
#include <vector>

#include "core/audit.hpp"
#include "protocol/builders.hpp"
#include "protocol/compiled.hpp"
#include "protocol/systolic.hpp"
#include "simulator/batch.hpp"
#include "simulator/gossip_sim.hpp"
#include "simulator/kernels.hpp"
#include "topology/topology.hpp"

namespace {

using sysgo::protocol::CompiledSchedule;
using sysgo::protocol::Mode;
using sysgo::protocol::SystolicSchedule;
using sysgo::topology::Family;

struct Member {
  std::string name;
  SystolicSchedule schedule;
};

const std::vector<Member>& corpus() {
  static const std::vector<Member>* kCorpus = [] {
    auto* c = new std::vector<Member>;
    const std::vector<std::tuple<std::string, Family, int, int, Mode>> specs = {
        // fig5 reading: half-duplex, all seven families.
        {"fig5/bf(2,4)", Family::kButterfly, 2, 4, Mode::kHalfDuplex},
        {"fig5/wbf-dir(2,4)", Family::kWrappedButterflyDirected, 2, 4,
         Mode::kHalfDuplex},
        {"fig5/wbf(2,4)", Family::kWrappedButterfly, 2, 4, Mode::kHalfDuplex},
        {"fig5/db-dir(2,6)", Family::kDeBruijnDirected, 2, 6, Mode::kHalfDuplex},
        {"fig5/db(2,6)", Family::kDeBruijn, 2, 6, Mode::kHalfDuplex},
        {"fig5/kautz-dir(2,5)", Family::kKautzDirected, 2, 5, Mode::kHalfDuplex},
        {"fig5/kautz(2,5)", Family::kKautz, 2, 5, Mode::kHalfDuplex},
        // fig6/fig8 reading: full-duplex.
        {"fig6/db(2,6)", Family::kDeBruijn, 2, 6, Mode::kFullDuplex},
        {"fig6/kautz(2,5)", Family::kKautz, 2, 5, Mode::kFullDuplex},
        // Large-D members: the sweep engine's heavy simulate jobs.
        {"large/db(2,9)", Family::kDeBruijn, 2, 9, Mode::kHalfDuplex},
        {"large/db(2,10)", Family::kDeBruijn, 2, 10, Mode::kHalfDuplex},
        {"large/kautz(2,8)", Family::kKautz, 2, 8, Mode::kHalfDuplex},
        {"large/kautz(2,9)", Family::kKautz, 2, 9, Mode::kHalfDuplex},
    };
    for (const auto& [name, f, d, D, mode] : specs) {
      const auto g = sysgo::topology::make_family(f, d, D);
      c->push_back({name, sysgo::protocol::edge_coloring_schedule(g, mode)});
    }
    return c;
  }();
  return *kCorpus;
}

void BM_SimulateCompiled(benchmark::State& state, const Member& m) {
  const auto cs = CompiledSchedule::compile(m.schedule);
  for (auto _ : state) {
    const int t = sysgo::simulator::gossip_time(cs, 1 << 20);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations() * m.schedule.n);
}

void BM_Compile(benchmark::State& state, const Member& m) {
  for (auto _ : state) {
    const auto cs = CompiledSchedule::compile(m.schedule);
    benchmark::DoNotOptimize(cs.arc_total());
  }
}

// The audit is the other sweep task on the compiled path: activities
// derived once, reused across the whole λ bisection.  A consumer without a
// cached CompiledSchedule adds one compile/ arm per call.
void BM_AuditCompiled(benchmark::State& state, const Member& m) {
  const auto cs = CompiledSchedule::compile(m.schedule);
  for (auto _ : state) {
    const auto res = sysgo::core::audit_schedule(cs);
    benchmark::DoNotOptimize(res.round_lower_bound);
  }
}

// Per-kernel gossip: the same compiled run under each supported row kernel
// (ScopedKernel forces the dispatch), with a rows/s counter — row merges
// executed per wall second, the kernel layer's native unit.  A run to
// completion in t rounds walks ~t/period of the period's arc list.
void BM_SimulateKernel(benchmark::State& state, const Member& m,
                       sysgo::simulator::KernelKind kind) {
  const sysgo::simulator::ScopedKernel scoped(kind);
  const auto cs = CompiledSchedule::compile(m.schedule);
  const int t = sysgo::simulator::gossip_time(cs, 1 << 20);
  const double merges_per_run =
      t > 0 ? static_cast<double>(cs.arc_total()) * t / cs.period_length() : 0.0;
  double merges = 0.0;
  for (auto _ : state) {
    const int rounds = sysgo::simulator::gossip_time(cs, 1 << 20);
    benchmark::DoNotOptimize(rounds);
    merges += merges_per_run;
  }
  state.counters["rows/s"] =
      benchmark::Counter(merges, benchmark::Counter::kIsRate);
}

// Arena-backed gossip (the sweep engine's path): per-call allocation
// amortized away.
void BM_SimulateArena(benchmark::State& state, const Member& m) {
  const auto cs = CompiledSchedule::compile(m.schedule);
  sysgo::simulator::GossipArena arena;
  for (auto _ : state) {
    const int t = sysgo::simulator::gossip_time(cs, 1 << 20, {}, arena);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations() * m.schedule.n);
}

const bool kRegistered = [] {
  using sysgo::simulator::KernelKind;
  for (const Member& m : corpus()) {
    benchmark::RegisterBenchmark(("simulate/compiled/" + m.name).c_str(),
                                 BM_SimulateCompiled, m)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(("compile/" + m.name).c_str(), BM_Compile, m)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(("audit/compiled/" + m.name).c_str(),
                                 BM_AuditCompiled, m)
        ->Unit(benchmark::kMicrosecond);
    for (int k = 0; k < sysgo::simulator::kKernelKindCount; ++k) {
      const auto kind = static_cast<KernelKind>(k);
      if (!sysgo::simulator::kernel_supported(kind)) continue;
      benchmark::RegisterBenchmark(
          ("simulate/kernel/" + std::string(sysgo::simulator::kernel_name(kind)) +
           "/" + m.name)
              .c_str(),
          BM_SimulateKernel, m, kind)
          ->Unit(benchmark::kMicrosecond);
    }
    benchmark::RegisterBenchmark(("simulate/arena/" + m.name).c_str(),
                                 BM_SimulateArena, m)
        ->Unit(benchmark::kMicrosecond);
  }
  return true;
}();

}  // namespace

SYSGO_BENCH_MAIN("simulate_throughput")
