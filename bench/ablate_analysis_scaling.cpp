// Ablation A3 — offline analysis cost scaling (google-benchmark).
//
// The paper's pitch is that ALL coordination cost is paid offline, once,
// at compile time. This bench quantifies that offline cost: CFG
// construction, Phase-II matching (extended CFG), Condition-1 checking,
// and full Phase-III repair, as the program grows.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "attr/attr.h"
#include "cfg/cfg.h"
#include "match/match.h"
#include "mp/generate.h"
#include "place/place.h"

namespace {

using namespace acfc;

mp::Program make_program(int segments, bool misaligned) {
  mp::GenerateOptions opts;
  opts.seed = 42;
  opts.segments = segments;
  opts.misalign_checkpoints = misaligned;
  opts.allow_collectives = false;
  return mp::generate_program(opts);
}

void BM_BuildCfg(benchmark::State& state) {
  const mp::Program program =
      make_program(static_cast<int>(state.range(0)), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cfg::build_cfg(program));
  }
  state.counters["stmts"] = program.stmt_count();
}
BENCHMARK(BM_BuildCfg)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

// Phase II with the memoized satisfiability cache (the default) and with
// the cache disabled (every query re-runs bounded enumeration).
void BM_ExtendedCfg(benchmark::State& state) {
  const mp::Program program =
      make_program(static_cast<int>(state.range(0)), false);
  // An emptied cache warmed by one untimed build, so every timed build is
  // the same warm run and `sat_hits` (hits per build) does not depend on
  // the iteration count or on earlier benchmarks.
  attr::SatCache& cache = attr::global_sat_cache();
  cache.clear();
  benchmark::DoNotOptimize(match::build_extended_cfg(program));
  const std::uint64_t warm_hits = cache.stats().hits;
  for (auto _ : state) {
    benchmark::DoNotOptimize(match::build_extended_cfg(program));
  }
  state.counters["stmts"] = program.stmt_count();
  state.counters["sat_hits"] =
      benchmark::Counter(static_cast<double>(cache.stats().hits - warm_hits),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ExtendedCfg)->Arg(8)->Arg(16)->Arg(32);

void BM_ExtendedCfgUncached(benchmark::State& state) {
  const mp::Program program =
      make_program(static_cast<int>(state.range(0)), false);
  match::MatchOptions opts;
  opts.sat.use_cache = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(match::build_extended_cfg(program, opts));
  }
  state.counters["stmts"] = program.stmt_count();
}
BENCHMARK(BM_ExtendedCfgUncached)->Arg(8)->Arg(16)->Arg(32);

// Condition 1: the hop closure of the message edges answers every target
// of a source in one reachability pass.
void BM_CheckCondition1(benchmark::State& state) {
  const mp::Program program =
      make_program(static_cast<int>(state.range(0)), true);
  const match::ExtendedCfg ext = match::build_extended_cfg(program);
  for (auto _ : state) {
    benchmark::DoNotOptimize(place::check_condition1(ext));
  }
  state.counters["msg_edges"] =
      static_cast<double>(ext.message_edges().size());
}
BENCHMARK(BM_CheckCondition1)->Arg(8)->Arg(16)->Arg(32);

// Algorithm 3.2: one extended CFG per repair, checkpoints tracked as slots
// on a move-invariant skeleton. `moves` counts the structural steps of one
// repair (the same every iteration), so ns_per_op / moves is the cost per
// move.
int steps(const place::RepairReport& report) {
  return report.moves + report.merges + report.hoists;
}

void BM_RepairPlacement(benchmark::State& state) {
  int moves = 0;
  for (auto _ : state) {
    state.PauseTiming();
    mp::Program program =
        make_program(static_cast<int>(state.range(0)), true);
    state.ResumeTiming();
    const auto report = place::repair_placement(program);
    benchmark::DoNotOptimize(report.success);
    moves = steps(report);
  }
  state.counters["moves"] = moves;
}
BENCHMARK(BM_RepairPlacement)->Arg(8)->Arg(16)->Arg(24)->Arg(32);

void BM_PhaseIInsertion(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    mp::GenerateOptions gopts;
    gopts.seed = 7;
    gopts.segments = static_cast<int>(state.range(0));
    gopts.checkpoint_probability = 0.0;  // start checkpoint-free
    mp::Program program = mp::generate_program(gopts);
    state.ResumeTiming();
    place::InsertOptions iopts;
    iopts.target_interval = 5.0;
    benchmark::DoNotOptimize(place::insert_checkpoints(program, iopts));
  }
}
BENCHMARK(BM_PhaseIInsertion)->Arg(16)->Arg(64)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
