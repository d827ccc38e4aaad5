// Figure 8 — "Comparing protocols": overhead ratio r vs number of
// processes n for the application-driven approach, Sync-and-Stop, and
// Chandy–Lamport, under the paper's constants (o = 1.78 s, l = 4.292 s,
// R = 3.32 s, per-process failure rate 1.23e-6, T = 300 s, 8-bit control
// messages).
//
// Expected shape (the paper's claims):
//   * every curve grows with n (the system failure rate λ(n) = 1−(1−p)^n
//     grows with n);
//   * appl-driven is lowest everywhere (M = 0);
//   * C-L (M ∝ n²) overtakes SaS (M ∝ n) as n grows.
//
// Prints the series and writes fig8_overhead_vs_n.csv; then validates the
// model's ordering with a Monte-Carlo measured sweep (simulated runs fanned
// across the parallel harness), written to fig8_mc_measured.csv.
//
// `fig8_overhead_vs_n --obs-export PREFIX` instead runs ONE small fully
// instrumented iteration — checkpointed ring over a lossy wire, one
// failure, async-persisted store capture, so every obs layer (engine,
// transport, calqueue, store, persist) emits — and writes
// PREFIX.metrics.jsonl + PREFIX.trace.json. tools/check_obs_export.py
// validates both files from the ObsSmoke ctest.
#include <cstring>
#include <iostream>
#include <string>

#include "obs/export.h"
#include "obs/metrics.h"
#include "perf/model.h"
#include "sim/montecarlo.h"
#include "sim/snapshot_codec.h"
#include "store/async_persist.h"
#include "store/store.h"
#include "util/table.h"
#include "workloads/workloads.h"

namespace {

int run_obs_export(const std::string& prefix) {
  using namespace acfc;
  benchws::RingParams ring;
  ring.iterations = 8;
  ring.compute_cost = 4.0;
  ring.message_bytes = 256;
  ring.checkpoint = true;
  const mp::Program program = benchws::ring_exchange(ring);

  obs::Registry registry;
  sim::SimOptions opts;
  opts.nprocs = 4;
  opts.seed = 42;
  opts.obs = &registry;
  opts.compute_jitter = 0.1;
  opts.checkpoint_overhead = 0.5;
  opts.checkpoint_latency = 1.0;
  opts.fault_plan.faults = {sim::FaultPlan::at_time(1, 18.0)};
  opts.delay.drop = 0.05;     // lossy wire → reliable-transport shim on
  opts.delay.reorder = 0.05;

  store::StorageModel model;
  model.full_every = 4;
  store::StableStore store(model, store::CheckpointMode::kIncremental,
                           opts.nprocs);
  store.set_obs(&registry);
  bool completed = false;
  {
    store::AsyncPersistOptions popts;
    popts.obs = &registry;
    popts.queue_capacity = 2;
    store::AsyncPersister persister(store, popts);
    opts.checkpoint_capture_fn = sim::async_store_capture_fn(persister);
    sim::Engine engine(program, opts);
    completed = engine.run().trace.completed;
    persister.drain();
  }
  store.collect_garbage(2);

  const obs::MetricsSnapshot snap = registry.snapshot();
  obs::save_text(prefix + ".metrics.jsonl", obs::to_jsonl(snap));
  obs::save_text(prefix + ".trace.json", obs::to_chrome_trace(snap));
  std::cout << "wrote " << prefix << ".metrics.jsonl (" << snap.metrics.size()
            << " metrics)\nwrote " << prefix << ".trace.json ("
            << snap.spans.size() << " spans)\n";
  return completed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace acfc;
  if (argc == 3 && std::strcmp(argv[1], "--obs-export") == 0)
    return run_obs_export(argv[2]);

  const std::vector<int> nprocs = {2,  4,  8,   16,  32,  64,
                                   96, 128, 192, 256, 384, 512};
  perf::NetworkParams net;   // w_m = 2 ms, w_b = 1 µs
  perf::PaperConstants constants;

  const auto series = perf::figure8_series(nprocs, net, constants);

  std::cout << "Figure 8: overhead ratio r = Γ/T − 1 vs number of "
               "processes\n";
  std::cout << "constants: o=" << constants.o << " l=" << constants.l
            << " R=" << constants.R << " p=" << constants.p_single
            << " T=" << constants.T << " w_m=" << net.w_m
            << " w_b=" << net.w_b << "\n\n";

  util::Table table({"n", series[0].name, series[1].name, series[2].name});
  for (size_t i = 0; i < nprocs.size(); ++i) {
    table.add_row({std::to_string(nprocs[i]),
                   util::format_double(series[0].points[i].second, 6),
                   util::format_double(series[1].points[i].second, 6),
                   util::format_double(series[2].points[i].second, 6)});
  }
  table.print(std::cout);
  table.save_csv("fig8_overhead_vs_n.csv");

  // The qualitative checks the paper's figure makes visually.
  bool app_lowest = true, monotone = true;
  for (size_t i = 0; i < nprocs.size(); ++i) {
    app_lowest &= series[0].points[i].second < series[1].points[i].second &&
                  series[0].points[i].second < series[2].points[i].second;
    if (i > 0)
      for (const auto& s : series)
        monotone &= s.points[i].second > s.points[i - 1].second;
  }
  std::cout << "\nappl-driven lowest at every n: "
            << (app_lowest ? "yes" : "NO") << '\n';
  std::cout << "all curves grow with n:         "
            << (monotone ? "yes" : "NO") << '\n';
  std::cout << "wrote fig8_overhead_vs_n.csv\n";

  // Monte-Carlo measured counterpart: actually simulate the three
  // protocols on a ring workload at a few world sizes and report the
  // measured makespan overhead, fanned across the parallel harness.
  std::cout << "\nMeasured sweep (simulated ring, jittered compute, "
            << sim::resolve_threads(0) << " worker thread(s)):\n\n";
  benchws::RingParams ring;
  ring.compute_cost = 15.0;
  const mp::Program plain = benchws::ring_exchange(ring);
  ring.checkpoint = true;
  const mp::Program placed = benchws::ring_exchange(ring);

  const std::vector<int> mc_nprocs = {4, 8, 16, 32};
  const int reps = 4;
  const std::vector<std::pair<proto::Protocol, const char*>> mc_protocols = {
      {proto::Protocol::kAppDriven, "appl-driven"},
      {proto::Protocol::kSyncAndStop, "SaS"},
      {proto::Protocol::kChandyLamport, "C-L"}};

  util::Table mc_table({"n", "protocol", "measured r", "ctrl msgs/run"});
  bool mc_app_no_control = true;
  for (const int n : mc_nprocs) {
    for (const auto& [protocol, name] : mc_protocols) {
      sim::SimOptions sopts;
      sopts.nprocs = n;
      sopts.compute_jitter = 0.2;
      sopts.checkpoint_overhead = 1.78;
      sopts.checkpoint_latency = 4.292;
      proto::ProtocolOptions popts;
      popts.interval = 20.0;
      const auto point = benchws::measure_overhead(
          plain, placed, protocol, sopts, popts, reps,
          0xf18 + static_cast<std::uint64_t>(n));
      if (protocol == proto::Protocol::kAppDriven)
        mc_app_no_control &= point.control_messages == 0;
      mc_table.add_row({std::to_string(n), name,
                        util::format_double(point.overhead_ratio, 6),
                        std::to_string(point.control_messages)});
    }
  }
  mc_table.print(std::cout);
  mc_table.save_csv("fig8_mc_measured.csv");
  std::cout << "\nappl-driven coordination-free in measurement (0 control "
               "messages): "
            << (mc_app_no_control ? "yes" : "NO") << '\n';
  std::cout << "wrote fig8_mc_measured.csv\n";
  return app_lowest && monotone && mc_app_no_control ? 0 : 1;
}
