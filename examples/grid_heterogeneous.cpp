// The introduction's grid scenario: heterogeneous nodes (2× speed spread),
// jittery wide-area links, and node crashes — exactly where the paper
// argues coordination is least affordable.
//
// We run the same iterative exchange application three ways:
//   * app-driven placement (Phase I + III), failures injected;
//   * SaS at the same checkpoint interval, failure-free (to isolate its
//     coordination cost on a slow network);
//   * no checkpointing at all (the lost-work baseline a failure causes).
#include <iostream>

#include "mp/lower.h"
#include "mp/parser.h"
#include "place/place.h"
#include "proto/protocols.h"
#include "trace/analysis.h"
#include "util/table.h"

int main() {
  using namespace acfc;
  const int nprocs = 8;

  // Failure injection replays in-transit messages from the sender log,
  // which needs point-to-point granularity: lower the allreduce first.
  mp::Program app = mp::lower_collectives(mp::parse(R"(
    program grid {
      for step in 0 .. 10 {
        compute 25.0 label "simulate";
        send to (rank + 1) % nprocs tag 1 bytes 65536;
        recv from (rank - 1 + nprocs) % nprocs tag 1;
        if (step % 2 == 1) {
          allreduce tag 2 bytes 64;
        }
      }
    })"));

  place::InsertOptions iopts;
  iopts.target_interval = 80.0;
  const auto report = place::analyze_and_place(app, iopts);
  if (!report.success) {
    std::cerr << "placement failed\n";
    return 1;
  }

  // A slow, jittery wide-area network and a 2× heterogeneous node mix.
  sim::SimOptions grid;
  grid.nprocs = nprocs;
  grid.delay.setup = 0.05;      // 50 ms setup
  grid.delay.per_byte = 2e-8;   // ~50 MB/s links
  grid.delay.jitter = 0.02;
  grid.checkpoint_overhead = 1.78;
  grid.recovery_overhead = 3.32;
  grid.compute_speed = {1.0, 0.5, 0.8, 1.0, 0.6, 0.9, 1.0, 0.7};

  // Failure-free baseline.
  sim::Engine clean_engine(app, grid);
  const auto clean = clean_engine.run();
  if (!clean.trace.completed) {
    std::cerr << "clean run incomplete\n";
    return 1;
  }

  util::Table table(
      {"configuration", "makespan (s)", "ctl msgs", "restarts", "note"});
  table.add_row({"app-driven, no failures",
                 util::format_double(clean.trace.end_time, 5),
                 std::to_string(clean.stats.control_messages), "0",
                 "zero coordination on a 50ms-setup network"});

  // Two node crashes mid-run.
  {
    sim::SimOptions faulty = grid;
    faulty.fault_plan.faults = {
        sim::FaultPlan::at_time(1, 0.35 * clean.trace.end_time),
        sim::FaultPlan::at_time(4, 0.75 * clean.trace.end_time)};
    sim::Engine engine(app, faulty);
    const auto rec = engine.run();
    const bool ok = rec.trace.completed &&
                    rec.trace.final_digest == clean.trace.final_digest;
    table.add_row({"app-driven, 2 crashes",
                   util::format_double(rec.trace.end_time, 5),
                   std::to_string(rec.stats.control_messages),
                   std::to_string(rec.stats.restarts),
                   ok ? "replayed to identical digest" : "MISMATCH"});
    if (!ok) {
      table.print(std::cout);
      return 1;
    }
  }

  // SaS on the same slow network (failure-free): its stop-the-world
  // rounds pay the 50 ms setup 5(n−1) times per checkpoint.
  {
    const mp::Program plain = mp::parse(R"(
      program grid_plain {
        for step in 0 .. 10 {
          compute 25.0 label "simulate";
          send to (rank + 1) % nprocs tag 1 bytes 65536;
          recv from (rank - 1 + nprocs) % nprocs tag 1;
          if (step % 2 == 1) {
            allreduce tag 2 bytes 64;
          }
        }
      })");
    proto::ProtocolOptions popts;
    popts.interval = 80.0;
    const auto sas =
        proto::run_protocol(plain, proto::Protocol::kSyncAndStop, grid,
                            popts);
    table.add_row({"SaS, no failures",
                   util::format_double(sas.sim.trace.end_time, 5),
                   std::to_string(sas.sim.stats.control_messages), "0",
                   "paused " +
                       util::format_double(sas.sim.stats.paused_time, 4) +
                       " s of process time"});
  }

  table.print(std::cout);

  std::cout << "\nThe app-driven run checkpoints on schedule with zero "
               "messages; SaS pays the wide-area\nsetup cost per round and "
               "stops every node. Failures replay deterministically from\n"
               "the latest straight cut.\n";
  return 0;
}
