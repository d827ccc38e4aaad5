// Ring-pipeline workload: Phase-I automatic checkpoint insertion at the
// optimal interval, followed by failure injection and recovery — the
// "long-running message-passing application keeps its progress" scenario
// from the paper's introduction.
//
// A token circulates a ring while every rank does heavy local work. The
// program has NO checkpoint statements; Phase I inserts them from the
// cost model, Phase III verifies/repairs, and then we crash processes
// mid-run and watch the runtime restore the latest straight cut and
// replay to the exact same final state (validated by execution digests).
#include <iostream>

#include "mp/parser.h"
#include "mp/printer.h"
#include "place/place.h"
#include "sim/engine.h"
#include "util/table.h"

int main() {
  using namespace acfc;

  mp::Program program = mp::parse(R"(
    program ring_pipeline {
      for step in 0 .. 12 {
        compute 40.0 label "local-work";
        send to (rank + 1) % nprocs tag 1 bytes 4096;
        recv from (rank - 1 + nprocs) % nprocs tag 1;
      }
    })");

  // Phase I: insert checkpoints for a target interval of ~120 s of work.
  place::InsertOptions iopts;
  iopts.target_interval = 120.0;
  const int inserted = place::insert_checkpoints(program, iopts);
  std::cout << "Phase I inserted " << inserted
            << " checkpoints (interval " << iopts.target_interval
            << " s)\n";

  // Phase III: the ring exchange is symmetric, so placement is already
  // safe; the repair should be a no-op.
  const auto report = place::repair_placement(program);
  std::cout << "Phase III: moves=" << report.moves
            << " merges=" << report.merges << " hoists=" << report.hoists
            << " success=" << (report.success ? "yes" : "no") << "\n\n";
  std::cout << mp::print(program) << '\n';

  // Baseline failure-free run.
  const int nprocs = 6;
  sim::SimOptions clean;
  clean.nprocs = nprocs;
  clean.checkpoint_overhead = 1.78;  // the paper's o
  sim::Engine clean_engine(program, clean);
  const auto base = clean_engine.run();
  std::cout << "failure-free: " << base.trace.summary() << "\n\n";

  // Crash processes at three points in the run.
  util::Table table({"failure time", "restarts so far", "completed",
                     "end-to-end time", "slowdown vs clean"});
  for (const double frac : {0.25, 0.55, 0.85}) {
    sim::SimOptions faulty = clean;
    faulty.recovery_overhead = 3.32;  // the paper's R
    faulty.fault_plan.faults = {
        sim::FaultPlan::at_time(0, frac * base.trace.end_time),
        sim::FaultPlan::at_time(3, 0.95 * base.trace.end_time)};
    sim::Engine engine(program, faulty);
    const auto result = engine.run();
    const bool digest_ok =
        result.trace.final_digest == base.trace.final_digest;
    table.add_row({util::format_double(frac * base.trace.end_time, 4),
                   std::to_string(result.stats.restarts),
                   result.trace.completed && digest_ok ? "yes (same digest)"
                                                       : "NO",
                   util::format_double(result.trace.end_time, 5),
                   util::format_double(
                       result.trace.end_time / base.trace.end_time, 4)});
    if (!result.trace.completed || !digest_ok) {
      table.print(std::cout);
      return 1;
    }
  }
  table.print(std::cout);
  std::cout << "\nAll failure runs replayed to the failure-free digest.\n";
  return 0;
}
