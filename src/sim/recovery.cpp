#include "sim/recovery.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "trace/analysis.h"
#include "util/rng.h"

namespace acfc::sim {

RecoveryMetrics recovery_metrics(const std::vector<SimResult>& runs) {
  RecoveryMetrics metrics;
  double latency_sum = 0.0;
  double lost_sum = 0.0;
  double rollback_sum = 0.0;
  double fallback_sum = 0.0;
  double detection_sum = 0.0;
  double downtime_sum = 0.0;
  long detected = 0;
  for (const SimResult& run : runs) {
    ++metrics.runs;
    if (run.trace.completed) ++metrics.completed;
    for (const RecoveryRec& rec : run.recoveries) {
      ++metrics.failures;
      latency_sum += rec.resume_time - rec.fail_time;
      lost_sum += rec.lost_work;
      long demotions = 0;
      for (const int d : rec.rollbacks) demotions += d;
      rollback_sum += static_cast<double>(demotions);
      metrics.replayed_messages += rec.replayed_messages;
      if (rec.degraded) ++metrics.degraded_rollbacks;
      metrics.corrupt_records_skipped += rec.corrupt_records_skipped;
      fallback_sum += static_cast<double>(rec.fallback_depth);
      if (rec.detection_latency >= 0.0 && rec.downtime >= 0.0) {
        ++detected;
        detection_sum += rec.detection_latency;
        downtime_sum += rec.downtime;
      }
    }
    metrics.transport_sends += run.stats.transport_sends;
    metrics.transport_retransmits += run.stats.transport_retransmits;
    metrics.transport_give_ups += run.stats.transport_give_ups;
    metrics.suspicions += run.stats.suspicions;
    metrics.false_suspicions += run.stats.false_suspicions;
    metrics.supervised_restarts += run.stats.supervised_restarts;
    metrics.quarantines += run.stats.quarantines;
  }
  if (metrics.failures > 0) {
    metrics.mean_recovery_latency =
        latency_sum / static_cast<double>(metrics.failures);
    metrics.mean_lost_work = lost_sum / static_cast<double>(metrics.failures);
    metrics.mean_rollback_distance =
        rollback_sum / static_cast<double>(metrics.failures);
    metrics.mean_fallback_depth =
        fallback_sum / static_cast<double>(metrics.failures);
  }
  if (metrics.transport_sends > 0)
    metrics.retransmit_overhead =
        static_cast<double>(metrics.transport_retransmits) /
        static_cast<double>(metrics.transport_sends);
  if (detected > 0) {
    metrics.mean_detection_latency =
        detection_sum / static_cast<double>(detected);
    metrics.mean_downtime = downtime_sum / static_cast<double>(detected);
  }
  return metrics;
}

FaultPlan random_fault_plan(std::uint64_t seed, int nprocs, double horizon,
                            int max_faults, int max_partitions,
                            int max_stalls) {
  util::Rng rng(seed ^ 0xfa17ULL);
  FaultPlan plan;
  const int count =
      static_cast<int>(rng.uniform_int(1, std::max(1, max_faults)));
  for (int i = 0; i < count; ++i) {
    const int proc = static_cast<int>(rng.uniform_int(0, nprocs - 1));
    switch (rng.uniform_int(0, 2)) {
      case 0:
        plan.faults.push_back(FaultPlan::at_time(
            proc, rng.uniform(horizon * 0.05, horizon)));
        break;
      case 1:
        plan.faults.push_back(FaultPlan::after_checkpoint(
            proc, rng.uniform_int(1, 3)));
        break;
      default:
        plan.faults.push_back(FaultPlan::after_events(
            proc, rng.uniform_int(20, 400)));
        break;
    }
  }
  // Partition/stall draws come strictly AFTER the crash draws, so a given
  // (seed, max_faults) always produces the same crash schedule the
  // crash-only plans did — the extension is append-only in draw order.
  if (max_partitions > 0) {
    const int pcount = static_cast<int>(rng.uniform_int(0, max_partitions));
    for (int i = 0; i < pcount; ++i) {
      const int proc = static_cast<int>(rng.uniform_int(0, nprocs - 1));
      const double start = rng.uniform(horizon * 0.05, horizon * 0.7);
      const double dur = rng.uniform(horizon * 0.02, horizon * 0.2);
      const bool symmetric = rng.uniform_int(0, 1) == 1;
      plan.partitions.push_back(
          FaultPlan::partition({proc}, start, start + dur, symmetric));
    }
  }
  if (max_stalls > 0) {
    const int scount = static_cast<int>(rng.uniform_int(0, max_stalls));
    for (int i = 0; i < scount; ++i) {
      const int proc = static_cast<int>(rng.uniform_int(0, nprocs - 1));
      const double start = rng.uniform(horizon * 0.05, horizon * 0.7);
      const double dur = rng.uniform(horizon * 0.02, horizon * 0.2);
      plan.stalls.push_back(FaultPlan::stall(proc, start, dur));
    }
  }
  return plan;
}

store::StorageFaultPlan random_storage_fault_plan(std::uint64_t seed,
                                                  int nprocs,
                                                  long max_ordinal,
                                                  int max_faults) {
  util::Rng rng(seed ^ 0x5704a6eULL);
  store::StorageFaultPlan plan;
  const long hi = std::max<long>(1, max_ordinal);
  const int count =
      static_cast<int>(rng.uniform_int(1, std::max(1, max_faults)));
  for (int i = 0; i < count; ++i) {
    const int proc = static_cast<int>(rng.uniform_int(0, nprocs - 1));
    const long ordinal = rng.uniform_int(1, hi);
    switch (rng.uniform_int(0, 3)) {
      case 0:
        plan.faults.push_back(store::StorageFaultPlan::torn_write(proc,
                                                                  ordinal));
        break;
      case 1:
        plan.faults.push_back(store::StorageFaultPlan::bit_flip(proc,
                                                                ordinal));
        break;
      case 2:
        plan.faults.push_back(
            store::StorageFaultPlan::lost_manifest_entry(proc, ordinal));
        break;
      default:
        plan.faults.push_back(
            store::StorageFaultPlan::stale_manifest(proc, ordinal));
        break;
    }
  }
  return plan;
}

std::optional<Verdict> check_run(const SimResult& run) {
  if (!run.trace.completed)
    return Verdict{"completion", "a process never reached program exit"};

  for (size_t i = 0; i < run.recoveries.size(); ++i) {
    const RecoveryRec& rec = run.recoveries[i];
    const trace::CutAnalysis cut = trace::analyze_cut(run.trace, rec.cut);
    if (!cut.consistent) {
      std::ostringstream out;
      out << "rollback " << i << " (proc " << rec.failed_proc
          << " failed at t=" << rec.fail_time
          << ") restored an inconsistent cut (" << cut.orphan_msgs.size()
          << " orphan messages, " << cut.orphan_rounds.size()
          << " orphan collective rounds)";
      return Verdict{"cut-consistency", out.str()};
    }
  }

  if (!run.corrupt_checkpoints.empty()) {
    const std::set<int> corrupt(run.corrupt_checkpoints.begin(),
                                run.corrupt_checkpoints.end());
    for (size_t i = 0; i < run.recoveries.size(); ++i)
      for (const int member : run.recoveries[i].cut.member) {
        if (member < 0 || corrupt.count(member) == 0) continue;
        std::ostringstream out;
        out << "rollback " << i << " restored a cut containing corrupt "
            << "checkpoint " << member << " (process "
            << run.trace.checkpoints[static_cast<size_t>(member)].proc
            << ") — recovery trusted rotten storage";
        return Verdict{"corrupt-member", out.str()};
      }
  }

  const auto n = static_cast<size_t>(run.trace.nprocs);
  if (run.final_sends.size() != n * n || run.final_recvs.size() != n * n)
    return Verdict{"orphans", "final channel counters missing"};
  for (size_t src = 0; src < n; ++src)
    for (size_t dst = 0; dst < n; ++dst) {
      const long sent = run.final_sends[src * n + dst];
      const long consumed = run.final_recvs[dst * n + src];
      if (consumed > sent) {
        std::ostringstream out;
        out << "orphan messages on channel " << src << "→" << dst
            << ": receiver consumed " << consumed << " but sender's final "
            << "incarnation sent " << sent;
        return Verdict{"orphans", out.str()};
      }
    }
  return std::nullopt;
}

std::optional<Verdict> check_replay(const SimResult& run,
                                    const SimResult& reference) {
  const std::vector<std::uint64_t>& got = run.trace.final_digest;
  const std::vector<std::uint64_t>& want = reference.trace.final_digest;
  if (got != want) {
    size_t p = 0;
    while (p < got.size() && p < want.size() && got[p] == want[p]) ++p;
    std::ostringstream out;
    out << "final state diverged from the failure-free reference at "
        << "process " << p;
    if (p < got.size() && p < want.size())
      out << ": digest " << std::hex << got[p] << " vs " << want[p];
    return Verdict{"digest", out.str()};
  }
  if (run.final_sends != reference.final_sends ||
      run.final_recvs != reference.final_recvs)
    return Verdict{"digest",
                   "final per-channel send/recv counters diverged from the "
                   "failure-free reference"};
  return std::nullopt;
}

OracleReport check_recovery(const mp::Program& program,
                            const SimOptions& base, const FaultPlan& plan,
                            const DriverFactory& driver_factory) {
  OracleReport report;

  SimOptions ref_opts = base;
  ref_opts.fault_plan = FaultPlan{};
  std::unique_ptr<ProtocolDriver> ref_driver;
  if (driver_factory) ref_driver = driver_factory();
  Engine ref_engine(program, std::move(ref_opts), ref_driver.get());
  const SimResult reference = ref_engine.run();

  SimOptions faulty_opts = base;
  faulty_opts.fault_plan = plan;
  faulty_opts.keep_snapshots = true;  // recovery needs restorable images
  std::unique_ptr<ProtocolDriver> faulty_driver;
  if (driver_factory) faulty_driver = driver_factory();
  Engine faulty_engine(program, std::move(faulty_opts),
                       faulty_driver.get());
  const SimResult faulty = faulty_engine.run();

  report.restarts = faulty.stats.restarts;
  report.metrics = recovery_metrics({faulty});

  if (!reference.trace.completed) {
    report.failure = "reference run did not complete";
    return report;
  }
  std::optional<Verdict> verdict = check_run(faulty);
  if (!verdict) verdict = check_replay(faulty, reference);
  report.ok = !verdict;
  if (verdict) report.failure = verdict->property + ": " + verdict->detail;
  return report;
}

}  // namespace acfc::sim
