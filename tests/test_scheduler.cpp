// Coverage for the engine's event core (sim::EventQueue). The engine-level
// tests pin (final digest, end time, events processed) for fixed inputs;
// the values were recorded when a calendar queue and a
// std::priority_queue core still ran side by side in the engine and agreed
// bit for bit, and the 4-ary heap that replaced both reproduces them. The
// data-structure property tests keep std::priority_queue<Ev, EvCmp> as
// the oracle for the exact (time, seq) pop order. A fast grid runs in
// tier 1; the 200-program generated corpus (with fault plans) and the
// parallel-vs-serial batch run in the slow tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include "mp/generate.h"
#include "sim/engine.h"
#include "sim/event.h"
#include "sim/fault.h"
#include "sim/montecarlo.h"
#include "util/checksum.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace {

using namespace acfc;

/// The pinned observables of one run.
struct Observed {
  std::uint64_t digest = 0;  ///< XXH64 over the per-process final digests
  double end_time = 0.0;
  long events = 0;
};

Observed observe(const sim::SimResult& r) {
  const auto& d = r.trace.final_digest;
  return {util::checksum64(d.data(), d.size() * sizeof(std::uint64_t)),
          r.trace.end_time, r.stats.events_processed};
}

Observed observe(const mp::Program& program, const sim::SimOptions& opts) {
  sim::Engine engine(program, opts);
  return observe(engine.run());
}

void expect_pinned(const Observed& got, const Observed& want) {
  EXPECT_EQ(got.digest, want.digest);
  EXPECT_EQ(got.end_time, want.end_time);
  EXPECT_EQ(got.events, want.events);
}

/// Every observable two runs of the same configuration must agree on.
void expect_identical(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.trace.final_digest, b.trace.final_digest);
  EXPECT_EQ(a.trace.end_time, b.trace.end_time);
  EXPECT_EQ(a.trace.events.size(), b.trace.events.size());
  EXPECT_EQ(a.trace.messages.size(), b.trace.messages.size());
  EXPECT_EQ(a.trace.checkpoints.size(), b.trace.checkpoints.size());
  EXPECT_EQ(a.stats.events_processed, b.stats.events_processed);
  EXPECT_EQ(a.stats.app_messages, b.stats.app_messages);
  EXPECT_EQ(a.stats.statement_checkpoints, b.stats.statement_checkpoints);
  EXPECT_EQ(a.stats.forced_checkpoints, b.stats.forced_checkpoints);
  EXPECT_EQ(a.final_sends, b.final_sends);
  EXPECT_EQ(a.final_recvs, b.final_recvs);
  EXPECT_EQ(a.recoveries.size(), b.recoveries.size());
  for (std::size_t i = 0; i < a.recoveries.size(); ++i) {
    EXPECT_EQ(a.recoveries[i].fail_time, b.recoveries[i].fail_time);
    EXPECT_EQ(a.recoveries[i].failed_proc, b.recoveries[i].failed_proc);
  }
}

// ---------------------------------------------------------------------------
// Fast grid (tier 1): workloads × world sizes × jitter × faults
// ---------------------------------------------------------------------------

TEST(Scheduler, PinnedOnRingGrid) {
  benchws::RingParams params;
  params.iterations = 8;
  params.compute_cost = 2.0;
  params.checkpoint = true;
  const mp::Program program = benchws::ring_exchange(params);
  struct Case {
    int n;
    double jitter;
    Observed want;
  };
  const Case cases[] = {
      {2, 0.0, {0x05d0e906afdccc93ULL, 0x1.0020c49ba5e35p+4, 34}},
      {2, 0.3, {0x05d0e906afdccc93ULL, 0x1.3cfe004b52da9p+4, 34}},
      {5, 0.0, {0xecf2206f22290d77ULL, 0x1.0020c49ba5e35p+4, 85}},
      {5, 0.3, {0xecf2206f22290d77ULL, 0x1.32ac31773693dp+4, 85}},
      {8, 0.0, {0x00fa843ff76341c5ULL, 0x1.0020c49ba5e35p+4, 136}},
      {8, 0.3, {0x00fa843ff76341c5ULL, 0x1.388a6b3c3da0dp+4, 136}},
      {16, 0.0, {0x7d1020eb0e1ba277ULL, 0x1.0020c49ba5e35p+4, 272}},
      {16, 0.3, {0x7d1020eb0e1ba277ULL, 0x1.3e098761cc63p+4, 272}},
  };
  for (const Case& c : cases) {
    sim::SimOptions opts;
    opts.nprocs = c.n;
    opts.compute_jitter = c.jitter;
    opts.seed = 11 + static_cast<std::uint64_t>(c.n);
    SCOPED_TRACE("n=" + std::to_string(c.n) +
                 " jitter=" + std::to_string(c.jitter));
    expect_pinned(observe(program, opts), c.want);
  }
}

TEST(Scheduler, PinnedOnDominoWithFaults) {
  const mp::Program program = benchws::domino_exchange(10, 3.0);
  sim::SimOptions opts;
  opts.nprocs = 6;
  opts.compute_jitter = 0.25;
  opts.checkpoint_overhead = 0.5;
  opts.recovery_overhead = 2.0;
  opts.fault_plan.faults.push_back(sim::FaultPlan::after_checkpoint(2, 2));
  opts.fault_plan.faults.push_back(sim::FaultPlan::after_events(4, 150));
  sim::Engine engine(program, opts);
  const sim::SimResult result = engine.run();
  // The plan must actually fire for this test to mean anything.
  ASSERT_FALSE(result.recoveries.empty());
  expect_pinned(observe(result),
                {0x22a8ad217bf0e9bcULL, 0x1.0bb403d055249p+6, 343});
}

TEST(Scheduler, PinnedUnderTimedFaultAndSparseTimes) {
  // at_time faults plus a long-tailed delay model: sparse event times
  // with a far-future failure resident in the queue.
  benchws::RingParams params;
  params.iterations = 6;
  params.compute_cost = 50.0;
  params.checkpoint = true;
  const mp::Program program = benchws::ring_exchange(params);
  sim::SimOptions opts;
  opts.nprocs = 5;
  opts.compute_jitter = 0.5;
  opts.checkpoint_overhead = 1.0;
  opts.recovery_overhead = 5.0;
  opts.fault_plan.faults.push_back(sim::FaultPlan::at_time(1, 120.0));
  expect_pinned(observe(program, opts),
                {0x397a652bd05945c4ULL, 0x1.dd4b7e74a2468p+8, 111});
}

// ---------------------------------------------------------------------------
// Generated corpus (slow tier): 200 programs, with and without faults,
// serial and parallel
// ---------------------------------------------------------------------------

// Same corpus recipe as test_fastpath.cpp: 100 seeds × misaligned
// {off, on}, sizes cycling through 6..22 segments.
mp::Program corpus_program(int index, bool misalign) {
  mp::GenerateOptions opts;
  opts.seed = 0x5eedULL * 2654435761ULL + static_cast<std::uint64_t>(index);
  opts.segments = 6 + (index % 5) * 4;
  opts.misalign_checkpoints = misalign;
  return mp::generate_program(opts);
}

sim::SimOptions corpus_options(int index) {
  sim::SimOptions opts;
  opts.nprocs = 3 + index % 6;
  opts.seed = 1000 + static_cast<std::uint64_t>(index);
  opts.compute_jitter = (index % 3) * 0.2;
  opts.checkpoint_overhead = 0.25;
  opts.recovery_overhead = 1.0;
  // Every third program gets a fault plan, cycling through trigger kinds.
  switch (index % 6) {
    case 0:
      opts.fault_plan.faults.push_back(
          sim::FaultPlan::after_checkpoint(index % opts.nprocs, 1));
      break;
    case 3:
      opts.fault_plan.faults.push_back(
          sim::FaultPlan::after_events(index % opts.nprocs, 200));
      break;
    default:
      break;
  }
  return opts;
}

TEST(SchedulerCorpusSlow, PinnedOn200Programs) {
  // One 64-bit fold over every program's (digest, end time bits, events);
  // on a mismatch the per-program values are dumped for bisecting.
  std::vector<std::uint64_t> fold;
  std::ostringstream dump;
  dump << "index misalign digest end_time events\n" << std::hexfloat;
  for (int index = 0; index < 100; ++index) {
    for (const bool misalign : {false, true}) {
      const Observed o =
          observe(corpus_program(index, misalign), corpus_options(index));
      fold.push_back(o.digest);
      fold.push_back(std::bit_cast<std::uint64_t>(o.end_time));
      fold.push_back(static_cast<std::uint64_t>(o.events));
      dump << index << ' ' << misalign << " 0x" << std::hex << o.digest
           << std::dec << ' ' << o.end_time << ' ' << o.events << '\n';
    }
  }
  ASSERT_EQ(fold.size(), 3u * 200u);
  EXPECT_EQ(util::checksum64(fold.data(), fold.size() * sizeof(std::uint64_t)),
            0x6beb9c3f94d70732ULL)
      << dump.str();
}

// ---------------------------------------------------------------------------
// Data-structure-level differential property test: EventQueue against
// std::priority_queue<Ev, EvCmp> under randomized push/pop interleavings.
// (time, seq) is a unique total order, so the two must agree on the EXACT
// pop sequence, not just multiset equality. The op mix covers same-time
// bursts (ties broken by seq alone), regular spacing, far-future outliers,
// and the tiny-behind-the-current-time pushes the engine's time slack can
// produce.

void expect_pop_matches(sim::EventQueue& queue,
                        std::priority_queue<sim::Ev, std::vector<sim::Ev>,
                                            sim::EvCmp>& ref,
                        double& now) {
  ASSERT_FALSE(ref.empty());
  ASSERT_FALSE(queue.empty());
  const sim::Ev got = queue.pop();
  const sim::Ev want = ref.top();
  ref.pop();
  ASSERT_EQ(got.time, want.time);
  ASSERT_EQ(got.seq, want.seq);
  now = got.time;
}

TEST(SchedulerQueueProperty, RandomOpSequencesMatchPriorityQueue) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::Rng rng(seed);
    sim::EventQueue queue;
    std::priority_queue<sim::Ev, std::vector<sim::Ev>, sim::EvCmp> ref;
    long seq = 0;
    double now = 0.0;
    for (int op = 0; op < 4000; ++op) {
      const bool push = ref.empty() || rng.uniform_int(0, 99) < 55;
      if (push) {
        const auto regime = rng.uniform_int(0, 9);
        double dt = 0.0;  // regimes 0-2: same-time burst
        if (regime >= 3 && regime <= 7)
          dt = 1e-3 * static_cast<double>(rng.uniform_int(1, 50));
        else if (regime == 8)
          dt = static_cast<double>(rng.uniform_int(1, 100));  // outlier
        sim::Ev ev;
        ev.time = regime == 9 ? std::max(0.0, now - 1e-12) : now + dt;
        ev.seq = seq++;
        ev.a = op;
        queue.push(ev);
        ref.push(ev);
      } else {
        expect_pop_matches(queue, ref, now);
      }
    }
    while (!ref.empty()) expect_pop_matches(queue, ref, now);
    EXPECT_TRUE(queue.empty());
  }
}

TEST(SchedulerQueueProperty, BurstThenSparseDrainMatches) {
  // Deterministic boundary case: a 256-event same-time burst (five heap
  // levels ordered by seq alone) followed by events at exponentially
  // growing gaps.
  sim::EventQueue queue;
  std::priority_queue<sim::Ev, std::vector<sim::Ev>, sim::EvCmp> ref;
  long seq = 0;
  for (int i = 0; i < 256; ++i) {
    sim::Ev ev;
    ev.time = 5.0;
    ev.seq = seq++;
    queue.push(ev);
    ref.push(ev);
  }
  double t = 1000.0;
  for (int i = 0; i < 24; ++i) {
    sim::Ev ev;
    ev.time = t;
    ev.seq = seq++;
    queue.push(ev);
    ref.push(ev);
    t *= 4.0;
  }
  EXPECT_EQ(queue.size_high_water(), 256 + 24);
  double now = 0.0;
  while (!ref.empty()) expect_pop_matches(queue, ref, now);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size_high_water(), 256 + 24);
}

// ---------------------------------------------------------------------------
// top() and the tie-break gather. top() must always name the event the
// next pop() extracts, whatever was pushed and popped in between (fill
// and drain phases, same-time bursts, outliers). Engine::next_event gathers
// same-time candidates by peeking; the pop-and-re-push gather it replaced
// is kept below as the reference, and both must pop the same sequence.

/// A push with a regime-dependent gap: same-time bursts, quantized gaps
/// (exact ties across pushes), far-future outliers, and times just
/// behind the current one. Fills in fields a and seq.
sim::Ev random_event(util::Rng& rng, double now, long& seq) {
  const auto regime = rng.uniform_int(0, 9);
  double dt = 0.0;  // regimes 0-3: same-time burst
  if (regime >= 4 && regime <= 7)
    dt = 1e-3 * static_cast<double>(rng.uniform_int(0, 20));
  else if (regime == 8)
    dt = static_cast<double>(rng.uniform_int(1, 100));  // outlier
  sim::Ev ev;
  ev.time = regime == 9 ? std::max(0.0, now - 1e-12) : now + dt;
  ev.seq = seq++;
  ev.a = static_cast<long>(rng.uniform_int(0, 1 << 20));
  return ev;
}

TEST(SchedulerQueueProperty, TopAlwaysEqualsTheNextPop) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::Rng rng(seed * 7919);
    sim::EventQueue queue;
    std::priority_queue<sim::Ev, std::vector<sim::Ev>, sim::EvCmp> ref;
    long seq = 0;
    double now = 0.0;
    for (int op = 0; op < 6000; ++op) {
      // Alternate fill and drain phases so the heap both deepens and drains.
      const int push_pct = (op / 500) % 2 == 0 ? 75 : 25;
      if (ref.empty() || rng.uniform_int(0, 99) < push_pct) {
        const sim::Ev ev = random_event(rng, now, seq);
        queue.push(ev);
        ref.push(ev);
      } else {
        const sim::Ev peeked = queue.top();
        // top() is idempotent: a second peek names the same event.
        ASSERT_EQ(queue.top().seq, peeked.seq);
        const sim::Ev popped = queue.pop();
        ASSERT_EQ(popped.seq, peeked.seq);
        ASSERT_EQ(popped.seq, ref.top().seq);
        ASSERT_EQ(popped.time, ref.top().time);
        ref.pop();
        now = popped.time;
      }
      if (!ref.empty()) {
        ASSERT_EQ(queue.top().seq, ref.top().seq);
      }
    }
    while (!ref.empty()) {
      ASSERT_EQ(queue.top().seq, ref.top().seq);
      expect_pop_matches(queue, ref, now);
    }
    EXPECT_TRUE(queue.empty());
  }
}

/// Events whose payload is a multiple of 4 stand in for the engine's dead
/// (stale-epoch) events: they end a gather and are never candidates.
bool gather_live(const sim::Ev& ev) { return ev.a % 4 != 0; }

/// Engine::next_event's tie-break gather over a bare queue. `peek` selects
/// the engine's top()-driven gather; otherwise the reference pops the
/// event that ends the gather and pushes it back. The hook's answer is
/// `step` mod the candidate count, written to `arity`.
sim::Ev gather(sim::EventQueue& q, int cap, int step, bool peek,
               int& arity) {
  const sim::Ev ev = q.pop();
  arity = 1;
  if (cap < 2 || q.empty() || !gather_live(ev)) return ev;
  sim::Ev cands[sim::PerturbOptions::kMaxTieBreak];
  int k = 1;
  cands[0] = ev;
  while (k < cap && !q.empty()) {
    if (peek) {
      const sim::Ev& next = q.top();
      if (next.time != ev.time || !gather_live(next)) break;
      cands[k++] = q.pop();
    } else {
      const sim::Ev e = q.pop();
      if (e.time != ev.time || !gather_live(e)) {
        q.push(e);
        break;
      }
      cands[k++] = e;
    }
  }
  arity = k;
  const int pick = step % k;
  for (int i = 0; i < k; ++i)
    if (i != pick) q.push(cands[i]);
  return cands[pick];
}

TEST(SchedulerQueueProperty, PeekGatherPopsTheSameSequenceAsPopAndRepush) {
  long tie_breaks = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::Rng rng(seed);
    sim::EventQueue peek_q;
    sim::EventQueue ref_q;
    long seq = 0;
    double now = 0.0;
    int step = 0;
    const auto dispatch = [&] {
      const int cap = static_cast<int>(
          rng.uniform_int(1, sim::PerturbOptions::kMaxTieBreak));
      int peek_arity = 0;
      int ref_arity = 0;
      const sim::Ev got = gather(peek_q, cap, step, true, peek_arity);
      const sim::Ev want = gather(ref_q, cap, step, false, ref_arity);
      ++step;
      ASSERT_EQ(got.seq, want.seq);
      ASSERT_EQ(got.time, want.time);
      ASSERT_EQ(peek_arity, ref_arity);
      ASSERT_EQ(peek_q.size(), ref_q.size());
      if (peek_arity > 1) ++tie_breaks;
      now = std::max(now, got.time);
    };
    for (int op = 0; op < 6000; ++op) {
      const int push_pct = (op / 500) % 2 == 0 ? 75 : 25;
      if (peek_q.empty() || rng.uniform_int(0, 99) < push_pct) {
        const sim::Ev ev = random_event(rng, now, seq);
        peek_q.push(ev);
        ref_q.push(ev);
      } else {
        dispatch();
      }
    }
    while (!peek_q.empty()) dispatch();
    EXPECT_TRUE(ref_q.empty());
  }
  EXPECT_GT(tie_breaks, 0);
}

TEST(SchedulerCorpusSlow, ParallelBatchMatchesSerialBatch) {
  // Any pool nondeterminism breaks the digests.
  const mp::Program program = benchws::domino_exchange(8, 4.0);
  std::vector<sim::SimOptions> configs;
  for (int index = 0; index < 24; ++index)
    configs.push_back(corpus_options(index));
  const auto parallel = sim::run_batch(program, configs, sim::McOptions{4});
  const auto serial = sim::run_batch(program, configs, sim::McOptions{1});
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    SCOPED_TRACE("run " + std::to_string(i));
    expect_identical(parallel[i], serial[i]);
  }
}

}  // namespace
