#include "sim/engine.h"

#include <algorithm>
#include <cmath>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "obs/metrics.h"
#include "sim/snapshot_codec.h"
#include "util/error.h"

namespace acfc::sim {

// ===========================================================================
// Internal structures
// ===========================================================================

struct Engine::Process {
  enum class Status {
    kReady,
    kComputing,     ///< waiting on a wake (compute or checkpoint overhead)
    kBlockedRecv,
    kBlockedColl,
    kPaused,
    kDone,
    kCrashed,       ///< supervised mode: dead, awaiting a detector verdict
  };

  explicit Process(Vm vm_in) : vm(std::move(vm_in)) {}

  Vm vm;
  Status status = Status::kReady;
  std::optional<ActionRecv> pending_recv;
  int pending_compute_uid = -1;  ///< -1 when the wake ends a checkpoint
  bool pause_requested = false;
  double paused_since = 0.0;
};

struct Engine::CollRound {
  using Kind = trace::CollRec::Kind;
  Kind kind = Kind::kNone;
  int bytes = 0;
  int root = -1;
  bool root_joined = false;
  double root_ready = 0.0;       ///< time the bcast becomes deliverable
  std::vector<char> joined;      ///< barrier participants present
  std::vector<double> join_time;
  /// Per member: its tick and incarnation at its join.
  std::vector<trace::Tick> join_tick;
  std::vector<int> join_incarnation;
  std::vector<int> stmt_uid;     ///< per-proc issuing statement
  int joined_count = 0;
  bool released = false;
  /// Index of the trace::CollRec of the current release; -1 until the
  /// round (re-)releases.
  long record = -1;

  /// Back to a round no member has joined. The first join re-assigns the
  /// per-member vectors (keeping their capacity) and kind, root and bytes;
  /// the root's join sets root_ready.
  void reset() {
    kind = Kind::kNone;
    root_joined = false;
    joined_count = 0;
    released = false;
    record = -1;
  }

  /// When the last member joined — the release base of an all-joined
  /// round (the collective's own latency comes on top).
  double last_join() const {
    double t = 0.0;
    for (const double join : join_time) t = std::max(t, join);
    return t;
  }
};

namespace {

/// A Monte-Carlo batch constructs and destroys one Engine per run, each
/// churning a few MB of trace stores and clock vectors. glibc's adaptive
/// trim/mmap thresholds settle right at that scale, so the steady state
/// can hand the whole arena back to the kernel on every Engine
/// destruction and re-fault it (hundreds of minor faults) on the next
/// run. Pin both thresholds well above the per-run churn once per
/// process; the arena is then reused across runs. No-op off glibc and
/// under sanitizer allocators.
void tune_allocator_for_run_batches() {
#if defined(__GLIBC__)
  static const bool done = [] {
    mallopt(M_TRIM_THRESHOLD, 32 << 20);
    mallopt(M_MMAP_THRESHOLD, 8 << 20);
    return true;
  }();
  (void)done;
#endif
}

}  // namespace

// ===========================================================================
// Construction / bootstrap
// ===========================================================================

Engine::Engine(const Model& model, SimOptions opts, ProtocolDriver* driver)
    : Engine(&model, nullptr, std::move(opts), driver) {}

Engine::Engine(const mp::Program& program, SimOptions opts,
               ProtocolDriver* driver)
    : Engine(nullptr, &program, std::move(opts), driver) {}

Engine::Engine(const Model* model, const mp::Program* program,
               SimOptions opts, ProtocolDriver* driver)
    : model_(model), opts_(std::move(opts)) {
  tune_allocator_for_run_batches();
  ACFC_CHECK_MSG(opts_.nprocs >= 2, "simulation needs at least 2 processes");
  const auto n = static_cast<size_t>(opts_.nprocs);
  if (opts_.delay.lossy()) {
    ACFC_CHECK_MSG(opts_.delay.drop >= 0.0 && opts_.delay.drop < 1.0 &&
                       opts_.delay.dup >= 0.0 && opts_.delay.dup <= 1.0 &&
                       opts_.delay.reorder >= 0.0 &&
                       opts_.delay.reorder <= 1.0,
                   "loss probabilities out of range (drop must be < 1)");
    ACFC_CHECK_MSG(opts_.transport.max_retries >= 0,
                   "invalid transport options");
    xport_.resize(n * n);
  }
  for (const auto& f : opts_.storage_faults.faults) {
    ACFC_CHECK_MSG(f.proc >= 0 && f.proc < opts_.nprocs,
                   "storage fault targets a process outside the world");
    ACFC_CHECK_MSG(f.ckpt_ordinal >= 1,
                   "storage fault ordinals are 1-based");
  }
  for (const FaultSpec& f : opts_.fault_plan.faults) {
    ACFC_CHECK_MSG(f.proc >= 0 && f.proc < opts_.nprocs,
                   "fault plan targets a process outside the world");
    if (f.trigger == FaultSpec::Trigger::kAtTime)
      ACFC_CHECK_MSG(std::isfinite(f.time) && f.time >= 0.0,
                     "timed fault must fire at a finite time >= 0");
  }
  for (const auto& w : opts_.fault_plan.partitions) {
    ACFC_CHECK_MSG(!w.group.empty(), "partition group must be non-empty");
    ACFC_CHECK_MSG(w.heal >= w.start, "partition heals before it starts");
    for (const int g : w.group)
      ACFC_CHECK_MSG(g >= 0 && g < opts_.nprocs,
                     "partition group member outside the world");
  }
  for (const auto& w : opts_.fault_plan.stalls) {
    ACFC_CHECK_MSG(w.proc >= 0 && w.proc < opts_.nprocs,
                   "stall targets a process outside the world");
    ACFC_CHECK_MSG(w.duration >= 0.0, "stall duration must be non-negative");
  }
  // The engine owns the window lists from here on (explorer injections
  // append to them, rearm() cuts them back to the plan's); swapping leaves
  // the plan's own lists empty.
  partitions_.swap(opts_.fault_plan.partitions);
  stalls_.swap(opts_.fault_plan.stalls);
  plan_partitions_ = partitions_.size();
  plan_stalls_ = stalls_.size();
  for (const auto& w : opts_.fault_plan.slow_links) {
    ACFC_CHECK_MSG(w.factor > 0.0, "slow-link factor must be positive");
    ACFC_CHECK_MSG(w.src >= -1 && w.src < opts_.nprocs &&
                       w.dst >= -1 && w.dst < opts_.nprocs,
                   "slow-link endpoint outside the world");
  }
  if (opts_.schedule_hook != nullptr) {
    ACFC_CHECK_MSG(!opts_.delay.lossy(),
                   "schedule hooks require the reliable fast path");
    ACFC_CHECK_MSG(opts_.perturb.tie_cap >= 1 &&
                       opts_.perturb.tie_cap <= PerturbOptions::kMaxTieBreak,
                   "tie_cap out of range");
    ACFC_CHECK_MSG(opts_.perturb.delay_steps >= 1, "delay_steps must be >= 1");
  }

  if (model_ == nullptr) {  // a one-off engine: build a private model
    owned_model_ = std::make_unique<const Model>(*program);
    model_ = owned_model_.get();
  }

  const auto slots = static_cast<size_t>(model_->slot_count());
  invariants_.assign(n * slots, {});
  for (int p = 0; p < opts_.nprocs; ++p)
    procs_.push_back(std::make_unique<Process>(
        Vm(*model_, p, opts_.nprocs,
           invariants_.data() + static_cast<size_t>(p) * slots)));
  rearm(driver, SimResult{});
}

Engine::~Engine() = default;

void Engine::rearm(ProtocolDriver* driver, SimResult spent) {
  const auto n = static_cast<size_t>(opts_.nprocs);
  driver_ = driver;
  supervised_ = driver_ != nullptr && driver_->wants_supervised_failures();
  now_ = 0.0;
  event_seq_ = 0;
  epoch_ = 0;
  stats_ = SimStats{};
  queue_.clear();
  net_rng_ = util::Rng(opts_.seed ^ 0xdead5eedULL);

  // Each trace and recovery store keeps the larger of its own buffer and
  // the spent result's (a fresh engine's reserve beats an empty result);
  // run() builds its next result in the rest of the spent result, and sets
  // the trace's end time, completion flag and final digests.
  const auto keep_larger = [](auto& mine, auto& theirs) {
    if (theirs.capacity() > mine.capacity()) mine.swap(theirs);
    mine.clear();
  };
  keep_larger(trace_.events, spent.trace.events);
  keep_larger(trace_.messages, spent.trace.messages);
  keep_larger(trace_.checkpoints, spent.trace.checkpoints);
  keep_larger(trace_.collectives, spent.trace.collectives);
  keep_larger(trace_.coll_members, spent.trace.coll_members);
  keep_larger(trace_.restores, spent.trace.restores);
  keep_larger(trace_.final_digest, spent.trace.final_digest);
  keep_larger(recoveries_, spent.recoveries);
  recycled_ = std::move(spent);
  trace_.nprocs = opts_.nprocs;
  // Append-friendly storage: start the trace stores at a capacity
  // proportional to the world size so the steady state appends without
  // reallocating. Growth beyond the hint stays geometric.
  trace_.reserve(/*events=*/256 * n, /*messages=*/96 * n,
                 /*checkpoints=*/32 * n);

  snapshots_.clear();
  images_.clear();
  // The image arena starts with room for 16 records of a small state: 24
  // bytes per process (send and receive counters, clock word) plus 256 for
  // the header, a short stack and a few counters. A short run's takes then
  // append without regrowing it.
  if (opts_.keep_snapshots) images_.reserve(16 * (256 + 24 * n));
  ckpt_counts_.assign(n, 0);
  take_counts_.assign(n, 0);
  incarnation_.assign(n, 0);
  ckpt_take_ordinal_.clear();
  ckpt_corrupt_.clear();
  ckpt_stale_.clear();

  // pending_compute_uid and paused_since are written whenever a process
  // enters kComputing or kPaused, so they need no reset.
  for (const auto& proc : procs_) {
    proc->vm.reset();
    proc->status = Process::Status::kReady;
    proc->pending_recv.reset();
    proc->pause_requested = false;
  }
  channel_last_deliver_.assign(n * n, 0.0);
  control_last_deliver_.assign(n * n, 0.0);
  inbox_.resize(n * n);
  for (auto& box : inbox_) box.clear();
  for (const auto& round : rounds_) round->reset();
  reset_transport();

  pending_faults_.clear();
  crashed_.assign(n, 0);
  quarantined_.assign(n, 0);
  crash_time_.assign(n, 0.0);
  partitions_.erase(
      partitions_.begin() + static_cast<std::ptrdiff_t>(plan_partitions_),
      partitions_.end());
  stalls_.erase(stalls_.begin() + static_cast<std::ptrdiff_t>(plan_stalls_),
                stalls_.end());
}

void Engine::push_event(double time, EvKind kind, int proc, long a, long b) {
  queue_.push(Ev{time, event_seq_++, kind, proc, a, b, epoch_});
}

void Engine::wake_at(int p, double time, int compute_uid) {
  Process& proc = *procs_[static_cast<size_t>(p)];
  proc.status = Process::Status::kComputing;
  proc.pending_compute_uid = compute_uid;
  push_event(time, EvKind::kWake, p);
}

trace::EventRec& Engine::note(trace::EventKind kind, int proc, double time) {
  trace::EventRec& rec = trace_.events.emplace_back();
  rec.kind = kind;
  rec.proc = proc;
  rec.time = time;
  return rec;
}

Ev Engine::next_event() {
  Ev ev = queue_.pop();
  ScheduleHook* hook = opts_.schedule_hook;
  const int cap = std::min(opts_.perturb.tie_cap,
                           PerturbOptions::kMaxTieBreak);
  if (hook == nullptr || cap < 2 || queue_.empty() || !event_live(ev))
    return ev;
  // Gather up to `cap` live events sharing ev's timestamp. Candidates are
  // popped in (time, seq) order, so cands[0] is the unperturbed default;
  // pushing the rejects back preserves their original seq and therefore
  // the queue's order semantics. The first dead or later-timed event ends
  // the gather without leaving the queue (top() peeks) — dead events flow
  // through dispatch unperturbed.
  Ev cands[PerturbOptions::kMaxTieBreak];
  int k = 1;
  cands[0] = ev;
  while (k < cap && !queue_.empty()) {
    const Ev& next = queue_.top();
    if (next.time != ev.time || !event_live(next)) break;
    cands[k++] = queue_.pop();
  }
  if (k == 1) return ev;
  const ChoicePoint cp{ChoiceKind::kTieBreak, k, -1, BoundaryKind::kNone,
                       this};
  int pick = hook->choose(cp);
  if (pick < 0 || pick >= k) pick = 0;
  for (int i = 0; i < k; ++i)
    if (i != pick) queue_.push(cands[i]);
  return cands[pick];
}

double Engine::perturb_delivery(double deliver_at) {
  ScheduleHook* hook = opts_.schedule_hook;
  const int steps = opts_.perturb.delay_steps;
  if (hook == nullptr || steps < 2) return deliver_at;
  const ChoicePoint cp{ChoiceKind::kDeliveryDelay, steps, -1,
                       BoundaryKind::kNone, this};
  int step = hook->choose(cp);
  if (step < 0 || step >= steps) step = 0;
  if (step == 0) return deliver_at;
  const double quantum = opts_.perturb.delay_quantum > 0.0
                             ? opts_.perturb.delay_quantum
                             : opts_.delay.setup;
  return deliver_at + static_cast<double>(step) * quantum;
}

void Engine::offer_failure_point(BoundaryKind boundary, int proc) {
  ScheduleHook* hook = opts_.schedule_hook;
  if (hook == nullptr) return;
  if (!opts_.perturb.failure_points && !opts_.perturb.partition_points &&
      !opts_.perturb.stall_points)
    return;
  if (procs_[static_cast<size_t>(proc)]->status == Process::Status::kDone)
    return;
  // Fixed offer order (failure, partition, stall) so recorded choice
  // vectors align position-for-position across replays.
  if (opts_.perturb.failure_points) {
    const ChoicePoint cp{ChoiceKind::kFailurePoint, 2, proc, boundary, this};
    if (hook->choose(cp) == 1) push_event(now_, EvKind::kFailure, proc);
  }
  if (opts_.perturb.partition_points) {
    const ChoicePoint cp{ChoiceKind::kPartitionPoint, 2, proc, boundary,
                         this};
    if (hook->choose(cp) == 1)
      partitions_.push_back(FaultPlan::partition(
          {proc}, now_, now_ + opts_.perturb.partition_window,
          /*symmetric=*/true));
  }
  if (opts_.perturb.stall_points) {
    const ChoicePoint cp{ChoiceKind::kStallPoint, 2, proc, boundary, this};
    if (hook->choose(cp) == 1)
      stalls_.push_back(
          FaultPlan::stall(proc, now_, opts_.perturb.stall_window));
  }
}

void Engine::bootstrap() {
  for (int p = 0; p < opts_.nprocs; ++p) push_event(0.0, EvKind::kWake, p);
  for (const FaultSpec& spec : opts_.fault_plan.faults) {
    if (spec.trigger == FaultSpec::Trigger::kAtTime)
      push_event(spec.time, EvKind::kFailure, spec.proc);
    else
      pending_faults_.push_back(PendingFault{spec, false});
  }
  if (driver_ != nullptr) driver_->on_start(*this);
}

void Engine::check_checkpoint_faults(int proc) {
  for (PendingFault& pending : pending_faults_) {
    if (pending.fired ||
        pending.spec.trigger != FaultSpec::Trigger::kAfterCheckpoint)
      continue;
    if (pending.spec.proc != proc ||
        ckpt_counts_[static_cast<size_t>(proc)] < pending.spec.count)
      continue;
    pending.fired = true;  // once only: rollback rewinds the tally
    push_event(now_, EvKind::kFailure, pending.spec.proc);
  }
}

void Engine::check_event_faults() {
  for (PendingFault& pending : pending_faults_) {
    if (pending.fired ||
        pending.spec.trigger != FaultSpec::Trigger::kAfterEvents)
      continue;
    if (stats_.events_processed < pending.spec.count) continue;
    pending.fired = true;
    push_event(now_, EvKind::kFailure, pending.spec.proc);
  }
}

// ===========================================================================
// Main loop
// ===========================================================================

SimResult Engine::run() {
  bootstrap();
  while (stats_.events_processed < opts_.max_events) {
    if (queue_.empty()) break;
    const Ev ev = next_event();
    ++stats_.events_processed;
    ACFC_CHECK_MSG(ev.time + 1e-12 >= now_, "time went backwards");
    now_ = std::max(now_, ev.time);
    dispatch(ev);
    if (!pending_faults_.empty()) check_event_faults();
  }
  trace_.end_time = now_;
  trace_.completed = true;
  trace_.final_digest.assign(static_cast<size_t>(opts_.nprocs), 0);
  for (int p = 0; p < opts_.nprocs; ++p) {
    trace_.final_digest[static_cast<size_t>(p)] =
        procs_[static_cast<size_t>(p)]->vm.state().digest;
    if (procs_[static_cast<size_t>(p)]->status != Process::Status::kDone)
      trace_.completed = false;
  }
  flush_obs();  // reads trace_/recoveries_, so before the moves below
  SimResult result = std::move(recycled_);  // buffers rearm() took back
  result.corrupt_checkpoints.clear();
  for (size_t i = 0; i < ckpt_corrupt_.size(); ++i)
    if (ckpt_corrupt_[i])
      result.corrupt_checkpoints.push_back(static_cast<int>(i));
  result.trace = std::move(trace_);
  result.stats = stats_;
  result.recoveries = std::move(recoveries_);
  const auto n = static_cast<size_t>(opts_.nprocs);
  result.final_sends.assign(n * n, 0);
  result.final_recvs.assign(n * n, 0);
  for (size_t p = 0; p < n; ++p) {
    const VmSnapshot& state = procs_[p]->vm.state();
    for (size_t q = 0; q < n; ++q) {
      result.final_sends[p * n + q] = state.sends_per_channel[q];
      result.final_recvs[p * n + q] = state.recvs_per_channel[q];
    }
  }
  return result;
}

void Engine::dispatch(const Ev& ev) {
  // Pre-rollback residue (everything but crashes carries the epoch it was
  // scheduled in) dies here, before any gating.
  if (!event_live(ev)) return;
  // Supervised-mode liveness and gray-failure gating, before the event
  // reaches its handler. Crash events are exempt from both: a crashed or
  // stalled process can still (re-)die. Global control-plane events
  // (proc = -1, e.g. supervisor timers) are never gated.
  if (ev.proc >= 0 && ev.kind != EvKind::kFailure) {
    if (crashed_[static_cast<size_t>(ev.proc)]) {
      // Dead target: in-flight deliveries, timers, wakes, and transport
      // traffic vanish at the process boundary. Application payloads are
      // not lost — the sender-based message log replays them at rollback.
      ++stats_.crash_dropped_events;
      return;
    }
    const double clear =
        stalls_.empty() ? now_ : stall_clear_time(ev.proc, now_);
    if (clear > now_) {
      // Alive but not executing: defer the event to the window end.
      // Deferred events are re-pushed in pop order with fresh sequence
      // numbers, so their relative (and per-channel FIFO) order holds.
      if (ev.kind == EvKind::kDeliver)
        trace_.messages[static_cast<size_t>(ev.a)].deliver_time = clear;
      push_event(clear, ev.kind, ev.proc, ev.a, ev.b);
      ++stats_.stall_deferred_events;
      return;
    }
  }
  switch (ev.kind) {
    case EvKind::kWake: {
      Process& proc = *procs_[static_cast<size_t>(ev.proc)];
      if (proc.status == Process::Status::kComputing) {
        if (proc.pending_compute_uid >= 0) {
          proc.vm.tick();
          note(trace::EventKind::kCompute, ev.proc, now_).stmt_uid =
              proc.pending_compute_uid;
          proc.pending_compute_uid = -1;
        }
        proc.status = Process::Status::kReady;
      }
      if (proc.status == Process::Status::kReady) advance(ev.proc);
      return;
    }
    case EvKind::kDeliver:
      deliver(ev.a);
      return;
    case EvKind::kTimer:
      if (driver_ != nullptr)
        driver_->on_timer(*this, ev.proc, static_cast<int>(ev.a));
      return;
    case EvKind::kFailure:
      handle_failure(ev.proc);
      return;
    case EvKind::kNetArrive:
      handle_net_arrive(ev.a);
      return;
    case EvKind::kAck:
      handle_ack(static_cast<std::size_t>(ev.a), ev.b);
      return;
    case EvKind::kRto:
      handle_rto(static_cast<std::size_t>(ev.a), ev.b);
      return;
  }
}

double Engine::message_delay(int bytes) {
  double d = opts_.delay.base(bytes);
  if (opts_.delay.jitter > 0.0)
    d += net_rng_.uniform(0.0, opts_.delay.jitter);
  return d;
}

// ===========================================================================
// Message departure
// ===========================================================================

long Engine::post(trace::MsgRec msg, double at) {
  const long id = static_cast<long>(trace_.messages.size());
  msg.id = id;
  if (opts_.delay.lossy()) {
    // Control traffic rides the same reliable shim as app messages, in the
    // same per-channel sequence space — markers keep their FIFO ordering
    // relative to the app messages they chase (the C-L invariant).
    msg.deliver_time = -1.0;  // set when the shim accepts it in order
    trace_.messages.push_back(std::move(msg));
    xport_send(id, at);
    return id;
  }
  // A partitioned link holds the departure at the sender until the heal
  // (the in-order backlog then drains through the FIFO floor).
  const double depart =
      partitions_.empty() ? at : link_clear_time(msg.src, msg.dst, at);
  if (depart > at) ++stats_.partition_deferred_sends;
  double deliver_at = perturb_delivery(
      depart + p2p_delay(msg.src, msg.dst, msg.bytes, depart));
  std::vector<double>& floors =
      msg.control ? control_last_deliver_ : channel_last_deliver_;
  double& floor = floors[chan_of(msg.src, msg.dst)];
  deliver_at = std::max(deliver_at, floor);
  floor = deliver_at;
  msg.deliver_time = deliver_at;
  const int dst = msg.dst;
  trace_.messages.push_back(std::move(msg));
  push_event(deliver_at, EvKind::kDeliver, dst, id);
  return id;
}

// ===========================================================================
// Partition / stall / slow-link windows
// ===========================================================================

namespace {

bool in_group(const std::vector<int>& group, int p) {
  for (const int g : group)
    if (g == p) return true;
  return false;
}

/// Does window `w` cut src→dst traffic at time `t`? Asymmetric partitions
/// block only group→complement; symmetric ones block both directions.
bool partition_blocks(const PartitionSpec& w, int src, int dst, double t) {
  if (t < w.start || t >= w.heal) return false;
  const bool s_in = in_group(w.group, src);
  const bool d_in = in_group(w.group, dst);
  if (s_in && !d_in) return true;
  return w.symmetric && d_in && !s_in;
}

}  // namespace

bool Engine::link_blocked(int src, int dst, double t) const {
  for (const auto& w : partitions_)
    if (partition_blocks(w, src, dst, t)) return true;
  return false;
}

double Engine::link_clear_time(int src, int dst, double t) const {
  // Fixed point over possibly-overlapping windows: each pass jumps past
  // every window blocking at the candidate time; windows are finite and
  // each pass strictly advances, so this terminates.
  while (true) {
    double next = t;
    for (const auto& w : partitions_)
      if (partition_blocks(w, src, dst, t)) next = std::max(next, w.heal);
    if (next == t) return t;
    t = next;
  }
}

double Engine::slow_factor(int src, int dst, double t) const {
  if (opts_.fault_plan.slow_links.empty()) return 1.0;
  double f = 1.0;
  for (const auto& w : opts_.fault_plan.slow_links) {
    if (t < w.start || t >= w.end) continue;
    if ((w.src == -1 || w.src == src) && (w.dst == -1 || w.dst == dst))
      f *= w.factor;
  }
  return f;
}

double Engine::p2p_delay(int src, int dst, int bytes, double at) {
  // message_delay first: the jitter draw order must match the un-degraded
  // engine exactly (one draw per transmission, slow links or not).
  return message_delay(bytes) * slow_factor(src, dst, at);
}

double Engine::stall_clear_time(int proc, double t) const {
  while (true) {
    double next = t;
    for (const auto& w : stalls_)
      if (w.proc == proc && t >= w.start && t < w.start + w.duration)
        next = std::max(next, w.start + w.duration);
    if (next == t) return t;
    t = next;
  }
}

// ===========================================================================
// Process advancement
// ===========================================================================

void Engine::advance(int p) {
  Process& proc = *procs_[static_cast<size_t>(p)];
  while (true) {
    if (proc.status != Process::Status::kReady) return;
    if (proc.pause_requested) {
      proc.pause_requested = false;
      proc.status = Process::Status::kPaused;
      proc.paused_since = now_;
      if (driver_ != nullptr) driver_->on_paused(*this, p);
      return;
    }
    const Action action = proc.vm.next();

    if (std::holds_alternative<ActionDone>(action)) {
      proc.status = Process::Status::kDone;
      note(trace::EventKind::kFinish, p, now_);
      return;
    }

    if (const auto* compute = std::get_if<ActionCompute>(&action)) {
      double duration = compute->duration;
      if (!opts_.compute_speed.empty()) {
        const double speed = opts_.compute_speed.at(static_cast<size_t>(p));
        ACFC_CHECK_MSG(speed > 0.0, "compute_speed must be positive");
        duration /= speed;
      }
      if (opts_.compute_jitter > 0.0)
        duration *= 1.0 + net_rng_.uniform(0.0, opts_.compute_jitter);
      wake_at(p, now_ + duration, compute->stmt_uid);
      return;
    }

    if (const auto* send = std::get_if<ActionSend>(&action)) {
      proc.vm.tick();
      const long seq = proc.vm.note_send(send->dest);
      trace::MsgRec msg;
      msg.src = p;
      msg.dst = send->dest;
      msg.tag = send->tag;
      msg.bytes = send->bytes;
      msg.seq = seq;
      msg.send_time = now_;
      msg.send_stmt_uid = send->stmt_uid;
      msg.send_tick = proc.vm.local_tick();
      msg.send_incarnation = incarnation_[static_cast<size_t>(p)];
      if (driver_ != nullptr) msg.piggyback = driver_->piggyback(*this, p);
      const long id = post(std::move(msg), now_);

      ++stats_.app_messages;
      stats_.app_bytes += send->bytes;
      trace::EventRec& rec = note(trace::EventKind::kSend, p, now_);
      rec.stmt_uid = send->stmt_uid;
      rec.msg_id = id;
      rec.peer = send->dest;
      rec.tag = send->tag;
      offer_failure_point(BoundaryKind::kSend, p);
      continue;  // sends are asynchronous
    }

    if (const auto* recv = std::get_if<ActionRecv>(&action)) {
      const auto match = find_matching(p, *recv);
      if (match) {
        proc.pending_recv = *recv;  // complete_recv reads the statement uid
        complete_recv(p, *match);
        continue;
      }
      proc.status = Process::Status::kBlockedRecv;
      proc.pending_recv = *recv;
      return;
    }

    if (const auto* ckpt = std::get_if<ActionCheckpoint>(&action)) {
      const double overhead =
          take_checkpoint(p, ckpt->ckpt_id, /*forced=*/false);
      if (overhead > 0.0) {
        wake_at(p, now_ + overhead);
        return;
      }
      continue;
    }

    // Collective (barrier or bcast).
    start_collective(p, action);
    if (proc.status != Process::Status::kReady) return;
  }
}

std::optional<long> Engine::find_matching(int p, const ActionRecv& want) {
  auto scan_channel = [&](int src) -> std::optional<long> {
    for (const long idx : inbox_[chan_of(src, p)]) {
      const auto& m = trace_.messages[static_cast<size_t>(idx)];
      if (m.tag == want.tag) return idx;
    }
    return std::nullopt;
  };
  if (!want.any_source) return scan_channel(want.src);
  std::optional<long> best;
  for (int src = 0; src < opts_.nprocs; ++src) {
    if (src == p) continue;
    const auto cand = scan_channel(src);
    if (!cand) continue;
    if (!best ||
        trace_.messages[static_cast<size_t>(*cand)].deliver_time <
            trace_.messages[static_cast<size_t>(*best)].deliver_time)
      best = cand;
  }
  return best;
}

void Engine::complete_recv(int p, long msg_index) {
  Process& proc = *procs_[static_cast<size_t>(p)];
  auto& msg = trace_.messages[static_cast<size_t>(msg_index)];
  auto& box = inbox_[chan_of(msg.src, p)];
  box.erase(std::find(box.begin(), box.end(), msg_index));

  proc.vm.tick();
  proc.vm.note_recv(msg.src);
  proc.vm.fold_digest(
      (static_cast<std::uint64_t>(msg.src) << 40) ^
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(msg.tag))
       << 16) ^
      static_cast<std::uint64_t>(msg.seq));
  msg.consumed = true;
  msg.recv_time = now_;
  msg.recv_tick = proc.vm.local_tick();
  msg.recv_incarnation = incarnation_[static_cast<size_t>(p)];
  msg.recv_stmt_uid = proc.pending_recv ? proc.pending_recv->stmt_uid : -1;

  trace::EventRec& rec = note(trace::EventKind::kRecv, p, now_);
  rec.stmt_uid = msg.recv_stmt_uid;
  rec.msg_id = msg.id;
  rec.peer = msg.src;
  rec.tag = msg.tag;
  proc.pending_recv.reset();
  offer_failure_point(BoundaryKind::kRecv, p);
}

void Engine::deliver(long msg_index) {
  auto& msg = trace_.messages[static_cast<size_t>(msg_index)];

  if (msg.control) {
    trace::EventRec& rec =
        note(trace::EventKind::kControlRecv, msg.dst, now_);
    rec.msg_id = msg.id;
    rec.peer = msg.src;
    rec.tag = msg.tag;
    msg.consumed = true;
    msg.recv_time = now_;
    if (driver_ != nullptr)
      driver_->on_control(*this, msg.dst, msg.src, msg.tag, msg.piggyback);
    return;
  }

  if (driver_ != nullptr)
    driver_->before_delivery(*this, msg.dst, msg.src, msg.piggyback);

  inbox_[chan_of(msg.src, msg.dst)].push_back(msg_index);

  Process& proc = *procs_[static_cast<size_t>(msg.dst)];
  if (proc.status == Process::Status::kBlockedRecv) {
    const auto match = find_matching(msg.dst, *proc.pending_recv);
    if (match) {
      proc.status = Process::Status::kReady;
      complete_recv(msg.dst, *match);
      advance(msg.dst);
    }
  }
}

// ===========================================================================
// Checkpoints
// ===========================================================================

double Engine::take_checkpoint(int p, int ckpt_id, bool forced) {
  Process& proc = *procs_[static_cast<size_t>(p)];
  proc.vm.tick();

  const int static_index = model_->static_index(ckpt_id);

  const long instance = proc.vm.note_checkpoint_instance(static_index);

  double overhead = forced ? 0.0 : opts_.checkpoint_overhead;
  double latency = opts_.checkpoint_latency;
  if (opts_.checkpoint_cost_fn) {
    const auto [o, l] = opts_.checkpoint_cost_fn(p);
    overhead = forced ? 0.0 : o;
    latency = l;
  }
  // Real payload capture: hand the full VM state to the storage layer.
  if (opts_.checkpoint_capture_fn)
    opts_.checkpoint_capture_fn(p, proc.vm.state());

  trace::CkptRec rec;
  rec.proc = p;
  rec.ckpt_id = ckpt_id;
  rec.static_index = static_index;
  rec.instance = instance;
  rec.t_begin = now_;
  rec.t_end = now_ + overhead;
  rec.t_commit = now_ + std::max(latency, overhead);
  rec.tick = proc.vm.local_tick();
  rec.incarnation = incarnation_[static_cast<size_t>(p)];
  rec.forced = forced;
  if (opts_.keep_snapshots) {
    rec.snapshot = static_cast<int>(snapshots_.size());
    snapshots_.push_back(EngineSnapshot{
        append_snapshot_image(proc.vm.state(), images_), proc.pending_recv});
  }
  trace_.checkpoints.push_back(rec);

  // Stable-storage bookkeeping: join this trace checkpoint to its write
  // ordinal and apply any declarative storage fault landing on the write.
  const long ordinal = ++take_counts_[static_cast<size_t>(p)];
  bool corrupt = false;
  bool stale = false;
  for (const auto& f : opts_.storage_faults.faults) {
    if (f.proc != p || f.ckpt_ordinal != ordinal) continue;
    if (f.kind == store::StorageFault::Kind::kStaleManifest)
      stale = true;  // transient: heals when a later take publishes
    else
      corrupt = true;  // torn / bit flip / lost entry: permanent
  }
  ckpt_take_ordinal_.push_back(ordinal);
  ckpt_corrupt_.push_back(corrupt ? 1 : 0);
  ckpt_stale_.push_back(stale ? 1 : 0);

  trace::EventRec& ev = note(trace::EventKind::kCheckpoint, p, rec.t_end);
  ev.ckpt_id = ckpt_id;
  ev.ckpt_instance = instance;
  ev.forced = forced;

  (forced ? stats_.forced_checkpoints : stats_.statement_checkpoints)++;
  ++ckpt_counts_[static_cast<size_t>(p)];
  if (driver_ != nullptr) driver_->on_checkpoint(*this, p, forced);
  if (!pending_faults_.empty()) check_checkpoint_faults(p);
  offer_failure_point(BoundaryKind::kCheckpoint, p);
  return overhead;
}

// ===========================================================================
// Collectives (sequence-matched, MPI style)
// ===========================================================================

void Engine::start_collective(int p, const Action& action) {
  Process& proc = *procs_[static_cast<size_t>(p)];
  const long round_index = proc.vm.state().collectives_done;
  const auto round_tag = static_cast<std::uint64_t>(round_index);
  proc.vm.note_collective();
  while (rounds_.size() <= static_cast<size_t>(round_index))
    rounds_.push_back(std::make_unique<CollRound>());
  CollRound& round = *rounds_[static_cast<size_t>(round_index)];
  if (round.kind == CollRound::Kind::kNone) {
    round.joined.assign(static_cast<size_t>(opts_.nprocs), 0);
    round.join_time.assign(static_cast<size_t>(opts_.nprocs), 0.0);
    round.join_tick.assign(static_cast<size_t>(opts_.nprocs), 0);
    round.join_incarnation.assign(static_cast<size_t>(opts_.nprocs), 0);
    round.stmt_uid.assign(static_cast<size_t>(opts_.nprocs), -1);
  }

  proc.vm.tick();
  // The first member to join fixes the round's kind, root and size; every
  // later member must agree (sequence matching, as in MPI).
  CollRound::Kind kind = CollRound::Kind::kBarrier;
  int root = -1;
  int bytes = 0;
  int stmt_uid = -1;
  const char* mismatch = "barrier joined a non-barrier round";
  if (const auto* barrier = std::get_if<ActionBarrier>(&action)) {
    stmt_uid = barrier->stmt_uid;
  } else if (const auto* allreduce = std::get_if<ActionAllreduce>(&action)) {
    kind = CollRound::Kind::kAllreduce;
    bytes = allreduce->bytes;
    stmt_uid = allreduce->stmt_uid;
    mismatch = "allreduce joined a different round";
  } else if (const auto* reduce = std::get_if<ActionReduce>(&action)) {
    kind = CollRound::Kind::kReduce;
    root = reduce->root;
    bytes = reduce->bytes;
    stmt_uid = reduce->stmt_uid;
    mismatch = "inconsistent reduce round";
  } else {
    const auto& bcast = std::get<ActionBcast>(action);
    kind = CollRound::Kind::kBcast;
    root = bcast.root;
    bytes = bcast.bytes;
    stmt_uid = bcast.stmt_uid;
    mismatch = "inconsistent bcast round";
  }
  if (round.kind == CollRound::Kind::kNone) {
    round.kind = kind;
    round.root = root;
    round.bytes = bytes;
  }
  if (round.kind != kind || round.root != root)
    throw util::ProgramError(std::string("collective mismatch: ") + mismatch);

  round.joined[static_cast<size_t>(p)] = 1;
  round.join_time[static_cast<size_t>(p)] = now_;
  round.join_tick[static_cast<size_t>(p)] = proc.vm.local_tick();
  round.join_incarnation[static_cast<size_t>(p)] =
      incarnation_[static_cast<size_t>(p)];
  round.stmt_uid[static_cast<size_t>(p)] = stmt_uid;
  ++round.joined_count;
  const bool all_joined = round.joined_count == opts_.nprocs;

  if (kind == CollRound::Kind::kReduce) {
    // Contributors proceed immediately; the root blocks for everyone.
    if (p != root) {
      proc.vm.fold_digest(0x5edce001ULL + round_tag);
      note(trace::EventKind::kCollective, p, now_).stmt_uid = stmt_uid;
      // Contribution sent asynchronously; this process stays kReady and
      // advance() continues — unless it completes a round the root waits
      // on.
      if (!all_joined || procs_[static_cast<size_t>(root)]->status !=
                             Process::Status::kBlockedColl)
        return;
    } else if (!all_joined) {
      proc.status = Process::Status::kBlockedColl;
      return;
    }
    const double release = round.last_join() + message_delay(round.bytes);
    Process& root_proc = *procs_[static_cast<size_t>(root)];
    note_release(round, root);
    root_proc.vm.fold_digest(0x5edce000ULL + round_tag);
    note(trace::EventKind::kCollective, root, release).stmt_uid =
        round.stmt_uid[static_cast<size_t>(root)];
    wake_at(root, release);
    round.released = true;
    return;
  }

  if (kind == CollRound::Kind::kBarrier ||
      kind == CollRound::Kind::kAllreduce) {
    proc.status = Process::Status::kBlockedColl;
    if (!all_joined) return;
    const double release = round.last_join() + message_delay(round.bytes);
    for (int q = 0; q < opts_.nprocs; ++q) {
      // A member that crashed after joining stays dead: its recorded
      // join still releases the others, but its own state is frozen
      // until a detector verdict rolls everyone back.
      if (crashed_[static_cast<size_t>(q)]) continue;
      Process& member = *procs_[static_cast<size_t>(q)];
      member.vm.tick();
      note_release(round, q);
      member.vm.fold_digest(0xbaff1e00ULL + round_tag);
      note(trace::EventKind::kCollective, q, release).stmt_uid =
          round.stmt_uid[static_cast<size_t>(q)];
      wake_at(q, release);
    }
    round.released = true;
    return;
  }

  // Bcast: the root proceeds immediately; receivers wait for the root.
  const auto receive_bcast = [&](int q, double release) {
    Process& member = *procs_[static_cast<size_t>(q)];
    note_release(round, q);
    member.vm.fold_digest(0xbca57001ULL + round_tag);
    note(trace::EventKind::kCollective, q, release).stmt_uid =
        round.stmt_uid[static_cast<size_t>(q)];
  };
  if (p == root) {
    round.root_joined = true;
    round.root_ready = now_ + message_delay(round.bytes);
    proc.vm.fold_digest(0xbca57000ULL + round_tag);
    note(trace::EventKind::kCollective, p, now_).stmt_uid = stmt_uid;
    // Release receivers that were already waiting.
    for (int q = 0; q < opts_.nprocs; ++q) {
      if (q == p || !round.joined[static_cast<size_t>(q)] ||
          procs_[static_cast<size_t>(q)]->status !=
              Process::Status::kBlockedColl)
        continue;
      const double release =
          std::max(round.join_time[static_cast<size_t>(q)], round.root_ready);
      receive_bcast(q, release);
      wake_at(q, release);
    }
    // The root continues synchronously (advance() keeps looping).
    proc.status = Process::Status::kReady;
    return;
  }

  if (round.root_joined) {
    const double release = std::max(now_, round.root_ready);
    receive_bcast(p, release);
    if (release > now_) wake_at(p, release);
    return;  // if release == now_, stays kReady and advance() continues
  }

  proc.status = Process::Status::kBlockedColl;
}

void Engine::note_release(CollRound& round, int q) {
  const auto n = static_cast<size_t>(opts_.nprocs);
  if (round.record < 0) {
    const trace::CollRec rec{round.kind, round.root,
                             trace_.coll_members.size()};
    round.record = static_cast<long>(trace_.collectives.size());
    trace_.collectives.push_back(rec);
    trace_.coll_members.resize(rec.members + n);
    // A bcast carries the root's join; the other kinds carry every join.
    for (size_t s = 0; s < n; ++s) {
      const bool source = round.kind == CollRound::Kind::kBcast
                              ? static_cast<int>(s) == round.root
                              : round.joined[s] != 0;
      if (!source) continue;
      trace::CollMember& member = trace_.coll_members[rec.members + s];
      member.join = round.join_tick[s];
      member.join_incarnation = round.join_incarnation[s];
    }
  }
  const std::size_t at =
      trace_.collectives[static_cast<size_t>(round.record)].members +
      static_cast<size_t>(q);
  trace_.coll_members[at].release =
      procs_[static_cast<size_t>(q)]->vm.local_tick() + 1;
  trace_.coll_members[at].release_incarnation =
      incarnation_[static_cast<size_t>(q)];
}

// ===========================================================================
// Failures and recovery
// ===========================================================================

bool Engine::degraded_selection_active() const {
  return opts_.verify_stored_checkpoints &&
         (!opts_.storage_faults.empty() ||
          static_cast<bool>(opts_.checkpoint_verify_fn));
}

bool Engine::checkpoint_usable(int ckpt_index) const {
  const auto i = static_cast<size_t>(ckpt_index);
  if (ckpt_corrupt_[i]) return false;
  const auto& ckpt = trace_.checkpoints[i];
  // A stale manifest hides its record only while it is still the process's
  // newest write — the next successful publish covers it.
  if (ckpt_stale_[i] &&
      take_counts_[static_cast<size_t>(ckpt.proc)] == ckpt_take_ordinal_[i])
    return false;
  if (opts_.checkpoint_verify_fn &&
      !opts_.checkpoint_verify_fn(ckpt.proc, ckpt_take_ordinal_[i]))
    return false;
  return true;
}

void Engine::handle_failure(int proc) {
  if (all_done()) return;
  if (supervised_) {
    // Supervised mode: the crash only marks the process dead. Recovery
    // waits for an in-model verdict (supervised_restart / quarantine) —
    // detection is a protocol event, not engine omniscience.
    supervised_crash(proc);
    return;
  }
  perform_rollback(proc);
}

void Engine::supervised_crash(int p) {
  Process& proc = *procs_[static_cast<size_t>(p)];
  if (crashed_[static_cast<size_t>(p)] ||
      quarantined_[static_cast<size_t>(p)] ||
      proc.status == Process::Status::kDone)
    return;
  crashed_[static_cast<size_t>(p)] = 1;
  crash_time_[static_cast<size_t>(p)] = now_;
  proc.status = Process::Status::kCrashed;
  // No kFailure trace event here: the trace's kFailure records map 1:1 to
  // RecoveryRecs (check_cic_index_invariant relies on it), and a
  // supervised crash has no rollback yet — perform_rollback emits both.
}

void Engine::perform_rollback(int failed_proc) {
  ++stats_.restarts;
  note(trace::EventKind::kFailure, failed_proc, now_);

  // Select the maximal recovery line over everything on stable storage.
  // Under degraded selection, unverifiable records are excluded from the
  // candidate set up front — the chosen cut is the deepest consistent one
  // whose every member verifies, and corruption NEVER re-enters rollback:
  // it is resolved inside this one selection, no recursive restart.
  trace::CkptUsableFn usable;
  if (degraded_selection_active())
    usable = [this](int ckpt_index) { return checkpoint_usable(ckpt_index); };
  const trace::RecoveryLine line =
      trace::max_recovery_line(trace_, now_, usable);
  ACFC_CHECK_MSG(line.consistent, "recovery line selection failed");

  RecoveryRec record;
  record.failed_proc = failed_proc;
  record.fail_time = now_;
  record.cut = line.cut;
  record.rollbacks = line.rollbacks;
  record.lost_work = line.lost_work;
  for (int p = 0; p < opts_.nprocs; ++p) {
    const auto sp = static_cast<size_t>(p);
    record.corrupt_records_skipped += line.skipped_unusable[sp];
    record.fallback_depth =
        std::max(record.fallback_depth,
                 line.rollbacks[sp] + line.skipped_unusable[sp]);
  }
  record.degraded = record.corrupt_records_skipped > 0;

  ++epoch_;
  for (auto& box : inbox_) box.clear();
  if (opts_.delay.lossy()) reset_transport();

  // Every process restarts after the uniform restart delay R.
  const double resume_at = now_ + opts_.recovery_overhead;
  record.resume_time = resume_at;

  // FIFO floors: nothing may be delivered to a process before it restarts.
  std::fill(channel_last_deliver_.begin(), channel_last_deliver_.end(),
            resume_at);
  std::fill(control_last_deliver_.begin(), control_last_deliver_.end(),
            resume_at);

  // Restore every process. Quarantined processes stay retired: no restore,
  // no restart event — their pre-crash sends are still replayed below so
  // survivors keep whatever progress those messages enable.
  for (int p = 0; p < opts_.nprocs; ++p) {
    Process& proc = *procs_[static_cast<size_t>(p)];
    if (quarantined_[static_cast<size_t>(p)]) continue;
    const int member = line.cut.member[static_cast<size_t>(p)];
    if (member < 0) {
      proc.vm.reset();
      proc.pending_recv.reset();
    } else {
      const auto& ckpt = trace_.checkpoints[static_cast<size_t>(member)];
      ACFC_CHECK_MSG(ckpt.snapshot >= 0,
                     "recovery needs keep_snapshots=true");
      const EngineSnapshot& snap =
          snapshots_[static_cast<size_t>(ckpt.snapshot)];
      read_snapshot_image(images_.data() + snap.offset,
                          proc.vm.mutable_state());
      proc.pending_recv = snap.pending_recv;
    }
    // Rewind the completed-checkpoint tally to the restored state so that
    // checkpoint_count() (CIC piggybacks) reflects the new incarnation.
    long restored_ckpts = 0;
    for (const auto& entry : proc.vm.state().ckpt_instances.entries)
      restored_ckpts += entry.value;
    ckpt_counts_[static_cast<size_t>(p)] = restored_ckpts;
    proc.pending_compute_uid = -1;
    proc.pause_requested = false;
    crashed_[static_cast<size_t>(p)] = 0;
    crash_time_[static_cast<size_t>(p)] = 0.0;
    proc.status = proc.pending_recv ? Process::Status::kBlockedRecv
                                    : Process::Status::kReady;
    ++incarnation_[static_cast<size_t>(p)];
    trace_.restores.push_back(
        {p, incarnation_[static_cast<size_t>(p)], member,
         proc.vm.local_tick()});
    note(trace::EventKind::kRestart, p, resume_at);
    if (proc.status == Process::Status::kReady)
      push_event(resume_at, EvKind::kWake, p);
  }

  reset_collectives_for_rollback();

  // Sender-based message log replay: re-inject messages that were sent
  // before the sender's cut point but not consumed before the receiver's
  // (in-transit across the recovery line). Channel sequence numbers from
  // the snapshots identify them exactly. Replays depart at the source's
  // restart time through the same path as any send; on the lossy wire
  // the shim's cleared sequence space re-delivers them exactly once.
  for (int src = 0; src < opts_.nprocs; ++src) {
    for (int dst = 0; dst < opts_.nprocs; ++dst) {
      if (src == dst) continue;
      const long sent = procs_[static_cast<size_t>(src)]
                            ->vm.state()
                            .sends_per_channel[static_cast<size_t>(dst)];
      const long consumed = procs_[static_cast<size_t>(dst)]
                                ->vm.state()
                                .recvs_per_channel[static_cast<size_t>(src)];
      for (long seq = consumed + 1; seq <= sent; ++seq) {
        // Latest log entry for (src, dst, seq) — re-sends after earlier
        // rollbacks carry identical logical content.
        const trace::MsgRec* logged = nullptr;
        for (const auto& m : trace_.messages)
          if (!m.control && m.src == src && m.dst == dst && m.seq == seq)
            logged = &m;
        ACFC_CHECK_MSG(logged != nullptr, "message log miss during replay");
        trace::MsgRec copy = *logged;
        copy.consumed = false;
        copy.recv_time = -1.0;
        copy.recv_stmt_uid = -1;
        copy.replayed = true;
        post(std::move(copy), resume_at);
        ++record.replayed_messages;
      }
    }
  }

  recoveries_.push_back(std::move(record));
  if (driver_ != nullptr)
    driver_->on_rollback(*this, failed_proc, resume_at);
}

// ===========================================================================
// Supervised failure mode (detector verdicts instead of engine fiat)
// ===========================================================================

bool Engine::is_crashed(int proc) const {
  return crashed_[static_cast<size_t>(proc)] != 0;
}

bool Engine::is_quarantined(int proc) const {
  return quarantined_[static_cast<size_t>(proc)] != 0;
}

bool Engine::is_blocked(int proc) const {
  const auto status = procs_[static_cast<size_t>(proc)]->status;
  return status == Process::Status::kBlockedRecv ||
         status == Process::Status::kBlockedColl;
}

double Engine::crash_time(int proc) const {
  return crash_time_[static_cast<size_t>(proc)];
}

void Engine::quarantine(int p) {
  if (quarantined_[static_cast<size_t>(p)]) return;
  quarantined_[static_cast<size_t>(p)] = 1;
  if (!crashed_[static_cast<size_t>(p)]) {
    crashed_[static_cast<size_t>(p)] = 1;
    crash_time_[static_cast<size_t>(p)] = now_;
  }
  Process& proc = *procs_[static_cast<size_t>(p)];
  if (proc.status != Process::Status::kDone)
    proc.status = Process::Status::kCrashed;
  ++stats_.quarantines;
}

void Engine::supervised_restart(int proc, double detected_at) {
  if (all_done() || quarantined_[static_cast<size_t>(proc)]) return;
  const bool was_crashed = crashed_[static_cast<size_t>(proc)] != 0;
  const double crashed_at = crash_time_[static_cast<size_t>(proc)];
  const size_t before = recoveries_.size();
  perform_rollback(proc);
  if (recoveries_.size() > before) {
    RecoveryRec& rec = recoveries_.back();
    if (was_crashed) {
      rec.detection_latency =
          (detected_at >= 0.0 ? detected_at : rec.fail_time) - crashed_at;
      rec.downtime = rec.resume_time - crashed_at;
    } else {
      rec.false_suspicion = true;  // live subject: safe, but a full rollback
    }
    ++stats_.supervised_restarts;
  }
}

void Engine::note_detector_suspicion(bool false_positive) {
  ++stats_.suspicions;
  if (false_positive) ++stats_.false_suspicions;
}

std::uint64_t Engine::progress_stamp() const {
  // Local ticks advance on application events only — heartbeat ping-pong
  // alone does not count as progress.
  std::uint64_t sum = 0;
  for (const auto& proc : procs_) sum += proc->vm.local_tick();
  return sum;
}

void Engine::reset_collectives_for_rollback() {
  // After the VMs are restored, every collective round must reflect the
  // join state of the restored counters: a process whose restored
  // collectives_done is ≤ the round index will re-execute its join, so its
  // recorded join is cleared; processes already past the round keep their
  // recorded joins (a re-executing reduce root still needs the
  // contributions of members who never rolled back). Checkpoints are
  // statement-boundary snapshots, so restored states are never mid-round.
  for (size_t i = 0; i < rounds_.size(); ++i) {
    CollRound& round = *rounds_[i];
    if (round.kind == CollRound::Kind::kNone) continue;
    const auto round_index = static_cast<long>(i);
    bool any_rejoin = false;
    for (int p = 0; p < opts_.nprocs; ++p) {
      const bool rejoins =
          procs_[static_cast<size_t>(p)]->vm.state().collectives_done <=
          round_index;
      if (!rejoins) continue;
      any_rejoin = true;
      if (round.joined[static_cast<size_t>(p)]) {
        round.joined[static_cast<size_t>(p)] = 0;
        --round.joined_count;
      }
      if (round.root == p) {
        round.root_joined = false;
        round.root_ready = 0.0;
      }
    }
    if (!any_rejoin) continue;
    round.record = -1;  // a re-release is a new trace record
    if (round.joined_count == 0) {
      // Everyone re-executes this round: start it from scratch.
      round.reset();
      continue;
    }
    if (round.kind == CollRound::Kind::kBarrier ||
        round.kind == CollRound::Kind::kAllreduce) {
      // All-merge rounds cannot be straddled by a consistent cut: either
      // every member re-executes (handled above) or none does. A partial
      // rejoin would deadlock the re-executing members.
      throw util::ProgramError(
          "rollback restored a cut straddling an all-merge collective "
          "round — the recovery line is not consistent with the round");
    }
    // Reduce/bcast rounds may be re-released when the re-executing side
    // (root or contributors) rejoins; the recorded joins of members that
    // stayed past the round feed the re-release.
    round.released = false;
  }
}

// ===========================================================================
// Reliable transport over a lossy wire
// ===========================================================================
//
// Per ordered channel (src, dst): the sender stamps each payload with the
// next sequence number and keeps it in an unacked window; every arrival at
// the receiver triggers a cumulative ack (next in-order seq expected); an
// exponential-backoff RTO retransmits unacked payloads up to a retry cap.
// The receiver buffers out-of-order arrivals and releases them in sequence
// order, suppressing duplicates — so the layers above (deliver(), the
// drivers, the VMs) observe exactly the reliable FIFO channel the system
// model of Section 2 assumes, just later and with retransmit traffic.

namespace {

constexpr double kInitialRto = 0.05;   ///< first retransmit timeout (s)
constexpr double kRtoBackoff = 2.0;    ///< RTO multiplier per retry
constexpr int kAckBytes = 8;           ///< wire size of a cumulative ack
constexpr double kReorderExtra = 0.05; ///< bound of a detour's delay (s)

}  // namespace

void Engine::xport_send(long msg_index, double at) {
  auto& msg = trace_.messages[static_cast<size_t>(msg_index)];
  const size_t chan = chan_of(msg.src, msg.dst);
  XportChan& ch = xport_[chan];
  msg.xport_seq = ch.next_seq++;
  ch.unacked.insert(msg.xport_seq,
                    XportChan::Unacked{msg_index, 0, kInitialRto});
  ++stats_.transport_sends;
  xport_transmit(chan, msg.xport_seq, at);
  push_event(at + kInitialRto, EvKind::kRto, msg.src,
             static_cast<long>(chan), msg.xport_seq);
}

void Engine::xport_transmit(std::size_t chan, long seq, double at) {
  const auto* entry = xport_[chan].unacked.find(seq);
  ACFC_CHECK_MSG(entry != nullptr,
                 "transmit of an unknown transport sequence number");
  const auto& msg = trace_.messages[static_cast<size_t>(entry->msg_index)];
  if (link_blocked(msg.src, msg.dst, at)) {
    // A cut link eats the attempt wholesale; the armed RTO keeps retrying,
    // so retransmissions carry the payload across the heal — this is the
    // "partition-heal replay through the reliable shim". A partition that
    // outlasts the retry cap abandons the payload like any dead peer.
    ++stats_.partition_dropped_attempts;
    return;
  }
  int copies = 1;
  if (net_rng_.bernoulli(opts_.delay.drop)) {
    copies = 0;
    ++stats_.transport_dropped;
  } else if (opts_.delay.dup > 0.0 && net_rng_.bernoulli(opts_.delay.dup)) {
    copies = 2;
  }
  for (int c = 0; c < copies; ++c)
    push_event(wire_arrival(msg.src, msg.dst, msg.bytes, at),
               EvKind::kNetArrive, msg.dst, msg.id);
}

double Engine::wire_arrival(int src, int dst, int bytes, double at) {
  double d = p2p_delay(src, dst, bytes, at);
  if (opts_.delay.reorder > 0.0 && net_rng_.bernoulli(opts_.delay.reorder))
    d += net_rng_.uniform(0.0, kReorderExtra);
  // channel_last_deliver_ is the receiver-restart floor here (set by
  // perform_rollback), not a FIFO chain — ordering comes from seq numbers.
  return std::max(at + d, channel_last_deliver_[chan_of(src, dst)]);
}

void Engine::handle_net_arrive(long msg_index) {
  const auto& arrived = trace_.messages[static_cast<size_t>(msg_index)];
  const size_t chan = chan_of(arrived.src, arrived.dst);
  XportChan& ch = xport_[chan];
  const long seq = arrived.xport_seq;
  if (seq < ch.next_expected || ch.reorder_buf.contains(seq)) {
    ++stats_.transport_dup_arrivals;  // retransmit or wire-duplicate copy
  } else {
    ch.reorder_buf.insert(seq, msg_index);
    stats_.transport_reorder_high_water =
        std::max(stats_.transport_reorder_high_water,
                 static_cast<long>(ch.reorder_buf.size()));
    // Release the in-order prefix. deliver() may run the receiver, which
    // may send (growing trace_.messages) — re-look-up each iteration.
    while (true) {
      const long* ready = ch.reorder_buf.find(ch.next_expected);
      if (ready == nullptr) break;
      const long idx = *ready;
      ch.reorder_buf.erase_below(ch.next_expected + 1);
      ++ch.next_expected;
      trace_.messages[static_cast<size_t>(idx)].deliver_time = now_;
      deliver(idx);
    }
  }
  send_xport_ack(chan);
}

void Engine::send_xport_ack(std::size_t chan) {
  XportChan& ch = xport_[chan];
  const auto n = static_cast<size_t>(opts_.nprocs);
  const int data_src = static_cast<int>(chan / n);
  const int data_dst = static_cast<int>(chan % n);
  if (link_blocked(data_dst, data_src, now_)) {
    ++stats_.partition_dropped_attempts;  // acks cross the same cut
    return;
  }
  ++stats_.transport_acks;
  if (net_rng_.bernoulli(opts_.delay.drop)) {
    ++stats_.transport_dropped;  // acks ride the same lossy wire
    return;
  }
  push_event(wire_arrival(data_dst, data_src, kAckBytes, now_), EvKind::kAck,
             data_src, static_cast<long>(chan), ch.next_expected);
}

void Engine::handle_ack(std::size_t chan, long upto) {
  XportChan& ch = xport_[chan];
  ch.unacked.erase_below(upto);
  ch.acked_upto = std::max(ch.acked_upto, upto);
}

void Engine::handle_rto(std::size_t chan, long seq) {
  XportChan& ch = xport_[chan];
  XportChan::Unacked* entry = ch.unacked.find(seq);
  if (entry == nullptr) return;  // acked meanwhile
  if (entry->retries >= opts_.transport.max_retries) {
    ++stats_.transport_give_ups;
    ch.unacked.erase(seq);  // abandoned; the run may end incomplete
    return;
  }
  ++entry->retries;
  ++stats_.transport_retransmits;
  if (entry->retries >= 2) ++stats_.transport_rto_backoffs;
  entry->rto *= kRtoBackoff;
  const double next_rto = entry->rto;
  const int owner =
      static_cast<int>(chan / static_cast<size_t>(opts_.nprocs));
  xport_transmit(chan, seq, now_);
  push_event(now_ + next_rto, EvKind::kRto, owner,
             static_cast<long>(chan), seq);
}

void Engine::reset_transport() {
  // After a rollback every in-flight attempt, ack, and armed RTO died with
  // the epoch bump; replays re-enter through xport_send with fresh
  // sequence numbers. The rings keep their slot capacity — later traffic
  // reuses it. Empty (nothing to reset) on the reliable fast path.
  for (XportChan& ch : xport_) {
    ch.next_seq = 0;
    ch.next_expected = 0;
    ch.acked_upto = 0;
    ch.unacked.clear();
    ch.reorder_buf.clear();
  }
}

// ===========================================================================
// Driver API
// ===========================================================================

void Engine::schedule_timer(int proc, double time, int timer_id) {
  push_event(std::max(time, now_), EvKind::kTimer, proc, timer_id);
}

void Engine::send_control(int src, int dst, int bytes, int kind,
                          long payload) {
  ACFC_CHECK_MSG(src != dst, "control self-send");
  if (crashed_[static_cast<size_t>(src)]) {
    // A dead process cannot send; supervised drivers normally never get
    // here (their per-proc timers are dropped), but relaying handlers may.
    ++stats_.crash_dropped_events;
    return;
  }
  trace::MsgRec msg;
  msg.src = src;
  msg.dst = dst;
  msg.tag = kind;
  msg.bytes = bytes;
  msg.control = true;
  msg.piggyback = payload;
  msg.send_time = now_;
  const long id = post(std::move(msg), now_);

  ++stats_.control_messages;
  stats_.control_bytes += bytes;
  trace::EventRec& rec = note(trace::EventKind::kControlSend, src, now_);
  rec.msg_id = id;
  rec.peer = dst;
  rec.tag = kind;
}

void Engine::force_checkpoint(int proc) {
  if (crashed_[static_cast<size_t>(proc)]) return;  // dead: nothing to save
  take_checkpoint(proc, /*ckpt_id=*/-1, /*forced=*/true);
}

long Engine::checkpoint_count(int proc) const {
  return ckpt_counts_.at(static_cast<size_t>(proc));
}

void Engine::request_pause(int proc) {
  Process& p = *procs_[static_cast<size_t>(proc)];
  if (p.status == Process::Status::kDone ||
      p.status == Process::Status::kPaused ||
      p.status == Process::Status::kCrashed)
    return;
  if (p.status == Process::Status::kReady) {
    // Not mid-action: pause immediately.
    p.status = Process::Status::kPaused;
    p.paused_since = now_;
    if (driver_ != nullptr) driver_->on_paused(*this, proc);
    return;
  }
  if (p.status == Process::Status::kBlockedRecv ||
      p.status == Process::Status::kBlockedColl) {
    // Blocked processes are already quiescent: acknowledge now, but also
    // arm the boundary pause so that an unblocking delivery does not let
    // the process run on mid-round. Drivers must deduplicate on_paused.
    p.pause_requested = true;
    p.paused_since = now_;
    if (driver_ != nullptr) driver_->on_paused(*this, proc);
    return;
  }
  p.pause_requested = true;  // pause at the next action boundary
}

void Engine::resume(int proc) {
  Process& p = *procs_[static_cast<size_t>(proc)];
  if (p.status == Process::Status::kPaused) {
    stats_.paused_time += now_ - p.paused_since;
    p.status = Process::Status::kReady;
    push_event(now_, EvKind::kWake, proc);
  }
  p.pause_requested = false;
}

bool Engine::is_paused(int proc) const {
  return procs_[static_cast<size_t>(proc)]->status ==
         Process::Status::kPaused;
}

bool Engine::is_done(int proc) const {
  return procs_[static_cast<size_t>(proc)]->status == Process::Status::kDone;
}

bool Engine::all_done() const {
  for (const auto& proc : procs_)
    if (proc->status != Process::Status::kDone) return false;
  return true;
}

// ===========================================================================
// Schedule-state hashing (explorer memoization)
// ===========================================================================

namespace {

/// splitmix64-style stream mixer: order-sensitive, 64-bit.
struct StateMix {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  void mix(std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 29;
  }
};

/// One-shot avalanche for commutative (summed) combination of set members.
std::uint64_t avalanche(std::uint64_t v) {
  v ^= v >> 33;
  v *= 0xff51afd7ed558ccdULL;
  v ^= v >> 33;
  v *= 0xc4ceb9fe1a85ec53ULL;
  v ^= v >> 33;
  return v;
}

/// Times are hashed RELATIVE to now and quantized to nanoseconds, so two
/// states reached at different absolute times but with identical pending
/// futures collide (that is the abstraction the memoization wants).
std::uint64_t quantize_rel(double t, double now) {
  const double rel = t - now;
  return static_cast<std::uint64_t>(
      std::llround(std::max(rel, 0.0) * 1e9));
}

}  // namespace

std::uint64_t Engine::schedule_state_hash() const {
  StateMix mix;
  const auto n = static_cast<size_t>(opts_.nprocs);
  mix.mix(n);

  for (size_t p = 0; p < n; ++p) {
    const Process& proc = *procs_[p];
    const VmSnapshot& st = proc.vm.state();
    mix.mix(st.digest);
    mix.mix(static_cast<std::uint64_t>(proc.status));
    mix.mix(st.collectives_done);
    mix.mix(st.tick);
    for (const long s : st.sends_per_channel)
      mix.mix(static_cast<std::uint64_t>(s));
    for (const long r : st.recvs_per_channel)
      mix.mix(static_cast<std::uint64_t>(r));
    mix.mix(static_cast<std::uint64_t>(ckpt_counts_[p]));
    mix.mix(static_cast<std::uint64_t>(take_counts_[p]));
    if (proc.pending_recv) {
      mix.mix(0xb10cULL);
      mix.mix(static_cast<std::uint64_t>(proc.pending_recv->src + 1));
      mix.mix(static_cast<std::uint64_t>(
          static_cast<std::uint32_t>(proc.pending_recv->tag)));
      mix.mix(proc.pending_recv->any_source ? 1 : 0);
    }
    mix.mix(proc.pause_requested ? 2 : 3);
    mix.mix(crashed_[p] ? 41 : 43);
    mix.mix(quarantined_[p] ? 47 : 53);
  }

  // Delivered-but-unconsumed messages, by logical identity (src, dst, tag,
  // seq, piggyback) — never by physical msg id, which differs between
  // schedules that reached the same logical state along different routes.
  for (size_t chan = 0; chan < inbox_.size(); ++chan) {
    mix.mix(0x1b0 + chan);
    for (const long idx : inbox_[chan]) {
      const trace::MsgRec& m = trace_.messages[static_cast<size_t>(idx)];
      mix.mix(static_cast<std::uint64_t>(
          static_cast<std::uint32_t>(m.tag)));
      mix.mix(static_cast<std::uint64_t>(m.seq));
      mix.mix(static_cast<std::uint64_t>(m.piggyback));
    }
  }

  // Checkpoint store: what recovery could restore to.
  mix.mix(trace_.checkpoints.size());
  for (size_t i = 0; i < trace_.checkpoints.size(); ++i) {
    const trace::CkptRec& c = trace_.checkpoints[i];
    mix.mix(static_cast<std::uint64_t>(c.proc));
    mix.mix(static_cast<std::uint64_t>(c.instance));
    mix.mix(static_cast<std::uint64_t>(c.static_index + 2));
    mix.mix(quantize_rel(c.t_commit, now_));
    mix.mix((i < ckpt_corrupt_.size() && ckpt_corrupt_[i]) ? 5 : 7);
    mix.mix((i < ckpt_stale_.size() && ckpt_stale_[i]) ? 11 : 13);
  }

  for (const PendingFault& pf : pending_faults_) mix.mix(pf.fired ? 17 : 19);

  // Active or future gray-failure windows constrain upcoming schedules;
  // expired ones drop out (relative-time hashing distinguishes a state
  // before a window from the same local state after it).
  const auto mix_partition = [&](const PartitionSpec& w) {
    if (w.heal <= now_) return;
    mix.mix(0xcafeULL);
    mix.mix(quantize_rel(std::max(w.start, now_), now_));
    mix.mix(quantize_rel(w.heal, now_));
    mix.mix(w.symmetric ? 59 : 61);
    for (const int g : w.group) mix.mix(static_cast<std::uint64_t>(g + 1));
  };
  for (const auto& w : partitions_) mix_partition(w);
  const auto mix_stall = [&](const StallSpec& w) {
    if (w.start + w.duration <= now_) return;
    mix.mix(0x57a1ULL);
    mix.mix(static_cast<std::uint64_t>(w.proc + 1));
    mix.mix(quantize_rel(std::max(w.start, now_), now_));
    mix.mix(quantize_rel(w.start + w.duration, now_));
  };
  for (const auto& w : stalls_) mix_stall(w);
  for (const auto& w : opts_.fault_plan.slow_links) {
    if (w.end <= now_) continue;
    mix.mix(0x510eULL);
    mix.mix(static_cast<std::uint64_t>(w.src + 2));
    mix.mix(static_cast<std::uint64_t>(w.dst + 2));
    mix.mix(quantize_rel(w.end, now_));
    mix.mix(static_cast<std::uint64_t>(std::llround(w.factor * 1e6)));
  }

  // FIFO floors still in the future constrain upcoming deliveries.
  for (const double floor : channel_last_deliver_)
    mix.mix(quantize_rel(floor, now_));
  for (const double floor : control_last_deliver_)
    mix.mix(quantize_rel(floor, now_));

  // The live event queue: a commutative sum of per-event hashes, because
  // EventQueue::for_each visits heap-array order, which may differ
  // between two logically identical queues.
  std::uint64_t queue_sum = 0;
  std::uint64_t queue_count = 0;
  queue_.for_each([&](const Ev& ev) {
    if (!event_live(ev)) return;
    StateMix em;
    em.mix(static_cast<std::uint64_t>(ev.kind));
    em.mix(static_cast<std::uint64_t>(ev.proc + 1));
    em.mix(quantize_rel(ev.time, now_));
    switch (ev.kind) {
      case EvKind::kDeliver: {
        const trace::MsgRec& m =
            trace_.messages[static_cast<size_t>(ev.a)];
        em.mix(static_cast<std::uint64_t>(m.src + 1));
        em.mix(static_cast<std::uint64_t>(m.dst + 1));
        em.mix(static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(m.tag)));
        em.mix(static_cast<std::uint64_t>(m.seq));
        em.mix(m.control ? 23 : 29);
        em.mix(static_cast<std::uint64_t>(m.piggyback));
        break;
      }
      case EvKind::kTimer:
        em.mix(static_cast<std::uint64_t>(ev.a));
        break;
      case EvKind::kFailure:
        em.mix(static_cast<std::uint64_t>(ev.proc + 1));
        break;
      default:
        break;
    }
    queue_sum += avalanche(em.h);
    ++queue_count;
  });
  mix.mix(queue_count);
  mix.mix(queue_sum);

  // Partially-joined collective rounds gate future releases.
  for (size_t i = 0; i < rounds_.size(); ++i) {
    const CollRound& round = *rounds_[i];
    if (round.kind == CollRound::Kind::kNone) continue;
    mix.mix(i);
    mix.mix(static_cast<std::uint64_t>(round.kind));
    mix.mix(static_cast<std::uint64_t>(round.joined_count));
    mix.mix(round.released ? 31 : 37);
    for (size_t p = 0; p < round.joined.size(); ++p)
      if (round.joined[p]) {
        mix.mix(p + 1);
        mix.mix(quantize_rel(round.join_time[p], now_));
      }
  }
  return mix.h;
}

// ===========================================================================
// Observability flush
// ===========================================================================

// Everything here is end-of-run: the simulation loop itself maintains only
// its plain SimStats counters and the queue's high-water mark, and this one
// pass converts them (plus the trace and recovery records) into registry
// metrics and spans. That keeps the instrumented-but-idle cost of the hot
// loop at exactly zero and makes the flush a deterministic function of the
// run.
void Engine::flush_obs() {
  obs::Registry* reg = opts_.obs;
  if (reg == nullptr) return;

  const auto set = [reg](const char* name, long long v, const char* unit,
                         const char* layer) {
    reg->counter(name, {unit, layer}).inc(v);
  };
  set("engine.events_processed", stats_.events_processed, "events", "engine");
  set("engine.checkpoints_statement", stats_.statement_checkpoints, "takes",
      "engine");
  set("engine.checkpoints_forced", stats_.forced_checkpoints, "takes",
      "engine");
  set("engine.restarts", stats_.restarts, "restarts", "engine");
  set("engine.recoveries", static_cast<long long>(recoveries_.size()),
      "rollbacks", "engine");
  set("engine.app_messages", stats_.app_messages, "messages", "engine");
  set("engine.app_bytes", stats_.app_bytes, "bytes", "engine");
  set("engine.control_messages", stats_.control_messages, "messages",
      "engine");
  set("engine.control_bytes", stats_.control_bytes, "bytes", "engine");
  set("engine.channel_logged_messages", stats_.channel_logged_messages,
      "messages", "engine");

  set("transport.sends", stats_.transport_sends, "sends", "transport");
  set("transport.retransmits", stats_.transport_retransmits, "sends",
      "transport");
  set("transport.rto_backoffs", stats_.transport_rto_backoffs, "backoffs",
      "transport");
  set("transport.dropped", stats_.transport_dropped, "attempts", "transport");
  set("transport.dup_suppressions", stats_.transport_dup_arrivals,
      "arrivals", "transport");
  set("transport.acks", stats_.transport_acks, "acks", "transport");
  set("transport.give_ups", stats_.transport_give_ups, "payloads",
      "transport");
  reg->gauge("transport.reorder_high_water", {"messages", "transport"})
      .set(stats_.transport_reorder_high_water);

  set("detector.suspicions", stats_.suspicions, "verdicts", "detector");
  set("detector.false_suspicions", stats_.false_suspicions, "verdicts",
      "detector");
  set("supervisor.restarts", stats_.supervised_restarts, "restarts",
      "supervisor");
  set("supervisor.quarantines", stats_.quarantines, "processes",
      "supervisor");
  set("engine.crash_dropped_events", stats_.crash_dropped_events, "events",
      "engine");
  set("partition.deferred_sends", stats_.partition_deferred_sends, "sends",
      "partition");
  set("partition.dropped_attempts", stats_.partition_dropped_attempts,
      "attempts", "partition");
  set("partition.stall_deferred_events", stats_.stall_deferred_events,
      "events", "partition");

  // The gauge keeps the calendar queue's layer name, under which
  // tools/check_obs_export.py and the e2e per-layer table read it.
  reg->gauge("calqueue.size_high_water", {"events", "calqueue"})
      .set(queue_.size_high_water());

  // Per-take spans in simulated time: [t_begin, t_end] is the blocking
  // overhead window the process actually paused for.
  for (const trace::CkptRec& c : trace_.checkpoints)
    reg->emit_span(c.forced ? "checkpoint.forced" : "checkpoint", c.proc,
                   c.t_begin, c.t_end);

  // Per-recovery accounting. All histogram samples are integers: rollback
  // distance in checkpoint generations, lost work in whole microseconds.
  obs::Histogram& distance =
      reg->histogram("engine.rollback_distance", {"checkpoints", "engine"});
  obs::Histogram& lost =
      reg->histogram("engine.lost_work_us", {"us", "engine"});
  obs::Histogram& fallback =
      reg->histogram("engine.fallback_depth", {"checkpoints", "engine"});
  obs::Histogram& det_latency = reg->histogram(
      "supervisor.detection_latency_us", {"us", "supervisor"});
  obs::Histogram& downtime =
      reg->histogram("supervisor.downtime_us", {"us", "supervisor"});
  for (const RecoveryRec& rec : recoveries_) {
    reg->emit_span("rollback", rec.failed_proc, rec.fail_time,
                   rec.resume_time);
    if (rec.detection_latency >= 0.0)
      det_latency.record(std::llround(rec.detection_latency * 1e6));
    if (rec.downtime >= 0.0) {
      downtime.record(std::llround(rec.downtime * 1e6));
      reg->emit_span("supervisor.outage", rec.failed_proc,
                     rec.resume_time - rec.downtime, rec.resume_time);
    }
    if (rec.false_suspicion)
      reg->counter("supervisor.false_suspicion_restarts",
                   {"rollbacks", "supervisor"})
          .inc();
    for (const int demoted : rec.rollbacks)
      if (demoted > 0) distance.record(demoted);
    lost.record(std::llround(rec.lost_work * 1e6));
    if (rec.degraded) fallback.record(rec.fallback_depth);
    reg->counter("engine.replayed_messages", {"messages", "engine"})
        .inc(rec.replayed_messages);
    reg->counter("engine.corrupt_records_skipped", {"records", "engine"})
        .inc(rec.corrupt_records_skipped);
    if (rec.degraded)
      reg->counter("engine.degraded_recoveries", {"rollbacks", "engine"})
          .inc();
  }
}

SimResult simulate(const mp::Program& program, int nprocs,
                   std::uint64_t seed) {
  SimOptions opts;
  opts.nprocs = nprocs;
  opts.seed = seed;
  Engine engine(program, std::move(opts));
  return engine.run();
}

}  // namespace acfc::sim
