// The per-process virtual machine: walks the MiniMP AST's control flow
// with fully copyable state, and evaluates every expression and condition
// from the sim::Model's compiled code.
//
// The VM advances through control flow (if/for bookkeeping costs no
// simulated time) and yields Actions — compute, send, recv, checkpoint,
// collective — for the discrete-event engine to schedule. Its entire
// mutable state (control stack, RNG, vector clock, channel counters,
// irregular-resolution counters, execution digest) lives in a VmSnapshot
// value, which the engine stores on checkpoint and restores on rollback;
// because the resolver is a pure function of (site, rank, instance),
// re-execution from a snapshot reproduces the original run exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "mp/stmt.h"
#include "sim/model.h"
#include "trace/vclock.h"
#include "util/rng.h"

namespace acfc::sim {

/// Tiny flat key → counter map. A process touches a handful of irregular
/// sites and checkpoint ids, so a contiguous array with linear lookup beats
/// a node-based map on both access and — critically for checkpointing —
/// copy cost: snapshotting the counters is one allocation, not one per key.
struct CounterMap {
  std::vector<std::pair<int, std::int64_t>> entries;

  std::int64_t& operator[](int key) {
    for (auto& e : entries)
      if (e.first == key) return e.second;
    entries.emplace_back(key, 0);
    return entries.back().second;
  }

  bool operator==(const CounterMap&) const = default;
};

/// One entry of the control stack: position inside a block; for loop-body
/// frames, the loop statement and the current/bound values of its variable.
/// A frame's stack index is the static nesting depth of its block, which
/// is where compiled loop variables read their values.
struct Frame {
  const mp::Block* block = nullptr;
  std::size_t index = 0;
  const mp::LoopStmt* loop = nullptr;
  std::int64_t loop_value = 0;
  std::int64_t loop_hi = 0;
};

/// Complete copyable process state.
struct VmSnapshot {
  std::vector<Frame> stack;
  util::Rng rng;
  trace::VClock vc;
  /// FNV-1a digest of the logical execution (control decisions, message
  /// identities) — replay validation compares digests, never times.
  std::uint64_t digest = 1469598103934665603ULL;
  /// Per irregular-site invocation counters (deterministic resolution).
  CounterMap irregular_counts;
  /// Messages sent so far per destination (channel sequence numbers).
  std::vector<long> sends_per_channel;
  /// Messages consumed so far per source.
  std::vector<long> recvs_per_channel;
  /// Collective operations completed (MPI-style sequence matching).
  long collectives_done = 0;
  /// Checkpoint-statement completions per static index (instances).
  CounterMap ckpt_instances;
};

struct ActionCompute {
  double duration = 0.0;
  int stmt_uid = -1;
};
struct ActionSend {
  int dest = -1;
  int tag = 0;
  int bytes = 0;
  int stmt_uid = -1;
};
struct ActionRecv {
  bool any_source = false;
  int src = -1;
  int tag = 0;
  int stmt_uid = -1;
};
struct ActionCheckpoint {
  int ckpt_id = -1;
  int stmt_uid = -1;
};
struct ActionBarrier {
  int stmt_uid = -1;
};
struct ActionBcast {
  int root = -1;
  int tag = 0;
  int bytes = 0;
  int stmt_uid = -1;
};
struct ActionReduce {
  int root = -1;
  int tag = 0;
  int bytes = 0;
  int stmt_uid = -1;
};
struct ActionAllreduce {
  int tag = 0;
  int bytes = 0;
  int stmt_uid = -1;
};
struct ActionDone {};

using Action = std::variant<ActionCompute, ActionSend, ActionRecv,
                            ActionCheckpoint, ActionBarrier, ActionBcast,
                            ActionReduce, ActionAllreduce, ActionDone>;

/// One entry of an engine's invariant table: the value of a rank-pure root
/// (Root::slot) for one rank, filled on first use. Derived data, valid
/// across rollback and VM re-creation, so never part of a VmSnapshot.
struct InvariantSlot {
  std::int64_t value = 0;
  bool known = false;
};

/// What compiled code reads: the process identity, its control stack (loop
/// variables by frame depth) and its irregular-instance counters, which
/// each evaluated irregular leaf advances.
struct EvalEnv {
  int rank = 0;
  int nprocs = 1;
  const Frame* stack = nullptr;
  CounterMap* irregular_counts = nullptr;
  /// nullptr: default_irregular(); otherwise a pure user resolver.
  const mp::IrregularResolver* resolver = nullptr;
};

/// The engine's default irregular values: a pure hash of (id, rank,
/// instance) mapped into [0, nprocs), deterministic across replays.
std::int64_t default_irregular(const mp::IrregularRequest& req);

/// Evaluates code node `node` of `model` — a value, or 0/1 for a predicate
/// node — with exactly the order, short-circuiting and failures of
/// mp::Expr::eval / mp::Pred::eval under a resolver that numbers each
/// irregular call from env.irregular_counts. nullopt where those return
/// nullopt.
std::optional<std::int64_t> evaluate(const Model& model, int node,
                                     const EvalEnv& env);

class Vm {
 public:
  /// `model` must outlive the VM. `invariants` is this rank's row of the
  /// engine's invariant table (model.slot_count() entries). `resolver` is
  /// nullptr for default_irregular(), else a pure function that outlives
  /// the VM (replay determinism).
  Vm(const Model& model, int rank, int nprocs, std::uint64_t seed,
     InvariantSlot* invariants, const mp::IrregularResolver* resolver);

  int rank() const { return rank_; }
  int nprocs() const { return nprocs_; }

  /// Advances control flow to the next blocking action and returns it.
  /// The program counter already points past the yielded statement.
  /// Throws util::ProgramError on runtime errors (send out of range,
  /// unresolvable expressions).
  Action next();

  bool done() const { return state_.stack.empty(); }

  const VmSnapshot& state() const { return state_; }
  VmSnapshot snapshot() const { return state_; }
  void restore(const VmSnapshot& snapshot) { state_ = snapshot; }

  // -- Engine callbacks -------------------------------------------------
  void tick() { state_.vc.tick(rank_); }
  void merge_clock(const trace::VClock& other) { state_.vc.merge(other); }
  const trace::VClock& clock() const { return state_.vc; }
  void fold_digest(std::uint64_t value);
  long note_send(int dest);  ///< increments and returns the channel seq
  void note_recv(int src);
  void note_collective() { ++state_.collectives_done; }
  long note_checkpoint_instance(int static_index);

 private:
  /// Value of a compiled root: served from the invariant table when the
  /// root is rank-pure, folded into the digest on every use; throws
  /// "cannot evaluate <what>: <source>" when it has no value.
  std::int64_t eval_or_throw(const Root& root, const mp::Expr& source,
                             const char* what);
  bool eval_pred(const Root& root, const mp::Pred& source);
  /// Evaluates `root`, or reads its invariant slot, filling it on first
  /// use; nullopt when it has no value.
  std::optional<std::int64_t> value_of(const Root& root);

  const Model* model_;
  int rank_;
  int nprocs_;
  InvariantSlot* invariants_;
  const mp::IrregularResolver* resolver_;
  VmSnapshot state_;
};

}  // namespace acfc::sim
