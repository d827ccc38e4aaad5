// The per-process virtual machine: walks the MiniMP AST's control flow
// with fully copyable state, and evaluates every expression and condition
// from the sim::Model's compiled code.
//
// The VM advances through control flow (if/for bookkeeping costs no
// simulated time) and yields Actions — compute, send, recv, checkpoint,
// collective — for the discrete-event engine to schedule. Its entire
// mutable state (control stack, local tick, channel counters,
// irregular-resolution counters, execution digest) lives in a VmSnapshot
// value, which the engine copies into a checkpoint image on every take and
// writes back on rollback; because the resolver is a pure function of
// (site, rank, instance), re-execution from an image reproduces the
// original run exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "mp/stmt.h"
#include "sim/model.h"
#include "trace/trace.h"

namespace acfc::sim {

/// Tiny flat key → counter map. A process touches a handful of irregular
/// sites and checkpoint ids, so a contiguous array with linear lookup beats
/// a node-based map on both access and — critically for checkpointing —
/// copy cost: the entries are one trivially copyable array, so a checkpoint
/// image stores them with one memcpy.
struct CounterMap {
  struct Entry {
    int key = 0;
    std::int64_t value = 0;
    bool operator==(const Entry&) const = default;
  };
  std::vector<Entry> entries;

  std::int64_t& operator[](int key) {
    for (auto& e : entries)
      if (e.key == key) return e.value;
    entries.push_back({key, 0});
    return entries.back().value;
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

  bool operator==(const Frame&) const = default;
};

/// Complete copyable process state.
struct VmSnapshot {
  std::vector<Frame> stack;
  /// The process's local tick (trace/trace.h).
  trace::Tick tick = 0;
  /// FNV-1a digest of the logical execution (control decisions, message
  /// identities) — replay validation compares digests, never times.
  static constexpr std::uint64_t kInitialDigest = 1469598103934665603ULL;
  std::uint64_t digest = kInitialDigest;
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

  bool operator==(const VmSnapshot&) const = default;
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
/// across rollback, Vm::reset and Engine::rearm, so never part of a
/// VmSnapshot.
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
  /// nullptr: default_irregular(), as the VM always asks. Otherwise a
  /// pure resolver; the compiled-vs-AST differential (tests/test_model)
  /// uses one whose values include zero and negatives.
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
  /// engine's invariant table (model.slot_count() entries). Irregular
  /// values come from default_irregular().
  Vm(const Model& model, int rank, int nprocs, InvariantSlot* invariants);

  /// Back to the state at the program's entry, as the constructor leaves
  /// it, keeping every vector's capacity: the engine re-arms its VMs with
  /// it and restarts a process that rolls back to no checkpoint.
  void reset();

  int rank() const { return rank_; }
  int nprocs() const { return nprocs_; }

  /// Advances control flow to the next blocking action and returns it.
  /// The program counter already points past the yielded statement.
  /// Throws util::ProgramError on runtime errors (send out of range,
  /// unresolvable expressions).
  Action next();

  bool done() const { return state_.stack.empty(); }

  const VmSnapshot& state() const { return state_; }
  /// Rollback writes a checkpoint image back here (read_snapshot_image).
  VmSnapshot& mutable_state() { return state_; }

  // -- Engine callbacks -------------------------------------------------
  void tick() { ++state_.tick; }
  trace::Tick local_tick() const { return state_.tick; }
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
  VmSnapshot state_;
};

}  // namespace acfc::sim
