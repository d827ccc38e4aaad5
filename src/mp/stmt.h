// Statements and programs of the MiniMP IR.
//
// A MiniMP program is a structured SPMD program: the same code runs on every
// process, and behaviour diverges only through expressions/predicates over
// `rank`. The statement set mirrors what the paper's analysis consumes:
//
//   compute      — local work with a time cost (seconds in the simulator)
//   send/recv    — asynchronous point-to-point messaging (recv is blocking)
//   checkpoint   — local checkpoint statement (the object of the analysis)
//   if/for       — ID-dependent (or data-dependent) control flow
//   barrier/bcast— collective communication (single statement on all
//                  processes; reducible to send/recv via mp::lower_collectives)
//
// Statements are owned by Blocks via unique_ptr; Program::renumber() assigns
// each statement a preorder `uid` used as a stable key by the CFG and the
// checkpoint-movement transformer between renumberings.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mp/expr.h"
#include "mp/pred.h"

namespace acfc::mp {

enum class StmtKind {
  kCompute,
  kSend,
  kRecv,
  kCheckpoint,
  kIf,
  kLoop,
  kBarrier,
  kBcast,
  kReduce,     ///< all processes contribute to the root
  kAllreduce,  ///< reduce followed by broadcast (full synchronization)
};

const char* stmt_kind_name(StmtKind kind);

class Stmt;

/// An ordered sequence of statements (a `{...}` region in the DSL).
struct Block {
  std::vector<std::unique_ptr<Stmt>> stmts;

  Block() = default;
  Block(Block&&) = default;
  Block& operator=(Block&&) = default;
  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  Block clone() const;
  bool empty() const { return stmts.empty(); }
  std::size_t size() const { return stmts.size(); }
};

class Stmt {
 public:
  virtual ~Stmt() = default;
  Stmt(const Stmt&) = delete;
  Stmt& operator=(const Stmt&) = delete;

  StmtKind kind() const { return kind_; }
  /// Preorder id within the program; -1 until Program::renumber().
  int uid() const { return uid_; }
  void set_uid(int uid) { uid_ = uid; }

  virtual std::unique_ptr<Stmt> clone() const = 0;

 protected:
  explicit Stmt(StmtKind kind) : kind_(kind) {}

 private:
  StmtKind kind_;
  int uid_ = -1;
};

/// Local computation costing `cost` simulated seconds.
struct ComputeStmt final : Stmt {
  static constexpr StmtKind kKind = StmtKind::kCompute;
  double cost = 0.0;
  std::string label;

  explicit ComputeStmt(double cost_s, std::string label_s = {})
      : Stmt(kKind), cost(cost_s), label(std::move(label_s)) {}
  std::unique_ptr<Stmt> clone() const override;
};

/// Asynchronous send; never blocks the sender.
struct SendStmt final : Stmt {
  static constexpr StmtKind kKind = StmtKind::kSend;
  Expr dest;
  int tag = 0;
  int bytes = 0;

  SendStmt(Expr dest_e, int tag_i = 0, int bytes_i = 0)
      : Stmt(kKind), dest(std::move(dest_e)), tag(tag_i),
        bytes(bytes_i) {}
  std::unique_ptr<Stmt> clone() const override;
};

/// Blocking receive. `any_source` models MPI_ANY_SOURCE; otherwise `src`
/// names the sender.
struct RecvStmt final : Stmt {
  static constexpr StmtKind kKind = StmtKind::kRecv;
  Expr src;
  bool any_source = false;
  int tag = 0;

  RecvStmt(Expr src_e, int tag_i = 0)
      : Stmt(kKind), src(std::move(src_e)), tag(tag_i) {}
  static std::unique_ptr<RecvStmt> any(int tag_i = 0);
  std::unique_ptr<Stmt> clone() const override;
};

/// Local checkpoint statement. `ckpt_id` is a stable identity preserved
/// across Phase-III movement; -1 until assigned (see
/// Program::assign_checkpoint_ids).
struct CheckpointStmt final : Stmt {
  static constexpr StmtKind kKind = StmtKind::kCheckpoint;
  int ckpt_id = -1;
  std::string note;

  explicit CheckpointStmt(std::string note_s = {})
      : Stmt(kKind), note(std::move(note_s)) {}
  std::unique_ptr<Stmt> clone() const override;
};

struct IfStmt final : Stmt {
  static constexpr StmtKind kKind = StmtKind::kIf;
  Pred cond;
  Block then_body;
  Block else_body;

  explicit IfStmt(Pred cond_p) : Stmt(kKind), cond(std::move(cond_p)) {}
  std::unique_ptr<Stmt> clone() const override;
};

/// Counted loop: `for var in [lo, hi) { body }`. The paper's `while` loops
/// with data-dependent trip counts are modelled by an irregular `hi`.
struct LoopStmt final : Stmt {
  static constexpr StmtKind kKind = StmtKind::kLoop;
  std::string var;
  Expr lo;
  Expr hi;
  Block body;

  LoopStmt(std::string var_s, Expr lo_e, Expr hi_e)
      : Stmt(kKind), var(std::move(var_s)), lo(std::move(lo_e)),
        hi(std::move(hi_e)) {}
  std::unique_ptr<Stmt> clone() const override;
};

/// Collective barrier across all processes.
struct BarrierStmt final : Stmt {
  static constexpr StmtKind kKind = StmtKind::kBarrier;
  int tag = 0;

  explicit BarrierStmt(int tag_i = 0) : Stmt(kKind), tag(tag_i) {}
  std::unique_ptr<Stmt> clone() const override;
};

/// Collective broadcast from `root` to every other process.
struct BcastStmt final : Stmt {
  static constexpr StmtKind kKind = StmtKind::kBcast;
  Expr root;
  int tag = 0;
  int bytes = 0;

  BcastStmt(Expr root_e, int tag_i = 0, int bytes_i = 0)
      : Stmt(kKind), root(std::move(root_e)), tag(tag_i),
        bytes(bytes_i) {}
  std::unique_ptr<Stmt> clone() const override;
};

/// Collective reduction: every process contributes to `root`
/// (MPI_Reduce). The root blocks until every contribution arrives;
/// contributors continue immediately after sending.
struct ReduceStmt final : Stmt {
  static constexpr StmtKind kKind = StmtKind::kReduce;
  Expr root;
  int tag = 0;
  int bytes = 0;

  ReduceStmt(Expr root_e, int tag_i = 0, int bytes_i = 0)
      : Stmt(kKind), root(std::move(root_e)), tag(tag_i),
        bytes(bytes_i) {}
  std::unique_ptr<Stmt> clone() const override;
};

/// Collective all-reduce (MPI_Allreduce): everyone contributes and
/// everyone receives the result — a full synchronization with data.
struct AllreduceStmt final : Stmt {
  static constexpr StmtKind kKind = StmtKind::kAllreduce;
  int tag = 0;
  int bytes = 0;

  explicit AllreduceStmt(int tag_i = 0, int bytes_i = 0)
      : Stmt(kKind), tag(tag_i), bytes(bytes_i) {}
  std::unique_ptr<Stmt> clone() const override;
};

/// Checked downcast by kind: `s` as a T when its kind() is T::kKind, else
/// nullptr (also for a null `s`). Each statement class names its kind in
/// `kKind` and passes it to Stmt, so this is the one place that maps kinds
/// to classes; a kind test costs a load where a failed dynamic_cast costs
/// a type-name comparison on toolchains without merged type_info.
template <class T>
T* stmt_cast(Stmt* s) {
  return s != nullptr && s->kind() == T::kKind ? static_cast<T*>(s) : nullptr;
}

template <class T>
const T* stmt_cast(const Stmt* s) {
  return s != nullptr && s->kind() == T::kKind ? static_cast<const T*>(s)
                                               : nullptr;
}

/// A complete SPMD program.
class Program {
 public:
  std::string name = "program";
  Block body;

  Program() = default;
  explicit Program(std::string name_s) : name(std::move(name_s)) {}
  Program(Program&&) = default;
  Program& operator=(Program&&) = default;
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  Program clone() const;

  /// Assigns preorder uids to every statement; call after any structural
  /// mutation and before building a CFG.
  void renumber();

  /// Gives fresh ids to checkpoint statements whose ckpt_id is -1.
  void assign_checkpoint_ids();

  /// Number of statements (after renumber, uids are [0, stmt_count())).
  int stmt_count() const;

  /// Finds a statement by uid; nullptr if absent.
  Stmt* find(int uid);
  const Stmt* find(int uid) const;
};

// -- Traversal and structural editing ---------------------------------------

/// Preorder visit of every statement in the block, recursing into bodies.
void for_each_stmt(Block& block, const std::function<void(Stmt&)>& fn);
void for_each_stmt(const Block& block,
                   const std::function<void(const Stmt&)>& fn);
void for_each_stmt(Program& program, const std::function<void(Stmt&)>& fn);
void for_each_stmt(const Program& program,
                   const std::function<void(const Stmt&)>& fn);

/// Where a statement lives: its owning block and index therein.
struct StmtLocation {
  Block* block = nullptr;
  std::size_t index = 0;
  /// Enclosing compound statements, outermost first (If and Loop nodes).
  std::vector<Stmt*> ancestors;
};

/// Locates the statement with `uid`; nullopt if absent.
std::optional<StmtLocation> locate(Program& program, int uid);

/// Detaches and returns the statement with `uid`.
/// Throws util::ProgramError if absent.
std::unique_ptr<Stmt> remove_stmt(Program& program, int uid);

/// Inserts `stmt` immediately before the statement with `anchor_uid`.
/// Throws util::ProgramError if the anchor is absent.
void insert_before(Program& program, int anchor_uid,
                   std::unique_ptr<Stmt> stmt);

/// Inserts `stmt` immediately after the statement with `anchor_uid`.
void insert_after(Program& program, int anchor_uid,
                  std::unique_ptr<Stmt> stmt);

/// Total number of checkpoint statements in the program.
int checkpoint_count(const Program& program);

}  // namespace acfc::mp
