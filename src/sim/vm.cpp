#include "sim/vm.h"

#include <algorithm>
#include <string>

#include "util/error.h"

namespace acfc::sim {

std::int64_t default_irregular(const mp::IrregularRequest& req) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 29;
  };
  mix(static_cast<std::uint64_t>(req.irregular_id));
  mix(static_cast<std::uint64_t>(req.rank));
  mix(static_cast<std::uint64_t>(req.instance));
  const int n = std::max(1, req.nprocs);
  return static_cast<std::int64_t>(h % static_cast<std::uint64_t>(n));
}

namespace {

using Value = std::optional<std::int64_t>;

/// The recursive walk behind evaluate(); `code` is the model's table.
Value run(const CodeNode* code, int node, const EvalEnv& env) {
  const CodeNode& n = code[node];
  switch (n.op) {
    case Op::kConst:
      return n.value;
    case Op::kRank:
      return env.rank;
    case Op::kNProcs:
      return env.nprocs;
    case Op::kLoopVar:
      return env.stack[n.a].loop_value;
    case Op::kUnknown:
      return std::nullopt;
    case Op::kIrregular:
    case Op::kIrregularPred: {
      // Each evaluated leaf consumes a fresh, snapshot-tracked instance
      // number (pure-replay determinism).
      const mp::IrregularRequest req{n.a, env.rank, env.nprocs,
                                     (*env.irregular_counts)[n.a]++};
      const std::int64_t v = env.resolver != nullptr ? (*env.resolver)(req)
                                                     : default_irregular(req);
      if (n.op == Op::kIrregular) return v;
      return v != 0 ? 1 : 0;
    }
    case Op::kTrue:
      return 1;
    case Op::kNot: {
      const Value v = run(code, n.a, env);
      if (!v) return std::nullopt;
      return *v != 0 ? 0 : 1;
    }
    case Op::kAnd: {
      // Short-circuit on a definite false even if the other side is unknown.
      const Value a = run(code, n.a, env);
      if (a && *a == 0) return 0;
      const Value b = run(code, n.b, env);
      if (b && *b == 0) return 0;
      if (!a || !b) return std::nullopt;
      return 1;
    }
    case Op::kOr: {
      const Value a = run(code, n.a, env);
      if (a && *a != 0) return 1;
      const Value b = run(code, n.b, env);
      if (b && *b != 0) return 1;
      if (!a || !b) return std::nullopt;
      return 0;
    }
    default:
      break;
  }
  // Binary integer ops and comparisons evaluate both operands, left first.
  const Value a = run(code, n.a, env);
  const Value b = run(code, n.b, env);
  if (!a || !b) return std::nullopt;
  switch (n.op) {
    case Op::kAdd:
      return *a + *b;
    case Op::kSub:
      return *a - *b;
    case Op::kMul:
      return *a * *b;
    case Op::kDiv:
      if (*b == 0) return std::nullopt;
      return *a / *b;
    case Op::kMod: {
      if (*b == 0) return std::nullopt;
      std::int64_t m = *a % *b;
      if (m < 0) m += (*b < 0 ? -*b : *b);
      return m;
    }
    case Op::kEq:
      return *a == *b;
    case Op::kNe:
      return *a != *b;
    case Op::kLt:
      return *a < *b;
    case Op::kLe:
      return *a <= *b;
    case Op::kGt:
      return *a > *b;
    case Op::kGe:
      return *a >= *b;
    default:
      ACFC_CHECK_MSG(false, "unreachable code op");
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::int64_t> evaluate(const Model& model, int node,
                                     const EvalEnv& env) {
  return run(model.code(), node, env);
}

Vm::Vm(const Model& model, int rank, int nprocs, std::uint64_t seed,
       InvariantSlot* invariants, const mp::IrregularResolver* resolver)
    : model_(&model),
      rank_(rank),
      nprocs_(nprocs),
      invariants_(invariants),
      resolver_(resolver) {
  ACFC_CHECK_MSG(rank >= 0 && rank < nprocs, "rank out of range");
  state_.rng = util::Rng(seed ^ (static_cast<std::uint64_t>(rank) * 0x9e3779b97f4a7c15ULL));
  state_.vc = trace::VClock(nprocs);
  state_.sends_per_channel.assign(static_cast<size_t>(nprocs), 0);
  state_.recvs_per_channel.assign(static_cast<size_t>(nprocs), 0);
  const mp::Program& program = model.program();
  if (!program.body.empty())
    state_.stack.push_back(Frame{&program.body, 0, nullptr, 0, 0});
}

void Vm::fold_digest(std::uint64_t value) {
  // FNV-1a over the 8 bytes of `value`.
  for (int i = 0; i < 8; ++i) {
    state_.digest ^= (value >> (i * 8)) & 0xff;
    state_.digest *= 1099511628211ULL;
  }
}

long Vm::note_send(int dest) {
  return ++state_.sends_per_channel.at(static_cast<size_t>(dest));
}

void Vm::note_recv(int src) {
  ++state_.recvs_per_channel.at(static_cast<size_t>(src));
}

long Vm::note_checkpoint_instance(int static_index) {
  return state_.ckpt_instances[static_index]++;
}

std::optional<std::int64_t> Vm::value_of(const Root& root) {
  const auto compute = [&] {
    return evaluate(*model_, root.node,
                    EvalEnv{rank_, nprocs_, state_.stack.data(),
                            &state_.irregular_counts, resolver_});
  };
  if (root.slot < 0) return compute();
  // Rank-pure: evaluate once per engine, then serve from the table.
  InvariantSlot& slot = invariants_[root.slot];
  if (!slot.known) {
    const auto v = compute();
    if (!v) return std::nullopt;
    slot = InvariantSlot{*v, true};
  }
  return slot.value;
}

std::int64_t Vm::eval_or_throw(const Root& root, const mp::Expr& source,
                               const char* what) {
  const auto v = value_of(root);
  if (!v)
    throw util::ProgramError(std::string("rank ") + std::to_string(rank_) +
                             ": cannot evaluate " + what + ": " +
                             source.str());
  // The digest folds on every use, cached or not, so the digest stream is
  // the same as evaluating each time.
  fold_digest(static_cast<std::uint64_t>(*v) ^ 0xe7037ed1a0b428dbULL);
  return *v;
}

bool Vm::eval_pred(const Root& root, const mp::Pred& source) {
  const auto v = value_of(root);
  if (!v)
    throw util::ProgramError(std::string("rank ") + std::to_string(rank_) +
                             ": cannot evaluate condition: " + source.str());
  fold_digest(*v != 0 ? 0x51ed270b7a03f2c1ULL : 0x0d742fc937a3bb01ULL);
  return *v != 0;
}

Action Vm::next() {
  while (true) {
    if (state_.stack.empty()) return ActionDone{};
    Frame& frame = state_.stack.back();
    if (frame.index >= frame.block->stmts.size()) {
      if (frame.loop != nullptr) {
        ++frame.loop_value;
        if (frame.loop_value < frame.loop_hi) {
          frame.index = 0;
          continue;
        }
      }
      state_.stack.pop_back();
      continue;
    }
    const mp::Stmt& stmt = *frame.block->stmts[frame.index];
    ++frame.index;  // consume; yielded actions refer to `stmt`
    const Root* roots = model_->stmt_code(stmt.uid()).roots;
    switch (stmt.kind()) {
      case mp::StmtKind::kCompute: {
        const auto& c = static_cast<const mp::ComputeStmt&>(stmt);
        return ActionCompute{c.cost, stmt.uid()};
      }
      case mp::StmtKind::kSend: {
        const auto& c = static_cast<const mp::SendStmt&>(stmt);
        const auto dest = eval_or_throw(roots[0], c.dest, "send destination");
        if (dest < 0 || dest >= nprocs_)
          throw util::ProgramError(
              "rank " + std::to_string(rank_) + ": send destination " +
              std::to_string(dest) + " out of range [0, " +
              std::to_string(nprocs_) + ") at stmt uid " +
              std::to_string(stmt.uid()));
        if (dest == rank_)
          throw util::ProgramError("rank " + std::to_string(rank_) +
                                   ": self-send is not modelled (stmt uid " +
                                   std::to_string(stmt.uid()) + ")");
        return ActionSend{static_cast<int>(dest), c.tag, c.bytes, stmt.uid()};
      }
      case mp::StmtKind::kRecv: {
        const auto& c = static_cast<const mp::RecvStmt&>(stmt);
        if (c.any_source) return ActionRecv{true, -1, c.tag, stmt.uid()};
        const auto src = eval_or_throw(roots[0], c.src, "recv source");
        if (src < 0 || src >= nprocs_ || src == rank_)
          throw util::ProgramError(
              "rank " + std::to_string(rank_) + ": recv source " +
              std::to_string(src) + " invalid at stmt uid " +
              std::to_string(stmt.uid()));
        return ActionRecv{false, static_cast<int>(src), c.tag, stmt.uid()};
      }
      case mp::StmtKind::kCheckpoint: {
        const auto& c = static_cast<const mp::CheckpointStmt&>(stmt);
        return ActionCheckpoint{c.ckpt_id, stmt.uid()};
      }
      case mp::StmtKind::kBarrier:
        return ActionBarrier{stmt.uid()};
      case mp::StmtKind::kBcast: {
        const auto& c = static_cast<const mp::BcastStmt&>(stmt);
        const auto root = eval_or_throw(roots[0], c.root, "bcast root");
        if (root < 0 || root >= nprocs_)
          throw util::ProgramError("rank " + std::to_string(rank_) +
                                   ": bcast root out of range");
        return ActionBcast{static_cast<int>(root), c.tag, c.bytes,
                           stmt.uid()};
      }
      case mp::StmtKind::kReduce: {
        const auto& c = static_cast<const mp::ReduceStmt&>(stmt);
        const auto root = eval_or_throw(roots[0], c.root, "reduce root");
        if (root < 0 || root >= nprocs_)
          throw util::ProgramError("rank " + std::to_string(rank_) +
                                   ": reduce root out of range");
        return ActionReduce{static_cast<int>(root), c.tag, c.bytes,
                            stmt.uid()};
      }
      case mp::StmtKind::kAllreduce: {
        const auto& c = static_cast<const mp::AllreduceStmt&>(stmt);
        return ActionAllreduce{c.tag, c.bytes, stmt.uid()};
      }
      case mp::StmtKind::kIf: {
        const auto& c = static_cast<const mp::IfStmt&>(stmt);
        const mp::Block& chosen =
            eval_pred(roots[0], c.cond) ? c.then_body : c.else_body;
        if (!chosen.empty())
          state_.stack.push_back(Frame{&chosen, 0, nullptr, 0, 0});
        continue;
      }
      case mp::StmtKind::kLoop: {
        const auto& c = static_cast<const mp::LoopStmt&>(stmt);
        const auto lo = eval_or_throw(roots[0], c.lo, "loop lower bound");
        const auto hi = eval_or_throw(roots[1], c.hi, "loop upper bound");
        if (lo < hi && !c.body.empty())
          state_.stack.push_back(Frame{&c.body, 0, &c, lo, hi});
        continue;
      }
    }
  }
}

}  // namespace acfc::sim
