#include "mp/lower.h"

namespace acfc::mp {

namespace {

class Lowerer {
 public:
  Block lower_block(const Block& in) {
    Block out;
    for (const auto& s : in.stmts) lower_stmt(*s, out);
    return out;
  }

 private:
  void lower_stmt(const Stmt& s, Block& out) {
    switch (s.kind()) {
      case StmtKind::kIf: {
        const auto& iff = static_cast<const IfStmt&>(s);
        auto copy = std::make_unique<IfStmt>(iff.cond);
        copy->then_body = lower_block(iff.then_body);
        copy->else_body = lower_block(iff.else_body);
        out.stmts.push_back(std::move(copy));
        return;
      }
      case StmtKind::kLoop: {
        const auto& loop = static_cast<const LoopStmt&>(s);
        auto copy = std::make_unique<LoopStmt>(loop.var, loop.lo, loop.hi);
        copy->body = lower_block(loop.body);
        out.stmts.push_back(std::move(copy));
        return;
      }
      case StmtKind::kBcast:
        lower_bcast(static_cast<const BcastStmt&>(s), out);
        return;
      case StmtKind::kBarrier:
        lower_barrier(static_cast<const BarrierStmt&>(s), out);
        return;
      case StmtKind::kReduce:
        lower_reduce(static_cast<const ReduceStmt&>(s), out);
        return;
      case StmtKind::kAllreduce: {
        // Allreduce = reduce-to-0 then broadcast-from-0; the phases use
        // disjoint slots of the reserved tag space.
        const auto& ar = static_cast<const AllreduceStmt&>(s);
        const ReduceStmt reduce(Expr::constant(0), ar.tag, ar.bytes);
        lower_reduce(reduce, out);
        const BcastStmt bcast(Expr::constant(0), ar.tag + 500'000,
                              ar.bytes);
        lower_bcast(bcast, out);
        return;
      }
      default:
        out.stmts.push_back(s.clone());
        return;
    }
  }

  void lower_bcast(const BcastStmt& bcast, Block& out) {
    const int tag = kCollectiveTagBase + bcast.tag;
    const std::string var = fresh_var("_bc");

    auto iff = std::make_unique<IfStmt>(Pred::eq(Expr::rank(), bcast.root));
    // Root: send to every rank except itself.
    auto loop = std::make_unique<LoopStmt>(var, Expr::constant(0),
                                           Expr::nprocs());
    auto guard = std::make_unique<IfStmt>(
        Pred::ne(Expr::loop_var(var), Expr::rank()));
    guard->then_body.stmts.push_back(
        std::make_unique<SendStmt>(Expr::loop_var(var), tag, bcast.bytes));
    loop->body.stmts.push_back(std::move(guard));
    iff->then_body.stmts.push_back(std::move(loop));
    // Non-root: one receive from the root.
    iff->else_body.stmts.push_back(
        std::make_unique<RecvStmt>(bcast.root, tag));
    out.stmts.push_back(std::move(iff));
  }

  void lower_barrier(const BarrierStmt& barrier, Block& out) {
    const int tag = kCollectiveTagBase + barrier.tag;
    auto iff = std::make_unique<IfStmt>(
        Pred::eq(Expr::rank(), Expr::constant(0)));

    // Rank 0: gather then release.
    const std::string gather_var = fresh_var("_bg");
    auto gather = std::make_unique<LoopStmt>(gather_var, Expr::constant(1),
                                             Expr::nprocs());
    gather->body.stmts.push_back(
        std::make_unique<RecvStmt>(Expr::loop_var(gather_var), tag));
    iff->then_body.stmts.push_back(std::move(gather));

    const std::string release_var = fresh_var("_br");
    auto release = std::make_unique<LoopStmt>(release_var, Expr::constant(1),
                                              Expr::nprocs());
    release->body.stmts.push_back(
        std::make_unique<SendStmt>(Expr::loop_var(release_var), tag, 0));
    iff->then_body.stmts.push_back(std::move(release));

    // Everyone else: notify 0, wait for the release.
    iff->else_body.stmts.push_back(
        std::make_unique<SendStmt>(Expr::constant(0), tag, 0));
    iff->else_body.stmts.push_back(
        std::make_unique<RecvStmt>(Expr::constant(0), tag));
    out.stmts.push_back(std::move(iff));
  }

  void lower_reduce(const ReduceStmt& reduce, Block& out) {
    const int tag = kCollectiveTagBase + reduce.tag;
    const std::string var = fresh_var("_rd");

    auto iff = std::make_unique<IfStmt>(Pred::eq(Expr::rank(), reduce.root));
    // Root: collect one contribution from every other rank.
    auto loop = std::make_unique<LoopStmt>(var, Expr::constant(0),
                                           Expr::nprocs());
    auto guard = std::make_unique<IfStmt>(
        Pred::ne(Expr::loop_var(var), Expr::rank()));
    guard->then_body.stmts.push_back(
        std::make_unique<RecvStmt>(Expr::loop_var(var), tag));
    loop->body.stmts.push_back(std::move(guard));
    iff->then_body.stmts.push_back(std::move(loop));
    // Contributors: one send to the root.
    iff->else_body.stmts.push_back(
        std::make_unique<SendStmt>(reduce.root, tag, reduce.bytes));
    out.stmts.push_back(std::move(iff));
  }

  std::string fresh_var(const char* prefix) {
    return std::string(prefix) + std::to_string(counter_++);
  }

  int counter_ = 0;
};

}  // namespace

Program lower_collectives(const Program& program) {
  Lowerer lowerer;
  Program out(program.name);
  out.body = lowerer.lower_block(program.body);
  out.renumber();
  out.assign_checkpoint_ids();
  return out;
}

bool has_collectives(const Program& program) {
  bool found = false;
  for_each_stmt(program, [&found](const Stmt& s) {
    switch (s.kind()) {
      case StmtKind::kBarrier:
      case StmtKind::kBcast:
      case StmtKind::kReduce:
      case StmtKind::kAllreduce:
        found = true;
        break;
      default:
        break;
    }
  });
  return found;
}

}  // namespace acfc::mp
