#include "mp/stmt.h"

#include <algorithm>

#include "util/error.h"

namespace acfc::mp {

const char* stmt_kind_name(StmtKind kind) {
  switch (kind) {
    case StmtKind::kCompute:
      return "compute";
    case StmtKind::kSend:
      return "send";
    case StmtKind::kRecv:
      return "recv";
    case StmtKind::kCheckpoint:
      return "checkpoint";
    case StmtKind::kIf:
      return "if";
    case StmtKind::kLoop:
      return "for";
    case StmtKind::kBarrier:
      return "barrier";
    case StmtKind::kBcast:
      return "bcast";
    case StmtKind::kReduce:
      return "reduce";
    case StmtKind::kAllreduce:
      return "allreduce";
  }
  return "?";
}

Block Block::clone() const {
  Block out;
  out.stmts.reserve(stmts.size());
  for (const auto& s : stmts) out.stmts.push_back(s->clone());
  return out;
}

std::unique_ptr<Stmt> ComputeStmt::clone() const {
  auto s = std::make_unique<ComputeStmt>(cost, label);
  s->set_uid(uid());
  return s;
}

std::unique_ptr<Stmt> SendStmt::clone() const {
  auto s = std::make_unique<SendStmt>(dest, tag, bytes);
  s->set_uid(uid());
  return s;
}

std::unique_ptr<RecvStmt> RecvStmt::any(int tag_i) {
  auto s = std::make_unique<RecvStmt>(Expr::constant(-1), tag_i);
  s->any_source = true;
  return s;
}

std::unique_ptr<Stmt> RecvStmt::clone() const {
  auto s = std::make_unique<RecvStmt>(src, tag);
  s->any_source = any_source;
  s->set_uid(uid());
  return s;
}

std::unique_ptr<Stmt> CheckpointStmt::clone() const {
  auto s = std::make_unique<CheckpointStmt>(note);
  s->ckpt_id = ckpt_id;
  s->set_uid(uid());
  return s;
}

std::unique_ptr<Stmt> IfStmt::clone() const {
  auto s = std::make_unique<IfStmt>(cond);
  s->then_body = then_body.clone();
  s->else_body = else_body.clone();
  s->set_uid(uid());
  return s;
}

std::unique_ptr<Stmt> LoopStmt::clone() const {
  auto s = std::make_unique<LoopStmt>(var, lo, hi);
  s->body = body.clone();
  s->set_uid(uid());
  return s;
}

std::unique_ptr<Stmt> BarrierStmt::clone() const {
  auto s = std::make_unique<BarrierStmt>(tag);
  s->set_uid(uid());
  return s;
}

std::unique_ptr<Stmt> BcastStmt::clone() const {
  auto s = std::make_unique<BcastStmt>(root, tag, bytes);
  s->set_uid(uid());
  return s;
}

std::unique_ptr<Stmt> ReduceStmt::clone() const {
  auto s = std::make_unique<ReduceStmt>(root, tag, bytes);
  s->set_uid(uid());
  return s;
}

std::unique_ptr<Stmt> AllreduceStmt::clone() const {
  auto s = std::make_unique<AllreduceStmt>(tag, bytes);
  s->set_uid(uid());
  return s;
}

Program Program::clone() const {
  Program out(name);
  out.body = body.clone();
  return out;
}

namespace {

void visit(Block& block, const std::function<void(Stmt&)>& fn) {
  for (auto& s : block.stmts) {
    fn(*s);
    if (auto* iff = stmt_cast<IfStmt>(s.get())) {
      visit(iff->then_body, fn);
      visit(iff->else_body, fn);
    } else if (auto* loop = stmt_cast<LoopStmt>(s.get())) {
      visit(loop->body, fn);
    }
  }
}

void visit_const(const Block& block, const std::function<void(const Stmt&)>& fn) {
  for (const auto& s : block.stmts) {
    fn(*s);
    if (const auto* iff = stmt_cast<IfStmt>(s.get())) {
      visit_const(iff->then_body, fn);
      visit_const(iff->else_body, fn);
    } else if (const auto* loop = stmt_cast<LoopStmt>(s.get())) {
      visit_const(loop->body, fn);
    }
  }
}

}  // namespace

void for_each_stmt(Block& block, const std::function<void(Stmt&)>& fn) {
  visit(block, fn);
}

void for_each_stmt(const Block& block,
                   const std::function<void(const Stmt&)>& fn) {
  visit_const(block, fn);
}

void for_each_stmt(Program& program, const std::function<void(Stmt&)>& fn) {
  visit(program.body, fn);
}

void for_each_stmt(const Program& program,
                   const std::function<void(const Stmt&)>& fn) {
  visit_const(program.body, fn);
}

void Program::renumber() {
  int next = 0;
  for_each_stmt(body, [&next](Stmt& s) { s.set_uid(next++); });
}

void Program::assign_checkpoint_ids() {
  int max_id = -1;
  for_each_stmt(body, [&max_id](Stmt& s) {
    if (auto* c = stmt_cast<CheckpointStmt>(&s))
      max_id = std::max(max_id, c->ckpt_id);
  });
  int next = max_id + 1;
  for_each_stmt(body, [&next](Stmt& s) {
    if (auto* c = stmt_cast<CheckpointStmt>(&s))
      if (c->ckpt_id < 0) c->ckpt_id = next++;
  });
}

int Program::stmt_count() const {
  int n = 0;
  for_each_stmt(body, [&n](const Stmt&) { ++n; });
  return n;
}

Stmt* Program::find(int uid) {
  Stmt* found = nullptr;
  for_each_stmt(body, [&](Stmt& s) {
    if (s.uid() == uid) found = &s;
  });
  return found;
}

const Stmt* Program::find(int uid) const {
  const Stmt* found = nullptr;
  for_each_stmt(body, [&](const Stmt& s) {
    if (s.uid() == uid) found = &s;
  });
  return found;
}

namespace {

bool locate_in(Block& block, int uid, std::vector<Stmt*>& ancestors,
               StmtLocation& out) {
  for (std::size_t i = 0; i < block.stmts.size(); ++i) {
    Stmt* s = block.stmts[i].get();
    if (s->uid() == uid) {
      out.block = &block;
      out.index = i;
      out.ancestors = ancestors;
      return true;
    }
    if (auto* iff = stmt_cast<IfStmt>(s)) {
      ancestors.push_back(s);
      if (locate_in(iff->then_body, uid, ancestors, out)) return true;
      if (locate_in(iff->else_body, uid, ancestors, out)) return true;
      ancestors.pop_back();
    } else if (auto* loop = stmt_cast<LoopStmt>(s)) {
      ancestors.push_back(s);
      if (locate_in(loop->body, uid, ancestors, out)) return true;
      ancestors.pop_back();
    }
  }
  return false;
}

}  // namespace

std::optional<StmtLocation> locate(Program& program, int uid) {
  StmtLocation loc;
  std::vector<Stmt*> ancestors;
  if (locate_in(program.body, uid, ancestors, loc)) return loc;
  return std::nullopt;
}

std::unique_ptr<Stmt> remove_stmt(Program& program, int uid) {
  auto loc = locate(program, uid);
  if (!loc)
    throw util::ProgramError("remove_stmt: no statement with uid " +
                             std::to_string(uid));
  auto stmt = std::move(loc->block->stmts[loc->index]);
  loc->block->stmts.erase(loc->block->stmts.begin() +
                          static_cast<std::ptrdiff_t>(loc->index));
  return stmt;
}

void insert_before(Program& program, int anchor_uid,
                   std::unique_ptr<Stmt> stmt) {
  auto loc = locate(program, anchor_uid);
  if (!loc)
    throw util::ProgramError("insert_before: no statement with uid " +
                             std::to_string(anchor_uid));
  loc->block->stmts.insert(
      loc->block->stmts.begin() + static_cast<std::ptrdiff_t>(loc->index),
      std::move(stmt));
}

void insert_after(Program& program, int anchor_uid,
                  std::unique_ptr<Stmt> stmt) {
  auto loc = locate(program, anchor_uid);
  if (!loc)
    throw util::ProgramError("insert_after: no statement with uid " +
                             std::to_string(anchor_uid));
  loc->block->stmts.insert(
      loc->block->stmts.begin() + static_cast<std::ptrdiff_t>(loc->index) + 1,
      std::move(stmt));
}

int checkpoint_count(const Program& program) {
  int n = 0;
  for_each_stmt(program, [&n](const Stmt& s) {
    if (s.kind() == StmtKind::kCheckpoint) ++n;
  });
  return n;
}

}  // namespace acfc::mp
