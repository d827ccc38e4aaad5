#include "mp/printer.h"

#include <sstream>

namespace acfc::mp {

namespace {

class Printer {
 public:
  void block(const Block& b, int depth) {
    for (const auto& s : b.stmts) stmt(*s, depth);
  }

  void stmt(const Stmt& s, int depth) {
    indent(depth);
    switch (s.kind()) {
      case StmtKind::kCompute: {
        const auto& c = static_cast<const ComputeStmt&>(s);
        os_ << "compute " << c.cost;
        if (!c.label.empty()) os_ << " label \"" << c.label << '"';
        os_ << ';';
        break;
      }
      case StmtKind::kSend: {
        const auto& c = static_cast<const SendStmt&>(s);
        os_ << "send to " << c.dest.str();
        if (c.tag != 0) os_ << " tag " << c.tag;
        if (c.bytes != 0) os_ << " bytes " << c.bytes;
        os_ << ';';
        break;
      }
      case StmtKind::kRecv: {
        const auto& c = static_cast<const RecvStmt&>(s);
        os_ << "recv from " << (c.any_source ? "any" : c.src.str());
        if (c.tag != 0) os_ << " tag " << c.tag;
        os_ << ';';
        break;
      }
      case StmtKind::kCheckpoint: {
        const auto& c = static_cast<const CheckpointStmt&>(s);
        os_ << "checkpoint";
        if (!c.note.empty()) os_ << " \"" << c.note << '"';
        os_ << ';';
        break;
      }
      case StmtKind::kBarrier: {
        const auto& c = static_cast<const BarrierStmt&>(s);
        os_ << "barrier";
        if (c.tag != 0) os_ << " tag " << c.tag;
        os_ << ';';
        break;
      }
      case StmtKind::kBcast: {
        const auto& c = static_cast<const BcastStmt&>(s);
        os_ << "bcast root " << c.root.str();
        if (c.tag != 0) os_ << " tag " << c.tag;
        if (c.bytes != 0) os_ << " bytes " << c.bytes;
        os_ << ';';
        break;
      }
      case StmtKind::kReduce: {
        const auto& c = static_cast<const ReduceStmt&>(s);
        os_ << "reduce root " << c.root.str();
        if (c.tag != 0) os_ << " tag " << c.tag;
        if (c.bytes != 0) os_ << " bytes " << c.bytes;
        os_ << ';';
        break;
      }
      case StmtKind::kAllreduce: {
        const auto& c = static_cast<const AllreduceStmt&>(s);
        os_ << "allreduce";
        if (c.tag != 0) os_ << " tag " << c.tag;
        if (c.bytes != 0) os_ << " bytes " << c.bytes;
        os_ << ';';
        break;
      }
      case StmtKind::kIf: {
        const auto& c = static_cast<const IfStmt&>(s);
        os_ << "if (" << c.cond.str() << ") {\n";
        block(c.then_body, depth + 1);
        indent(depth);
        if (c.else_body.empty()) {
          os_ << '}';
        } else {
          os_ << "} else {\n";
          block(c.else_body, depth + 1);
          indent(depth);
          os_ << '}';
        }
        os_ << '\n';
        return;
      }
      case StmtKind::kLoop: {
        const auto& c = static_cast<const LoopStmt&>(s);
        os_ << "for " << c.var << " in " << c.lo.str() << " .. "
            << c.hi.str() << " {\n";
        block(c.body, depth + 1);
        indent(depth);
        os_ << "}\n";
        return;
      }
    }
    os_ << '\n';
  }

  std::string take() { return os_.str(); }

 private:
  void indent(int depth) {
    for (int i = 0; i < depth * 2; ++i) os_ << ' ';
  }

  std::ostringstream os_;
};

}  // namespace

std::string print(const Program& program) {
  Printer body;
  body.block(program.body, 1);
  return "program " + program.name + " {\n" + body.take() + "}\n";
}

std::string print(const Stmt& stmt) {
  Printer p;
  p.stmt(stmt, 0);
  return p.take();
}

}  // namespace acfc::mp
