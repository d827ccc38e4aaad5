#include "mp/parser.h"

#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "mp/lower.h"
#include "util/error.h"

namespace acfc::mp {

namespace {

enum class TokKind {
  kIdent,
  kInt,
  kFloat,
  kString,
  kPunct,  // operators and punctuation, text in `text`
  kEnd,
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;
  std::int64_t int_value = 0;
  double float_value = 0.0;
  int line = 1;
  int col = 1;
};

class Lexer {
 public:
  explicit Lexer(const std::string& src) : src_(src) {}

  std::vector<Token> run() {
    std::vector<Token> out;
    while (true) {
      skip_ws_and_comments();
      Token t;
      t.line = line_;
      t.col = col_;
      if (eof()) {
        t.kind = TokKind::kEnd;
        out.push_back(t);
        return out;
      }
      const char c = peek();
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        t.kind = TokKind::kIdent;
        while (!eof() && (std::isalnum(static_cast<unsigned char>(peek())) ||
                          peek() == '_'))
          t.text += get();
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        std::string num;
        while (!eof() && std::isdigit(static_cast<unsigned char>(peek())))
          num += get();
        t.kind = TokKind::kInt;
        // A '.' starts a float only if NOT followed by another '.' (the
        // range operator '..').
        if (!eof() && peek() == '.' && pos_ + 1 < src_.size() &&
            src_[pos_ + 1] != '.') {
          num += get();
          while (!eof() && std::isdigit(static_cast<unsigned char>(peek())))
            num += get();
          t.kind = TokKind::kFloat;
        }
        try {
          if (t.kind == TokKind::kFloat) {
            t.float_value = std::stod(num);
          } else {
            t.int_value = std::stoll(num);
            t.float_value = static_cast<double>(t.int_value);
          }
        } catch (const std::out_of_range&) {
          fail_at(t.line, t.col, "numeric literal " + num + " out of range");
        }
        t.text = num;
      } else if (c == '"') {
        get();
        t.kind = TokKind::kString;
        while (!eof() && peek() != '"') t.text += get();
        if (eof()) fail("unterminated string literal");
        get();  // closing quote
      } else {
        t.kind = TokKind::kPunct;
        // Multi-char operators first.
        static const char* two_char[] = {"==", "!=", "<=", ">=",
                                         "&&", "||", ".."};
        bool matched = false;
        for (const char* op : two_char) {
          if (src_.compare(pos_, 2, op) == 0) {
            t.text = op;
            get();
            get();
            matched = true;
            break;
          }
        }
        if (!matched) {
          static const std::string singles = "{}();+-*/%<>!,";
          if (singles.find(c) == std::string::npos)
            fail(std::string("unexpected character '") + c + "'");
          t.text = std::string(1, get());
        }
      }
      out.push_back(std::move(t));
    }
  }

 private:
  bool eof() const { return pos_ >= src_.size(); }
  char peek() const { return src_[pos_]; }
  char get() {
    const char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  void skip_ws_and_comments() {
    while (!eof()) {
      if (std::isspace(static_cast<unsigned char>(peek()))) {
        get();
      } else if (peek() == '#') {
        while (!eof() && peek() != '\n') get();
      } else {
        return;
      }
    }
  }

  [[noreturn]] void fail(const std::string& msg) const {
    fail_at(line_, col_, msg);
  }

  [[noreturn]] static void fail_at(int line, int col, const std::string& msg) {
    std::ostringstream os;
    os << "parse error at " << line << ':' << col << ": " << msg;
    throw util::ProgramError(os.str());
  }

  const std::string& src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Program run() {
    expect_ident("program");
    Program prog(expect(TokKind::kIdent).text);
    expect_punct("{");
    parse_block(prog.body);
    expect_punct("}");
    if (!at(TokKind::kEnd)) fail("trailing input after program");
    prog.renumber();
    prog.assign_checkpoint_ids();
    return prog;
  }

 private:
  // -- Token helpers --------------------------------------------------------

  const Token& cur() const { return tokens_[pos_]; }
  bool at(TokKind kind) const { return cur().kind == kind; }
  bool at_punct(const std::string& text) const {
    return cur().kind == TokKind::kPunct && cur().text == text;
  }
  bool at_ident(const std::string& text) const {
    return cur().kind == TokKind::kIdent && cur().text == text;
  }
  const Token& advance() { return tokens_[pos_++]; }
  bool accept_punct(const std::string& text) {
    if (!at_punct(text)) return false;
    ++pos_;
    return true;
  }
  bool accept_ident(const std::string& text) {
    if (!at_ident(text)) return false;
    ++pos_;
    return true;
  }
  const Token& expect(TokKind kind) {
    if (!at(kind)) fail("unexpected token '" + cur().text + "'");
    return advance();
  }
  /// A `tag`, `bytes` or irregular-id literal: 0..max, by default
  /// 0..2147483647, the range of the int it is stored in.
  int expect_int(const char* what,
                 int max = std::numeric_limits<int>::max()) {
    if (at(TokKind::kInt) && cur().int_value > max)
      fail(std::string(what) + " " + cur().text + " out of range (want 0.." +
           std::to_string(max) + ")");
    return static_cast<int>(expect(TokKind::kInt).int_value);
  }
  /// A collective's optional `tag`: lowering adds kCollectiveTagBase, so
  /// the sum must still fit an int.
  int collective_tag() {
    return accept_ident("tag") ? expect_int("tag", kMaxCollectiveTag) : 0;
  }
  void expect_punct(const std::string& text) {
    if (!accept_punct(text)) fail("expected '" + text + "'");
  }
  void expect_ident(const std::string& text) {
    if (!accept_ident(text)) fail("expected '" + text + "'");
  }

  [[noreturn]] void fail(const std::string& msg) const {
    std::ostringstream os;
    os << "parse error at " << cur().line << ':' << cur().col << ": " << msg;
    throw util::ProgramError(os.str());
  }

  // -- Grammar --------------------------------------------------------------

  void parse_block(Block& out) {
    while (!at_punct("}") && !at(TokKind::kEnd)) {
      out.stmts.push_back(parse_stmt());
    }
  }

  std::unique_ptr<Stmt> parse_stmt() {
    if (at_ident("if")) return parse_if();
    if (at_ident("for")) return parse_for();
    if (at_ident("loop")) return parse_loop();
    auto s = parse_simple();
    expect_punct(";");
    return s;
  }

  std::unique_ptr<Stmt> parse_simple() {
    if (accept_ident("compute")) {
      double cost = 0.0;
      if (at(TokKind::kFloat) || at(TokKind::kInt)) {
        cost = advance().float_value;
      } else {
        fail("expected numeric cost after 'compute'");
      }
      std::string label;
      if (accept_ident("label")) label = expect(TokKind::kString).text;
      return std::make_unique<ComputeStmt>(cost, std::move(label));
    }
    if (accept_ident("send")) {
      expect_ident("to");
      Expr dest = parse_expr();
      int tag = 0, bytes = 0;
      if (accept_ident("tag"))
        tag = expect_int("tag");
      if (accept_ident("bytes"))
        bytes = expect_int("bytes");
      return std::make_unique<SendStmt>(std::move(dest), tag, bytes);
    }
    if (accept_ident("recv")) {
      expect_ident("from");
      std::unique_ptr<RecvStmt> stmt;
      if (accept_ident("any")) {
        stmt = RecvStmt::any();
      } else {
        stmt = std::make_unique<RecvStmt>(parse_expr());
      }
      if (accept_ident("tag"))
        stmt->tag = expect_int("tag");
      return stmt;
    }
    if (accept_ident("checkpoint")) {
      std::string note;
      if (at(TokKind::kString)) note = advance().text;
      return std::make_unique<CheckpointStmt>(std::move(note));
    }
    if (accept_ident("barrier"))
      return std::make_unique<BarrierStmt>(collective_tag());
    if (accept_ident("bcast")) {
      expect_ident("root");
      Expr root = parse_expr();
      const int tag = collective_tag();
      int bytes = 0;
      if (accept_ident("bytes"))
        bytes = expect_int("bytes");
      return std::make_unique<BcastStmt>(std::move(root), tag, bytes);
    }
    if (accept_ident("reduce")) {
      expect_ident("root");
      Expr root = parse_expr();
      const int tag = collective_tag();
      int bytes = 0;
      if (accept_ident("bytes"))
        bytes = expect_int("bytes");
      return std::make_unique<ReduceStmt>(std::move(root), tag, bytes);
    }
    if (accept_ident("allreduce")) {
      const int tag = collective_tag();
      int bytes = 0;
      if (accept_ident("bytes"))
        bytes = expect_int("bytes");
      return std::make_unique<AllreduceStmt>(tag, bytes);
    }
    fail("expected a statement");
  }

  std::unique_ptr<Stmt> parse_if() {
    expect_ident("if");
    expect_punct("(");
    Pred cond = parse_pred();
    expect_punct(")");
    auto stmt = std::make_unique<IfStmt>(std::move(cond));
    expect_punct("{");
    parse_block(stmt->then_body);
    expect_punct("}");
    if (accept_ident("else")) {
      expect_punct("{");
      parse_block(stmt->else_body);
      expect_punct("}");
    }
    return stmt;
  }

  std::unique_ptr<Stmt> parse_for() {
    expect_ident("for");
    std::string var = expect(TokKind::kIdent).text;
    expect_ident("in");
    Expr lo = parse_expr();
    expect_punct("..");
    Expr hi = parse_expr();
    auto stmt =
        std::make_unique<LoopStmt>(std::move(var), std::move(lo), std::move(hi));
    expect_punct("{");
    parse_block(stmt->body);
    expect_punct("}");
    return stmt;
  }

  std::unique_ptr<Stmt> parse_loop() {
    expect_ident("loop");
    Expr count = parse_expr();
    auto stmt = std::make_unique<LoopStmt>(
        "_loop" + std::to_string(fresh_counter_++), Expr::constant(0),
        std::move(count));
    expect_punct("{");
    parse_block(stmt->body);
    expect_punct("}");
    return stmt;
  }

  Pred parse_pred() {
    Pred lhs = parse_and();
    while (accept_punct("||")) lhs = lhs || parse_and();
    return lhs;
  }

  Pred parse_and() {
    Pred lhs = parse_not();
    while (accept_punct("&&")) lhs = lhs && parse_not();
    return lhs;
  }

  Pred parse_not() {
    if (accept_punct("!")) return !parse_not();
    if (accept_ident("true")) return Pred::always();
    if (at_ident("irregular")) {
      // Could be `irregular(k)` as a predicate or as the start of an
      // arithmetic comparison (e.g. `irregular(k) % 2 == 0`); backtrack if
      // an operator follows.
      const std::size_t save = pos_;
      advance();
      expect_punct("(");
      const int id = expect_int("irregular id");
      expect_punct(")");
      if (!at_cmp_op() && !at_arith_op()) return Pred::irregular(id);
      pos_ = save;
    }
    if (at_punct("(")) {
      // Ambiguous: '(' may open a parenthesized predicate or a
      // parenthesized arithmetic expression that begins a comparison.
      // Try the comparison parse first; backtrack on failure.
      const std::size_t save = pos_;
      try {
        Expr lhs = parse_expr();
        CmpOp op = parse_cmp_op();
        Expr rhs = parse_expr();
        return Pred::cmp(op, std::move(lhs), std::move(rhs));
      } catch (const util::ProgramError&) {
        pos_ = save;
      }
      expect_punct("(");
      Pred inner = parse_pred();
      expect_punct(")");
      return inner;
    }
    Expr lhs = parse_expr();
    CmpOp op = parse_cmp_op();
    Expr rhs = parse_expr();
    return Pred::cmp(op, std::move(lhs), std::move(rhs));
  }

  bool at_cmp_op() const {
    return at_punct("==") || at_punct("!=") || at_punct("<") ||
           at_punct("<=") || at_punct(">") || at_punct(">=");
  }

  bool at_arith_op() const {
    return at_punct("+") || at_punct("-") || at_punct("*") || at_punct("/") ||
           at_punct("%");
  }

  CmpOp parse_cmp_op() {
    if (accept_punct("==")) return CmpOp::kEq;
    if (accept_punct("!=")) return CmpOp::kNe;
    if (accept_punct("<=")) return CmpOp::kLe;
    if (accept_punct("<")) return CmpOp::kLt;
    if (accept_punct(">=")) return CmpOp::kGe;
    if (accept_punct(">")) return CmpOp::kGt;
    fail("expected comparison operator");
  }

  Expr parse_expr() {
    Expr lhs = parse_term();
    while (true) {
      if (accept_punct("+")) {
        lhs = lhs + parse_term();
      } else if (accept_punct("-")) {
        lhs = lhs - parse_term();
      } else {
        return lhs;
      }
    }
  }

  Expr parse_term() {
    Expr lhs = parse_atom();
    while (true) {
      if (accept_punct("*")) {
        lhs = lhs * parse_atom();
      } else if (accept_punct("/")) {
        lhs = lhs / parse_atom();
      } else if (accept_punct("%")) {
        lhs = lhs % parse_atom();
      } else {
        return lhs;
      }
    }
  }

  Expr parse_atom() {
    if (at(TokKind::kInt)) return Expr::constant(advance().int_value);
    if (accept_punct("(")) {
      Expr inner = parse_expr();
      expect_punct(")");
      return inner;
    }
    if (accept_ident("rank")) return Expr::rank();
    if (accept_ident("nprocs")) return Expr::nprocs();
    if (accept_ident("irregular")) {
      expect_punct("(");
      const int id = expect_int("irregular id");
      expect_punct(")");
      return Expr::irregular(id);
    }
    if (at(TokKind::kIdent)) return Expr::loop_var(advance().text);
    fail("expected an expression");
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int fresh_counter_ = 0;
};

}  // namespace

Program parse(const std::string& source) {
  Lexer lexer(source);
  Parser parser(lexer.run());
  return parser.run();
}

Program parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw util::ProgramError("cannot open program file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return parse(buffer.str());
  } catch (const util::ProgramError& e) {
    throw util::ProgramError(path + ": " + e.what());
  }
}

}  // namespace acfc::mp
