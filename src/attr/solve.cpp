// The decision procedures of attr.h — satisfiable and find_match — over
// compiled attributes.
//
// A query is compiled once into an mp/code.h table (each guard, loop
// bound and parameter is a contiguous range ending at its root) and
// enumerated with loop variables held in a value array indexed by binding
// position, the slot each binding is compiled to. Irregular leaves are
// unknown. When the budget runs out mid-enumeration only the outer
// `bound` bindings hold values; a reference to an unbound position falls
// back along `shadow` to the next outer binding of the same name, exactly
// as a name lookup in a partially built environment would. Guards and a
// parameter that read no loop variable are evaluated once per (rank, n),
// not once per valuation.
//
// The enumeration order, the budget accounting and the early stops are
// those of the reference enumerator over mp::Expr trees (kept in
// tests/attr_reference.h and compared by tests/test_attr_solver.cpp).
// A query's buffers come from an arena on the stack, so a typical query
// touches no heap at all. Heap scratch was measurably worse even when
// reused: a per-thread scratch or per-query vectors both raised the
// simulate workload's peak RSS by 0.6-1.6 MiB at an unchanged malloc
// high-water, only by moving where the allocator placed everything else.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <vector>

#include "attr/attr.h"
#include "mp/code.h"

namespace acfc::attr {

namespace {

using mp::Op;

/// A value that may be unknown; predicates are 0 or 1.
struct Val {
  std::int64_t v = 0;
  bool known = false;
};

/// Nodes [begin, root] of the table: one compiled expression or predicate.
struct Range {
  int begin = 0;
  int root = -1;
};

template <class T>
using Vec = std::pmr::vector<T>;
using Guards = Vec<std::pair<Range, bool>>;

/// One attribute (and optionally one parameter) compiled.
struct Side {
  explicit Side(std::pmr::memory_resource* arena)
      : lo(arena), hi(arena), shadow(arena), fixed_guards(arena),
        guards(arena), values(arena) {}

  Vec<Range> lo, hi;  ///< per binding, outermost first
  Vec<int> shadow;    ///< outer binding of the same name, or -1
  /// Guards with their polarity: those reading no loop variable have one
  /// verdict per (rank, n) and are evaluated once for it.
  Guards fixed_guards, guards;
  Range param;
  bool fixed_param = false;  ///< param reads no loop variable
  Vec<std::int64_t> values;  ///< current valuation, by position

  int loops() const { return static_cast<int>(lo.size()); }
};

/// Membership flags of one rank's achievable parameter values.
enum : std::uint8_t { kReachable = 1, kWildcard = 2 };

/// One query: construct on the stack, compile its side(s), solve once.
class Solver {
 public:
  explicit Solver(const SatOptions& opts)
      : opts_(&opts),
        budget_(opts.budget),
        code_(&arena_),
        vals_(&arena_),
        sides_{Side(&arena_), Side(&arena_)},
        bits_(&arena_),
        flags_(&arena_) {}
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Compiles `attr` (and `param`, when given) into sides_[which].
  void compile(int which, const PathAttribute& attr, const mp::Expr* param) {
    Side& side = sides_[which];
    mp::CodeCompiler compiler(code_);
    const auto range = [&](auto compile) {
      const int begin = static_cast<int>(code_.size());
      return Range{begin, compile()};
    };
    for (int d = 0; d < static_cast<int>(attr.loops.size()); ++d) {
      // Bounds of binding d see the bindings outside it.
      const LoopBinding& loop = attr.loops[static_cast<size_t>(d)];
      side.lo.push_back(range([&] { return compiler.expr(loop.lo); }));
      side.hi.push_back(range([&] { return compiler.expr(loop.hi); }));
      side.shadow.push_back(compiler.resolve(loop.var));
      compiler.bind(loop.var, d);
    }
    for (const auto& [pred, polarity] : attr.guards)
      (pred.has_loop_var() ? side.guards : side.fixed_guards)
          .emplace_back(range([&] { return compiler.pred(pred); }), polarity);
    side.values.assign(attr.loops.size(), 0);
    if (param != nullptr) {
      side.param = range([&] { return compiler.expr(*param); });
      side.fixed_param = !param->has_loop_var();
    }
    vals_.resize(code_.size());
  }

  long budget() const { return budget_; }

  bool satisfiable() {
    const Side& side = sides_[0];
    for (const int n : opts_->world_sizes) {
      for (int rank = 0; rank < n; ++rank) {
        bool sat = false;
        const bool fixed = holds(side, side.fixed_guards, rank, n, 0);
        valuations(0, rank, n, 0, [&](int bound) {
          if (!fixed || !holds(side, side.guards, rank, n, bound))
            return true;
          sat = true;
          return false;
        });
        if (sat) return true;
        if (budget_ <= 0) return true;  // conservative
      }
    }
    return false;
  }

  std::optional<MatchWitness> find_match(bool src_any) {
    for (const int n : opts_->world_sizes) {
      // Per-rank reachability and achievable parameter values; only values
      // in [0, n) are ever asked about, so membership is n bits per rank.
      const auto ranks = static_cast<size_t>(std::max(n, 0));
      const auto words = (ranks + 63) / 64;
      bits_.assign(2 * ranks * words, 0);
      flags_.assign(2 * ranks, 0);
      std::uint64_t* dest_bits = bits_.data();
      std::uint64_t* src_bits = dest_bits + ranks * words;
      std::uint8_t* dest_flags = flags_.data();
      std::uint8_t* src_flags = dest_flags + ranks;
      for (int r = 0; r < n; ++r) {
        const auto at = static_cast<size_t>(r);
        achievable(0, r, n, dest_bits + at * words, dest_flags[at]);
        achievable(1, r, n, src_bits + at * words, src_flags[at]);
      }
      for (int p = 0; p < n; ++p) {
        const auto pi = static_cast<size_t>(p);
        if (!(dest_flags[pi] & kReachable)) continue;
        for (int q = 0; q < n; ++q) {
          if (p == q && !opts_->allow_self_messages) continue;
          const auto qi = static_cast<size_t>(q);
          if (!(src_flags[qi] & kReachable)) continue;
          const bool dest_ok = (dest_flags[pi] & kWildcard) ||
                               has_bit(dest_bits + pi * words, q);
          const bool src_ok = src_any || (src_flags[qi] & kWildcard) ||
                              has_bit(src_bits + qi * words, p);
          if (dest_ok && src_ok) return MatchWitness{n, p, q};
        }
      }
      if (budget_ <= 0) {
        // Budget blown: resolve conservatively as matching with a synthetic
        // witness on the smallest world size.
        return MatchWitness{
            opts_->world_sizes.empty() ? 2 : opts_->world_sizes[0], 0, 1};
      }
    }
    return std::nullopt;
  }

 private:
  static bool has_bit(const std::uint64_t* words, int v) {
    return (words[v >> 6] >> (v & 63)) & 1;
  }

  /// Evaluates nodes [r.begin, r.root] of side `side` under a valuation
  /// whose first `bound` bindings hold values.
  Val eval(const Side& side, Range r, int rank, int nprocs, int bound) {
    const mp::CodeNode* code = code_.data();
    Val* vals = vals_.data();
    for (int i = r.begin; i <= r.root; ++i) {
      const mp::CodeNode& n = code[i];
      Val& out = vals[i];
      switch (n.op) {
        case Op::kConst:
          out = {n.value, true};
          continue;
        case Op::kRank:
          out = {rank, true};
          continue;
        case Op::kNProcs:
          out = {nprocs, true};
          continue;
        case Op::kLoopVar: {
          int at = n.a;
          while (at >= bound) at = side.shadow[static_cast<size_t>(at)];
          out = at >= 0 ? Val{side.values[static_cast<size_t>(at)], true}
                        : Val{};
          continue;
        }
        case Op::kUnknown:
        case Op::kIrregular:
        case Op::kIrregularPred:
          out = Val{};
          continue;
        case Op::kTrue:
          out = {1, true};
          continue;
        case Op::kNot:
          out = {vals[n.a].v == 0 ? 1 : 0, vals[n.a].known};
          continue;
        case Op::kAnd: {
          // A definite false wins even if the other side is unknown.
          const Val a = vals[n.a], b = vals[n.b];
          if ((a.known && a.v == 0) || (b.known && b.v == 0))
            out = {0, true};
          else
            out = {1, a.known && b.known};
          continue;
        }
        case Op::kOr: {
          const Val a = vals[n.a], b = vals[n.b];
          if ((a.known && a.v != 0) || (b.known && b.v != 0))
            out = {1, true};
          else
            out = {0, a.known && b.known};
          continue;
        }
        default:
          break;
      }
      const Val a = vals[n.a], b = vals[n.b];
      if (!a.known || !b.known) {
        out = Val{};
        continue;
      }
      switch (n.op) {
        case Op::kAdd:
          out = {a.v + b.v, true};
          break;
        case Op::kSub:
          out = {a.v - b.v, true};
          break;
        case Op::kMul:
          out = {a.v * b.v, true};
          break;
        case Op::kDiv:
          out = b.v == 0 ? Val{} : Val{a.v / b.v, true};
          break;
        case Op::kMod: {
          if (b.v == 0) {
            out = Val{};
            break;
          }
          // Euclidean, as mp::Expr::eval.
          std::int64_t m = a.v % b.v;
          if (m < 0) m += (b.v < 0 ? -b.v : b.v);
          out = {m, true};
          break;
        }
        case Op::kEq:
          out = {a.v == b.v, true};
          break;
        case Op::kNe:
          out = {a.v != b.v, true};
          break;
        case Op::kLt:
          out = {a.v < b.v, true};
          break;
        case Op::kLe:
          out = {a.v <= b.v, true};
          break;
        case Op::kGt:
          out = {a.v > b.v, true};
          break;
        default:  // kGe
          out = {a.v >= b.v, true};
          break;
      }
    }
    return vals[r.root];
  }

  /// True iff none of `guards` is definitely violated (unknown passes).
  bool holds(const Side& side, const Guards& guards, int rank, int nprocs,
             int bound) {
    for (const auto& [range, polarity] : guards) {
      const Val v = eval(side, range, rank, nprocs, bound);
      if (v.known && (v.v != 0) != polarity) return false;
    }
    return true;
  }

  /// Calls fn(bound) for every valuation of sides_[which]'s loops from
  /// `depth` inward; fn returns false to stop. Returns false if stopped.
  /// Once the budget is spent, every remaining call visits one valuation
  /// with the inner bindings left unbound (their references are unknown,
  /// i.e. wildcards) — the conservative resolution.
  template <class Fn>
  bool valuations(int which, int rank, int nprocs, int depth, const Fn& fn) {
    if (budget_ <= 0) return fn(depth);
    Side& side = sides_[which];
    if (depth == side.loops()) {
      --budget_;
      return fn(depth);
    }
    const auto at = static_cast<size_t>(depth);
    const Val lo = eval(side, side.lo[at], rank, nprocs, depth);
    const Val hi = eval(side, side.hi[at], rank, nprocs, depth);
    const auto visit = [&](std::int64_t first, std::int64_t last) {
      for (std::int64_t v = first; v < last; ++v) {
        side.values[at] = v;
        if (!valuations(which, rank, nprocs, depth + 1, fn)) return false;
      }
      return true;
    };
    if (lo.known && hi.known) {
      if (lo.v >= hi.v) return true;  // loop body never executes
      const auto cap = static_cast<std::int64_t>(opts_->max_loop_values);
      if (hi.v - lo.v <= cap) return visit(lo.v, hi.v);
      // Sample head and tail; rank-valued destinations live near the
      // range ends in the common idioms (0, 1, ..., nprocs-1).
      return visit(lo.v, lo.v + cap / 2) && visit(hi.v - cap / 2, hi.v);
    }
    // Unknown bounds (irregular): the plausible rank-adjacent values.
    return visit(-1, static_cast<std::int64_t>(nprocs) + 1);
  }

  /// Reachability and parameter values of sides_[which] at (rank, nprocs).
  void achievable(int which, int rank, int nprocs, std::uint64_t* words,
                  std::uint8_t& flags) {
    const Side& side = sides_[which];
    const bool fixed = holds(side, side.fixed_guards, rank, nprocs, 0);
    const Val fixed_value =
        side.fixed_param ? eval(side, side.param, rank, nprocs, 0) : Val{};
    valuations(which, rank, nprocs, 0, [&](int bound) {
      if (!fixed || !holds(side, side.guards, rank, nprocs, bound))
        return true;
      flags |= kReachable;
      const Val v = side.fixed_param
                        ? fixed_value
                        : eval(side, side.param, rank, nprocs, bound);
      if (!v.known) {
        flags |= kWildcard;
        return false;  // reachable and wildcard: nothing left to learn
      }
      if (v.v >= 0 && v.v < nprocs)
        words[v.v >> 6] |= std::uint64_t{1} << (v.v & 63);
      return true;
    });
  }

  /// Backs every buffer below; a query that outgrows it continues on
  /// the heap. Typical queries use a few KiB.
  alignas(std::max_align_t) std::byte inline_[16384];
  std::pmr::monotonic_buffer_resource arena_{inline_, sizeof inline_};
  const SatOptions* opts_;
  long budget_;
  Vec<mp::CodeNode> code_;
  Vec<Val> vals_;
  Side sides_[2];
  Vec<std::uint64_t> bits_;
  Vec<std::uint8_t> flags_;
};

}  // namespace

bool satisfiable(const PathAttribute& attr, const SatOptions& opts,
                 long* budget_left) {
  Solver s(opts);
  s.compile(0, attr, nullptr);
  const bool verdict = s.satisfiable();
  if (budget_left != nullptr) *budget_left = s.budget();
  return verdict;
}

std::optional<MatchWitness> find_match(const MatchSide& sender,
                                       const MatchSide& receiver,
                                       const SatOptions& opts,
                                       long* budget_left) {
  Solver s(opts);
  s.compile(0, *sender.attr, sender.param);
  s.compile(1, *receiver.attr, receiver.param);
  const auto witness = s.find_match(receiver.any);
  if (budget_left != nullptr) *budget_left = s.budget();
  return witness;
}

std::optional<MatchWitness> find_match(const MatchQuery& query,
                                       const SatOptions& opts,
                                       long* budget_left) {
  const MatchSide sender{&query.sender_attr, &query.dest, false, {}};
  const MatchSide receiver{&query.recv_attr, &query.src, query.src_any, {}};
  return find_match(sender, receiver, opts, budget_left);
}

}  // namespace acfc::attr
