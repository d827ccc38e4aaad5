// Reference decision procedures for attr::satisfiable / attr::find_match:
// the bounded enumeration written directly over mp::Expr / mp::Pred trees,
// with loop variables in a name-keyed environment (mp::EvalCtx::env,
// innermost binding last). src/attr/solve.cpp compiles the same search;
// tests/test_attr_solver.cpp holds the two to equal verdicts, witnesses
// and remaining budgets. Test-only.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <vector>

#include "attr/attr.h"

namespace acfc::attr::reference {

/// Shared enumeration state with a global budget.
struct Enumerator {
  const SatOptions& opts;
  long budget;

  explicit Enumerator(const SatOptions& o) : opts(o), budget(o.budget) {}

  bool exhausted() const { return budget <= 0; }

  /// True iff every guard is non-false under ctx (unknown passes).
  static bool guards_hold(const PathAttribute& attr, const mp::EvalCtx& ctx) {
    for (const auto& [pred, polarity] : attr.guards) {
      const auto v = pred.eval(ctx);
      if (v.has_value() && *v != polarity) return false;
    }
    return true;
  }

  /// Invokes fn for every loop valuation (building ctx.env); fn returns
  /// false to stop early. Returns false if stopped early.
  bool for_each_valuation(const PathAttribute& attr, mp::EvalCtx& ctx,
                          std::size_t depth,
                          const std::function<bool(const mp::EvalCtx&)>& fn) {
    if (exhausted()) {
      // Budget blown: visit a single synthetic valuation that leaves the
      // inner loop variables unbound.
      return fn(ctx);
    }
    if (depth == attr.loops.size()) {
      --budget;
      return fn(ctx);
    }
    const LoopBinding& binding = attr.loops[depth];
    const auto lo = binding.lo.eval(ctx);
    const auto hi = binding.hi.eval(ctx);
    std::vector<std::int64_t> values;
    if (lo && hi) {
      if (*lo >= *hi) return true;  // loop body never executes
      const std::int64_t span = *hi - *lo;
      const auto cap = static_cast<std::int64_t>(opts.max_loop_values);
      if (span <= cap) {
        for (std::int64_t v = *lo; v < *hi; ++v) values.push_back(v);
      } else {
        for (std::int64_t v = *lo; v < *lo + cap / 2; ++v)
          values.push_back(v);
        for (std::int64_t v = *hi - cap / 2; v < *hi; ++v)
          values.push_back(v);
      }
    } else {
      for (std::int64_t v = -1; v <= ctx.nprocs; ++v) values.push_back(v);
    }
    for (const std::int64_t v : values) {
      ctx.env.emplace_back(binding.var, v);
      const bool keep_going = for_each_valuation(attr, ctx, depth + 1, fn);
      ctx.env.pop_back();
      if (!keep_going) return false;
    }
    return true;
  }

  /// Values an expression takes at (rank, nprocs) over the guard-satisfying
  /// valuations.
  struct ValueSet {
    bool wildcard = false;
    std::set<std::int64_t> values;
    bool reachable = false;  ///< some valuation satisfied the guards
  };

  ValueSet achievable(const PathAttribute& attr, const mp::Expr& expr,
                      int rank, int nprocs) {
    ValueSet out;
    mp::EvalCtx ctx;
    ctx.rank = rank;
    ctx.nprocs = nprocs;
    for_each_valuation(attr, ctx, 0, [&](const mp::EvalCtx& c) {
      if (!guards_hold(attr, c)) return true;
      out.reachable = true;
      const auto v = expr.eval(c);
      if (v) {
        out.values.insert(*v);
      } else {
        out.wildcard = true;
      }
      return !out.wildcard;
    });
    return out;
  }

  bool attr_satisfiable(const PathAttribute& attr, int rank, int nprocs) {
    bool sat = false;
    mp::EvalCtx ctx;
    ctx.rank = rank;
    ctx.nprocs = nprocs;
    for_each_valuation(attr, ctx, 0, [&](const mp::EvalCtx& c) {
      if (guards_hold(attr, c)) {
        sat = true;
        return false;
      }
      return true;
    });
    return sat;
  }
};

inline bool satisfiable(const PathAttribute& attr, const SatOptions& opts,
                        long* budget_left) {
  Enumerator e(opts);
  const auto done = [&](bool verdict) {
    *budget_left = e.budget;
    return verdict;
  };
  for (const int n : opts.world_sizes) {
    for (int rank = 0; rank < n; ++rank) {
      if (e.attr_satisfiable(attr, rank, n)) return done(true);
      if (e.exhausted()) return done(true);  // conservative
    }
  }
  return done(false);
}

inline std::optional<MatchWitness> find_match(const MatchQuery& query,
                                              const SatOptions& opts,
                                              long* budget_left) {
  Enumerator e(opts);
  const auto done = [&](std::optional<MatchWitness> w) {
    *budget_left = e.budget;
    return w;
  };
  for (const int n : opts.world_sizes) {
    std::vector<Enumerator::ValueSet> dest_sets, src_sets;
    for (int r = 0; r < n; ++r) {
      dest_sets.push_back(e.achievable(query.sender_attr, query.dest, r, n));
      src_sets.push_back(e.achievable(query.recv_attr, query.src, r, n));
    }
    for (int p = 0; p < n; ++p) {
      const auto& dest = dest_sets[static_cast<size_t>(p)];
      if (!dest.reachable) continue;
      for (int q = 0; q < n; ++q) {
        if (p == q && !opts.allow_self_messages) continue;
        const auto& src = src_sets[static_cast<size_t>(q)];
        if (!src.reachable) continue;
        const bool dest_ok = dest.wildcard || dest.values.count(q) > 0;
        const bool src_ok =
            query.src_any || src.wildcard || src.values.count(p) > 0;
        if (dest_ok && src_ok) return done(MatchWitness{n, p, q});
      }
    }
    if (e.exhausted())
      return done(MatchWitness{
          opts.world_sizes.empty() ? 2 : opts.world_sizes[0], 0, 1});
  }
  return done(std::nullopt);
}

}  // namespace acfc::attr::reference
