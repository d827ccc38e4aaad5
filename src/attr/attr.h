// Path attributes and the contradiction test of Phase II (Section 3.2).
//
// The paper: every control path out of an ID-dependent branch carries an
// *attribute* derived from the condition expression; a send node matches a
// receive node when the receiver's source attribute and the sender's
// destination attribute "do not present any contradiction".
//
// We represent a statement's attribute as the conjunction of its enclosing
// branch conditions (with polarity) plus the ranges of enclosing loop
// variables. The decision procedure is exact bounded enumeration: a
// contradiction is declared only if NO world size n in a configured set, no
// rank assignment, and no loop-variable valuation satisfies all constraints
// simultaneously. Data-dependent (irregular) terms evaluate to "unknown"
// and are treated as satisfiable — the conservative direction, which keeps
// Lemma 3.1 (the true sender is always among the matches) valid.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mp/expr.h"
#include "mp/pred.h"
#include "mp/stmt.h"

namespace acfc::attr {

/// An enclosing loop binding: var ranges over [lo, hi).
struct LoopBinding {
  std::string var;
  mp::Expr lo;
  mp::Expr hi;
};

/// The attribute of a control path: all guards that must hold (with
/// polarity) for the statement to execute, plus loop-variable ranges,
/// outermost first.
struct PathAttribute {
  std::vector<std::pair<mp::Pred, bool>> guards;
  std::vector<LoopBinding> loops;

  /// Human-readable conjunction, e.g. "rank % 2 == 0 ∧ ¬(rank == 0)".
  std::string describe() const;
};

/// Computes the attribute of the statement with `stmt_uid` from the
/// program structure. Throws util::ProgramError if the uid is absent.
PathAttribute attribute_of(const mp::Program& program, int stmt_uid);

/// Attributes of every message endpoint (send/recv/collective) statement,
/// keyed by uid, gathered in ONE program walk — attribute_of restarts its
/// walk per statement, which is quadratic when a caller (Algorithm 3.1)
/// needs every endpoint.
std::unordered_map<int, PathAttribute> endpoint_attributes(
    const mp::Program& program);

/// Conjoins two attributes describing statements executed by the SAME
/// process (e.g. both endpoints of a control-flow segment). The second
/// attribute's loop variables are renamed (suffix "$<salt>...") before
/// merging: the two statements may execute in different iterations, so
/// identically-named loop variables must not be unified.
PathAttribute combine_attributes(const PathAttribute& a,
                                 const PathAttribute& b, int salt);

struct SatOptions {
  /// World sizes to enumerate. Chosen to include sizes with different
  /// parity, primes, and powers of two so that modular and boundary
  /// attributes are exercised. IMPORTANT: the enumeration is exact only
  /// over these sizes — if the program will deploy at larger n and its
  /// guards gate communication on n (e.g. butterfly rounds needing
  /// rank + 2^k < nprocs), extend this list to cover the deployment
  /// scale, or matching may miss edges that only materialize there.
  std::vector<int> world_sizes = {2, 3, 4, 5, 6, 7, 8, 12, 16};
  /// Cap on enumerated values per loop variable: when a loop range is
  /// larger, the head and tail of the range are sampled.
  int max_loop_values = 64;
  /// Whether a process may message itself (MPI allows it; the paper's
  /// model pairs distinct processes).
  bool allow_self_messages = false;
  /// Safety valve: enumeration budget. On exhaustion the query resolves
  /// conservatively (satisfiable / matching).
  long budget = 4'000'000;
  /// Consult the process-wide memoization cache (global_sat_cache) in
  /// satisfiable_cached / find_match_cached. Verdicts are deterministic
  /// functions of (attribute, options), so caching never changes results —
  /// only speed. Off reproduces the uncached enumeration exactly.
  bool use_cache = true;
};

/// Is there a (world size, rank, loop valuation) under which every guard
/// of the attribute holds? Unknown guard values count as satisfied.
/// `budget_left`, when given, receives the enumeration budget the query
/// left unspent (0 when it ran out).
bool satisfiable(const PathAttribute& attr, const SatOptions& opts = {},
                 long* budget_left = nullptr);

/// A send/recv compatibility query (the heart of Algorithm 3.1).
struct MatchQuery {
  PathAttribute sender_attr;
  mp::Expr dest;  ///< sender's destination parameter
  PathAttribute recv_attr;
  mp::Expr src;   ///< receiver's source parameter
  bool src_any = false;  ///< MPI_ANY_SOURCE on the receive
};

/// A concrete witness that the pair can communicate.
struct MatchWitness {
  int nprocs = 0;
  int sender = 0;
  int receiver = 0;
};

/// Searches for (n, p, q) with p ≠ q (unless allow_self_messages), sender
/// guards true at p, receiver guards true at q, dest(p) = q, src(q) = p.
/// Irregular dest/src act as wildcards. Returns nullopt iff the attributes
/// contradict (no witness in the enumerated space). `budget_left` as for
/// satisfiable.
std::optional<MatchWitness> find_match(const MatchQuery& query,
                                       const SatOptions& opts = {},
                                       long* budget_left = nullptr);

/// One side of a match query held by reference — the endpoint's path
/// attribute and its parameter (a send's dest, a receive's src) — plus
/// that side's part of the cache key, rendered once. A caller that pairs
/// many endpoints (build_extended_cfg) makes one side per endpoint and
/// reuses it for every pair, so a cache hit renders no expression. Both
/// referents must outlive the side.
struct MatchSide {
  const PathAttribute* attr = nullptr;
  const mp::Expr* param = nullptr;
  bool any = false;  ///< receiver only: MPI_ANY_SOURCE
  std::string key;
};
MatchSide sender_side(const PathAttribute& attr, const mp::Expr& dest);
MatchSide receiver_side(const PathAttribute& attr, const mp::Expr& src,
                        bool src_any);

/// find_match over two sides: the same search as find_match(MatchQuery)
/// with sender_attr/dest from `sender` and recv_attr/src/src_any from
/// `receiver`. Keys are not read.
std::optional<MatchWitness> find_match(const MatchSide& sender,
                                       const MatchSide& receiver,
                                       const SatOptions& opts,
                                       long* budget_left = nullptr);

// -- Memoization -------------------------------------------------------------
//
// Both decision procedures are pure functions of (attribute(s), options),
// and the offline analyzer asks the same questions over and over: Phase II
// queries every (send, recv) pair, refine_classification re-checks segment
// co-satisfiability per hop, and every repair builds the extended CFG again
// (once to confirm, and per refined round) without having changed any
// send/recv attribute. The
// cache canonicalizes the query to a string key (deterministic expression
// printing + an options fingerprint) and memoizes the verdict.

/// Deterministic canonical key of an attribute: guards with polarity plus
/// loop bindings, in order. Two attributes with equal keys are the same
/// conjunction, so they have the same satisfiability verdict.
std::string canonical_key(const PathAttribute& attr);

/// Every SatOptions field that can change a verdict, rendered for a cache
/// key; a caller issuing many queries under one options value renders it
/// once.
std::string options_fingerprint(const SatOptions& opts);

class SatCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  /// Memoized attr::satisfiable.
  bool satisfiable(const PathAttribute& attr, const SatOptions& opts);
  /// Memoized attr::find_match.
  std::optional<MatchWitness> find_match(const MatchQuery& query,
                                         const SatOptions& opts);
  /// Memoized attr::find_match over pre-rendered sides; `fingerprint` is
  /// options_fingerprint(opts). Keys equal those of the MatchQuery form,
  /// so both forms share entries.
  std::optional<MatchWitness> find_match(const MatchSide& sender,
                                         const MatchSide& receiver,
                                         const std::string& fingerprint,
                                         const SatOptions& opts);

  Stats stats() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, bool> sat_;
  std::unordered_map<std::string, std::optional<MatchWitness>> match_;
  Stats stats_;
};

/// The process-wide cache shared by build_extended_cfg and
/// refine_classification (and anything else that opts in).
SatCache& global_sat_cache();

/// satisfiable / find_match through global_sat_cache() when
/// opts.use_cache, else the plain uncached enumeration.
bool satisfiable_cached(const PathAttribute& attr, const SatOptions& opts = {});
std::optional<MatchWitness> find_match_cached(const MatchQuery& query,
                                              const SatOptions& opts = {});
std::optional<MatchWitness> find_match_cached(const MatchSide& sender,
                                              const MatchSide& receiver,
                                              const std::string& fingerprint,
                                              const SatOptions& opts);

}  // namespace acfc::attr
