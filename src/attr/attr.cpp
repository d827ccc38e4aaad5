#include "attr/attr.h"

#include <sstream>

#include "mp/subst.h"
#include "util/error.h"

namespace acfc::attr {

std::string PathAttribute::describe() const {
  std::ostringstream os;
  bool first = true;
  for (const auto& [pred, polarity] : guards) {
    if (!first) os << " ∧ ";
    first = false;
    if (polarity) {
      os << pred.str();
    } else {
      os << "¬(" << pred.str() << ")";
    }
  }
  for (const auto& loop : loops) {
    if (!first) os << " ∧ ";
    first = false;
    os << loop.var << " ∈ [" << loop.lo.str() << ", " << loop.hi.str() << ")";
  }
  if (first) os << "⊤";
  return os.str();
}

namespace {

bool collect(const mp::Block& block, int stmt_uid, PathAttribute& acc) {
  for (const auto& s : block.stmts) {
    if (s->uid() == stmt_uid) return true;
    if (const auto* iff = mp::stmt_cast<mp::IfStmt>(s.get())) {
      acc.guards.emplace_back(iff->cond, true);
      if (collect(iff->then_body, stmt_uid, acc)) return true;
      acc.guards.back().second = false;
      if (collect(iff->else_body, stmt_uid, acc)) return true;
      acc.guards.pop_back();
    } else if (const auto* loop = mp::stmt_cast<mp::LoopStmt>(s.get())) {
      acc.loops.push_back({loop->var, loop->lo, loop->hi});
      if (collect(loop->body, stmt_uid, acc)) return true;
      acc.loops.pop_back();
    }
  }
  return false;
}

}  // namespace

PathAttribute attribute_of(const mp::Program& program, int stmt_uid) {
  PathAttribute acc;
  if (!collect(program.body, stmt_uid, acc))
    throw util::ProgramError("attribute_of: no statement with uid " +
                             std::to_string(stmt_uid));
  return acc;
}

namespace {

void collect_endpoints(const mp::Block& block, PathAttribute& acc,
                       std::unordered_map<int, PathAttribute>& out) {
  for (const auto& s : block.stmts) {
    switch (s->kind()) {
      case mp::StmtKind::kSend:
      case mp::StmtKind::kRecv:
      case mp::StmtKind::kBarrier:
      case mp::StmtKind::kBcast:
      case mp::StmtKind::kReduce:
      case mp::StmtKind::kAllreduce:
        out.emplace(s->uid(), acc);
        break;
      case mp::StmtKind::kIf: {
        const auto& iff = static_cast<const mp::IfStmt&>(*s);
        acc.guards.emplace_back(iff.cond, true);
        collect_endpoints(iff.then_body, acc, out);
        acc.guards.back().second = false;
        collect_endpoints(iff.else_body, acc, out);
        acc.guards.pop_back();
        break;
      }
      case mp::StmtKind::kLoop: {
        const auto& loop = static_cast<const mp::LoopStmt&>(*s);
        acc.loops.push_back({loop.var, loop.lo, loop.hi});
        collect_endpoints(loop.body, acc, out);
        acc.loops.pop_back();
        break;
      }
      default:
        break;
    }
  }
}

}  // namespace

std::unordered_map<int, PathAttribute> endpoint_attributes(
    const mp::Program& program) {
  PathAttribute acc;
  std::unordered_map<int, PathAttribute> out;
  collect_endpoints(program.body, acc, out);
  return out;
}

PathAttribute combine_attributes(const PathAttribute& a,
                                 const PathAttribute& b, int salt) {
  PathAttribute out = a;
  // Rename b's loop variables so iterations are not spuriously unified,
  // rewriting b's guards and later loop bounds consistently.
  std::vector<std::pair<std::string, std::string>> renames;
  std::vector<LoopBinding> renamed_loops;
  int counter = 0;
  for (const LoopBinding& loop : b.loops) {
    LoopBinding fresh = loop;
    for (const auto& [old_name, new_name] : renames) {
      fresh.lo = mp::substitute(fresh.lo, old_name,
                                mp::Expr::loop_var(new_name));
      fresh.hi = mp::substitute(fresh.hi, old_name,
                                mp::Expr::loop_var(new_name));
    }
    const std::string new_name =
        loop.var + "$" + std::to_string(salt) + "_" +
        std::to_string(counter++);
    renames.emplace_back(loop.var, new_name);
    fresh.var = new_name;
    renamed_loops.push_back(std::move(fresh));
  }
  for (const auto& [pred, polarity] : b.guards) {
    mp::Pred rewritten = pred;
    for (const auto& [old_name, new_name] : renames)
      rewritten = mp::substitute(rewritten, old_name,
                                 mp::Expr::loop_var(new_name));
    out.guards.emplace_back(std::move(rewritten), polarity);
  }
  out.loops.insert(out.loops.end(), renamed_loops.begin(),
                   renamed_loops.end());
  return out;
}

// ---------------------------------------------------------------------------
// Memoization
// ---------------------------------------------------------------------------

namespace {

/// canonical_key, appended into a caller-owned buffer (the cache-key hot
/// path renders many expressions; one buffer, no streams).
void append_canonical_key(std::string& out, const PathAttribute& attr) {
  for (const auto& [pred, polarity] : attr.guards) {
    out += polarity ? 'G' : 'g';
    pred.append_str(out);
    out += ';';
  }
  for (const auto& loop : attr.loops) {
    out += 'L';
    out += loop.var;
    out += ':';
    loop.lo.append_str(out);
    out += ':';
    loop.hi.append_str(out);
    out += ';';
  }
}

/// Cap against unbounded growth in long-lived processes; far above any
/// single analysis run's distinct-query count.
constexpr size_t kMaxCacheEntries = 1 << 20;

}  // namespace

std::string canonical_key(const PathAttribute& attr) {
  std::string out;
  out.reserve(64);
  append_canonical_key(out, attr);
  return out;
}

std::string options_fingerprint(const SatOptions& opts) {
  std::string out = "|W";
  for (const int n : opts.world_sizes) {
    out += std::to_string(n);
    out += ',';
  }
  out += "|V";
  out += std::to_string(opts.max_loop_values);
  out += "|S";
  out += opts.allow_self_messages ? '1' : '0';
  out += "|B";
  out += std::to_string(opts.budget);
  return out;
}

MatchSide sender_side(const PathAttribute& attr, const mp::Expr& dest) {
  MatchSide side{&attr, &dest, false, {}};
  side.key.reserve(96);
  append_canonical_key(side.key, attr);
  side.key += "|D";
  dest.append_str(side.key);
  side.key += '|';
  return side;
}

MatchSide receiver_side(const PathAttribute& attr, const mp::Expr& src,
                        bool src_any) {
  MatchSide side{&attr, &src, src_any, {}};
  side.key.reserve(96);
  append_canonical_key(side.key, attr);
  side.key += "|R";
  src.append_str(side.key);
  side.key += '|';
  side.key += src_any ? 'A' : 'a';
  return side;
}

bool SatCache::satisfiable(const PathAttribute& attr, const SatOptions& opts) {
  std::string key;
  key.reserve(96);
  append_canonical_key(key, attr);
  key += options_fingerprint(opts);
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sat_.find(key);
    if (it != sat_.end()) {
      ++stats_.hits;
      return it->second;
    }
  }
  const bool verdict = acfc::attr::satisfiable(attr, opts);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.misses;
  if (sat_.size() >= kMaxCacheEntries) sat_.clear();
  sat_.emplace(std::move(key), verdict);
  return verdict;
}

std::optional<MatchWitness> SatCache::find_match(const MatchQuery& query,
                                                const SatOptions& opts) {
  return find_match(sender_side(query.sender_attr, query.dest),
                    receiver_side(query.recv_attr, query.src, query.src_any),
                    options_fingerprint(opts), opts);
}

std::optional<MatchWitness> SatCache::find_match(
    const MatchSide& sender, const MatchSide& receiver,
    const std::string& fingerprint, const SatOptions& opts) {
  // Composed in a per-thread buffer: a hit allocates nothing.
  thread_local std::string key;
  key.assign(sender.key);
  key += receiver.key;
  key += fingerprint;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = match_.find(key);
    if (it != match_.end()) {
      ++stats_.hits;
      return it->second;
    }
  }
  const auto verdict = acfc::attr::find_match(sender, receiver, opts);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.misses;
  if (match_.size() >= kMaxCacheEntries) match_.clear();
  match_.emplace(key, verdict);
  return verdict;
}

SatCache::Stats SatCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void SatCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  sat_.clear();
  match_.clear();
  stats_ = Stats{};
}

SatCache& global_sat_cache() {
  static SatCache cache;
  return cache;
}

bool satisfiable_cached(const PathAttribute& attr, const SatOptions& opts) {
  if (!opts.use_cache) return satisfiable(attr, opts);
  return global_sat_cache().satisfiable(attr, opts);
}

std::optional<MatchWitness> find_match_cached(const MatchQuery& query,
                                              const SatOptions& opts) {
  if (!opts.use_cache) return find_match(query, opts);
  return global_sat_cache().find_match(query, opts);
}

std::optional<MatchWitness> find_match_cached(const MatchSide& sender,
                                              const MatchSide& receiver,
                                              const std::string& fingerprint,
                                              const SatOptions& opts) {
  if (!opts.use_cache) return find_match(sender, receiver, opts);
  return global_sat_cache().find_match(sender, receiver, fingerprint, opts);
}

}  // namespace acfc::attr
