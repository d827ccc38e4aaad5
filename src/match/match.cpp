#include "match/match.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "util/error.h"

namespace acfc::match {

ExtendedCfg::ExtendedCfg(const mp::Program* program, cfg::Cfg graph,
                         std::vector<MessageEdge> edges)
    : program_(program), graph_(std::move(graph)), edges_(std::move(edges)) {
  ACFC_CHECK(program_ != nullptr);
  // CSR adjacency, built once: stable sort keeps match order within a node.
  const auto n = static_cast<size_t>(graph_.node_count());
  std::stable_sort(edges_.begin(), edges_.end(),
                   [](const MessageEdge& a, const MessageEdge& b) {
                     return a.send < b.send;
                   });
  in_edges_ = edges_;
  std::stable_sort(in_edges_.begin(), in_edges_.end(),
                   [](const MessageEdge& a, const MessageEdge& b) {
                     return a.recv < b.recv;
                   });
  out_offset_.assign(n + 1, 0);
  in_offset_.assign(n + 1, 0);
  for (const MessageEdge& e : edges_)
    ++out_offset_[static_cast<size_t>(e.send) + 1];
  for (const MessageEdge& e : in_edges_)
    ++in_offset_[static_cast<size_t>(e.recv) + 1];
  for (size_t v = 0; v < n; ++v) {
    out_offset_[v + 1] += out_offset_[v];
    in_offset_[v + 1] += in_offset_[v];
  }
}

std::span<const MessageEdge> ExtendedCfg::edges_from(cfg::NodeId send) const {
  const auto lo = static_cast<size_t>(out_offset_[static_cast<size_t>(send)]);
  const auto hi =
      static_cast<size_t>(out_offset_[static_cast<size_t>(send) + 1]);
  return {edges_.data() + lo, hi - lo};
}

std::span<const MessageEdge> ExtendedCfg::edges_to(cfg::NodeId recv) const {
  const auto lo = static_cast<size_t>(in_offset_[static_cast<size_t>(recv)]);
  const auto hi =
      static_cast<size_t>(in_offset_[static_cast<size_t>(recv) + 1]);
  return {in_edges_.data() + lo, hi - lo};
}

namespace {

/// The attribute of a CFG node's originating statement; nullopt for nodes
/// without one (entry/exit/join — never segment endpoints here).
std::optional<attr::PathAttribute> node_attr(const ExtendedCfg& ext,
                                             cfg::NodeId id) {
  const cfg::Node& node = ext.graph().node(id);
  if (node.stmt == nullptr) return std::nullopt;
  return attr::attribute_of(ext.program(), node.stmt_uid);
}

/// Can one process execute both `a` and `b` (in some iterations)?
bool co_satisfiable(const ExtendedCfg& ext, cfg::NodeId a, cfg::NodeId b,
                    const attr::SatOptions& sat) {
  const auto attr_a = node_attr(ext, a);
  const auto attr_b = node_attr(ext, b);
  if (!attr_a || !attr_b) return true;  // conservative
  return attr::satisfiable_cached(
      attr::combine_attributes(*attr_a, *attr_b, 1), sat);
}

/// Can the hop (from-side constraints + message edge) actually fire?
bool hop_matches(const ExtendedCfg& ext, cfg::NodeId from,
                 const MessageEdge& edge, const attr::SatOptions& sat) {
  const cfg::Node& send_node = ext.graph().node(edge.send);
  const cfg::Node& recv_node = ext.graph().node(edge.recv);
  if (send_node.kind == cfg::NodeKind::kCollective ||
      recv_node.kind == cfg::NodeKind::kCollective)
    return true;  // collectives synchronize everyone: conservative
  const auto attr_from = node_attr(ext, from);
  const auto attr_send = node_attr(ext, edge.send);
  const auto attr_recv = node_attr(ext, edge.recv);
  if (!attr_from || !attr_send || !attr_recv) return true;

  attr::MatchQuery query;
  query.sender_attr = attr::combine_attributes(*attr_send, *attr_from, 2);
  query.dest = static_cast<const mp::SendStmt*>(send_node.stmt)->dest;
  query.recv_attr = *attr_recv;
  const auto* recv_stmt = static_cast<const mp::RecvStmt*>(recv_node.stmt);
  query.src = recv_stmt->src;
  query.src_any = recv_stmt->any_source;
  return attr::find_match_cached(query, sat).has_value();
}

/// Is there a feasible decomposition from → (hop)+ → to? `acyclic_only`
/// restricts every control-flow segment to back-edge-free reachability
/// (the hard-violation class).
bool feasible_path(const ExtendedCfg& ext, cfg::NodeId from, cfg::NodeId to,
                   bool acyclic_only, int hops_left,
                   const ExtendedCfg::RefineOptions& opts) {
  if (hops_left <= 0) return true;  // hop budget exhausted: conservative
  const cfg::Cfg& graph = ext.graph();
  auto reaches = [&](cfg::NodeId a, cfg::NodeId b) {
    return acyclic_only ? graph.reaches_acyclic(a, b) : graph.reaches(a, b);
  };
  for (const MessageEdge& edge : ext.message_edges()) {
    if (!reaches(from, edge.send)) continue;
    if (!co_satisfiable(ext, from, edge.send, opts.sat)) continue;
    if (!hop_matches(ext, from, edge, opts.sat)) continue;
    if (reaches(edge.recv, to) &&
        co_satisfiable(ext, edge.recv, to, opts.sat))
      return true;
    if (feasible_path(ext, edge.recv, to, acyclic_only, hops_left - 1,
                      opts))
      return true;
  }
  return false;
}

}  // namespace

PathClass ExtendedCfg::refine_classification(cfg::NodeId from, cfg::NodeId to,
                                             const PathClass& coarse,
                                             const RefineOptions& opts) const {
  if (!coarse.has_message_path) return coarse;
  PathClass refined;
  refined.has_message_path =
      feasible_path(*this, from, to, /*acyclic_only=*/false, opts.max_hops,
                    opts);
  refined.message_path_without_back_edge =
      coarse.message_path_without_back_edge && refined.has_message_path &&
      feasible_path(*this, from, to, /*acyclic_only=*/true, opts.max_hops,
                    opts);
  return refined;
}

std::string ExtendedCfg::to_dot(const std::string& title) const {
  std::vector<cfg::Edge> extra;
  extra.reserve(edges_.size());
  for (const auto& e : edges_) extra.push_back({e.send, e.recv});
  return graph_.to_dot(title, extra);
}

namespace {

struct Endpoint {
  cfg::NodeId node = cfg::kNoNode;
  const mp::Stmt* stmt = nullptr;
  /// Borrowed from the build's attribute table — endpoints never own or
  /// copy attributes.
  const attr::PathAttribute* attribute = nullptr;
  int tag = 0;
  /// This endpoint's side of every match query it joins; its cache-key
  /// part is rendered on first use and reused for every pair.
  std::optional<attr::MatchSide> side;
};

bool endpoint_irregular(const mp::Expr& param) { return param.has_irregular(); }

}  // namespace

ExtendedCfg build_extended_cfg(const mp::Program& program,
                               const MatchOptions& opts) {
  cfg::Cfg graph = cfg::build_cfg(program);

  // Endpoint path attributes, gathered in one program walk on first use
  // (attribute_of restarts per statement — quadratic).
  std::optional<std::unordered_map<int, attr::PathAttribute>> all_attrs;
  const auto query_attribute = [&](int uid) -> const attr::PathAttribute* {
    if (!all_attrs) all_attrs = attr::endpoint_attributes(program);
    return &all_attrs->at(uid);
  };

  // Collect send and recv endpoints in RPO (the DFS scan of Algorithm 3.1).
  std::vector<Endpoint> sends, recvs;
  std::vector<cfg::NodeId> collectives;
  for (const cfg::NodeId id : graph.rpo()) {
    const cfg::Node& n = graph.node(id);
    switch (n.kind) {
      case cfg::NodeKind::kSend: {
        Endpoint e;
        e.node = id;
        e.stmt = n.stmt;
        e.attribute = query_attribute(n.stmt_uid);
        e.tag = static_cast<const mp::SendStmt*>(n.stmt)->tag;
        sends.push_back(std::move(e));
        break;
      }
      case cfg::NodeKind::kRecv: {
        Endpoint e;
        e.node = id;
        e.stmt = n.stmt;
        e.attribute = query_attribute(n.stmt_uid);
        e.tag = static_cast<const mp::RecvStmt*>(n.stmt)->tag;
        recvs.push_back(std::move(e));
        break;
      }
      case cfg::NodeKind::kCollective:
        collectives.push_back(id);
        break;
      default:
        break;
    }
  }

  // Every query of this build shares one options value: render its key
  // part once.
  const std::string fingerprint =
      opts.sat.use_cache ? attr::options_fingerprint(opts.sat) : std::string();
  const auto send_side = [](Endpoint& s) -> const attr::MatchSide& {
    if (!s.side)
      s.side = attr::sender_side(
          *s.attribute, static_cast<const mp::SendStmt*>(s.stmt)->dest);
    return *s.side;
  };
  const auto recv_side = [](Endpoint& r) -> const attr::MatchSide& {
    if (!r.side) {
      const auto* stmt = static_cast<const mp::RecvStmt*>(r.stmt);
      r.side = attr::receiver_side(*r.attribute, stmt->src, stmt->any_source);
    }
    return *r.side;
  };

  std::vector<MessageEdge> edges;
  std::vector<char> send_matched(sends.size(), 0);

  for (Endpoint& r : recvs) {
    const auto* recv_stmt = static_cast<const mp::RecvStmt*>(r.stmt);
    bool recv_matched = false;
    const bool recv_irregular =
        recv_stmt->any_source || endpoint_irregular(recv_stmt->src);
    for (size_t si = 0; si < sends.size(); ++si) {
      Endpoint& s = sends[si];
      const auto* send_stmt = static_cast<const mp::SendStmt*>(s.stmt);
      if (s.tag != r.tag) continue;

      const bool send_irregular = endpoint_irregular(send_stmt->dest);
      const bool irregular = recv_irregular || send_irregular;
      if (opts.policy == MatchPolicy::kPaperGreedy && !irregular &&
          (send_matched[si] || recv_matched)) {
        // Regular patterns match one-to-one, first fit.
        continue;
      }

      const auto witness = attr::find_match_cached(
          send_side(s), recv_side(r), fingerprint, opts.sat);
      if (!witness) continue;

      edges.push_back({s.node, r.node, *witness});
      send_matched[si] = 1;
      recv_matched = true;
      if (opts.policy == MatchPolicy::kPaperGreedy && !irregular) break;
    }
  }

  // Collectives: a collective statement synchronizes every process, and —
  // like MPI — matches by sequence on the communicator, not by call site.
  // Two textually distinct collective statements of the same kind can
  // therefore rendezvous when executed by processes on different paths.
  // We add a self edge on every collective node plus bidirectional edges
  // between same-kind pairs whose path attributes are co-satisfiable
  // (conservative for bcast, whose causality is really root→others).
  for (const cfg::NodeId id : collectives)
    edges.push_back({id, id, attr::MatchWitness{2, 0, 1}});
  // Co-satisfiability as a match query: a wildcard destination and an
  // any-source receive. Each collective's two sides are rendered once.
  const mp::Expr wildcard_dest = mp::Expr::irregular(-1);
  const mp::Expr unused_src;
  std::vector<std::optional<attr::MatchSide>> as_sender(collectives.size());
  std::vector<std::optional<attr::MatchSide>> as_receiver(collectives.size());
  for (size_t i = 0; i < collectives.size(); ++i) {
    for (size_t j = i + 1; j < collectives.size(); ++j) {
      const cfg::Node& a = graph.node(collectives[i]);
      const cfg::Node& b = graph.node(collectives[j]);
      if (a.stmt->kind() != b.stmt->kind()) continue;
      if (!as_sender[i])
        as_sender[i] =
            attr::sender_side(*query_attribute(a.stmt_uid), wildcard_dest);
      if (!as_receiver[j])
        as_receiver[j] = attr::receiver_side(*query_attribute(b.stmt_uid),
                                             unused_src, /*src_any=*/true);
      const auto witness = attr::find_match_cached(
          *as_sender[i], *as_receiver[j], fingerprint, opts.sat);
      if (!witness) continue;
      edges.push_back({collectives[i], collectives[j], *witness});
      edges.push_back({collectives[j], collectives[i],
                       attr::MatchWitness{witness->nprocs, witness->receiver,
                                          witness->sender}});
    }
  }

  return ExtendedCfg(&program, std::move(graph), std::move(edges));
}

}  // namespace acfc::match
