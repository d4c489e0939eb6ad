#include "skeleton/deadlock.hpp"

#include <algorithm>
#include <sstream>

#include "skeleton/request_table.hpp"

namespace ovp::skel {

namespace {

using analysis::DiagCode;
using analysis::Diagnostic;
using analysis::Severity;

struct Node {
  OpRef ref;
  const Op* op = nullptr;
};

struct Graph {
  std::vector<Node> nodes;
  std::vector<std::vector<int>> out;  // adjacency by node id
};

[[nodiscard]] bool rendezvous(Bytes bytes, const DeadlockConfig& cfg) {
  return bytes != kAnyBytes && !mpi::sendsEagerly(bytes, cfg.eager_limit);
}

/// Is this op a potential blocking node?  (Wait/Waitall decided later,
/// once the request table says what they retire.)
[[nodiscard]] bool alwaysBlocking(const Op& op, const DeadlockConfig& cfg) {
  switch (op.kind) {
    case OpKind::Recv:
    case OpKind::Sendrecv:
    case OpKind::Barrier:
      return true;
    case OpKind::Send:
      return rendezvous(op.bytes, cfg);
    default:
      return false;
  }
}

std::string nodeLabel(const Node& n) {
  std::ostringstream os;
  os << "rank " << n.ref.rank << " op#" << n.ref.index << ' '
     << opKindName(n.op->kind);
  if (!n.op->site.empty()) os << '(' << n.op->site << ')';
  return os.str();
}

/// Iterative Tarjan SCC; returns components in a deterministic order.
std::vector<std::vector<int>> stronglyConnected(const Graph& g) {
  const int n = static_cast<int>(g.nodes.size());
  std::vector<int> index(static_cast<std::size_t>(n), -1);
  std::vector<int> low(static_cast<std::size_t>(n), 0);
  std::vector<bool> on_stack(static_cast<std::size_t>(n), false);
  std::vector<int> stack;
  std::vector<std::vector<int>> components;
  int next_index = 0;

  struct Frame {
    int v;
    std::size_t edge;
  };
  for (int root = 0; root < n; ++root) {
    if (index[static_cast<std::size_t>(root)] != -1) continue;
    std::vector<Frame> call;
    call.push_back({root, 0});
    index[static_cast<std::size_t>(root)] =
        low[static_cast<std::size_t>(root)] = next_index++;
    stack.push_back(root);
    on_stack[static_cast<std::size_t>(root)] = true;
    while (!call.empty()) {
      Frame& f = call.back();
      const auto v = static_cast<std::size_t>(f.v);
      if (f.edge < g.out[v].size()) {
        const int w = g.out[v][f.edge++];
        const auto wi = static_cast<std::size_t>(w);
        if (index[wi] == -1) {
          index[wi] = low[wi] = next_index++;
          stack.push_back(w);
          on_stack[wi] = true;
          call.push_back({w, 0});
        } else if (on_stack[wi]) {
          low[v] = std::min(low[v], index[wi]);
        }
      } else {
        if (low[v] == index[v]) {
          std::vector<int> comp;
          while (true) {
            const int w = stack.back();
            stack.pop_back();
            on_stack[static_cast<std::size_t>(w)] = false;
            comp.push_back(w);
            if (w == f.v) break;
          }
          std::sort(comp.begin(), comp.end());
          components.push_back(std::move(comp));
        }
        const int child = f.v;
        call.pop_back();
        if (!call.empty()) {
          const auto p = static_cast<std::size_t>(call.back().v);
          low[p] =
              std::min(low[p], low[static_cast<std::size_t>(child)]);
        }
      }
    }
  }
  return components;
}

}  // namespace

DeadlockResult runDeadlock(const Skeleton& skel, const MatchResult& match,
                           const DeadlockConfig& cfg) {
  DeadlockResult result;
  std::vector<Diagnostic> diags;
  const int P = skel.nranks;

  // Every per-op table is one flat array: op i of rank r sits at
  // base[r] + i.
  std::vector<std::size_t> base(static_cast<std::size_t>(P) + 1, 0);
  for (Rank r = 0; r < P; ++r) {
    base[static_cast<std::size_t>(r) + 1] =
        base[static_cast<std::size_t>(r)] +
        skel.ranks[static_cast<std::size_t>(r)].ops.size();
  }
  const auto flat = [&base](const OpRef& ref) {
    return base[static_cast<std::size_t>(ref.rank)] +
           static_cast<std::size_t>(ref.index);
  };

  // Partner lookup from the concrete pairing (invalid OpRef: unmatched).
  std::vector<OpRef> send_partner(base.back());  // send half -> receive op
  std::vector<OpRef> recv_partner(base.back());  // receive half -> send op
  for (const MatchEdge& e : match.edges) {
    send_partner[flat(e.send)] = e.recv;
    recv_partner[flat(e.recv)] = e.send;
  }

  // Per-rank request table (req -> posting op index) and blocking-node
  // discovery.  prev_node holds, per op, the latest blocking node strictly
  // before it on its rank: reaching the op requires completing that node
  // (earlier ones chain), so it is the target of every dependency edge.
  Graph g;
  std::vector<int> prev_node(base.back(), -1);
  std::vector<std::vector<int>> barriers(static_cast<std::size_t>(P));
  std::vector<RequestTable<int>> req_posts;
  req_posts.reserve(static_cast<std::size_t>(P));

  const auto isBlockingWait = [&](Rank r, const Op& op,
                                  const RequestTable<int>& req_post) {
    const Program& prog = skel.ranks[static_cast<std::size_t>(r)];
    const auto blocks_on = [&](int q) {
      const int at = req_post.get(q);
      if (at < 0) return false;
      const Op& post = prog.ops[static_cast<std::size_t>(at)];
      return post.kind == OpKind::Irecv ||
             (post.kind == OpKind::Isend && rendezvous(post.bytes, cfg));
    };
    if (op.kind == OpKind::Wait) return blocks_on(op.req);
    return std::any_of(op.reqs.begin(), op.reqs.end(), blocks_on);
  };

  for (Rank r = 0; r < P; ++r) {
    const Program& prog = skel.ranks[static_cast<std::size_t>(r)];
    RequestTable<int>& req_post = req_posts.emplace_back(prog.ops.size(), -1);
    int last = -1;
    for (std::size_t i = 0; i < prog.ops.size(); ++i) {
      const Op& op = prog.ops[i];
      const OpRef ref{r, static_cast<std::int32_t>(i)};
      prev_node[flat(ref)] = last;
      if (op.kind == OpKind::Isend || op.kind == OpKind::Irecv) {
        req_post.set(op.req, static_cast<int>(i));
      }
      const bool node =
          alwaysBlocking(op, cfg) ||
          ((op.kind == OpKind::Wait || op.kind == OpKind::Waitall) &&
           isBlockingWait(r, op, req_post));
      if (!node) continue;
      last = static_cast<int>(g.nodes.size());
      g.nodes.push_back({ref, &op});
      if (op.kind == OpKind::Barrier) {
        barriers[static_cast<std::size_t>(r)].push_back(last);
      }
    }
  }
  g.out.resize(g.nodes.size());
  result.nodes = static_cast<std::int64_t>(g.nodes.size());

  const auto addDep = [&](int node, const OpRef& partner_post) {
    const int dep = prev_node[flat(partner_post)];
    if (dep >= 0) g.out[static_cast<std::size_t>(node)].push_back(dep);
  };
  const auto addPartnerDep = [&](int node, const std::vector<OpRef>& partner,
                                 const OpRef& half) {
    const OpRef& p = partner[flat(half)];
    if (p.valid()) addDep(node, p);
  };

  // Point-to-point edges.
  for (int v = 0; v < static_cast<int>(g.nodes.size()); ++v) {
    const Node& n = g.nodes[static_cast<std::size_t>(v)];
    const Op& op = *n.op;
    const Program& prog =
        skel.ranks[static_cast<std::size_t>(n.ref.rank)];
    const auto dep_for_req = [&](int q) {
      const int at = req_posts[static_cast<std::size_t>(n.ref.rank)].get(q);
      if (at < 0) return;
      const OpRef post_ref{n.ref.rank, at};
      const Op& post = prog.ops[static_cast<std::size_t>(at)];
      if (post.kind == OpKind::Irecv) {
        addPartnerDep(v, recv_partner, post_ref);
      } else if (post.kind == OpKind::Isend &&
                 rendezvous(post.bytes, cfg)) {
        addPartnerDep(v, send_partner, post_ref);
      }
    };
    switch (op.kind) {
      case OpKind::Recv:
        addPartnerDep(v, recv_partner, n.ref);
        break;
      case OpKind::Send:
        addPartnerDep(v, send_partner, n.ref);
        break;
      case OpKind::Sendrecv:
        addPartnerDep(v, recv_partner, n.ref);
        if (rendezvous(op.bytes, cfg)) addPartnerDep(v, send_partner, n.ref);
        break;
      case OpKind::Wait:
        dep_for_req(op.req);
        break;
      case OpKind::Waitall:
        for (const int q : op.reqs) dep_for_req(q);
        break;
      default:
        break;
    }
  }

  // Barrier epochs.  Mismatched counts mean some rank waits at a barrier
  // the others never reach — itself a deadlock.
  std::size_t min_epochs = barriers.empty() ? 0 : barriers[0].size();
  std::size_t max_epochs = min_epochs;
  for (const auto& b : barriers) {
    min_epochs = std::min(min_epochs, b.size());
    max_epochs = std::max(max_epochs, b.size());
  }
  if (min_epochs != max_epochs) {
    Diagnostic d;
    d.severity = Severity::Error;
    d.code = DiagCode::StaticDeadlock;
    d.rank = -1;
    std::ostringstream os;
    os << "barrier count differs across ranks (min " << min_epochs
       << ", max " << max_epochs
       << "): some rank blocks at a barrier the others never reach";
    d.detail = os.str();
    diags.push_back(std::move(d));
    ++result.cycles;
  }
  for (std::size_t e = 0; e < min_epochs; ++e) {
    for (Rank r = 0; r < P; ++r) {
      const int v = barriers[static_cast<std::size_t>(r)][e];
      for (Rank o = 0; o < P; ++o) {
        if (o == r) continue;
        const int w = barriers[static_cast<std::size_t>(o)][e];
        addDep(v, g.nodes[static_cast<std::size_t>(w)].ref);
      }
    }
  }

  // Cycle search.
  const std::vector<std::vector<int>> components = stronglyConnected(g);
  for (const std::vector<int>& comp : components) {
    bool cyclic = comp.size() > 1;
    if (!cyclic) {
      const int v = comp[0];
      const auto& out = g.out[static_cast<std::size_t>(v)];
      cyclic = std::find(out.begin(), out.end(), v) != out.end();
    }
    if (!cyclic) continue;
    ++result.cycles;
    Diagnostic d;
    d.severity = Severity::Error;
    d.code = DiagCode::StaticDeadlock;
    const Node& head = g.nodes[static_cast<std::size_t>(comp[0])];
    d.rank = head.ref.rank;
    d.site = head.op->site;
    std::ostringstream os;
    os << "static dependency cycle over " << comp.size()
       << " blocking op(s): ";
    const std::size_t shown = std::min<std::size_t>(comp.size(), 8);
    for (std::size_t i = 0; i < shown; ++i) {
      if (i != 0) os << " -> ";
      os << nodeLabel(g.nodes[static_cast<std::size_t>(comp[i])]);
    }
    if (shown < comp.size()) os << " -> ...";
    d.detail = os.str();
    diags.push_back(std::move(d));
  }

  result.diagnostics = analysis::dedupDiagnostics(std::move(diags));
  analysis::sortDiagnostics(result.diagnostics);
  return result;
}

}  // namespace ovp::skel
