#include "shg/customize/incremental.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "shg/common/parallel.hpp"
#include "shg/common/strings.hpp"
#include "shg/topo/generators.hpp"

namespace shg::customize {

namespace {

/// Assembles CandidateMetrics from exact integer hop totals with the same
/// expressions screen_topology evaluates over distance_summary (same
/// operands, same order — bit-identical doubles).
CandidateMetrics make_metrics(const model::ScreeningCost& cost,
                              const graph::AllPairsTotals& totals,
                              int num_tiles, long long num_edges) {
  const long long n = num_tiles;
  SHG_REQUIRE(totals.reachable_pairs == n * n,
              "screening requires a connected topology");
  CandidateMetrics metrics;
  metrics.area_overhead = cost.area_overhead;
  const long long pairs = totals.reachable_pairs - n;  // exclude (u, u)
  if (pairs > 0) {
    metrics.avg_hops =
        static_cast<double>(totals.sum) / static_cast<double>(pairs);
  }
  metrics.diameter = static_cast<double>(totals.diameter);
  const double directed_links = 2.0 * static_cast<double>(num_edges);
  metrics.throughput_bound =
      directed_links / (static_cast<double>(num_tiles) * metrics.avg_hops);
  return metrics;
}

/// Skip distances present in `child` but not `parent`; throws unless the
/// child is a superset (the routing replay only handles added links).
std::vector<int> skip_delta(const std::set<int>& parent,
                            const std::set<int>& child, const char* dim) {
  std::vector<int> delta;
  for (int x : child) {
    if (parent.count(x) == 0) delta.push_back(x);
  }
  SHG_REQUIRE(delta.size() == child.size() - parent.size(),
              std::string("incremental screening requires the child's ") +
                  dim + " skips to be a superset of the parent's");
  return delta;
}

std::vector<int> node_degrees(const graph::Graph& g) {
  std::vector<int> degrees(static_cast<std::size_t>(g.num_nodes()));
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    degrees[static_cast<std::size_t>(u)] = g.degree(u);
  }
  return degrees;
}

}  // namespace

struct ScreeningContext::ChildScreen {
  topo::Topology topo;
  CandidateMetrics metrics;
};

ScreeningContext::ScreeningContext(const tech::ArchParams& arch,
                                   const topo::ShgParams& params)
    : arch_(&arch),
      params_(params),
      topo_(topo::make_sparse_hamming(arch.rows, arch.cols, params.row_skips,
                                      params.col_skips)),
      routing_(topo_),
      degrees_(node_degrees(topo_.graph())) {
  // The routing context's parent loads feed the cost model directly (same
  // arithmetic, bit-identical areas) instead of a second from-scratch route
  // of the same topology.
  metrics_ = make_metrics(
      model::evaluate_screening_cost(arch, topo_.radix(), routing_.loads()),
      topo::shg_hop_totals(arch.rows, arch.cols, params.row_skips,
                           params.col_skips),
      topo_.num_tiles(), topo_.graph().num_edges());
}

ScreeningContext::ScreeningContext(const tech::ArchParams* arch,
                                   topo::ShgParams params, topo::Topology topo,
                                   const CandidateMetrics& metrics)
    : arch_(arch),
      params_(std::move(params)),
      topo_(std::move(topo)),
      routing_(topo_),
      degrees_(node_degrees(topo_.graph())),
      metrics_(metrics) {}

ScreeningContext::ChildScreen ScreeningContext::screen_impl(
    const topo::ShgParams& child, model::TileGeometryCache* tile_cache,
    const CandidateMetrics* known_metrics, bool need_metrics) const {
  // The re-keyed context routes the materialized child from scratch; only
  // its metrics come from the parent.
  ChildScreen out{topo::make_sparse_hamming(arch_->rows, arch_->cols,
                                            child.row_skips, child.col_skips),
                  CandidateMetrics{}};
  if (known_metrics != nullptr) {
    // The caller screened this exact child already (screen_child during
    // candidate ranking); re-running the cost model — the dominant
    // screening cost — would only reproduce the same bits.
    out.metrics = *known_metrics;
  } else if (need_metrics) {
    out.metrics = screen_child(child, tile_cache);
  }
  return out;
}

CandidateMetrics ScreeningContext::screen_child(
    const topo::ShgParams& child, model::TileGeometryCache* tile_cache,
    Workspace* ws) const {
  const std::vector<int> new_row_skips =
      skip_delta(params_.row_skips, child.row_skips, "row");
  const std::vector<int> new_col_skips =
      skip_delta(params_.col_skips, child.col_skips, "column");
  if (new_row_skips.empty() && new_col_skips.empty()) return metrics_;

  Workspace local;
  if (ws == nullptr) ws = &local;

  // Hop metrics in product form from the child's two lines (this also
  // validates the child's skip sets).
  const graph::AllPairsTotals totals = topo::shg_hop_totals(
      arch_->rows, arch_->cols, child.row_skips, child.col_skips);

  // The links the new skip distances contribute, from the generator's own
  // enumeration, with node ids on the parent grid (the child grid is the
  // same — no child Topology exists on this path).
  ws->new_edges.clear();
  topo::for_each_skip_link(
      arch_->rows, arch_->cols, new_row_skips, new_col_skips,
      [&](topo::TileCoord a, topo::TileCoord b) {
        ws->new_edges.push_back(graph::Edge{topo_.node(a), topo_.node(b)});
      });

  // Child radix: the parent degrees bumped at the new links' endpoints.
  ws->degrees.assign(degrees_.begin(), degrees_.end());
  for (const graph::Edge& e : ws->new_edges) {
    ++ws->degrees[static_cast<std::size_t>(e.u)];
    ++ws->degrees[static_cast<std::size_t>(e.v)];
  }
  int radix = 0;
  for (const int d : ws->degrees) radix = std::max(radix, d);

  // Channel loads: suffix replay against the parent's routing context —
  // bit-identical to global_route_loads on the materialized child.
  routing_.route_child_loads(new_row_skips, new_col_skips, &ws->loads);
  const model::ScreeningCost cost =
      model::evaluate_screening_cost(*arch_, radix, ws->loads, tile_cache);
  return make_metrics(
      cost, totals, topo_.num_tiles(),
      topo_.graph().num_edges() +
          static_cast<long long>(ws->new_edges.size()));
}

void ScreeningContext::rebase(const topo::ShgParams& child,
                              const CandidateMetrics* known_metrics) {
  ChildScreen screened = screen_impl(child, nullptr, known_metrics);
  *this = ScreeningContext(arch_, child, std::move(screened.topo),
                           screened.metrics);
}

ScreeningContext ScreeningContext::derive(const topo::ShgParams& child,
                                          model::TileGeometryCache* tile_cache,
                                          bool need_metrics) const {
  ChildScreen screened =
      screen_impl(child, tile_cache, nullptr, need_metrics);
  return ScreeningContext(arch_, child, std::move(screened.topo),
                          screened.metrics);
}

namespace {

/// Prefix forest over a candidate batch: every node's parameterization is
/// its parent's plus exactly one skip distance (canonical element order:
/// row skips ascending, then column skips ascending), so a child context
/// is always derivable from its parent by an added-links routing replay.
struct TrieNode {
  topo::ShgParams params;
  std::vector<std::size_t> batch_indices;  ///< batch entries equal to params
  std::vector<std::size_t> children;       ///< node ids, insertion order
};

constexpr int kColElementBase = 1 << 20;  ///< col skip x encodes as base + x

struct Trie {
  std::vector<TrieNode> nodes;
  std::vector<std::map<int, std::size_t>> child_by_code;

  Trie() : nodes(1), child_by_code(1) {}

  std::size_t descend(std::size_t from, int code) {
    auto [it, inserted] = child_by_code[from].emplace(code, nodes.size());
    if (inserted) {
      TrieNode node;
      node.params = nodes[from].params;
      if (code >= kColElementBase) {
        node.params.col_skips.insert(code - kColElementBase);
      } else {
        node.params.row_skips.insert(code);
      }
      nodes[from].children.push_back(it->second);
      nodes.push_back(std::move(node));
      child_by_code.emplace_back();
    }
    return it->second;
  }
};

}  // namespace

std::vector<CandidateMetrics> screen_batch_incremental(
    const tech::ArchParams& arch, const std::vector<topo::ShgParams>& batch) {
  std::vector<CandidateMetrics> out(batch.size());
  if (batch.empty()) return out;

  Trie trie;
  for (std::size_t b = 0; b < batch.size(); ++b) {
    std::size_t cur = 0;
    for (int x : batch[b].row_skips) cur = trie.descend(cur, x);
    for (int x : batch[b].col_skips) {
      cur = trie.descend(cur, kColElementBase + x);
    }
    trie.nodes[cur].batch_indices.push_back(b);
  }
  const std::vector<TrieNode>& nodes = trie.nodes;

  auto record = [&](const TrieNode& node, const CandidateMetrics& metrics) {
    for (std::size_t b : node.batch_indices) out[b] = metrics;
  };

  // Per-worker scratch: geometry memo plus screen_child's workspace.
  struct Scratch {
    model::TileGeometryCache tile_cache;
    ScreeningContext::Workspace ws;
  };

  // Recursive subtree walk: derive a context per interior node, screen
  // leaves from the parent context.
  auto dfs = [&](auto&& self, const ScreeningContext& parent_ctx,
                 std::size_t node_id, Scratch& scratch) -> void {
    const TrieNode& node = nodes[node_id];
    if (node.children.empty()) {
      record(node, parent_ctx.screen_child(node.params, &scratch.tile_cache,
                                           &scratch.ws));
      return;
    }
    // Stepping-stone prefixes absent from the batch only exist to carry a
    // routing context for their descendants — skip their cost model.
    const bool in_batch = !node.batch_indices.empty();
    const ScreeningContext ctx =
        parent_ctx.derive(node.params, &scratch.tile_cache, in_batch);
    if (in_batch) record(node, ctx.metrics());
    for (std::size_t child : node.children) {
      self(self, ctx, child, scratch);
    }
  };

  // The root context is screened from scratch; every other candidate is
  // screened from an ancestor context. The interior depth-1 contexts fan
  // out via one parallel_for (each derive touches disjoint state and
  // disjoint batch indices — a serial loop here would be an Amdahl
  // bottleneck, one cost-model run per interior node before any subtree
  // starts), then the depth-1 leaves and depth-2 subtrees fan out via a
  // second one. Output slots are disjoint throughout, so the result is
  // deterministic per the parallel_for contract.
  const ScreeningContext root_ctx(arch, nodes[0].params);
  record(nodes[0], root_ctx.metrics());

  struct Task {
    const ScreeningContext* ctx;
    std::size_t node_id;
  };
  std::vector<Task> tasks;
  std::vector<std::size_t> interior1;
  for (std::size_t c1 : nodes[0].children) {
    if (nodes[c1].children.empty()) {
      // Depth-1 leaves fan out with everything else (screen_child is
      // const-safe on a shared context) — batches made entirely of
      // single-skip candidates would otherwise run serially.
      tasks.push_back(Task{&root_ctx, c1});
    } else {
      interior1.push_back(c1);
    }
  }
  std::vector<std::unique_ptr<ScreeningContext>> level1(interior1.size());
  {
    std::vector<Scratch> scratch(parallel_worker_count(interior1.size()));
    parallel_for_with_worker(
        interior1.size(), [&](std::size_t i, std::size_t w) {
          const std::size_t c1 = interior1[i];
          const bool in_batch = !nodes[c1].batch_indices.empty();
          level1[i] = std::make_unique<ScreeningContext>(root_ctx.derive(
              nodes[c1].params, &scratch[w].tile_cache, in_batch));
          if (in_batch) record(nodes[c1], level1[i]->metrics());
        });
  }
  for (std::size_t i = 0; i < interior1.size(); ++i) {
    for (std::size_t c2 : nodes[interior1[i]].children) {
      tasks.push_back(Task{level1[i].get(), c2});
    }
  }
  std::vector<Scratch> scratch(parallel_worker_count(tasks.size()));
  parallel_for_with_worker(tasks.size(), [&](std::size_t t, std::size_t w) {
    dfs(dfs, *tasks[t].ctx, tasks[t].node_id, scratch[w]);
  });
  return out;
}

std::vector<CandidateMetrics> verify_incremental_equivalence(
    const tech::ArchParams& arch, const std::vector<topo::ShgParams>& batch) {
  const std::vector<CandidateMetrics> incremental =
      screen_batch_incremental(arch, batch);
  std::vector<CandidateMetrics> full(batch.size());
  parallel_for(batch.size(), [&](std::size_t i) {
    full[i] = screen_candidate(arch, batch[i]);
  });
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const CandidateMetrics& a = incremental[i];
    const CandidateMetrics& b = full[i];
    if (a == b) continue;
    std::ostringstream os;
    os << "incremental screening mismatch at batch index " << i << " ("
       << fmt_skip_sets(batch[i]) << "): incremental {"
       << a.area_overhead << ", " << a.avg_hops << ", " << a.diameter << ", "
       << a.throughput_bound << "} vs full {" << b.area_overhead << ", "
       << b.avg_hops << ", " << b.diameter << ", " << b.throughput_bound
       << "}";
    throw Error(os.str());
  }
  return incremental;
}

}  // namespace shg::customize
