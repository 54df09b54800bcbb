#include "graph/local_graph.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mwc::graph {

namespace {

/// Ids spanning less than this many times their count are numbered
/// through a flag array over their range, O(range) = O(k); wider spans
/// sort. Either way the relabel allocates O(k), never O(range of a
/// sparse id space).
constexpr std::size_t kDenseSpan = 8;

}  // namespace

std::uint32_t LocalGraph::local(std::size_t id) const {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  MWC_DEBUG_ASSERT(it != ids.end() && *it == id);
  return static_cast<std::uint32_t>(it - ids.begin());
}

LocalGraph local_graph(std::span<const Edge> edges, std::size_t extra,
                       std::size_t copies) {
  MWC_ASSERT_MSG(edges.size() * copies < (std::size_t{1} << 31),
                 "local_graph: too many edges for 32-bit half-edge indices");
  LocalGraph g;
  std::vector<std::uint32_t> eu(edges.size());
  std::vector<std::uint32_t> ev(edges.size());
  std::size_t lo = extra;
  std::size_t hi = extra;
  for (const Edge& e : edges) {
    lo = std::min({lo, e.u, e.v});
    hi = std::max({hi, e.u, e.v});
  }
  const std::size_t entries = 2 * edges.size() + 1;
  g.ids.reserve(entries);
  if (hi - lo < kDenseSpan * entries) {
    // Ids span at most a few times their count (a dispatch view's trees):
    // mark them in a flag array over [lo, hi] and number them in one
    // ascending scan.
    constexpr std::uint32_t kAbsent = ~std::uint32_t{0};
    std::vector<std::uint32_t> slot(hi - lo + 1, kAbsent);
    slot[extra - lo] = 0;
    for (const Edge& e : edges) slot[e.u - lo] = slot[e.v - lo] = 0;
    for (std::size_t r = 0; r < slot.size(); ++r) {
      if (slot[r] == kAbsent) continue;
      slot[r] = static_cast<std::uint32_t>(g.ids.size());
      g.ids.push_back(lo + r);
    }
    for (std::size_t i = 0; i < edges.size(); ++i) {
      eu[i] = slot[edges[i].u - lo];
      ev[i] = slot[edges[i].v - lo];
    }
  } else {
    // Sparse ids: sort them and binary-search each endpoint.
    g.ids.push_back(extra);
    for (const Edge& e : edges) {
      g.ids.push_back(e.u);
      g.ids.push_back(e.v);
    }
    std::sort(g.ids.begin(), g.ids.end());
    g.ids.erase(std::unique(g.ids.begin(), g.ids.end()), g.ids.end());
    for (std::size_t i = 0; i < edges.size(); ++i) {
      eu[i] = g.local(edges[i].u);
      ev[i] = g.local(edges[i].v);
    }
  }

  const std::size_t k = g.ids.size();
  g.offset.assign(k + 1, 0);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    g.offset[eu[i] + 1] += static_cast<std::uint32_t>(copies);
    g.offset[ev[i] + 1] += static_cast<std::uint32_t>(copies);
  }
  for (std::size_t v = 0; v < k; ++v) g.offset[v + 1] += g.offset[v];

  g.nbr.resize(g.offset[k]);
  g.edge.resize(g.offset[k]);
  std::vector<std::uint32_t> fill(g.offset.begin(), g.offset.end() - 1);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    for (std::size_t c = 0; c < copies; ++c) {
      const auto id = static_cast<std::uint32_t>(copies * i + c);
      g.nbr[fill[eu[i]]] = ev[i];
      g.edge[fill[eu[i]]++] = id;
      g.nbr[fill[ev[i]]] = eu[i];
      g.edge[fill[ev[i]]++] = id;
    }
  }
  return g;
}

}  // namespace mwc::graph
