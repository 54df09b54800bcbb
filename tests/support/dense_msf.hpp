// Dense reference for Algorithm 1, kept only as a test oracle: O(n²)
// Prim over the complete depot-contracted graph, un-contracted the way
// tsp::q_rooted_msf does, so the library's Delaunay-sparse forests can be
// compared with it edge for edge. Header-only and gtest-free, so the
// micro benches can assert the same equality.
#pragma once

#include <cstddef>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "graph/mst.hpp"
#include "tsp/oracle.hpp"
#include "tsp/qrooted.hpp"

namespace mwc::testing {

inline tsp::QRootedForest dense_q_rooted_msf(const tsp::DistanceView& d,
                                             std::size_t q) {
  const std::size_t m = d.size() - q;
  // Root star: each sensor's nearest depot, first minimum wins.
  std::vector<double> star(m, std::numeric_limits<double>::infinity());
  std::vector<std::size_t> attach(m, 0);
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t l = 0; l < q; ++l) {
      const double w = d(l, q + k);
      if (w < star[k]) {
        star[k] = w;
        attach[k] = l;
      }
    }
  }
  const auto mst = graph::prim_mst_with(
      m + 1,
      [&](std::size_t i, std::size_t j) -> double {
        if (i == j) return 0.0;
        if (i == 0) return star[j - 1];
        if (j == 0) return star[i - 1];
        return d(q + i - 1, q + j - 1);
      },
      /*root=*/0);

  std::vector<std::size_t> order;
  const auto parent = graph::mst_parents(m + 1, mst.edges, 0, &order);
  std::vector<std::size_t> owner(m + 1, 0);
  for (const std::size_t v : order)
    if (v != 0) owner[v] = parent[v] == 0 ? attach[v - 1] : owner[parent[v]];

  std::vector<std::vector<graph::Edge>> edges(q);
  for (const auto& e : mst.edges) {
    if (e.u == 0 || e.v == 0) {
      const std::size_t k = e.u == 0 ? e.v : e.u;
      edges[owner[k]].push_back(graph::Edge{attach[k - 1], q + k - 1, e.w});
    } else {
      edges[owner[e.u]].push_back(
          graph::Edge{q + e.u - 1, q + e.v - 1, e.w});
    }
  }
  tsp::QRootedForest forest;
  for (std::size_t l = 0; l < q; ++l) {
    forest.trees.emplace_back(l, edges[l]);
    forest.total_weight += forest.trees.back().total_weight();
  }
  return forest;
}

/// Empty when `a` and `b` have the same trees with the same edges in the
/// same order and the same weights, bit for bit; else the first
/// difference.
inline std::string forest_diff(const tsp::QRootedForest& a,
                               const tsp::QRootedForest& b) {
  std::ostringstream out;
  if (a.trees.size() != b.trees.size()) return "tree counts differ";
  for (std::size_t l = 0; l < a.trees.size(); ++l) {
    const auto& ea = a.trees[l].edges();
    const auto& eb = b.trees[l].edges();
    if (ea.size() != eb.size()) {
      out << "tree " << l << ": " << ea.size() << " vs " << eb.size()
          << " edges";
      return out.str();
    }
    for (std::size_t e = 0; e < ea.size(); ++e) {
      if (ea[e].u != eb[e].u || ea[e].v != eb[e].v || ea[e].w != eb[e].w) {
        out << "tree " << l << " edge " << e << ": (" << ea[e].u << ","
            << ea[e].v << ") vs (" << eb[e].u << "," << eb[e].v << ")";
        return out.str();
      }
    }
  }
  if (a.total_weight != b.total_weight) return "total weights differ";
  return {};
}

}  // namespace mwc::testing
