#include "tsp/qrooted.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <queue>
#include <unordered_set>
#include <utility>

#include "geom/delaunay.hpp"
#include "graph/mst.hpp"
#include "obs/obs.hpp"
#include "tsp/construct.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace mwc::tsp {

namespace {

/// Flushes a locally accumulated probe count into the global registry,
/// split by whether the kernel served them from the materialized oracle
/// cache ("hits") or recomputed geometry directly ("misses"). One atomic
/// add per construction call — the probe loops themselves stay
/// uninstrumented.
inline void flush_probe_count(const DistanceView& distances,
                              std::uint64_t probes) {
  if (distances.cached()) {
    MWC_OBS_COUNT_N("oracle.probe_hits", probes);
  } else {
    MWC_OBS_COUNT_N("oracle.probe_misses", probes);
  }
#if !MWC_OBS_ENABLED
  (void)distances;
  (void)probes;
#endif
}

/// True when `candidates` can actually prune for this view: covers the
/// combined node space and is not degenerate-complete (the complete graph
/// dispatches dense so the k >= n limit stays bit-identical).
bool prunable(const CandidateGraph* candidates, std::size_t view_size) {
  return candidates != nullptr && candidates->size() == view_size &&
         !candidates->complete();
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// What one run of Algorithm 1 spans. Everything already connected — the
/// `depots` (ascending), plus the `clean` sensors during a repair —
/// contracts into the virtual root, aux node 0; aux node k+1 is the
/// sensor `sensors[k]` (combined id). `clean_owner[v]` is the depot whose
/// tree holds clean sensor v (indexed by combined id; unused when `clean`
/// is empty).
struct Region {
  std::span<const std::size_t> depots;
  std::span<const std::size_t> sensors;
  std::span<const std::size_t> clean;
  std::span<const std::size_t> clean_owner;
};

/// The root star of a Region: each sensor's cheapest attachment into the
/// virtual root and the combined id realizing it (a depot, or the clean
/// sensor it grafts onto).
struct RootStar {
  std::vector<double> dist;
  std::vector<std::size_t> attach;
};

/// Scans the root star: depots first, then (repairs only) clean sensors,
/// each merged with strict < so the first minimum wins. The depot part is
/// depot-major and cache-blocked — one batched row probe per (depot,
/// sensor block) — so in oracle mode it materializes the q depot rows
/// rather than the sensor rows; distances are symmetric bit-for-bit, so
/// probing (l, s) equals probing (s, l). The clean part probes, per
/// sensor, its candidate clean neighbours (or every clean sensor when
/// dense).
RootStar scan_root_star(const DistanceView& distances, std::size_t q,
                        const Region& region, const CandidateGraph* pruned,
                        std::uint64_t& probes, std::uint64_t& cand_evals) {
  const std::size_t d = region.sensors.size();
  RootStar star{std::vector<double>(d, kInf),
                std::vector<std::size_t>(d, kNone)};
  const auto merge = [&](std::size_t k, double w, std::size_t at) {
    if (w < star.dist[k]) {
      star.dist[k] = w;
      star.attach[k] = at;
    }
  };

  constexpr std::size_t kBlock = 4096;
  std::vector<double> w(std::min(d, kBlock));
  for (std::size_t k0 = 0; k0 < d; k0 += kBlock) {
    const std::size_t len = std::min(kBlock, d - k0);
    const auto block = region.sensors.subspan(k0, len);
    for (const std::size_t l : region.depots) {
      distances.distances_to(l, block, w.data());
      for (std::size_t k = 0; k < len; ++k) merge(k0 + k, w[k], l);
    }
  }
  probes += static_cast<std::uint64_t>(d) * region.depots.size();

  if (region.clean.empty()) return star;
  std::vector<std::size_t> picked;
  for (std::size_t k = 0; k < d; ++k) {
    const std::size_t s = region.sensors[k];
    std::span<const std::size_t> targets = region.clean;
    if (pruned != nullptr) {
      picked.clear();
      for (const std::size_t c : pruned->neighbors(s))
        if (c >= q && region.clean_owner[c] != kNone) picked.push_back(c);
      targets = picked;
      cand_evals += picked.size();
    }
    if (targets.empty()) continue;
    w.resize(targets.size());
    distances.distances_to(s, targets, w.data());
    probes += targets.size();
    for (std::size_t t = 0; t < targets.size(); ++t) merge(k, w[t], targets[t]);
  }
  return star;
}

/// Sensor-sensor adjacency of one span in CSR form over aux-local
/// indices (k stands for sensors[k]): the Delaunay edges of the sensors'
/// positions, read through the view's geometry.
struct Adjacency {
  std::vector<std::uint32_t> offset;  ///< size d + 1
  std::vector<std::uint32_t> nbr;

  std::span<const std::uint32_t> of(std::size_t k) const {
    return {nbr.data() + offset[k], nbr.data() + offset[k + 1]};
  }
};

Adjacency delaunay_adjacency(const DistanceView& distances,
                             std::span<const std::size_t> sensors) {
  const std::size_t d = sensors.size();
  std::vector<geom::Point> pts;
  pts.reserve(d);
  for (const std::size_t s : sensors) pts.push_back(distances.point(s));
  const geom::Triangulation tri = geom::delaunay(pts);

  Adjacency adj;
  adj.offset.assign(d + 1, 0);
  for (const auto& [a, b] : tri.edges) {
    ++adj.offset[a + 1];
    ++adj.offset[b + 1];
  }
  std::partial_sum(adj.offset.begin(), adj.offset.end(), adj.offset.begin());
  adj.nbr.resize(adj.offset[d]);
  std::vector<std::uint32_t> fill(adj.offset.begin(), adj.offset.end() - 1);
  for (const auto& [a, b] : tri.edges) {
    adj.nbr[fill[a]++] = b;
    adj.nbr[fill[b]++] = a;
  }
  return adj;
}

/// The aux-graph MST of one span: lazy-heap Prim over the root star
/// (`star_dist[k]` joins aux node 0 to sensors[k]) plus the Delaunay
/// edges among `sensors`. The star keeps the graph connected, so a
/// spanning tree always exists.
///
/// The result is exactly dense Prim's over the complete aux graph, edge
/// for edge and in the same order. Suppose dense Prim extracts v through
/// the sensor edge uv while some other span sensor w lies in uv's closed
/// diametral disk, so |uw| < |uv| and |wv| < |uv|. If w were already in
/// the tree, v's key would be at most |wv|; if not, w's key would be at
/// most |uw| and w would be extracted first. Either way uv is not the
/// extracted edge, so every edge dense Prim extracts is a Gabriel edge,
/// and Gabriel edges are Delaunay edges (the EMST ⊆ Delaunay argument of
/// Shamos & Hoey 1975). Depots and clean sensors never need triangulating:
/// they sit in the root and enter through the star. Keys therefore agree
/// with dense Prim's at every extraction; stale heap entries are skipped,
/// and pair ordering breaks key ties on the smaller node, as the dense
/// sweep does.
graph::MstResult lazy_prim(const DistanceView& distances,
                           std::span<const std::size_t> sensors,
                           std::span<const double> star_dist,
                           const Adjacency& adj, std::uint64_t& probes) {
  const std::size_t d = sensors.size();
  graph::MstResult mst;
  std::vector<double> best(d + 1, kInf);
  std::vector<std::size_t> best_from(d + 1, kNone);
  std::vector<char> in_tree(d + 1, 0);
  using Item = std::pair<double, std::size_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;

  in_tree[0] = 1;
  for (std::size_t k = 0; k < d; ++k) {
    best[k + 1] = star_dist[k];
    best_from[k + 1] = 0;
    heap.emplace(star_dist[k], k + 1);
  }

  mst.edges.reserve(d);
  // Key updates run in two passes per extraction: gather the still-open
  // frontier neighbours, one batched row probe, then the relax loop over
  // the results in the same order with the same comparisons.
  std::vector<std::size_t> batch_js;
  std::vector<std::size_t> batch_v;
  std::vector<double> batch_w;
  for (std::size_t added = 0; added < d;) {
    MWC_ASSERT_MSG(!heap.empty(), "root star keeps the aux graph connected");
    const auto [key, u] = heap.top();
    heap.pop();
    if (in_tree[u] || key > best[u]) continue;  // stale entry
    in_tree[u] = 1;
    mst.edges.push_back(graph::Edge{best_from[u], u, best[u]});
    mst.total_weight += best[u];
    ++added;
    batch_js.clear();
    batch_v.clear();
    for (const std::uint32_t j : adj.of(u - 1)) {
      const std::size_t v = std::size_t{j} + 1;
      if (in_tree[v]) continue;
      batch_js.push_back(sensors[j]);
      batch_v.push_back(v);
    }
    if (batch_js.empty()) continue;
    probes += batch_js.size();
    batch_w.resize(batch_js.size());
    distances.distances_to(sensors[u - 1], batch_js, batch_w.data());
    for (std::size_t t = 0; t < batch_v.size(); ++t) {
      const std::size_t v = batch_v[t];
      const double w = batch_w[t];
      if (w < best[v]) {
        best[v] = w;
        best_from[v] = u;
        heap.emplace(w, v);
      }
    }
  }
  return mst;
}

/// Un-contract, owners: a node hanging off the virtual root (aux node 0)
/// takes `root_owner(k)` for its local index k; every other node inherits
/// its parent's owner, pushed down in the DFS order mst_parents walks.
/// Returns one owner per aux node (entry 0 unused).
template <typename RootOwner>
std::vector<std::size_t> propagate_owners(std::size_t n,
                                          const graph::MstResult& mst,
                                          RootOwner&& root_owner) {
  std::vector<std::size_t> order;
  const auto parent = graph::mst_parents(n, mst.edges, /*root=*/0, &order);
  std::vector<std::size_t> owner(n, kNone);
  for (const std::size_t v : order) {
    if (v == 0) continue;
    owner[v] = parent[v] == 0 ? root_owner(v - 1) : owner[parent[v]];
  }
  return owner;
}

/// Algorithm 1 over one Region: scan the root star, span the aux graph,
/// un-contract. An aux edge (0, k) becomes (attachment, sensor) in the
/// tree of the depot it attaches to; every other edge joins its owner's
/// tree. Returns the new edges per depot (size q), in MST order. The full
/// MSF is the Region of every sensor with no clean trees; a repair's is
/// the dirty sensors over the clean remainder, and `candidates` (when
/// prunable) limits its clean-graft scan. Probe and candidate counts
/// flush once here, so the inner loops pay no atomic traffic.
std::vector<std::vector<graph::Edge>> msf_core(
    const DistanceView& distances, std::size_t q, const Region& region,
    const CandidateGraph* candidates) {
  std::uint64_t probes = 0;
  std::uint64_t cand_evals = 0;
  const CandidateGraph* pruned =
      prunable(candidates, distances.size()) ? candidates : nullptr;
  const RootStar star =
      scan_root_star(distances, q, region, pruned, probes, cand_evals);
  const graph::MstResult mst =
      lazy_prim(distances, region.sensors, star.dist,
                delaunay_adjacency(distances, region.sensors), probes);
  flush_probe_count(distances, probes);
  MWC_OBS_COUNT_N("tsp.cand.hits", cand_evals);

  const auto owner = propagate_owners(
      region.sensors.size() + 1, mst, [&](std::size_t k) {
        const std::size_t at = star.attach[k];
        return at < q ? at : region.clean_owner[at];
      });
  std::vector<std::vector<graph::Edge>> edges(q);
  for (const auto& e : mst.edges) {
    if (e.u == 0 || e.v == 0) {
      const std::size_t k = e.u == 0 ? e.v : e.u;
      edges[owner[k]].push_back(
          graph::Edge{star.attach[k - 1], region.sensors[k - 1], e.w});
    } else {
      MWC_DEBUG_ASSERT(owner[e.u] == owner[e.v]);
      edges[owner[e.u]].push_back(graph::Edge{
          region.sensors[e.u - 1], region.sensors[e.v - 1], e.w});
    }
  }
  return edges;
}

}  // namespace

QRootedForest q_rooted_msf(const DistanceView& distances, std::size_t q) {
  MWC_OBS_SCOPE("tsp.q_rooted_msf");
  MWC_ASSERT_MSG(q >= 1, "q-rooted MSF needs at least one depot");
  MWC_ASSERT(q <= distances.size());
  const std::size_t m = distances.size() - q;

  QRootedForest result;
  result.trees.reserve(q);
  if (m == 0) {
    for (std::size_t l = 0; l < q; ++l)
      result.trees.emplace_back(l, std::span<const graph::Edge>{});
    return result;
  }

  MWC_OBS_COUNT("tsp.msf_builds");
  std::vector<std::size_t> depots(q);
  std::iota(depots.begin(), depots.end(), std::size_t{0});
  std::vector<std::size_t> sensors(m);
  std::iota(sensors.begin(), sensors.end(), q);
  const auto edges =
      msf_core(distances, q, Region{depots, sensors, {}, {}}, nullptr);
  for (std::size_t l = 0; l < q; ++l) {
    result.trees.emplace_back(l, edges[l]);
    result.total_weight += result.trees.back().total_weight();
  }
  return result;
}

std::vector<geom::Point> CombinedPointsView::materialize() const {
  std::vector<geom::Point> pts;
  pts.reserve(size());
  pts.insert(pts.end(), depots_.begin(), depots_.end());
  pts.insert(pts.end(), sensors_.begin(), sensors_.end());
  return pts;
}

QRootedForest q_rooted_msf(const QRootedInstance& instance) {
  return q_rooted_msf(instance.distances(), instance.q());
}

QRootedForest repair_q_rooted_msf(const DistanceView& distances,
                                  std::size_t q, const QRootedForest& base,
                                  const MsfRepairPlan& plan,
                                  const CandidateGraph* candidates,
                                  MsfRepairStats* stats) {
  MWC_OBS_SCOPE("tsp.msf_repair");
  MWC_OBS_COUNT("tsp.repair.msf");
  MWC_ASSERT_MSG(q >= 1 && base.trees.size() == q,
                 "base forest must have one tree per depot");
  MWC_ASSERT_MSG(plan.tree_dirty.size() == q, "tree_dirty must have size q");
  MWC_ASSERT_MSG(plan.root_active.empty() || plan.root_active.size() == q,
                 "root_active must be empty or size q");
  const std::size_t total = distances.size();

  // An inactive root attracts no sensors, so its tree is always
  // re-spanned: whatever it still holds is re-homed onto active roots.
  std::vector<std::size_t> active_depots;
  std::vector<char> dirty_tree(q, 0);
  for (std::size_t l = 0; l < q; ++l) {
    const bool active = plan.root_active.empty() || plan.root_active[l] != 0;
    if (active) active_depots.push_back(l);
    dirty_tree[l] = plan.tree_dirty[l] != 0 || !active ? 1 : 0;
  }
  MWC_ASSERT_MSG(!active_depots.empty(), "at least one depot must stay active");

  // Split sensors into the dirty region (re-spanned below) and the clean
  // remainder (kept verbatim, owner recorded for grafting).
  std::vector<std::size_t> owner(total, kNone);  // clean sensors only
  std::vector<std::size_t> dirty;                // combined sensor ids
  std::vector<std::size_t> clean;
  for (std::size_t l = 0; l < q; ++l) {
    for (const std::size_t v : base.trees[l].nodes()) {
      if (v < q) continue;
      MWC_ASSERT_MSG(v < total, "base tree node outside the combined space");
      if (dirty_tree[l]) {
        dirty.push_back(v);
      } else {
        owner[v] = l;
        clean.push_back(v);
      }
    }
  }
  for (const std::size_t v : plan.extra_sensors) {
    MWC_ASSERT_MSG(v >= q && v < total, "extra sensor outside the space");
    dirty.push_back(v);
  }
  std::sort(dirty.begin(), dirty.end());
  MWC_OBS_COUNT_N("tsp.repair.dirty_sensors", dirty.size());
  if (stats != nullptr) stats->dirty_sensors = dirty.size();

  const auto new_edges =
      msf_core(distances, q, Region{active_depots, dirty, clean, owner},
               candidates);

  QRootedForest result;
  result.trees.reserve(q);
  std::size_t rebuilt = 0;
  std::vector<char> tree_changed(q, 0);
  for (std::size_t l = 0; l < q; ++l) {
    if (!dirty_tree[l] && new_edges[l].empty()) {
      result.trees.push_back(base.trees[l]);  // untouched — reuse
    } else {
      ++rebuilt;
      tree_changed[l] = 1;
      std::vector<graph::Edge> edges;
      if (!dirty_tree[l])
        edges.assign(base.trees[l].edges().begin(),
                     base.trees[l].edges().end());
      edges.insert(edges.end(), new_edges[l].begin(), new_edges[l].end());
      result.trees.emplace_back(l, edges);
    }
    result.total_weight += result.trees.back().total_weight();
  }
  MWC_OBS_COUNT_N("tsp.repair.rebuilt_trees", rebuilt);
  MWC_OBS_COUNT_N("tsp.repair.reused_trees", q - rebuilt);
  if (stats != nullptr) {
    stats->rebuilt_trees = rebuilt;
    stats->reused_trees = q - rebuilt;
    stats->tree_changed = std::move(tree_changed);
  }
  return result;
}

QRootedTours q_rooted_tsp(const QRootedInstance& instance,
                          const QRootedOptions& options) {
  return q_rooted_tsp(instance.distances(), instance.q(), options);
}

QRootedTours q_rooted_tsp(const DistanceView& distances, std::size_t q,
                          const QRootedOptions& options,
                          ThreadPool* polish_pool) {
  MWC_OBS_SCOPE("tsp.q_rooted_tsp");
  auto forest = q_rooted_msf(distances, q);

  QRootedTours result;
  result.tours.reserve(forest.trees.size());
  for (const auto& tree : forest.trees) {
    Tour tour;
    switch (options.construction) {
      case TourConstruction::kDoubleTree:
        tour = tree_to_tour(tree.edges(), tree.root());
        break;
      case TourConstruction::kChristofides: {
        // Re-solve the group's tour from scratch; the MSF only decides
        // which depot serves which sensors.
        const auto& nodes = tree.nodes();
        std::size_t local_root = 0;
        for (std::size_t k = 0; k < nodes.size(); ++k)
          if (nodes[k] == tree.root()) local_root = k;
        Tour local = christofides_tour(
            distances.sub({nodes.begin(), nodes.end()}), local_root);
        std::vector<std::size_t> order;
        order.reserve(local.size());
        for (std::size_t v : local.order()) order.push_back(nodes[v]);
        tour = Tour(std::move(order));
        break;
      }
    }
    result.tours.push_back(std::move(tour));
  }

  if (options.improve) {
    ImproveOptions improve_opts = options.improve_options;
    if (improve_opts.candidates == nullptr)
      improve_opts.candidates = options.candidates;
    if (improve_opts.candidates == nullptr && candidate_polish(options)) {
      std::vector<geom::Point> points;
      points.reserve(distances.size());
      for (std::size_t i = 0; i < distances.size(); ++i)
        points.push_back(distances.point(i));
      result.candidates =
          CandidateGraph::build(points, options.candidate_options);
      improve_opts.candidates = &result.candidates;
    }
    // Each tour is polished independently against the (thread-safe)
    // distance kernel, so fanning out over a pool changes nothing but
    // wall-clock; per-tour gains land in a slot vector and flush serially.
    std::vector<double> gains(result.tours.size(), 0.0);
    const auto polish = [&](std::size_t t) {
      Tour& tour = result.tours[t];
      if (tour.size() < 4) return;
      gains[t] = improve_tour(tour, distances, improve_opts);
      // Or-opt may relocate the segment containing the depot, rotating
      // the closed tour; restore the start-at-own-depot invariant
      // (Theorem 1 structure) — rotation never changes the length.
      auto& order = tour.order();
      const auto root = forest.trees[t].root();
      const auto at = std::find(order.begin(), order.end(), root);
      if (at != order.begin() && at != order.end())
        std::rotate(order.begin(), at, order.end());
    };
    if (polish_pool != nullptr) {
      parallel_for(*polish_pool, 0, result.tours.size(), polish);
    } else {
      serial_for(0, result.tours.size(), polish);
    }
    for (const double gain : gains) {
      MWC_OBS_GAUGE_ADD("tsp.improve_total_gain", gain);
    }
  }

  for (const auto& tour : result.tours)
    result.total_length += tour.length_with(distances);
  MWC_OBS_COUNT_N("tsp.tours_built", result.tours.size());
  result.forest = std::move(forest);
  return result;
}

MultiRootAssignment q_rooted_msf_assign(
    std::size_t num_roots,
    const std::function<double(std::size_t, std::size_t)>& root_dist,
    std::span<const geom::Point> sensors) {
  MWC_ASSERT(num_roots >= 1);
  const std::size_t m = sensors.size();

  MultiRootAssignment result;
  result.groups.assign(num_roots, {});
  if (m == 0) return result;

  std::vector<double> best_root_dist(m,
                                     std::numeric_limits<double>::infinity());
  std::vector<std::size_t> nearest_root(m, 0);
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t r = 0; r < num_roots; ++r) {
      const double d = root_dist(r, k);
      if (d < best_root_dist[k]) {
        best_root_dist[k] = d;
        nearest_root[k] = r;
      }
    }
  }

  // The same span as Algorithm 1, with the roots contracted into aux
  // node 0 through their nearest-root star.
  const auto distances = DistanceView::direct(sensors);
  std::vector<std::size_t> ids(m);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  std::uint64_t probes = 0;
  const auto mst = lazy_prim(distances, ids, best_root_dist,
                             delaunay_adjacency(distances, ids), probes);
  result.total_weight = mst.total_weight;

  const auto owner = propagate_owners(
      m + 1, mst, [&](std::size_t k) { return nearest_root[k]; });
  for (std::size_t v = 1; v <= m; ++v) {
    MWC_DEBUG_ASSERT(owner[v] < num_roots);
    result.groups[owner[v]].push_back(v - 1);
  }
  return result;
}

bool covers_all_sensors(const QRootedInstance& instance,
                        const QRootedTours& tours) {
  const std::size_t q = instance.q();
  if (tours.tours.size() != q) return false;

  std::unordered_set<std::size_t> covered;
  for (std::size_t l = 0; l < q; ++l) {
    const auto& order = tours.tours[l].order();
    if (order.empty() || order.front() != l) return false;
    for (std::size_t v : order) {
      if (v < q) {
        if (v != l) return false;  // tours may contain only their own depot
      } else {
        if (!covered.insert(v).second) return false;  // disjoint on sensors
      }
    }
  }
  return covered.size() == instance.m();
}

}  // namespace mwc::tsp
