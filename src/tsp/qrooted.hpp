// Algorithms 1 and 2 of the paper: the exact q-rooted minimum spanning
// forest and the 2-approximate q-rooted TSP.
//
// Instance convention: nodes are indexed in a combined space where indices
// 0..q-1 are the q depots and q..q+m-1 are the m to-be-charged sensors.
// All edge lists, trees, and tours returned here use combined indices.
//
//   q-rooted MSF (exact, Lemma 1):
//     contract the q depots into one virtual root, take the MST of the
//     contracted complete graph, and un-contract — each virtual-root edge
//     maps back to the depot realizing the minimum distance.
//
//   q-rooted TSP (2-approximation, Theorem 1):
//     double each MSF tree's edges, take the Eulerian circuit, shortcut
//     repeated nodes. Each resulting closed tour contains its own depot
//     and the q tours jointly cover all sensors.
//
// Algorithm 1 is one core (qrooted.cpp) behind three entry points: the
// full MSF, the dirty-region repair and q_rooted_msf_assign. Each
// contracts what is already connected into the virtual root, scans the
// root star, spans the auxiliary graph and un-contracts. The span is a
// lazy-heap Prim over the root star plus the Delaunay edges of the
// spanned sensors (geom/delaunay.hpp): every edge dense Prim would pick
// is a Gabriel edge, hence a Delaunay edge (Shamos & Hoey 1975), so the
// sparse span returns dense Prim's forest edge for edge, in the same
// order, in O(m log m) per dispatch set instead of O((q + m)²). The
// span reads positions through DistanceView::point, so it never needs
// an oracle's n² rows. Dense Prim survives only as the test oracle.
#pragma once

#include <cstddef>
#include <functional>
#include <iterator>
#include <span>
#include <vector>

#include "geom/point.hpp"
#include "graph/forest.hpp"
#include "tsp/candidates.hpp"
#include "tsp/improve.hpp"
#include "tsp/oracle.hpp"
#include "tsp/tour.hpp"

namespace mwc {
class ThreadPool;
}

namespace mwc::tsp {

/// Random-access, non-owning view of an instance's points in combined
/// order (depots first, then sensors). Valid as long as the backing
/// depot/sensor vectors are.
class CombinedPointsView {
 public:
  CombinedPointsView() = default;
  CombinedPointsView(std::span<const geom::Point> depots,
                     std::span<const geom::Point> sensors)
      : depots_(depots), sensors_(sensors) {}

  std::size_t size() const noexcept { return depots_.size() + sensors_.size(); }
  bool empty() const noexcept { return size() == 0; }

  const geom::Point& operator[](std::size_t i) const noexcept {
    return i < depots_.size() ? depots_[i] : sensors_[i - depots_.size()];
  }

  std::span<const geom::Point> depots() const noexcept { return depots_; }
  std::span<const geom::Point> sensors() const noexcept { return sensors_; }

  /// Direct-geometry distance kernel over this view's combined space.
  DistanceView distances() const {
    return DistanceView::direct(depots_, sensors_);
  }

  /// Materializes the combined order into a contiguous vector (for APIs
  /// that genuinely need a std::span of points).
  std::vector<geom::Point> materialize() const;

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = geom::Point;
    using difference_type = std::ptrdiff_t;
    using pointer = const geom::Point*;
    using reference = const geom::Point&;

    iterator() = default;
    iterator(const CombinedPointsView* view, std::size_t index)
        : view_(view), index_(index) {}

    reference operator*() const { return (*view_)[index_]; }
    pointer operator->() const { return &(*view_)[index_]; }
    iterator& operator++() {
      ++index_;
      return *this;
    }
    iterator operator++(int) {
      iterator copy = *this;
      ++index_;
      return copy;
    }
    bool operator==(const iterator& o) const = default;

   private:
    const CombinedPointsView* view_ = nullptr;
    std::size_t index_ = 0;
  };

  iterator begin() const { return {this, 0}; }
  iterator end() const { return {this, size()}; }

 private:
  std::span<const geom::Point> depots_;
  std::span<const geom::Point> sensors_;
};

/// A q-rooted instance: depot positions plus sensor positions.
struct QRootedInstance {
  std::vector<geom::Point> depots;
  std::vector<geom::Point> sensors;

  std::size_t q() const noexcept { return depots.size(); }
  std::size_t m() const noexcept { return sensors.size(); }
  std::size_t total_nodes() const noexcept { return q() + m(); }

  /// Position of combined-index node i.
  const geom::Point& point(std::size_t i) const noexcept {
    return i < depots.size() ? depots[i] : sensors[i - depots.size()];
  }

  /// All positions in combined order (depots first), as a zero-copy view.
  CombinedPointsView points() const noexcept { return {depots, sensors}; }

  /// Direct-geometry distance kernel over the combined space.
  DistanceView distances() const { return points().distances(); }
};

/// Result of Algorithm 1. trees[l] is rooted at depot l (combined index l);
/// depots that serve no sensors get an empty tree of just their root.
struct QRootedForest {
  std::vector<graph::RootedTree> trees;
  double total_weight = 0.0;
};

/// Exact q-rooted MSF (Algorithm 1). Requires q >= 1. O(q·m + m log m).
QRootedForest q_rooted_msf(const QRootedInstance& instance);

/// Exact q-rooted MSF over any distance kernel whose combined node space
/// has nodes 0..q-1 as depots (e.g. a direct dispatch view). Bit-exact
/// with the instance overload for equal distances and positions.
QRootedForest q_rooted_msf(const DistanceView& distances, std::size_t q);

/// Dirty-region repair of a q-rooted MSF. The base forest must live in
/// the *current* combined node space (when a patch removed/added nodes,
/// the caller remaps surviving tree edges first). Trees flagged dirty
/// are discarded and their sensors re-spanned; clean trees are kept
/// verbatim and treated as part of the contracted virtual root, so a
/// re-spanned sensor may attach to a depot directly or graft onto a
/// clean tree through one of its sensors.
struct MsfRepairPlan {
  /// Per-depot dirty flags (size q). An inactive root's tree counts as
  /// dirty whatever its flag says (its sensors are re-homed elsewhere).
  std::vector<char> tree_dirty;
  /// Per-depot availability (size q, or empty for "all active"). An
  /// inactive depot keeps its combined index but attracts no sensors —
  /// the charger_down case. At least one depot must stay active.
  std::vector<char> root_active;
  /// Combined-space sensor ids in no base tree (nodes a patch added).
  std::vector<std::size_t> extra_sensors;
};

struct MsfRepairStats {
  std::size_t dirty_sensors = 0;  ///< sensors re-spanned by the repair
  std::size_t reused_trees = 0;   ///< clean trees copied verbatim
  std::size_t rebuilt_trees = 0;  ///< dirty or edge-gaining trees
  /// Per-depot flag (size q): 1 when the tree was rebuilt (it was dirty
  /// or gained grafted edges), 0 when copied verbatim from the base.
  std::vector<char> tree_changed;
};

/// Re-runs Algorithm 1 only over the dirty region (sensors of dirty
/// trees plus extra_sensors), attaching it to the clean remainder, and
/// merges the result with the untouched trees. With every tree dirty and
/// all roots active this is the full MSF: the same core, byte-identical
/// forest. The dirty sensors span over their own Delaunay edges, so a
/// local patch costs O(|dirty| log |dirty|) plus the graft scan.
/// `candidates` (over the combined space) limits that scan to each dirty
/// sensor's candidate clean neighbours; null scans every clean sensor.
/// Counts `tsp.repair.*` telemetry.
QRootedForest repair_q_rooted_msf(const DistanceView& distances,
                                  std::size_t q, const QRootedForest& base,
                                  const MsfRepairPlan& plan,
                                  const CandidateGraph* candidates = nullptr,
                                  MsfRepairStats* stats = nullptr);

/// Result of Algorithm 2. tours[l] starts at depot l; a tour of size one
/// (just the depot) means charger l stays home. Lengths use the Euclidean
/// metric on the instance points.
struct QRootedTours {
  std::vector<Tour> tours;
  double total_length = 0.0;
  /// The MSF the tours were built from (combined node space) — kept so
  /// incremental re-planning can key its dirty-region repair off the
  /// existing forest instead of re-deriving it.
  QRootedForest forest;
  /// The k-NN graph this call built for candidate-mode polish, over the
  /// view's node space; empty when the caller supplied a graph or the
  /// polish does not use one. A caller that needs the round's graph
  /// later moves it out instead of building it again.
  CandidateGraph candidates;
};

enum class TourConstruction {
  /// The paper's Algorithm 2: double each MSF tree, Euler tour, shortcut.
  kDoubleTree,
  /// Library extension: keep the MSF's sensor-to-depot grouping but build
  /// each group's tour with christofides_tour (ablation A7).
  kChristofides,
};

struct QRootedOptions {
  /// Apply 2-opt/Or-opt to each tour after construction (library
  /// extension, off by default to match the paper).
  bool improve = false;
  TourConstruction construction = TourConstruction::kDoubleTree;

  /// Polisher knobs. Its `candidates` pointer, when null, inherits the
  /// `candidates` graph below.
  ImproveOptions improve_options;

  /// k-nearest-neighbor graph over the *combined* node space (depots +
  /// sensors) for candidate-mode polish. Non-owning. When neither this
  /// nor improve_options supplies one and candidate_polish() holds,
  /// q_rooted_tsp builds one over the view's points.
  const CandidateGraph* candidates = nullptr;

  /// Build parameters for graphs built on these options' behalf
  /// (q_rooted_tsp's own graph, the replan repair).
  CandidateOptions candidate_options;
};

/// The one rule for the polish mode: true when `options` polish in
/// candidate mode, i.e. improvement is on and not forced exhaustive.
/// q_rooted_tsp polishes over a candidate graph exactly when this holds
/// (building one when the caller supplies none), and
/// sim::replan_round repairs the base round's graph under the same rule.
inline bool candidate_polish(const QRootedOptions& options) noexcept {
  return options.improve && !options.improve_options.exhaustive;
}

/// 2-approximate q-rooted TSP (Algorithm 2). Requires q >= 1.
QRootedTours q_rooted_tsp(const QRootedInstance& instance,
                          const QRootedOptions& options = {});

/// 2-approximate q-rooted TSP over any distance kernel whose combined
/// node space has nodes 0..q-1 as depots. Tour node indices are local to
/// the view. Bit-exact with the instance overload for equal distances.
/// Under candidate_polish() with no caller-supplied graph, builds a
/// CandidateGraph over DistanceView::point with `candidate_options` and
/// returns it in QRootedTours::candidates.
/// A non-null `polish_pool` runs the per-tour improvement phase across
/// the pool (one task per tour; results are deterministic because each
/// tour is polished independently). Callers already running inside a pool
/// task must pass null — nested parallel_for deadlocks a saturated pool.
QRootedTours q_rooted_tsp(const DistanceView& distances, std::size_t q,
                          const QRootedOptions& options = {},
                          ThreadPool* polish_pool = nullptr);

/// Validates the Theorem-1 structural guarantees: each tour is closed
/// through its own depot, tours are node-disjoint on sensors, and their
/// union covers every sensor. Test/assert helper.
bool covers_all_sensors(const QRootedInstance& instance,
                        const QRootedTours& tours);

/// Generalized q-rooted MSF where each "root" is an arbitrary entity with
/// a caller-supplied distance to every sensor (the variable-cycle
/// heuristic's auxiliary graphs G^(k) use whole *schedulings* as roots,
/// with root-to-sensor distance = nearest node of that scheduling).
///
/// Runs the same contraction: one virtual root whose distance to sensor s
/// is min over roots of root_dist(r, s); MST; un-contract. Returns which
/// sensors belong to each root's tree plus the forest weight. `groups[r]`
/// lists local sensor indices (0..m-1).
struct MultiRootAssignment {
  std::vector<std::vector<std::size_t>> groups;
  double total_weight = 0.0;
};

MultiRootAssignment q_rooted_msf_assign(
    std::size_t num_roots,
    const std::function<double(std::size_t, std::size_t)>& root_dist,
    std::span<const geom::Point> sensors);

}  // namespace mwc::tsp
