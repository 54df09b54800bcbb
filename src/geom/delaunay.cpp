#include "geom/delaunay.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "util/assert.hpp"

namespace mwc::geom {

namespace {

// ---------------------------------------------------------------------------
// Expansion arithmetic (Shewchuk 1997). An expansion is a sum of doubles
// stored in increasing magnitude, nonoverlapping and zero-free; its sign
// is the sign of its largest component. Capacities are the worst-case
// lengths, so the exact stage runs on the stack: lattice inputs send a
// co-circular incircle there for almost every merge step.

template <std::size_t N>
struct Expansion {
  std::array<double, N> c;
  std::size_t n = 0;

  void push(double x) {
    if (x != 0.0) c[n++] = x;
  }
  double sign() const { return n == 0 ? 0.0 : c[n - 1]; }
};

constexpr double kEpsilon = 0x1p-53;  // half an ulp of 1
constexpr double kCcwErrBoundA = (3.0 + 16.0 * kEpsilon) * kEpsilon;
constexpr double kIccErrBoundA = (10.0 + 96.0 * kEpsilon) * kEpsilon;

/// x + y == a + b exactly, x = fl(a + b).
inline void two_sum(double a, double b, double& x, double& y) {
  x = a + b;
  const double bv = x - a;
  const double av = x - bv;
  y = (a - av) + (b - bv);
}

/// a - b as an exact expansion.
Expansion<2> diff(double a, double b) {
  const double x = a - b;
  const double bv = a - x;
  const double av = x + bv;
  Expansion<2> e;
  e.push((a - av) + (bv - b));
  e.push(x);
  return e;
}

/// e += b (Shewchuk's GROW-EXPANSION with zero elimination); e must have
/// room for one more component.
template <std::size_t N>
void grow(Expansion<N>& e, double b) {
  double q = b;
  std::size_t out = 0;
  for (std::size_t i = 0; i < e.n; ++i) {
    double sum = 0.0;
    double err = 0.0;
    two_sum(q, e.c[i], sum, err);
    q = sum;
    if (err != 0.0) e.c[out++] = err;
  }
  e.n = out;
  e.push(q);
}

template <std::size_t N, std::size_t M>
Expansion<N + M> add(const Expansion<N>& e, const Expansion<M>& f) {
  Expansion<N + M> h;
  for (std::size_t i = 0; i < e.n; ++i) h.c[i] = e.c[i];
  h.n = e.n;
  for (std::size_t i = 0; i < f.n; ++i) grow(h, f.c[i]);
  return h;
}

template <std::size_t N>
Expansion<N> negate(Expansion<N> e) {
  for (std::size_t i = 0; i < e.n; ++i) e.c[i] = -e.c[i];
  return e;
}

/// e · b (SCALE-EXPANSION with zero elimination); the product's error
/// term comes from one fused multiply-add, which is exact.
template <std::size_t N>
Expansion<2 * N> scale(const Expansion<N>& e, double b) {
  Expansion<2 * N> h;
  if (e.n == 0 || b == 0.0) return h;
  double q = e.c[0] * b;
  double err = std::fma(e.c[0], b, -q);
  h.push(err);
  for (std::size_t i = 1; i < e.n; ++i) {
    const double p1 = e.c[i] * b;
    const double p0 = std::fma(e.c[i], b, -p1);
    double sum = 0.0;
    two_sum(q, p0, sum, err);
    h.push(err);
    two_sum(p1, sum, q, err);
    h.push(err);
  }
  h.push(q);
  return h;
}

template <std::size_t N, std::size_t M>
Expansion<2 * N * M> mul(const Expansion<N>& e, const Expansion<M>& f) {
  Expansion<2 * N * M> h;
  for (std::size_t i = 0; i < f.n; ++i) {
    const Expansion<2 * N> part = scale(e, f.c[i]);
    for (std::size_t k = 0; k < part.n; ++k) grow(h, part.c[k]);
  }
  return h;
}

double orient2d_exact(const Point& a, const Point& b, const Point& c) {
  const auto acx = diff(a.x, c.x);
  const auto acy = diff(a.y, c.y);
  const auto bcx = diff(b.x, c.x);
  const auto bcy = diff(b.y, c.y);
  return add(mul(acx, bcy), negate(mul(acy, bcx))).sign();
}

double incircle_exact(const Point& a, const Point& b, const Point& c,
                      const Point& d) {
  const auto adx = diff(a.x, d.x);
  const auto ady = diff(a.y, d.y);
  const auto bdx = diff(b.x, d.x);
  const auto bdy = diff(b.y, d.y);
  const auto cdx = diff(c.x, d.x);
  const auto cdy = diff(c.y, d.y);
  const auto lift = [](const Expansion<2>& x, const Expansion<2>& y) {
    return add(mul(x, x), mul(y, y));
  };
  const auto cross = [](const Expansion<2>& x1, const Expansion<2>& y1,
                        const Expansion<2>& x2, const Expansion<2>& y2) {
    return add(mul(x1, y2), negate(mul(x2, y1)));
  };
  const auto ab = add(mul(lift(adx, ady), cross(bdx, bdy, cdx, cdy)),
                      mul(lift(bdx, bdy), cross(cdx, cdy, adx, ady)));
  return add(ab, mul(lift(cdx, cdy), cross(adx, ady, bdx, bdy))).sign();
}

// ---------------------------------------------------------------------------
// Quad-edge store (Guibas & Stolfi 1985). Edge record e = 4·quad + r;
// r = 0 and 2 are the two directions of the primal edge, r = 1 and 3 its
// dual. Only primal records carry an origin vertex.

using EdgeRef = std::uint32_t;

class QuadEdges {
 public:
  explicit QuadEdges(std::size_t capacity) {
    next_.reserve(4 * capacity);
    org_.reserve(4 * capacity);
    alive_.reserve(capacity);
  }

  static EdgeRef rot(EdgeRef e) { return (e & ~3u) | ((e + 1) & 3u); }
  static EdgeRef rot_inv(EdgeRef e) { return (e & ~3u) | ((e + 3) & 3u); }
  static EdgeRef sym(EdgeRef e) { return e ^ 2u; }

  EdgeRef onext(EdgeRef e) const { return next_[e]; }
  EdgeRef oprev(EdgeRef e) const { return rot(next_[rot(e)]); }
  EdgeRef lnext(EdgeRef e) const { return rot(next_[rot_inv(e)]); }
  EdgeRef rprev(EdgeRef e) const { return next_[sym(e)]; }
  std::uint32_t org(EdgeRef e) const { return org_[e]; }
  std::uint32_t dest(EdgeRef e) const { return org_[sym(e)]; }

  EdgeRef make_edge(std::uint32_t a, std::uint32_t b) {
    EdgeRef e = 0;
    if (free_.empty()) {
      e = static_cast<EdgeRef>(next_.size());
      next_.resize(next_.size() + 4);
      org_.resize(org_.size() + 4);
      alive_.push_back(1);
    } else {
      e = free_.back();
      free_.pop_back();
      alive_[e / 4] = 1;
    }
    next_[e] = e;
    next_[e + 1] = e + 3;
    next_[e + 2] = e + 2;
    next_[e + 3] = e + 1;
    org_[e] = a;
    org_[e + 2] = b;
    return e;
  }

  void splice(EdgeRef a, EdgeRef b) {
    const EdgeRef alpha = rot(next_[a]);
    const EdgeRef beta = rot(next_[b]);
    std::swap(next_[a], next_[b]);
    std::swap(next_[alpha], next_[beta]);
  }

  /// New edge from a's destination to b's origin, closing a face.
  EdgeRef connect(EdgeRef a, EdgeRef b) {
    const EdgeRef e = make_edge(dest(a), org(b));
    splice(e, lnext(a));
    splice(sym(e), b);
    return e;
  }

  void remove(EdgeRef e) {
    splice(e, oprev(e));
    splice(sym(e), oprev(sym(e)));
    alive_[e / 4] = 0;
    free_.push_back(e & ~3u);
  }

  std::size_t quads() const { return alive_.size(); }
  bool alive(std::size_t quad) const { return alive_[quad] != 0; }

 private:
  std::vector<EdgeRef> next_;
  std::vector<std::uint32_t> org_;
  std::vector<char> alive_;
  std::vector<EdgeRef> free_;
};

/// Guibas–Stolfi divide and conquer over points sorted by (x, y), all
/// distinct.
class Triangulator {
 public:
  Triangulator(std::span<const Point> sorted, QuadEdges& quads)
      : p_(sorted), q_(quads) {}

  /// Triangulates p_[lo, hi) (at least two points); returns the
  /// counter-clockwise convex-hull edge out of the leftmost point and the
  /// clockwise one out of the rightmost.
  std::pair<EdgeRef, EdgeRef> build(std::uint32_t lo, std::uint32_t hi) {
    const std::uint32_t n = hi - lo;
    if (n == 2) {
      const EdgeRef a = q_.make_edge(lo, lo + 1);
      return {a, QuadEdges::sym(a)};
    }
    if (n == 3) {
      const EdgeRef a = q_.make_edge(lo, lo + 1);
      const EdgeRef b = q_.make_edge(lo + 1, lo + 2);
      q_.splice(QuadEdges::sym(a), b);
      const double turn = orient2d(p_[lo], p_[lo + 1], p_[lo + 2]);
      if (turn > 0.0) {
        q_.connect(b, a);
        return {a, QuadEdges::sym(b)};
      }
      if (turn < 0.0) {
        const EdgeRef c = q_.connect(b, a);
        return {QuadEdges::sym(c), c};
      }
      return {a, QuadEdges::sym(b)};  // collinear: a chain
    }

    const std::uint32_t mid = lo + n / 2;
    auto [ldo, ldi] = build(lo, mid);
    auto [rdi, rdo] = build(mid, hi);

    // Lower common tangent of the two hulls.
    for (;;) {
      if (left_of(q_.org(rdi), ldi)) {
        ldi = q_.lnext(ldi);
      } else if (right_of(q_.org(ldi), rdi)) {
        rdi = q_.rprev(rdi);
      } else {
        break;
      }
    }
    EdgeRef basel = q_.connect(QuadEdges::sym(rdi), ldi);
    if (q_.org(ldi) == q_.org(ldo)) ldo = QuadEdges::sym(basel);
    if (q_.org(rdi) == q_.org(rdo)) rdo = basel;

    // Zip the halves together bottom to top.
    for (;;) {
      EdgeRef lcand = q_.onext(QuadEdges::sym(basel));
      if (valid(lcand, basel)) {
        while (in_circle(q_.dest(basel), q_.org(basel), q_.dest(lcand),
                         q_.dest(q_.onext(lcand)))) {
          const EdgeRef t = q_.onext(lcand);
          q_.remove(lcand);
          lcand = t;
        }
      }
      EdgeRef rcand = q_.oprev(basel);
      if (valid(rcand, basel)) {
        while (in_circle(q_.dest(basel), q_.org(basel), q_.dest(rcand),
                         q_.dest(q_.oprev(rcand)))) {
          const EdgeRef t = q_.oprev(rcand);
          q_.remove(rcand);
          rcand = t;
        }
      }
      const bool lvalid = valid(lcand, basel);
      const bool rvalid = valid(rcand, basel);
      if (!lvalid && !rvalid) break;
      if (!lvalid ||
          (rvalid && in_circle(q_.dest(lcand), q_.org(lcand), q_.org(rcand),
                               q_.dest(rcand)))) {
        basel = q_.connect(rcand, QuadEdges::sym(basel));
      } else {
        basel = q_.connect(QuadEdges::sym(basel), QuadEdges::sym(lcand));
      }
    }
    return {ldo, rdo};
  }

 private:
  bool ccw(std::uint32_t a, std::uint32_t b, std::uint32_t c) const {
    return orient2d(p_[a], p_[b], p_[c]) > 0.0;
  }
  bool left_of(std::uint32_t x, EdgeRef e) const {
    return ccw(x, q_.org(e), q_.dest(e));
  }
  bool right_of(std::uint32_t x, EdgeRef e) const {
    return ccw(x, q_.dest(e), q_.org(e));
  }
  bool valid(EdgeRef e, EdgeRef basel) const {
    return right_of(q_.dest(e), basel);
  }
  /// The merge loops routinely probe a vertex against a circle through
  /// itself (a candidate's next neighbour is basel's endpoint); that is
  /// never strictly inside, and answering it here keeps the call out of
  /// the exact stage, which every such degenerate probe would reach.
  bool in_circle(std::uint32_t a, std::uint32_t b, std::uint32_t c,
                 std::uint32_t d) const {
    if (d == a || d == b || d == c) return false;
    return incircle(p_[a], p_[b], p_[c], p_[d]) > 0.0;
  }

  std::span<const Point> p_;
  QuadEdges& q_;
};

}  // namespace

double orient2d(const Point& a, const Point& b, const Point& c) {
  const double left = (a.x - c.x) * (b.y - c.y);
  const double right = (a.y - c.y) * (b.x - c.x);
  const double det = left - right;
  double sum = 0.0;
  if (left > 0.0) {
    if (right <= 0.0) return det;
    sum = left + right;
  } else if (left < 0.0) {
    if (right >= 0.0) return det;
    sum = -left - right;
  } else {
    return det;
  }
  const double bound = kCcwErrBoundA * sum;
  if (det >= bound || -det >= bound) return det;
  return orient2d_exact(a, b, c);
}

double incircle(const Point& a, const Point& b, const Point& c,
                const Point& d) {
  const double adx = a.x - d.x;
  const double ady = a.y - d.y;
  const double bdx = b.x - d.x;
  const double bdy = b.y - d.y;
  const double cdx = c.x - d.x;
  const double cdy = c.y - d.y;
  const double bdxcdy = bdx * cdy;
  const double cdxbdy = cdx * bdy;
  const double cdxady = cdx * ady;
  const double adxcdy = adx * cdy;
  const double adxbdy = adx * bdy;
  const double bdxady = bdx * ady;
  const double alift = adx * adx + ady * ady;
  const double blift = bdx * bdx + bdy * bdy;
  const double clift = cdx * cdx + cdy * cdy;
  const double det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) +
                     clift * (adxbdy - bdxady);
  const double permanent =
      (std::abs(bdxcdy) + std::abs(cdxbdy)) * alift +
      (std::abs(cdxady) + std::abs(adxcdy)) * blift +
      (std::abs(adxbdy) + std::abs(bdxady)) * clift;
  const double bound = kIccErrBoundA * permanent;
  if (det > bound || -det > bound) return det;
  return incircle_exact(a, b, c, d);
}

Triangulation delaunay(std::span<const Point> points, bool with_triangles) {
  // At most 3n live quad-edges of 4 records each, indexed in 32 bits.
  MWC_ASSERT_MSG(points.size() <= (std::size_t{1} << 28),
                 "delaunay: too many points for 32-bit edge records");
  Triangulation out;
  const std::size_t n = points.size();
  if (n < 2) return out;

  // Sort by (x, y, index); equal points become runs whose first entry is
  // the lowest-index copy.
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t i, std::uint32_t j) {
    const Point& a = points[i];
    const Point& b = points[j];
    if (a.x != b.x) return a.x < b.x;
    if (a.y != b.y) return a.y < b.y;
    return i < j;
  });
  std::vector<Point> unique;
  std::vector<std::uint32_t> origin;  // unique slot -> input index
  unique.reserve(n);
  origin.reserve(n);
  for (const std::uint32_t i : order) {
    if (!unique.empty() && unique.back() == points[i]) {
      out.edges.emplace_back(origin.back(), i);  // origin.back() < i
      continue;
    }
    unique.push_back(points[i]);
    origin.push_back(i);
  }

  const std::size_t u = unique.size();
  if (u < 2) return out;
  QuadEdges quads(3 * u);
  Triangulator(unique, quads).build(0, static_cast<std::uint32_t>(u));

  out.edges.reserve(out.edges.size() + quads.quads());
  for (std::size_t k = 0; k < quads.quads(); ++k) {
    if (!quads.alive(k)) continue;
    const auto e = static_cast<EdgeRef>(4 * k);
    const std::uint32_t a = origin[quads.org(e)];
    const std::uint32_t b = origin[quads.dest(e)];
    out.edges.emplace_back(std::min(a, b), std::max(a, b));
  }
  if (!with_triangles) return out;

  // A bounded face is a counter-clockwise 3-cycle of lnext; report it
  // once, from its lowest-numbered edge record.
  for (std::size_t k = 0; k < quads.quads(); ++k) {
    if (!quads.alive(k)) continue;
    for (const EdgeRef e : {static_cast<EdgeRef>(4 * k),
                            static_cast<EdgeRef>(4 * k + 2)}) {
      const EdgeRef f = quads.lnext(e);
      const EdgeRef g = quads.lnext(f);
      if (quads.lnext(g) != e || f < e || g < e) continue;
      const std::uint32_t a = quads.org(e);
      const std::uint32_t b = quads.org(f);
      const std::uint32_t c = quads.org(g);
      if (orient2d(unique[a], unique[b], unique[c]) <= 0.0) continue;
      out.triangles.push_back({origin[a], origin[b], origin[c]});
    }
  }
  return out;
}

}  // namespace mwc::geom
