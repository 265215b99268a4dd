#pragma once
/// \file connectivity.hpp
/// \brief Forest-of-octrees connectivity: how multiple octree roots glue
/// into one computational domain (Section II-A).
///
/// Two kinds of connectivity are provided.  *Brick* connectivities (an
/// nx × ny × nz lattice of unit cubes, optionally periodic per axis — the
/// construction p4est calls p4est_connectivity_new_brick) couple trees by
/// pure translations.  *General* connectivities glue faces through an
/// explicit table with arbitrary orientation — tangential reversal in 2D
/// (Möbius bands) and any of the 8 tangential swap/flip combinations in 3D
/// — carried everywhere by affine FrameTransforms (signed axis permutation
/// plus translation).  Edge and corner tree neighbors are derived by
/// composing face crossings; corners whose face paths disagree (singular
/// corners, e.g. on a Möbius band boundary) act as physical boundary.
/// Trees meeting *only* at an edge or corner (without a face gluing) are
/// not representable — that is the one remaining gap to full p4est
/// connectivity (see DESIGN.md §2.7).

#include <array>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/octant.hpp"

namespace octbal {

/// An octant living in a specific tree of the forest.
template <int D>
struct TreeOct {
  std::int32_t tree = 0;
  Octant<D> oct;

  friend bool operator==(const TreeOct&, const TreeOct&) = default;
};

template <int D>
constexpr bool operator<(const TreeOct<D>& a, const TreeOct<D>& b) {
  if (a.tree != b.tree) return a.tree < b.tree;
  return a.oct < b.oct;
}

/// Wire format for one octant within a tree (trivially copyable): the
/// payload of the balance query exchange, the delta-balance push rounds and
/// the ghost candidate exchange, so all three charge the same bytes per
/// octant.
template <int D>
struct WireOct {
  std::int32_t tree;
  std::int32_t level;
  std::array<coord_t, D> x;

  friend bool operator==(const WireOct&, const WireOct&) = default;
  friend auto operator<=>(const WireOct&, const WireOct&) = default;
};

template <int D>
WireOct<D> to_wire(const TreeOct<D>& to) {
  return WireOct<D>{to.tree, to.oct.level, to.oct.x};
}

template <int D>
TreeOct<D> from_wire(const WireOct<D>& w) {
  TreeOct<D> to;
  to.tree = w.tree;
  to.oct.level = static_cast<level_t>(w.level);
  to.oct.x = w.x;
  return to;
}

/// Affine frame transform between two trees' coordinate systems:
///   x_source[i] = offset[i] + sign[i] * x_neighbor[perm[i]]
/// with sign = ±1 and perm a permutation of the axes.  Brick couplings are
/// pure translations (perm = identity, sign = +1); general 2D face gluings
/// (reversed or axis-swapped faces) use the full form.  Applying the
/// transform to an octant maps its cube and returns the anchor of the
/// image (which is the minimum corner again, so reflected axes subtract
/// the side length).
template <int D>
struct FrameTransform {
  std::array<std::int8_t, D> perm{};   ///< source axis i reads neighbor axis perm[i]
  std::array<std::int8_t, D> sign{};   ///< ±1 per source axis
  std::array<scoord_t, D> offset{};    ///< translation, in finest-cell units

  static FrameTransform identity() {
    FrameTransform t;
    for (int i = 0; i < D; ++i) {
      t.perm[i] = static_cast<std::int8_t>(i);
      t.sign[i] = 1;
    }
    return t;
  }

  static FrameTransform translation(const std::array<coord_t, D>& step) {
    FrameTransform t = identity();
    for (int i = 0; i < D; ++i) {
      t.offset[i] = static_cast<scoord_t>(step[i]) * root_len<D>;
    }
    return t;
  }

  /// Map an octant from the neighbor frame into the source frame.  The
  /// result may be an extended (exterior) octant of the source tree.
  Octant<D> apply(const Octant<D>& o) const {
    Octant<D> r;
    r.level = o.level;
    const scoord_t h = side_len(o);
    for (int i = 0; i < D; ++i) {
      const scoord_t v = o.x[perm[i]];
      const scoord_t c = sign[i] > 0 ? offset[i] + v : offset[i] - v - h;
      r.x[i] = static_cast<coord_t>(c);
    }
    return r;
  }

  /// The inverse map (source frame → neighbor frame):
  /// t.inverse().apply(t.apply(o)) == o for every octant o.  Solving the
  /// forward form x_source[i] = offset[i] + sign[i] * x_neighbor[perm[i]]
  /// for x_neighbor gives, with j = perm[i]:
  ///   x_neighbor[j] = sign[i] * x_source[i] - sign[i] * offset[i]
  /// and the anchor correction for reflected axes is symmetric, so the
  /// inverse is again a FrameTransform.
  FrameTransform inverse() const {
    FrameTransform t;
    for (int i = 0; i < D; ++i) {
      const int j = perm[i];
      t.perm[j] = static_cast<std::int8_t>(i);
      t.sign[j] = sign[i];
      t.offset[j] =
          sign[i] > 0 ? static_cast<scoord_t>(-offset[i]) : offset[i];
    }
    return t;
  }

  /// Composition: (this ∘ other), i.e. first map by \p other, then this.
  FrameTransform compose(const FrameTransform& other) const {
    FrameTransform t;
    for (int i = 0; i < D; ++i) {
      t.perm[i] = other.perm[perm[i]];
      t.sign[i] = static_cast<std::int8_t>(sign[i] * other.sign[perm[i]]);
      t.offset[i] = offset[i] + static_cast<scoord_t>(sign[i]) *
                                    other.offset[perm[i]];
    }
    return t;
  }

  friend bool operator==(const FrameTransform&, const FrameTransform&) =
      default;
};

/// Result of a cross-tree neighbor lookup: the neighbor octant in its own
/// tree's coordinates, plus the lattice step from the source tree (for
/// brick couplings: x_source = x_neighbor + step * root_len) and the full
/// frame transform (valid for general gluings as well).
template <int D>
struct TreeNeighbor {
  std::int32_t tree = 0;
  Octant<D> oct;
  std::array<coord_t, D> step{};
  FrameTransform<D> xform = FrameTransform<D>::identity();
};

/// One glued face of a general (non-lattice) connectivity: the octree face
/// meets \p face of tree \p tree with orientation \p orient.
/// tree == -1 is a physical boundary.
///
/// Faces are numbered 0:-x, 1:+x, 2:-y, 3:+y (2D) plus 4:-z, 5:+z (3D).
/// Orientation encoding:
///  - 2D: bit 0 reverses the tangential coordinate (Möbius gluing).
///  - 3D: bit 0 swaps the two tangential axes (source tangentials in
///    increasing axis order map to the neighbor's in decreasing order);
///    bits 1 and 2 reverse the first and second *source* tangential.
/// All 8 3D face orientations are expressible.
struct FaceGlue {
  std::int32_t tree = -1;
  std::int8_t face = 0;
  std::uint8_t orient = 0;
};

/// The orientation of the reverse gluing (mutuality requires it): flips
/// are self-inverse, but a tangential swap exchanges which flip applies to
/// which axis.
constexpr std::uint8_t inverse_orient(std::uint8_t o) {
  if (!(o & 1)) return o;
  const std::uint8_t f1 = (o >> 1) & 1, f2 = (o >> 2) & 1;
  return static_cast<std::uint8_t>(1 | (f2 << 1) | (f1 << 2));
}

template <int D>
class Connectivity {
 public:
  /// A single unit-cube tree.
  static Connectivity unitcube() { return brick(filled(1), {}); }

  /// An axis-aligned lattice of dims[i] trees, periodic per axis on demand.
  /// Throws std::invalid_argument when some dims[i] < 1.
  static Connectivity brick(const std::array<int, D>& dims,
                            const std::array<bool, D>& periodic = {}) {
    Connectivity c;
    c.dims_ = dims;
    c.periodic_ = periodic;
    c.ntrees_ = 1;
    for (int i = 0; i < D; ++i) {
      if (dims[i] < 1) {
        throw std::invalid_argument("Connectivity::brick: dims[" +
                                    std::to_string(i) + "] = " +
                                    std::to_string(dims[i]) + " must be >= 1");
      }
      c.ntrees_ *= dims[i];
    }
    return c;
  }

  /// General connectivity from an explicit face-gluing table:
  /// faces[t][f] describes what lies across face f of tree t.  Gluings
  /// must be mutual with inverse orientations (validate() checks).
  /// Available for D == 2 and D == 3; the lattice embedding (tree_coords
  /// etc.) does not apply.  Throws std::invalid_argument when the table
  /// does not hold exactly \p ntrees rows, or when an entry names a tree
  /// outside [-1, ntrees), a face outside [0, 2D) or an orientation
  /// outside [0, 2) (2D) or [0, 8) (3D).
  static Connectivity general(int ntrees,
                              std::vector<std::array<FaceGlue, 2 * D>> faces) {
    static_assert(D >= 2, "general connectivities are 2D/3D");
    if (faces.size() != static_cast<std::size_t>(ntrees)) {
      throw std::invalid_argument(
          "Connectivity::general: " + std::to_string(faces.size()) +
          " face rows for ntrees = " + std::to_string(ntrees));
    }
    constexpr int orients = D == 2 ? 2 : 8;
    const auto outside = [](int t, int f, const std::string& what, int v,
                            int lo, int hi) {
      return std::invalid_argument(
          "Connectivity::general: faces[" + std::to_string(t) + "][" +
          std::to_string(f) + "] names " + what + " " + std::to_string(v) +
          " outside [" + std::to_string(lo) + ", " + std::to_string(hi) + ")");
    };
    for (int t = 0; t < ntrees; ++t) {
      for (int f = 0; f < 2 * D; ++f) {
        const FaceGlue& g = faces[t][f];
        if (g.tree < -1 || g.tree >= ntrees) {
          throw outside(t, f, "tree", g.tree, -1, ntrees);
        }
        if (g.face < 0 || g.face >= 2 * D) {
          throw outside(t, f, "face", g.face, 0, 2 * D);
        }
        if (g.orient >= orients) {
          throw outside(t, f, "orientation", g.orient, 0, orients);
        }
      }
    }
    Connectivity c;
    c.ntrees_ = ntrees;
    c.dims_ = filled(0);
    c.general_ = true;
    c.glue_ = std::move(faces);
    return c;
  }

  /// A ring of n trees glued +x -> -x in a cycle; the wrap link uses
  /// orientation \p wrap_orient (0 = plain torus direction; 1 in 2D is a
  /// Möbius band; any of 0..7 in 3D).
  static Connectivity ring(int n, std::uint8_t wrap_orient) {
    std::vector<std::array<FaceGlue, 2 * D>> faces(n);
    for (int t = 0; t < n; ++t) {
      const bool wrap_right = t == n - 1;
      const bool wrap_left = t == 0;
      faces[t][1] = FaceGlue{static_cast<std::int32_t>((t + 1) % n), 0,
                             wrap_right ? wrap_orient : std::uint8_t{0}};
      faces[t][0] = FaceGlue{
          static_cast<std::int32_t>((t + n - 1) % n), 1,
          wrap_left ? inverse_orient(wrap_orient) : std::uint8_t{0}};
      // Remaining faces are physical boundary (default FaceGlue).
    }
    return general(n, std::move(faces));
  }

  static Connectivity moebius(int n) { return ring(n, 1); }

  int num_trees() const { return ntrees_; }
  const std::array<int, D>& dims() const { return dims_; }
  const std::array<bool, D>& periodic() const { return periodic_; }
  /// True for brick/lattice connectivities (tree_coords etc. are valid).
  bool is_lattice() const { return !general_; }

  /// Lattice coordinates of tree \p t (x fastest, matching tree numbering).
  /// Throws std::invalid_argument on a general connectivity or when \p t
  /// is not a tree.
  std::array<int, D> tree_coords(int t) const {
    if (general_ || t < 0 || t >= ntrees_) {
      throw std::invalid_argument(
          "Connectivity::tree_coords: tree " + std::to_string(t) +
          (general_ ? " of a general connectivity, which has no lattice"
                    : " outside [0, " + std::to_string(ntrees_) + ")"));
    }
    return lattice_coords(t);
  }

  /// The tree at lattice coordinates \p c.  Throws std::invalid_argument
  /// when some c[i] lies outside [0, dims[i]), which includes every
  /// coordinate of a general connectivity.
  int tree_index(const std::array<int, D>& c) const {
    for (int i = 0; i < D; ++i) {
      if (c[i] < 0 || c[i] >= dims_[i]) {
        throw std::invalid_argument(
            "Connectivity::tree_index: c[" + std::to_string(i) + "] = " +
            std::to_string(c[i]) + " outside [0, " +
            std::to_string(dims_[i]) + ")");
      }
    }
    return lattice_index(c);
  }

  /// The same-size neighbor of octant \p o in tree \p t, offset by \p off
  /// side lengths per dimension, possibly crossing into another tree.
  /// Returns std::nullopt when the neighbor leaves the domain (and, for
  /// general connectivities, at singular corners where the two face paths
  /// disagree).
  std::optional<TreeNeighbor<D>> neighbor(int t, const Octant<D>& o,
                                          const std::array<int, D>& off) const {
    if (general_) {
      if constexpr (D >= 2) return neighbor_general(t, o, off);
      return std::nullopt;  // unreachable: general_ implies D >= 2
    }
    TreeNeighbor<D> nb;
    std::array<int, D> tc = lattice_coords(t);
    nb.oct.level = o.level;
    const scoord_t h = side_len(o);
    for (int i = 0; i < D; ++i) {
      scoord_t c = static_cast<scoord_t>(o.x[i]) + off[i] * h;
      int step = 0;
      if (c < 0) {
        step = -1;
        c += root_len<D>;
      } else if (c >= root_len<D>) {
        step = 1;
        c -= root_len<D>;
      }
      int nt = tc[i] + step;
      if (nt < 0 || nt >= dims_[i]) {
        if (!periodic_[i]) return std::nullopt;
        nt = (nt + dims_[i]) % dims_[i];
      }
      tc[i] = nt;
      nb.oct.x[i] = static_cast<coord_t>(c);
      nb.step[i] = static_cast<coord_t>(step);
    }
    nb.tree = static_cast<std::int32_t>(lattice_index(tc));
    nb.xform = FrameTransform<D>::translation(nb.step);
    return nb;
  }

  /// Translate octant \p o from the neighbor frame described by \p step
  /// back into the source tree's frame (producing an extended octant).
  static Octant<D> to_source_frame(const Octant<D>& o,
                                   const std::array<coord_t, D>& step) {
    Octant<D> r = o;
    for (int i = 0; i < D; ++i) r.x[i] += step[i] * root_len<D>;
    return r;
  }

  /// Structural sanity: neighbor() is an involution through opposite
  /// offsets for every boundary face of every tree.
  bool validate() const;

  /// The gluing table (general mode only).
  const std::vector<std::array<FaceGlue, 2 * D>>& glue() const {
    return glue_;
  }

 private:
  static std::array<int, D> filled(int v) {
    std::array<int, D> a{};
    a.fill(v);
    return a;
  }

  /// tree_coords and tree_index unchecked, for neighbor()'s lattice
  /// branch, whose tree and stepped coordinates are in range.
  std::array<int, D> lattice_coords(int t) const {
    std::array<int, D> c{};
    for (int i = 0; i < D; ++i) {
      c[i] = t % dims_[i];
      t /= dims_[i];
    }
    return c;
  }
  int lattice_index(const std::array<int, D>& c) const {
    int t = 0;
    for (int i = D - 1; i >= 0; --i) t = t * dims_[i] + c[i];
    return t;
  }

  /// Cross one face of \p tree with an octant whose coordinate along axis
  /// \p a lies outside [0, root_len) in direction \p dir.  Tangential
  /// coordinates may themselves be exterior (corner/edge paths cross more
  /// than once).  Returns the octant in the neighbor frame plus the
  /// neighbor->source transform.
  std::optional<std::tuple<int, Octant<D>, FrameTransform<D>>> cross_face(
      int tree, const Octant<D>& oct, int a, int dir) const {
    const int f = 2 * a + (dir > 0 ? 1 : 0);
    const FaceGlue& g = glue_[tree][f];
    if (g.tree < 0) return std::nullopt;
    const int A = g.face >> 1;  // neighbor normal axis
    const scoord_t R = root_len<D>;
    const scoord_t h = side_len(oct);
    // Depth of the octant past the source boundary.
    const scoord_t d = dir > 0 ? static_cast<scoord_t>(oct.x[a]) - R
                               : -static_cast<scoord_t>(oct.x[a]) - h;
    // Tangential axes of both frames in increasing order.
    std::array<int, D> bs{}, Bs{};
    int nb_t = 0, nB = 0;
    for (int i = 0; i < D; ++i) {
      if (i != a) bs[nb_t++] = i;
      if (i != A) Bs[nB++] = i;
    }
    const bool swap = D == 3 && (g.orient & 1);
    Octant<D> n;
    n.level = oct.level;
    n.x[A] = static_cast<coord_t>((g.face & 1) ? R - d - h : d);
    FrameTransform<D> T;
    const int sf = dir > 0 ? 1 : 0;
    const int sg = g.face & 1;
    T.perm[a] = static_cast<std::int8_t>(A);
    T.sign[a] = static_cast<std::int8_t>(sf == sg ? -1 : 1);
    T.offset[a] = sf == 1 ? (sg == 0 ? R : 2 * R) : (sg == 0 ? 0 : -R);
    for (int i = 0; i < D - 1; ++i) {
      const int src = bs[i];
      const int dst = swap ? Bs[D - 2 - i] : Bs[i];
      const bool flip = D == 2 ? (g.orient & 1) != 0
                               : ((g.orient >> (i + 1)) & 1) != 0;
      const scoord_t tgt = oct.x[src];
      n.x[dst] = static_cast<coord_t>(flip ? R - tgt - h : tgt);
      T.perm[src] = static_cast<std::int8_t>(dst);
      T.sign[src] = static_cast<std::int8_t>(flip ? -1 : 1);
      T.offset[src] = flip ? R : 0;
    }
    return std::tuple<int, Octant<D>, FrameTransform<D>>{g.tree, n, T};
  }

  /// Follow all boundary crossings until the octant is interior; the
  /// first crossing prefers axis \p first (corner paths are checked both
  /// ways by the caller).  At most two crossings occur in 2D; a glue that
  /// swaps the axes can leave the *same* axis index exterior again, so the
  /// loop re-scans rather than iterating fixed axes.
  std::optional<TreeNeighbor<D>> follow(int tree, Octant<D> cur,
                                        int first) const {
    FrameTransform<D> T = FrameTransform<D>::identity();
    const scoord_t R = root_len<D>;
    bool prefer_first = true;
    for (int guard = 0; guard < D + 1; ++guard) {
      const scoord_t h = side_len(cur);
      int a = -1, dir = 0;
      for (int i = 0; i < D && a < 0; ++i) {
        const int axis = prefer_first ? (first + i) % D : i;
        const scoord_t c = cur.x[axis];
        if (c < 0) {
          a = axis;
          dir = -1;
        } else if (c + h > R) {
          a = axis;
          dir = 1;
        }
      }
      prefer_first = false;
      if (a < 0) {
        TreeNeighbor<D> nb;
        nb.tree = static_cast<std::int32_t>(tree);
        nb.oct = cur;
        nb.xform = T;
        return nb;
      }
      const auto crossed = cross_face(tree, cur, a, dir);
      if (!crossed) return std::nullopt;
      const auto& [nt, noct, F] = *crossed;
      tree = nt;
      cur = noct;
      T = T.compose(F);
    }
    return std::nullopt;  // still exterior after two crossings: singular
  }

  std::optional<TreeNeighbor<D>> neighbor_general(
      int t, const Octant<D>& o, const std::array<int, D>& off) const {
    Octant<D> cur = o;
    const scoord_t h = side_len(o);
    int ncross = 0;
    for (int i = 0; i < D; ++i) {
      const scoord_t c = static_cast<scoord_t>(o.x[i]) + off[i] * h;
      cur.x[i] = static_cast<coord_t>(c);
      if (c < 0 || c + h > root_len<D>) ++ncross;
    }
    const auto first_path = follow(t, cur, 0);
    if (ncross <= 1) return first_path;
    // Corner/edge crossing: every face-path ordering must agree, else the
    // corner is singular (e.g. the boundary corners of a Möbius band) and
    // there is no well-defined neighbor.
    if (!first_path) return std::nullopt;
    for (int first = 1; first < D; ++first) {
      const auto other = follow(t, cur, first);
      if (!other || other->tree != first_path->tree ||
          !(other->oct == first_path->oct)) {
        return std::nullopt;
      }
    }
    return first_path;
  }

  std::array<int, D> dims_{};
  std::array<bool, D> periodic_{};
  int ntrees_ = 1;
  bool general_ = false;
  std::vector<std::array<FaceGlue, 2 * D>> glue_;
};

}  // namespace octbal
