#include "forest/connectivity.hpp"

namespace octbal {

namespace {

/// Lattice-mode validation: stepping out and back is the identity and the
/// advertised transform reproduces the exterior representation.
template <int D>
bool validate_lattice(const Connectivity<D>& conn) {
  for (int t = 0; t < conn.num_trees(); ++t) {
    Octant<D> o;
    o.level = 2;
    for (int corner = 0; corner < num_children<D>; ++corner) {
      for (int i = 0; i < D; ++i) {
        o.x[i] = ((corner >> i) & 1) ? root_len<D> - side_len(o) : 0;
      }
      for (int i = 0; i < D; ++i) {
        for (int dir : {-1, 1}) {
          std::array<int, D> off{};
          off[i] = dir;
          const auto nb = conn.neighbor(t, o, off);
          if (!nb) continue;
          std::array<int, D> back{};
          back[i] = -dir;
          const auto rt = conn.neighbor(nb->tree, nb->oct, back);
          if (!rt || rt->tree != t || !(rt->oct == o)) return false;
          const Octant<D> ext = nb->xform.apply(nb->oct);
          Octant<D> want = o;
          want.x[i] += dir * side_len(o);
          if (!(ext == want)) return false;
        }
      }
    }
  }
  return true;
}

/// General-mode validation (2D/3D): gluings are mutual with inverse
/// orientations, out-and-back is the identity for probe octants across
/// every glued face, and the neighbor transform maps the neighbor octant
/// onto the exterior source representation.
template <int D>
bool validate_general(const Connectivity<D>& conn) {
  const auto& glue = conn.glue();
  for (int t = 0; t < conn.num_trees(); ++t) {
    for (int f = 0; f < 2 * D; ++f) {
      const FaceGlue& g = glue[t][f];
      if (g.tree < 0) continue;
      const FaceGlue& h = glue[g.tree][g.face];
      if (h.tree != t || h.face != f ||
          h.orient != inverse_orient(g.orient)) {
        return false;
      }

      // Probe octants across the whole face at level 2.
      const int a = f >> 1;
      const int dir = (f & 1) ? 1 : -1;
      Octant<D> o;
      o.level = 2;
      const coord_t hh = side_len(o);
      const int slots = root_len<D> / hh;  // 4 per tangential axis
      int total = 1;
      for (int i = 0; i < D - 1; ++i) total *= slots;
      for (int code = 0; code < total; ++code) {
        int c = code;
        for (int i = 0, bt = 0; i < D; ++i) {
          if (i == a) {
            o.x[i] = (f & 1) ? root_len<D> - hh : 0;
          } else {
            o.x[i] = static_cast<coord_t>(c % slots) * hh;
            c /= slots;
            ++bt;
          }
        }
        std::array<int, D> off{};
        off[a] = dir;
        const auto nb = conn.neighbor(t, o, off);
        if (!nb) return false;
        // Transform consistency.
        const Octant<D> ext = nb->xform.apply(nb->oct);
        Octant<D> want = o;
        want.x[a] += dir * hh;
        if (!(ext == want)) return false;
        // Out and back.
        std::array<int, D> back{};
        back[g.face >> 1] = (g.face & 1) ? 1 : -1;
        const auto rt = conn.neighbor(nb->tree, nb->oct, back);
        if (!rt || rt->tree != t || !(rt->oct == o)) return false;
      }
    }
  }
  return true;
}

}  // namespace

template <>
bool Connectivity<1>::validate() const {
  return validate_lattice(*this);
}
template <>
bool Connectivity<2>::validate() const {
  return is_lattice() ? validate_lattice(*this) : validate_general(*this);
}
template <>
bool Connectivity<3>::validate() const {
  return is_lattice() ? validate_lattice(*this) : validate_general(*this);
}

}  // namespace octbal
