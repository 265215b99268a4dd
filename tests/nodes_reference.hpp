#pragma once
/// \file nodes_reference.hpp
/// \brief Test-only references for node enumeration, node ownership and
/// point location.
///
/// enumerate_nodes is the straightforward two-pass algorithm.  On lattice
/// connectivities it keeps an ordered map of global corner coordinates for
/// the ids and locates the 2^D finest cells around every node for the
/// hanging flags.  On general connectivities (enumerate_nodes_general) it
/// keys each corner by the smallest member of its face-gluing orbit and
/// locates the cells around every member of the orbit.  The chunked
/// hashed pass in forest/nodes.cpp must reproduce both byte for byte (ids
/// in order of first appearance, identical hanging flags).  They are slow:
/// O(n log n) map inserts plus 2^D binary searches per node and frame.
///
/// assign_node_owners is the serial rank-major walk: a running minimum
/// per node for the owner, then a per-rank stamp pass for the share
/// lists, sent through the communicator like the library's sync.
///
/// find_containing_leaf is the point location both numberings use, one
/// binary search over a sorted leaf array (test_search.cpp checks it
/// against brute force).
///
/// All of this exists only so the differential tests in test_nodes.cpp
/// have an independent oracle.

#include <algorithm>
#include <cassert>
#include <map>
#include <span>

#include "core/linear.hpp"
#include "forest/nodes.hpp"

namespace octbal::reference {

template <int D>
using GlobalCoord = std::array<std::int64_t, D>;

/// Index of the leaf containing the finest-level cell anchored at \p point
/// (each coordinate in [0, root_len)), or npos if the sorted, disjoint
/// array has a gap there.  O(log N).
template <int D>
std::size_t find_containing_leaf(const std::vector<Octant<D>>& leaves,
                                 const std::array<coord_t, D>& point) {
  Octant<D> cell;
  cell.level = max_level<D>;
  cell.x = point;
  // The containing leaf is the last element with key <= key(cell) that is
  // an ancestor-or-equal of the finest cell at the point.
  const auto it = std::upper_bound(leaves.begin(), leaves.end(), cell);
  if (it == leaves.begin()) return npos;
  const std::size_t idx = static_cast<std::size_t>(it - leaves.begin()) - 1;
  return contains(leaves[idx], cell) ? idx : npos;
}

/// The extent of the whole brick domain per axis, in finest-cell units.
template <int D>
GlobalCoord<D> domain_extent(const Connectivity<D>& conn) {
  GlobalCoord<D> e{};
  for (int i = 0; i < D; ++i) {
    e[i] = static_cast<std::int64_t>(conn.dims()[i]) * root_len<D>;
  }
  return e;
}

/// Wrap periodic axes; returns false if the coordinate leaves the domain
/// in a non-periodic direction.  \p upper_ok allows the closed upper bound
/// (node coordinates live on [0, extent]).
template <int D>
bool canonicalize(const Connectivity<D>& conn, const GlobalCoord<D>& ext,
                  GlobalCoord<D>& g, bool upper_ok) {
  for (int i = 0; i < D; ++i) {
    if (conn.periodic()[i]) {
      g[i] = ((g[i] % ext[i]) + ext[i]) % ext[i];
    } else if (g[i] < 0 || g[i] > ext[i] || (!upper_ok && g[i] == ext[i])) {
      return false;
    }
  }
  return true;
}

/// A node in the frame of one tree of a general connectivity.
template <int D>
struct GeneralNodeKey {
  std::int32_t tree;
  std::array<coord_t, D> x;

  friend bool operator==(const GeneralNodeKey&, const GeneralNodeKey&) =
      default;
  friend bool operator<(const GeneralNodeKey& a, const GeneralNodeKey& b) {
    if (a.tree != b.tree) return a.tree < b.tree;
    return a.x < b.x;
  }
};

/// The orbit of a node under all reachable face identifications, by a
/// breadth-first walk over single face crossings until no new member
/// appears.
template <int D>
std::vector<GeneralNodeKey<D>> node_orbit(const Connectivity<D>& conn,
                                          std::int32_t tree,
                                          const std::array<coord_t, D>& x) {
  const coord_t R = root_len<D>;
  std::vector<GeneralNodeKey<D>> orbit{GeneralNodeKey<D>{tree, x}};
  for (std::size_t i = 0; i < orbit.size(); ++i) {
    const GeneralNodeKey<D> cur = orbit[i];
    for (int axis = 0; axis < D; ++axis) {
      if (cur.x[axis] != 0 && cur.x[axis] != R) continue;
      const int dir = cur.x[axis] == 0 ? -1 : 1;
      // A finest-level interior cell touching the face with the node as
      // one of its corners; its cross-face neighbor carries the node's
      // image in the neighbor frame.
      Octant<D> base;
      base.level = max_level<D>;
      for (int d = 0; d < D; ++d) {
        base.x[d] = cur.x[d] == R ? R - 1 : cur.x[d];
      }
      base.x[axis] = dir > 0 ? R - 1 : 0;
      std::array<int, D> off{};
      off[axis] = dir;
      const auto nb = conn.neighbor(static_cast<int>(cur.tree), base, off);
      if (!nb) continue;
      // The corner of the neighbor cell that maps onto the node: points
      // transform as offset + sign * v (no side-length term).
      for (int c = 0; c < num_children<D>; ++c) {
        std::array<coord_t, D> corner{};
        for (int d = 0; d < D; ++d) {
          corner[d] = nb->oct.x[d] + (((c >> d) & 1) ? 1 : 0);
        }
        std::array<coord_t, D> img{};
        for (int d = 0; d < D; ++d) {
          const scoord_t v = corner[nb->xform.perm[d]];
          img[d] = static_cast<coord_t>(nb->xform.sign[d] > 0
                                            ? nb->xform.offset[d] + v
                                            : nb->xform.offset[d] - v);
        }
        if (img == cur.x) {
          const GeneralNodeKey<D> key{nb->tree, corner};
          if (std::find(orbit.begin(), orbit.end(), key) == orbit.end()) {
            orbit.push_back(key);
          }
          break;
        }
      }
    }
  }
  return orbit;
}

/// General connectivities: ids keyed by the orbit's smallest member, in
/// order of first appearance; a node hangs when some leaf containing a
/// cell around it, in some frame of the orbit, does not have it as a
/// corner.
template <int D>
NodeNumbering enumerate_nodes_general(const std::vector<TreeOct<D>>& leaves,
                                      const Connectivity<D>& conn) {
  NodeNumbering nn;
  const coord_t R = root_len<D>;
  std::vector<std::vector<Octant<D>>> per_tree(conn.num_trees());
  for (const auto& to : leaves) per_tree[to.tree].push_back(to.oct);

  std::map<GeneralNodeKey<D>, std::int64_t> ids;
  std::map<GeneralNodeKey<D>, std::vector<GeneralNodeKey<D>>> orbits;
  nn.element_nodes.assign(leaves.size(), {});
  for (std::size_t e = 0; e < leaves.size(); ++e) {
    const std::int64_t h = side_len(leaves[e].oct);
    for (int c = 0; c < num_children<D>; ++c) {
      std::array<coord_t, D> x{};
      for (int d = 0; d < D; ++d) {
        x[d] = leaves[e].oct.x[d] + (((c >> d) & 1) ? h : 0);
      }
      auto orbit = node_orbit<D>(conn, leaves[e].tree, x);
      const GeneralNodeKey<D> key =
          *std::min_element(orbit.begin(), orbit.end());
      const auto [it, fresh] =
          ids.try_emplace(key, static_cast<std::int64_t>(ids.size()));
      if (fresh) orbits.emplace(key, std::move(orbit));
      nn.element_nodes[e][c] = it->second;
    }
  }
  nn.num_nodes = ids.size();
  nn.hanging.assign(nn.num_nodes, 0);

  for (const auto& [key, id] : ids) {
    for (const GeneralNodeKey<D>& rep : orbits.at(key)) {
      for (int adj = 0; adj < num_children<D> && !nn.hanging[id]; ++adj) {
        std::array<coord_t, D> cell = rep.x;
        bool inside = true;
        for (int d = 0; d < D; ++d) {
          if ((adj >> d) & 1) cell[d] -= 1;
          inside = inside && cell[d] >= 0 && cell[d] < R;
        }
        if (!inside) continue;
        const std::size_t li =
            find_containing_leaf<D>(per_tree[rep.tree], cell);
        if (li == npos) continue;
        const Octant<D>& m = per_tree[rep.tree][li];
        const coord_t mh = side_len(m);
        bool corner = true;
        for (int d = 0; d < D; ++d) {
          corner =
              corner && (rep.x[d] == m.x[d] || rep.x[d] == m.x[d] + mh);
        }
        if (!corner) nn.hanging[id] = 1;
      }
    }
  }
  for (std::uint64_t i = 0; i < nn.num_nodes; ++i) {
    nn.num_independent += !nn.hanging[i];
  }
  return nn;
}

/// Any connectivity: the lattice pass on bricks, enumerate_nodes_general
/// elsewhere.
template <int D>
NodeNumbering enumerate_nodes(const std::vector<TreeOct<D>>& leaves,
                              const Connectivity<D>& conn) {
  if (!conn.is_lattice()) return enumerate_nodes_general(leaves, conn);
  NodeNumbering nn;
  const GlobalCoord<D> ext = domain_extent(conn);

  // Per-tree sorted leaf views for point location.
  std::vector<std::vector<Octant<D>>> per_tree(conn.num_trees());
  for (const auto& to : leaves) per_tree[to.tree].push_back(to.oct);

  const auto global_anchor = [&](const TreeOct<D>& to) {
    GlobalCoord<D> g{};
    const auto tc = conn.tree_coords(to.tree);
    for (int i = 0; i < D; ++i) {
      g[i] = static_cast<std::int64_t>(tc[i]) * root_len<D> + to.oct.x[i];
    }
    return g;
  };

  // Pass 1: assign ids in order of first appearance along the curve.
  std::map<GlobalCoord<D>, std::int64_t> ids;
  nn.element_nodes.assign(leaves.size(), {});
  for (std::size_t e = 0; e < leaves.size(); ++e) {
    const GlobalCoord<D> a = global_anchor(leaves[e]);
    const std::int64_t h = side_len(leaves[e].oct);
    for (int c = 0; c < num_children<D>; ++c) {
      GlobalCoord<D> g = a;
      for (int i = 0; i < D; ++i) {
        if ((c >> i) & 1) g[i] += h;
      }
      const bool ok = canonicalize<D>(conn, ext, g, true);
      assert(ok);
      (void)ok;
      const auto [it, fresh] =
          ids.try_emplace(g, static_cast<std::int64_t>(ids.size()));
      (void)fresh;
      nn.element_nodes[e][c] = it->second;
    }
  }
  nn.num_nodes = ids.size();
  nn.hanging.assign(nn.num_nodes, 0);

  // Pass 2: a node hangs if some containing leaf does not have it as a
  // corner (it then lies in the interior of that leaf's face or edge).
  for (const auto& [node, id] : ids) {
    for (int adj = 0; adj < num_children<D> && !nn.hanging[id]; ++adj) {
      // The finest-level cell on the (-adj) side of the node.
      GlobalCoord<D> cell = node;
      for (int i = 0; i < D; ++i) {
        if ((adj >> i) & 1) cell[i] -= 1;
      }
      GlobalCoord<D> canon = cell;
      if (!canonicalize<D>(conn, ext, canon, false)) continue;
      // Map to (tree, local anchor) and locate the containing leaf.
      std::array<int, D> tc{};
      std::array<coord_t, D> local{};
      for (int i = 0; i < D; ++i) {
        tc[i] = static_cast<int>(canon[i] / root_len<D>);
        local[i] = static_cast<coord_t>(canon[i] % root_len<D>);
      }
      const int tree = conn.tree_index(tc);
      const std::size_t li = find_containing_leaf<D>(per_tree[tree], local);
      if (li == npos) continue;  // malformed input; tolerated here
      const TreeOct<D> m{tree, per_tree[tree][li]};
      // Corner test: does any canonicalized corner of m equal the node?
      const GlobalCoord<D> ma = global_anchor(m);
      const std::int64_t mh = side_len(m.oct);
      bool corner = false;
      for (int c = 0; c < num_children<D> && !corner; ++c) {
        GlobalCoord<D> g = ma;
        for (int i = 0; i < D; ++i) {
          if ((c >> i) & 1) g[i] += mh;
        }
        if (canonicalize<D>(conn, ext, g, true) && g == node) corner = true;
      }
      if (!corner) nn.hanging[id] = 1;
    }
  }
  for (std::uint64_t i = 0; i < nn.num_nodes; ++i) {
    nn.num_independent += !nn.hanging[i];
  }
  return nn;
}

/// Owners, per-rank counts, the shared-node count and the sync traffic,
/// by the serial definition.  \p nn must number f.gather().
template <int D>
NodeOwnership assign_node_owners(const Forest<D>& f, const NodeNumbering& nn,
                                 SimComm& comm) {
  const int P = f.num_ranks();
  NodeOwnership no;
  no.owner.assign(nn.num_nodes, P);
  no.nodes_per_rank.assign(P, 0);
  std::size_t e = 0;
  for (int r = 0; r < P; ++r) {
    for (std::size_t i = 0; i < f.local(r).size(); ++i, ++e) {
      for (int c = 0; c < num_children<D>; ++c) {
        const std::int64_t id = nn.element_nodes[e][c];
        no.owner[id] = std::min(no.owner[id], r);
      }
    }
  }
  for (const int r : no.owner) ++no.nodes_per_rank[r];

  std::vector<int> stamp(nn.num_nodes, -1);
  std::vector<std::vector<std::vector<std::int64_t>>> share(
      P, std::vector<std::vector<std::int64_t>>(P));
  e = 0;
  for (int r = 0; r < P; ++r) {
    for (std::size_t i = 0; i < f.local(r).size(); ++i, ++e) {
      for (int c = 0; c < num_children<D>; ++c) {
        const std::int64_t id = nn.element_nodes[e][c];
        if (stamp[id] == r) continue;
        stamp[id] = r;
        if (no.owner[id] != r) share[no.owner[id]][r].push_back(id);
      }
    }
  }
  for (std::uint64_t id = 0; id < nn.num_nodes; ++id) {
    // stamp holds the highest touching rank.
    no.shared_nodes += stamp[id] != no.owner[id];
  }
  const CommStats pre = comm.stats();
  for (int r = 0; r < P; ++r) {
    for (int q = 0; q < P; ++q) {
      if (share[r][q].empty()) continue;
      comm.send_items<std::int64_t>(
          r, q, std::span<const std::int64_t>(share[r][q]));
    }
  }
  comm.deliver();
  no.traffic.messages = comm.stats().messages - pre.messages;
  no.traffic.bytes = comm.stats().bytes - pre.bytes;
  return no;
}

}  // namespace octbal::reference
