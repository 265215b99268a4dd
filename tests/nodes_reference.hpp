#pragma once
/// \file nodes_reference.hpp
/// \brief Test-only references for lattice node enumeration and node
/// ownership.
///
/// enumerate_nodes is the straightforward two-pass algorithm: an ordered
/// map of global corner coordinates for the ids, and per-node point
/// location of the 2^D surrounding finest cells for the hanging flags.
/// The chunked hashed pass in forest/nodes.cpp must reproduce it byte for
/// byte (ids in order of first appearance, identical hanging flags).  It
/// is slow — O(n log n) map inserts plus 2^D binary searches per node.
///
/// assign_node_owners is the serial rank-major walk: a running minimum
/// per node for the owner, then a per-rank stamp pass for the share
/// lists, sent through the communicator like the library's sync.
///
/// Both exist only so the differential tests in test_nodes.cpp have an
/// independent oracle.

#include <cassert>
#include <map>
#include <span>

#include "core/search.hpp"
#include "forest/nodes.hpp"

namespace octbal::reference {

template <int D>
using GlobalCoord = std::array<std::int64_t, D>;

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

/// Lattice connectivities only.
template <int D>
NodeNumbering enumerate_nodes(const std::vector<TreeOct<D>>& leaves,
                              const Connectivity<D>& conn) {
  assert(conn.is_lattice());
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
