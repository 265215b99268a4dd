#include "forest/nodes.hpp"

#include <bit>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "core/linear.hpp"
#include "core/octant_hash.hpp"
#include "core/search.hpp"
#include "forest/forest.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace octbal {

namespace {

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

/// Check enumerate_nodes' preconditions in one O(n) sweep and return the
/// finest leaf level: every leaf is a valid octant of an existing tree,
/// the leaves of each tree appear in increasing Morton order without
/// overlap, and their volumes add up to the whole tree.
template <int D>
int check_leaf_set(const std::vector<TreeOct<D>>& leaves,
                   const Connectivity<D>& conn) {
  const int trees = conn.num_trees();
  // Per tree, the end of the Morton interval covered so far.  A leaf whose
  // interval starts before it is out of order or overlaps its predecessor.
  std::vector<morton_t> covered_to(trees, 0);
  std::vector<std::uint64_t> volume(trees, 0);
  int finest = 0;
  for (const auto& to : leaves) {
    if (to.tree < 0 || to.tree >= trees || !is_valid(to.oct)) {
      throw std::invalid_argument("enumerate_nodes: leaf " +
                                  to_string(to.oct) + " in tree " +
                                  std::to_string(to.tree) +
                                  " lies outside the domain");
    }
    const morton_t key = morton_key(to.oct);
    if (key < covered_to[to.tree]) {
      throw std::invalid_argument(
          "enumerate_nodes: leaves of tree " + std::to_string(to.tree) +
          " are not sorted and disjoint at " + to_string(to.oct));
    }
    const std::uint64_t cells = std::uint64_t{1} << (D * size_exp(to.oct));
    covered_to[to.tree] = key + cells;
    // Sorted and disjoint, so a tree's sum never exceeds its volume.
    volume[to.tree] += cells;
    finest = std::max<int>(finest, to.oct.level);
  }
  for (int t = 0; t < trees; ++t) {
    if (volume[t] != std::uint64_t{1} << (D * max_level<D>)) {
      throw std::invalid_argument("enumerate_nodes: leaves do not cover tree " +
                                  std::to_string(t));
    }
  }
  return finest;
}

std::uint64_t corner_hash(std::uint64_t key) { return detail::hash_mix(key); }

template <std::size_t D>
std::uint64_t corner_hash(const std::array<std::int64_t, D>& g) {
  std::uint64_t h = 0;
  for (const std::int64_t x : g) {
    h = detail::hash_mix(h ^ static_cast<std::uint64_t>(x));
  }
  return h;
}

/// Open-addressing (linear probing) map from a corner key to its node id,
/// with ids handed out in insertion order.  The keys live densely in id
/// order and a slot holds only id + 1 (0 marks it empty), so a slot costs
/// 4 bytes.  The power-of-two slot count doubles before the load passes
/// 1/2, so no leaf set can overfill it.
template <class Key>
class CornerTable {
 public:
  explicit CornerTable(std::size_t expected) {
    std::size_t cap = 16;
    while (cap < 2 * expected) cap *= 2;
    slots_.assign(cap, 0);
  }

  std::size_t size() const { return keys_.size(); }

  /// The id of \p key.  A key seen for the first time gets id size() and
  /// sets \p fresh.
  std::int64_t find_or_insert(const Key& key, bool& fresh) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = corner_hash(key) & mask;; s = (s + 1) & mask) {
      const std::uint32_t slot = slots_[s];
      if (slot == 0) break;
      if (keys_[slot - 1] == key) {
        fresh = false;
        return slot - 1;
      }
    }
    if (keys_.size() + 1 >= std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("enumerate_nodes: more than 2^32 - 2 nodes");
    }
    keys_.push_back(key);
    if (2 * keys_.size() > slots_.size()) {
      rehash(2 * slots_.size());
    } else {
      place(keys_.size() - 1);
    }
    fresh = true;
    return static_cast<std::int64_t>(keys_.size() - 1);
  }

 private:
  void place(std::size_t id) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t s = corner_hash(keys_[id]) & mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = static_cast<std::uint32_t>(id + 1);
  }

  void rehash(std::size_t cap) {
    slots_.assign(cap, 0);
    for (std::size_t id = 0; id < keys_.size(); ++id) place(id);
  }

  std::vector<std::uint32_t> slots_;
  std::vector<Key> keys_;  ///< indexed by node id
};

/// The single pass of lattice node enumeration (DESIGN.md §2.19): number
/// each leaf's canonical corners by first appearance through the table,
/// and count per node the leaves that have it as a corner.  Each such
/// leaf fills one of the 2^open orthants around the node, where open
/// counts the axes on which the node is periodic or strictly interior; a
/// node hangs exactly when some orthant is filled by a leaf it is not a
/// corner of.  \p pack maps a canonical corner to its table key.
template <int D, class Key, class Pack>
void number_lattice_corners(const std::vector<TreeOct<D>>& leaves,
                            const Connectivity<D>& conn, NodeNumbering& nn,
                            const Pack& pack) {
  const GlobalCoord<D> ext = domain_extent(conn);
  const auto& periodic = conn.periodic();
  std::vector<GlobalCoord<D>> origin(conn.num_trees());
  for (int t = 0; t < conn.num_trees(); ++t) {
    const auto tc = conn.tree_coords(t);
    for (int i = 0; i < D; ++i) {
      origin[t][i] = static_cast<std::int64_t>(tc[i]) * root_len<D>;
    }
  }
  CornerTable<Key> table(leaves.size());
  nn.element_nodes.resize(leaves.size());
  // nn.hanging first holds, per node, the orthants not yet filled by a
  // leaf cornered at the node.
  for (std::size_t e = 0; e < leaves.size(); ++e) {
    const TreeOct<D>& to = leaves[e];
    const std::int64_t h = side_len(to.oct);
    for (int c = 0; c < num_children<D>; ++c) {
      GlobalCoord<D> g;
      for (int i = 0; i < D; ++i) {
        g[i] = origin[to.tree][i] + to.oct.x[i] + (((c >> i) & 1) ? h : 0);
        if (periodic[i] && g[i] == ext[i]) g[i] = 0;
      }
      bool fresh = false;
      const std::int64_t id = table.find_or_insert(pack(g), fresh);
      if (fresh) {
        int open = 0;
        for (int i = 0; i < D; ++i) {
          open += periodic[i] || (0 < g[i] && g[i] < ext[i]);
        }
        nn.hanging.push_back(static_cast<std::uint8_t>(1 << open));
      }
      --nn.hanging[id];
      nn.element_nodes[e][c] = id;
    }
  }
  nn.num_nodes = table.size();
  for (std::uint8_t& missing : nn.hanging) {
    missing = missing != 0;
    nn.num_independent += !missing;
  }
}

}  // namespace

/// General-connectivity node key: the canonical representative of the
/// node's orbit under all face identifications reachable from (tree,
/// coords).  Node coordinates live on the closed cube [0, R]^D; a node on
/// a glued face also exists in the neighbor's frame, and corner nodes can
/// reach several frames by composing crossings.
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

/// The orbit of a node of a *general* connectivity under all reachable
/// face identifications: a node on a glued face also exists in the
/// neighbor's frame; corner nodes reach several frames by composing
/// crossings (the breadth-first walk closes the orbit).
template <int D>
std::vector<GeneralNodeKey<D>> node_orbit(const Connectivity<D>& conn,
                                          std::int32_t tree,
                                          const std::array<coord_t, D>& x) {
  const coord_t R = root_len<D>;
  std::vector<GeneralNodeKey<D>> orbit{GeneralNodeKey<D>{tree, x}};
  for (std::size_t i = 0; i < orbit.size() && orbit.size() < 64; ++i) {
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
      // Find the corner of the neighbor cell that maps onto the node:
      // points transform as offset + sign * v (no side-length term).
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

/// Node enumeration over a general connectivity: ids keyed by the orbit's
/// canonical (smallest) member; a node hangs when any containing leaf, in
/// any frame of the orbit, does not have it as a corner.
template <int D>
NodeNumbering enumerate_nodes_general(const std::vector<TreeOct<D>>& leaves,
                                      const Connectivity<D>& conn) {
  OBS_SPAN("enumerate_nodes_general");
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

  // Hanging classification is independent per node: chunk the id map over
  // the thread pool (each entry writes only its own hanging[id] slot).
  std::vector<const std::pair<const GeneralNodeKey<D>, std::int64_t>*> entries;
  entries.reserve(ids.size());
  for (const auto& kv : ids) entries.push_back(&kv);
  par::parallel_for_blocked(entries.size(), 64, [&](std::size_t lo,
                                                    std::size_t hi) {
    for (std::size_t n = lo; n < hi; ++n) {
      const auto& [key, id] = *entries[n];
      for (const GeneralNodeKey<D>& rep : orbits.at(key)) {
        if (nn.hanging[id]) break;
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
            corner = corner &&
                     (rep.x[d] == m.x[d] || rep.x[d] == m.x[d] + mh);
          }
          if (!corner) nn.hanging[id] = 1;
        }
      }
    }
  });
  for (std::uint64_t i = 0; i < nn.num_nodes; ++i) {
    nn.num_independent += !nn.hanging[i];
  }
  return nn;
}

template <int D>
NodeNumbering enumerate_nodes(const std::vector<TreeOct<D>>& leaves,
                              const Connectivity<D>& conn) {
  const int finest = check_leaf_set(leaves, conn);
  if (!conn.is_lattice()) return enumerate_nodes_general(leaves, conn);
  OBS_SPAN("enumerate_nodes");
  NodeNumbering nn;
  // Every corner is a multiple of the finest leaf's side, so the key drops
  // those low zero bits; each axis then needs bit_width(extent >> shift)
  // bits for node coordinates on the closed range [0, extent].
  const GlobalCoord<D> ext = domain_extent(conn);
  const int shift = max_level<D> - finest;
  std::array<int, D> offset{};
  int bits = 0;
  for (int i = 0; i < D; ++i) {
    offset[i] = bits;
    bits += std::bit_width(static_cast<std::uint64_t>(ext[i]) >> shift);
  }
  if (bits <= 64) {
    number_lattice_corners<D, std::uint64_t>(
        leaves, conn, nn, [&](const GlobalCoord<D>& g) {
          std::uint64_t key = 0;
          for (int i = 0; i < D; ++i) {
            key |= (static_cast<std::uint64_t>(g[i]) >> shift) << offset[i];
          }
          return key;
        });
  } else {
    number_lattice_corners<D, GlobalCoord<D>>(
        leaves, conn, nn, [](const GlobalCoord<D>& g) { return g; });
  }
  return nn;
}

template <int D>
NodeOwnership assign_node_owners(const Forest<D>& f, const NodeNumbering& nn) {
  OBS_SPAN("assign_node_owners");
  NodeOwnership no;
  no.owner.assign(nn.num_nodes, f.num_ranks());
  no.nodes_per_rank.assign(f.num_ranks(), 0);
  // Element order in nn.element_nodes is the gather order: rank-major.
  std::size_t e = 0;
  for (int r = 0; r < f.num_ranks(); ++r) {
    for (std::size_t i = 0; i < f.local(r).size(); ++i, ++e) {
      for (int c = 0; c < num_children<D>; ++c) {
        const std::int64_t id = nn.element_nodes[e][c];
        no.owner[id] = std::min(no.owner[id], r);
      }
    }
  }
  assert(e == nn.element_nodes.size());
  for (const int r : no.owner) {
    assert(r < f.num_ranks());
    ++no.nodes_per_rank[r];
  }
  return no;
}

template <int D>
NodeOwnership assign_node_owners(const Forest<D>& f, const NodeNumbering& nn,
                                 SimComm& comm) {
  OBS_SPAN("node_owner_sync");
  NodeOwnership no = assign_node_owners(f, nn);
  const int P = f.num_ranks();

  // Which ranks touch each node, deduplicated with a per-rank stamp pass
  // (element order is rank-major, so one sweep per rank suffices).
  std::vector<int> stamp(nn.num_nodes, -1);
  std::vector<std::vector<std::vector<std::int64_t>>> share(P);
  for (auto& s : share) s.assign(P, {});
  std::size_t e = 0;
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

  // The sync: each owner ships the sorted shared-node id list to every
  // co-touching rank (how a distributed DOF numbering distributes the
  // owner's global indices).  Flows through the simulated communicator so
  // every message and byte lands in the stats and the metrics registry.
  const std::string phase0 = comm.phase();
  comm.set_phase("nodes/owner_sync");
  const CommStats pre = comm.stats();
  obs::Counter& c_shared = comm.metrics().counter("nodes/shared_ids_sent");
  par::parallel_for_ranks(P, [&](int r) {
    OBS_SPAN_RANK("node_owner_sync", r);
    for (int q = 0; q < P; ++q) {
      if (share[r][q].empty()) continue;
      c_shared.add(r, share[r][q].size());
      comm.send_items<std::int64_t>(
          r, q, std::span<const std::int64_t>(share[r][q]));
    }
  });
  comm.deliver();
  std::vector<std::uint64_t> shared_per_rank(P, 0);
  par::parallel_for_ranks(P, [&](int r) {
    for (const auto& m : comm.recv_all(r)) {
      shared_per_rank[r] += m.data.size() / sizeof(std::int64_t);
    }
  });
  no.traffic.messages = comm.stats().messages - pre.messages;
  no.traffic.bytes = comm.stats().bytes - pre.bytes;
  for (std::int64_t id = 0; id < static_cast<std::int64_t>(nn.num_nodes);
       ++id) {
    // stamp holds the highest touching rank; a node is shared when any
    // rank other than the owner touches it.
    no.shared_nodes += stamp[id] >= 0 && stamp[id] != no.owner[id];
  }
  obs::Counter& c_recv = comm.metrics().counter("nodes/shared_ids_recv");
  for (int r = 0; r < P; ++r) c_recv.add(r, shared_per_rank[r]);
  comm.set_phase(phase0);
  return no;
}

#define OCTBAL_INSTANTIATE(D)                                         \
  template NodeNumbering enumerate_nodes<D>(                          \
      const std::vector<TreeOct<D>>&, const Connectivity<D>&);        \
  template NodeOwnership assign_node_owners<D>(const Forest<D>&,      \
                                               const NodeNumbering&); \
  template NodeOwnership assign_node_owners<D>(                       \
      const Forest<D>&, const NodeNumbering&, SimComm&);
OCTBAL_INSTANTIATE(1)
OCTBAL_INSTANTIATE(2)
OCTBAL_INSTANTIATE(3)
#undef OCTBAL_INSTANTIATE

}  // namespace octbal
