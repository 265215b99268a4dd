#include "forest/nodes.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/linear.hpp"
#include "core/octant_hash.hpp"
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

/// The leaves of one tree inside one chunk of the leaf list.  They are a
/// contiguous stretch of the tree's sorted, tiling leaves, so they cover
/// one Morton interval [begin, end) of finest cells.  first == npos when
/// the chunk holds no leaf of the tree.
struct TreeRun {
  std::size_t first = npos;
  morton_t begin = 0;
  morton_t end = 0;
  std::uint64_t volume = 0;
};

/// One chunk's share of the precondition sweep: its run of every tree, its
/// finest level, and the first leaf failing a check that the chunk can
/// decide alone (bad == npos when none does).
struct ChunkSweep {
  std::vector<TreeRun> runs;  ///< per tree
  int finest = 0;
  std::size_t bad = npos;
  bool bad_is_outside = false;  ///< else the leaf is unsorted or overlaps
};

std::size_t num_chunks(std::size_t leaves) {
  return (leaves + kNodeChunkLeaves - 1) / kNodeChunkLeaves;
}

/// The leaves [first, second) of chunk \p c of a list of \p n leaves.
std::pair<std::size_t, std::size_t> chunk_leaves(int c, std::size_t n) {
  const std::size_t lo = c * kNodeChunkLeaves;
  return {lo, std::min(lo + kNodeChunkLeaves, n)};
}

template <int D>
std::invalid_argument leaf_outside(const TreeOct<D>& to) {
  return std::invalid_argument("enumerate_nodes: leaf " + to_string(to.oct) +
                               " in tree " + std::to_string(to.tree) +
                               " lies outside the domain");
}

template <int D>
std::invalid_argument leaf_unsorted(const TreeOct<D>& to) {
  return std::invalid_argument(
      "enumerate_nodes: leaves of tree " + std::to_string(to.tree) +
      " are not sorted and disjoint at " + to_string(to.oct));
}

template <int D>
ChunkSweep sweep_chunk(const std::vector<TreeOct<D>>& leaves, std::size_t lo,
                       std::size_t hi, int trees) {
  ChunkSweep s;
  s.runs.resize(trees);
  for (std::size_t e = lo; e < hi; ++e) {
    const TreeOct<D>& to = leaves[e];
    if (to.tree < 0 || to.tree >= trees || !is_valid(to.oct)) {
      s.bad = e;
      s.bad_is_outside = true;
      return s;
    }
    TreeRun& run = s.runs[to.tree];
    const morton_t key = morton_key(to.oct);
    if (run.first == npos) {
      run.first = e;
      run.begin = key;
    } else if (key < run.end) {
      s.bad = e;
      return s;
    }
    const std::uint64_t cells = std::uint64_t{1} << (D * size_exp(to.oct));
    run.end = key + cells;
    run.volume += cells;
    s.finest = std::max<int>(s.finest, to.oct.level);
  }
  return s;
}

/// Check enumerate_nodes' preconditions and return each chunk's sweep:
/// every leaf is a valid octant of an existing tree, the leaves of each
/// tree appear in increasing Morton order without overlap, and their
/// volumes add up to the whole tree.  The chunks sweep in parallel; the
/// serial stitch, O(chunks x trees), checks each chunk's first leaf of a
/// tree against the tree's end in the chunks before it, and throws the
/// violation a serial sweep would meet first.
template <int D>
std::vector<ChunkSweep> check_leaf_set(const std::vector<TreeOct<D>>& leaves,
                                       const Connectivity<D>& conn) {
  const int trees = conn.num_trees();
  std::vector<ChunkSweep> sweeps(num_chunks(leaves.size()));
  par::parallel_for_ranks(static_cast<int>(sweeps.size()), [&](int c) {
    const auto [lo, hi] = chunk_leaves(c, leaves.size());
    sweeps[c] = sweep_chunk(leaves, lo, hi, trees);
  });
  // Per tree, the end of the Morton interval covered so far.
  std::vector<morton_t> covered_to(trees, 0);
  std::vector<std::uint64_t> volume(trees, 0);
  for (const ChunkSweep& s : sweeps) {
    // Every run starts before the chunk's own flaw, so the earliest seam
    // flaw comes first.
    std::size_t seam = npos;
    for (int t = 0; t < trees; ++t) {
      const TreeRun& run = s.runs[t];
      if (run.first != npos && run.begin < covered_to[t]) {
        seam = std::min(seam, run.first);
      }
    }
    if (seam != npos) throw leaf_unsorted(leaves[seam]);
    if (s.bad != npos) {
      throw s.bad_is_outside ? leaf_outside(leaves[s.bad])
                             : leaf_unsorted(leaves[s.bad]);
    }
    for (int t = 0; t < trees; ++t) {
      if (s.runs[t].first == npos) continue;
      covered_to[t] = s.runs[t].end;
      // Sorted and disjoint, so a tree's sum never exceeds its volume.
      volume[t] += s.runs[t].volume;
    }
  }
  for (int t = 0; t < trees; ++t) {
    if (volume[t] != std::uint64_t{1} << (D * max_level<D>)) {
      throw std::invalid_argument("enumerate_nodes: leaves do not cover tree " +
                                  std::to_string(t));
    }
  }
  return sweeps;
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

/// General-connectivity node key: a node in the frame of one tree.  Node
/// coordinates live on the closed cube [0, R]^D; a node on a glued face
/// also exists in the neighbor's frame, and corner nodes can reach several
/// frames by composing crossings.
template <int D>
struct GeneralNodeKey {
  std::int32_t tree;
  std::array<coord_t, D> x;

  friend auto operator<=>(const GeneralNodeKey&,
                          const GeneralNodeKey&) = default;
};

template <int D>
std::uint64_t corner_hash(const GeneralNodeKey<D>& k) {
  std::uint64_t h = detail::hash_mix(static_cast<std::uint64_t>(k.tree));
  for (const coord_t x : k.x) {
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

/// A corner's table key and its orthant count: the finest cells around
/// the node inside the domain, over every frame the node appears in.
template <class Key>
struct Corner {
  Key key;
  std::uint8_t orthants;
};

/// A node of a chunk that may also be a corner in other chunks.
template <class Key>
struct SeamNode {
  Key key;
  std::uint32_t local;       ///< the node's id in its chunk
  std::uint32_t merged = 0;  ///< the node's id in the seam table
  std::uint8_t orthants;     ///< Corner::orthants
  std::uint8_t incidences;   ///< (leaf, corner) pairs of the chunk at it
};

/// One chunk's numbering, from the chunk pass to the remap.
template <class Key>
struct ChunkNodes {
  /// Per local id: the orthants around the node not filled by a leaf of
  /// the chunk that has the node as a corner.
  std::vector<std::uint8_t> missing;
  std::vector<SeamNode<Key>> seam;  ///< in local id order
  std::int64_t offset = 0;  ///< global id of the chunk's first fresh node
  std::uint64_t independent = 0;
};

/// True when every leaf touching the node at tree-local \p x lies in the
/// chunk whose leaves of that tree form \p run.  The node must be strictly
/// inside its tree.  Then the leaves touching it are the leaves holding
/// the 2^D finest cells around it, and Morton order is monotone on every
/// axis, so those cells lie between the lowest (x - 1) and the highest (x).
template <int D>
bool inside_chunk(const std::array<std::int64_t, D>& x, const TreeRun& run) {
  Octant<D> low, high;
  low.level = high.level = max_level<D>;
  for (int i = 0; i < D; ++i) {
    if (x[i] <= 0 || x[i] >= root_len<D>) return false;
    low.x[i] = static_cast<coord_t>(x[i] - 1);
    high.x[i] = static_cast<coord_t>(x[i]);
  }
  return run.begin <= morton_key(low) && morton_key(high) < run.end;
}

/// Node enumeration for every connectivity (DESIGN.md §2.19).  \p corner
/// is the key policy: it maps a leaf corner (tree, tree-local x) to the
/// node's Corner, the same from every frame of the node.  Ids follow first
/// appearance in leaf order, and a node hangs when fewer leaves have it as
/// a corner than it has orthants: each such leaf fills one of them.
///
/// Three passes.  Each chunk of the leaf list numbers its corners through
/// its own table, by first appearance, and counts the incidences per node.
/// A node inside the chunk (inside_chunk) is a corner in no other chunk,
/// so its count is final.  The other, seam, nodes go through one serial
/// merge in chunk order, which sums their counts and gives each chunk the
/// global id of its first fresh node.  A parallel remap then replaces
/// local ids by global ones.
template <int D, class Policy>
void number_corners(const std::vector<TreeOct<D>>& leaves,
                    const std::vector<ChunkSweep>& sweeps, NodeNumbering& nn,
                    const Policy& corner) {
  using Key =
      decltype(corner(std::int32_t{}, std::array<std::int64_t, D>{}).key);
  const int chunks = static_cast<int>(sweeps.size());
  std::vector<ChunkNodes<Key>> local(chunks);
  // Left unwritten by resize (DefaultInitAllocator): the chunk pass
  // writes every entry of its rows, and element_nodes holds chunk-local
  // ids until the remap.
  nn.element_nodes.resize(leaves.size());
  par::parallel_for_ranks(chunks, [&](int ci) {
    const auto [lo, hi] = chunk_leaves(ci, leaves.size());
    ChunkNodes<Key>& ch = local[ci];
    CornerTable<Key> table(2 * (hi - lo));
    for (std::size_t e = lo; e < hi; ++e) {
      const TreeOct<D>& to = leaves[e];
      const std::int64_t h = side_len(to.oct);
      for (int c = 0; c < num_children<D>; ++c) {
        std::array<std::int64_t, D> x;
        for (int i = 0; i < D; ++i) {
          x[i] = to.oct.x[i] + (((c >> i) & 1) ? h : 0);
        }
        const Corner<Key> k = corner(to.tree, x);
        bool fresh = false;
        const std::int64_t id = table.find_or_insert(k.key, fresh);
        if (fresh) {
          ch.missing.push_back(k.orthants);
          if (!inside_chunk<D>(x, sweeps[ci].runs[to.tree])) {
            ch.seam.push_back(
                {k.key, static_cast<std::uint32_t>(id), 0, k.orthants, 0});
          }
        }
        --ch.missing[id];
        nn.element_nodes[e][c] = id;
      }
      for (int c = num_children<D>; c < 8; ++c) nn.element_nodes[e][c] = 0;
    }
    for (SeamNode<Key>& s : ch.seam) {
      s.incidences =
          static_cast<std::uint8_t>(s.orthants - ch.missing[s.local]);
    }
  });

  // The merge.  A node's first appearance is in the first chunk holding
  // it, at its local position there, so the chunks' fresh nodes follow
  // each other in chunk order, and inside a chunk in local id order.  A
  // seam node fresh in chunk c thus gets c's offset plus the count of the
  // chunk's fresh nodes before it: the inside nodes (local - j, for the
  // j-th seam node) and the seam nodes fresh in c before it.
  std::size_t seam_nodes = 0;
  for (const ChunkNodes<Key>& ch : local) seam_nodes += ch.seam.size();
  CornerTable<Key> seam_table(seam_nodes);
  std::vector<std::int64_t> seam_id;
  std::vector<std::uint8_t> seam_missing;
  std::int64_t next = 0;
  for (ChunkNodes<Key>& ch : local) {
    ch.offset = next;
    std::int64_t fresh = 0;
    for (std::size_t j = 0; j < ch.seam.size(); ++j) {
      SeamNode<Key>& s = ch.seam[j];
      bool is_new = false;
      s.merged =
          static_cast<std::uint32_t>(seam_table.find_or_insert(s.key, is_new));
      if (is_new) {
        seam_id.push_back(ch.offset + static_cast<std::int64_t>(s.local - j) +
                          fresh++);
        seam_missing.push_back(s.orthants);
      }
      seam_missing[s.merged] -= s.incidences;
    }
    next = ch.offset +
           static_cast<std::int64_t>(ch.missing.size() - ch.seam.size()) +
           fresh;
  }
  nn.num_nodes = static_cast<std::uint64_t>(next);
  nn.hanging.resize(nn.num_nodes);

  // The remap: each chunk sets the flags of its fresh nodes (no other
  // chunk writes them) and rewrites its leaves' ids.
  par::parallel_for_ranks(chunks, [&](int ci) {
    const auto [lo, hi] = chunk_leaves(ci, leaves.size());
    ChunkNodes<Key>& ch = local[ci];
    std::vector<std::int64_t> ids(ch.missing.size());
    std::int64_t id = ch.offset;
    std::size_t j = 0;
    for (std::size_t l = 0; l < ids.size(); ++l) {
      std::uint8_t missing = ch.missing[l];
      if (j < ch.seam.size() && ch.seam[j].local == l) {
        const std::uint32_t m = ch.seam[j++].merged;
        if (seam_id[m] < ch.offset) {  // numbered in an earlier chunk
          ids[l] = seam_id[m];
          continue;
        }
        assert(seam_id[m] == id);
        missing = seam_missing[m];
      }
      ids[l] = id;
      nn.hanging[id++] = missing != 0;
      ch.independent += missing == 0;
    }
    for (std::size_t e = lo; e < hi; ++e) {
      for (int c = 0; c < num_children<D>; ++c) {
        nn.element_nodes[e][c] = ids[nn.element_nodes[e][c]];
      }
    }
    ch.missing = {};
    ch.seam = {};
  });
  for (const ChunkNodes<Key>& ch : local) nn.num_independent += ch.independent;
}

/// The lattice key policy.  A corner's global coordinate is its tree's
/// lattice origin plus x, with the closed upper bound of a periodic axis
/// mapped to 0; \p pack turns it into the table key.  The node has 2^open
/// orthants, where open counts the axes on which it is periodic or
/// strictly inside the domain.
template <int D, class Pack>
auto lattice_corners(const Connectivity<D>& conn, Pack pack) {
  std::vector<GlobalCoord<D>> origin(conn.num_trees());
  for (int t = 0; t < conn.num_trees(); ++t) {
    const auto tc = conn.tree_coords(t);
    for (int i = 0; i < D; ++i) {
      origin[t][i] = static_cast<std::int64_t>(tc[i]) * root_len<D>;
    }
  }
  return [ext = domain_extent(conn), periodic = conn.periodic(),
          origin = std::move(origin),
          pack](std::int32_t tree, const std::array<std::int64_t, D>& x) {
    GlobalCoord<D> g;
    int open = 0;
    for (int i = 0; i < D; ++i) {
      g[i] = origin[tree][i] + x[i];
      if (periodic[i] && g[i] == ext[i]) g[i] = 0;
      open += periodic[i] || (0 < g[i] && g[i] < ext[i]);
    }
    return Corner<decltype(pack(g))>{pack(g),
                                     static_cast<std::uint8_t>(1 << open)};
  };
}

/// The orbit of a node of a *general* connectivity under all reachable
/// face identifications: a node on a glued face also exists in the
/// neighbor's frame; corner nodes reach several frames by composing
/// crossings.  The breadth-first walk runs until the orbit is closed; it
/// ends because each member enters once and a node has finitely many
/// frames.
template <int D>
std::vector<GeneralNodeKey<D>> node_orbit(const Connectivity<D>& conn,
                                          const GeneralNodeKey<D>& node) {
  const coord_t R = root_len<D>;
  std::vector<GeneralNodeKey<D>> orbit{node};
  for (std::size_t i = 0; i < orbit.size(); ++i) {
    const GeneralNodeKey<D> cur = orbit[i];
    for (int axis = 0; axis < D; ++axis) {
      if (cur.x[axis] != 0 && cur.x[axis] != R) continue;
      // The finest cell of the tree with the node as a corner, crossed
      // over the face: the neighbor frame holds the node's image.
      Octant<D> base;
      base.level = max_level<D>;
      for (int d = 0; d < D; ++d) {
        base.x[d] = cur.x[d] == R ? R - 1 : cur.x[d];
      }
      std::array<int, D> off{};
      off[axis] = cur.x[axis] == 0 ? -1 : 1;
      const auto nb = conn.neighbor(static_cast<int>(cur.tree), base, off);
      if (!nb) continue;
      // Points map as x[d] = offset[d] + sign[d] * image[perm[d]].
      const FrameTransform<D>& T = nb->xform;
      GeneralNodeKey<D> image{nb->tree, {}};
      for (int d = 0; d < D; ++d) {
        image.x[T.perm[d]] =
            static_cast<coord_t>(T.sign[d] * (cur.x[d] - T.offset[d]));
      }
      if (std::find(orbit.begin(), orbit.end(), image) == orbit.end()) {
        orbit.push_back(image);
      }
    }
  }
  return orbit;
}

/// The general key policy.  A node strictly inside its tree is its own
/// key and has 2^D orthants.  Any other node is keyed by the smallest
/// member of its orbit, and each member adds 2^(the axes on which it is
/// strictly inside its tree) orthants: its finest cells with the node as
/// a corner.  A leaf corner at the node fills one such (member, cell)
/// pair, so the valence rule holds as on bricks.  More than 255 orthants
/// throws std::length_error.
template <int D>
auto general_corners(const Connectivity<D>& conn) {
  return [&conn](std::int32_t tree, const std::array<std::int64_t, D>& x) {
    const coord_t R = root_len<D>;
    GeneralNodeKey<D> node{tree, {}};
    bool inside = true;
    for (int i = 0; i < D; ++i) {
      node.x[i] = static_cast<coord_t>(x[i]);
      inside = inside && 0 < node.x[i] && node.x[i] < R;
    }
    if (inside) {
      return Corner<GeneralNodeKey<D>>{node,
                                       static_cast<std::uint8_t>(1 << D)};
    }
    const std::vector<GeneralNodeKey<D>> orbit = node_orbit(conn, node);
    int orthants = 0;
    for (const GeneralNodeKey<D>& m : orbit) {
      int open = 0;
      for (int i = 0; i < D; ++i) open += 0 < m.x[i] && m.x[i] < R;
      orthants += 1 << open;
    }
    if (orthants > std::numeric_limits<std::uint8_t>::max()) {
      throw std::length_error("enumerate_nodes: a node has " +
                              std::to_string(orthants) +
                              " cells around it, more than 255");
    }
    return Corner<GeneralNodeKey<D>>{
        *std::min_element(orbit.begin(), orbit.end()),
        static_cast<std::uint8_t>(orthants)};
  };
}

}  // namespace

template <int D>
NodeNumbering enumerate_nodes(const std::vector<TreeOct<D>>& leaves,
                              const Connectivity<D>& conn) {
  const std::vector<ChunkSweep> sweeps = check_leaf_set(leaves, conn);
  OBS_SPAN("enumerate_nodes");
  NodeNumbering nn;
  if (!conn.is_lattice()) {
    // Orbits are the classes of the face identification only when every
    // gluing is mutual; otherwise the orthant count depends on the frame
    // a node is met in first.
    if (!conn.validate()) {
      throw std::invalid_argument(
          "enumerate_nodes: the face-gluing table fails validate()");
    }
    number_corners(leaves, sweeps, nn, general_corners(conn));
    return nn;
  }
  // Every corner is a multiple of the finest leaf's side, so the key drops
  // those low zero bits; each axis then needs bit_width(extent >> shift)
  // bits for node coordinates on the closed range [0, extent].
  int finest = 0;
  for (const ChunkSweep& s : sweeps) finest = std::max(finest, s.finest);
  const GlobalCoord<D> ext = domain_extent(conn);
  const int shift = max_level<D> - finest;
  std::array<int, D> offset{};
  int bits = 0;
  for (int i = 0; i < D; ++i) {
    offset[i] = bits;
    bits += std::bit_width(static_cast<std::uint64_t>(ext[i]) >> shift);
  }
  if (bits <= 64) {
    number_corners(leaves, sweeps, nn,
                   lattice_corners(conn, [=](const GlobalCoord<D>& g) {
                     std::uint64_t key = 0;
                     for (int i = 0; i < D; ++i) {
                       key |= (static_cast<std::uint64_t>(g[i]) >> shift)
                              << offset[i];
                     }
                     return key;
                   }));
  } else {
    number_corners(
        leaves, sweeps, nn,
        lattice_corners(conn, [](const GlobalCoord<D>& g) { return g; }));
  }
  return nn;
}

namespace {

/// Each rank's first element in nn.element_nodes, whose order is the
/// gather order (rank-major), plus the total.  Throws when the numbering
/// has another element count than \p f has leaves.
template <int D>
std::vector<std::size_t> rank_elements(const Forest<D>& f,
                                       const NodeNumbering& nn) {
  std::vector<std::size_t> first(f.num_ranks() + 1, 0);
  for (int r = 0; r < f.num_ranks(); ++r) {
    first[r + 1] = first[r] + f.local(r).size();
  }
  if (first.back() != nn.element_nodes.size()) {
    throw std::invalid_argument(
        "assign_node_owners: the numbering has " +
        std::to_string(nn.element_nodes.size()) + " elements, the forest " +
        std::to_string(first.back()) + " leaves");
  }
  return first;
}

}  // namespace

template <int D>
NodeOwnership assign_node_owners(const Forest<D>& f, const NodeNumbering& nn) {
  OBS_SPAN("assign_node_owners");
  const int P = f.num_ranks();
  const std::vector<std::size_t> first = rank_elements(f, nn);
  NodeOwnership no;
  no.owner.assign(nn.num_nodes, P);
  no.nodes_per_rank.assign(P, 0);
  // Every rank lowers the owner of each node it touches to itself; the
  // minimum does not depend on the order the ranks run in.
  std::vector<std::uint8_t> bad_id(P, 0);
  par::parallel_for_ranks(P, [&](int r) {
    for (std::size_t e = first[r]; e < first[r + 1]; ++e) {
      for (int c = 0; c < num_children<D>; ++c) {
        const std::int64_t id = nn.element_nodes[e][c];
        if (static_cast<std::uint64_t>(id) >= nn.num_nodes) {
          bad_id[r] = 1;
          return;
        }
        std::atomic_ref<int> owner(no.owner[id]);
        int cur = owner.load(std::memory_order_relaxed);
        while (r < cur && !owner.compare_exchange_weak(
                              cur, r, std::memory_order_relaxed)) {
        }
      }
    }
  });
  for (int r = 0; r < P; ++r) {
    if (bad_id[r]) {
      throw std::invalid_argument(
          "assign_node_owners: a leaf of rank " + std::to_string(r) +
          " has a node id outside [0, " + std::to_string(nn.num_nodes) + ")");
    }
  }
  for (const int r : no.owner) {
    if (r == P) {
      throw std::invalid_argument(
          "assign_node_owners: a node id is a corner of no leaf");
    }
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
  const std::vector<std::size_t> first = rank_elements(f, nn);

  // share[o][r]: the nodes owned by o that rank r touches, in order of
  // first appearance among r's leaves.  Each rank fills its own column,
  // skipping repeats through a set of the foreign nodes it has met, and
  // counts the nodes it is the first to find shared.
  std::vector<std::vector<std::vector<std::int64_t>>> share(P);
  for (auto& s : share) s.assign(P, {});
  std::vector<std::uint8_t> shared(nn.num_nodes, 0);
  std::vector<std::uint64_t> found_shared(P, 0);
  par::parallel_for_ranks(P, [&](int r) {
    CornerTable<std::uint64_t> met(0);
    for (std::size_t e = first[r]; e < first[r + 1]; ++e) {
      for (int c = 0; c < num_children<D>; ++c) {
        const std::int64_t id = nn.element_nodes[e][c];
        const int o = no.owner[id];
        if (o == r) continue;
        bool fresh = false;
        met.find_or_insert(static_cast<std::uint64_t>(id), fresh);
        if (!fresh) continue;
        share[o][r].push_back(id);
        found_shared[r] += std::atomic_ref<std::uint8_t>(shared[id]).exchange(
                               1, std::memory_order_relaxed) == 0;
      }
    }
  });
  for (const std::uint64_t n : found_shared) no.shared_nodes += n;

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
