#pragma once
/// \file nodes.hpp
/// \brief Global enumeration of corner nodes on a balanced forest, with
/// hanging-node classification.
///
/// The paper lists "enumerating nodes" among the frequent octree-based
/// mesh operations, and 2:1 balance exists largely so that this step stays
/// simple: continuous finite elements need one global index per mesh
/// vertex, where vertices shared between leaves coincide, and vertices
/// that lie in the middle of a coarser neighbor's face or edge are
/// *hanging* — their value is interpolated, not independent.  Under k >= 1
/// balance every hanging vertex sits at the midpoint of exactly one
/// coarser face (or edge in 3D), which is what makes a single set of
/// interpolation operators sufficient (Figure 1).
///
/// Ids follow the order in which nodes first appear along the leaf list,
/// so they do not depend on the thread count.  One pass serves every
/// connectivity; only the key of a corner differs.  On bricks (periodic or
/// not) it is the packed global coordinate; on general face gluings it is
/// the smallest member of the node's orbit under the gluings, and a node
/// strictly inside its tree is its own key.  The leaf list is cut into
/// chunks of kNodeChunkLeaves leaves.  The chunks number their corners in
/// parallel, each through its own hash table of keys, and derive the
/// hanging flags by counting, per node, the leaves that have it as a
/// corner against the finest cells around it (DESIGN.md §2.19).  Only the
/// nodes on chunk seams go through one serial merge.  That count rule is
/// exact on any complete, disjoint leaf set, balanced or not and for every
/// k, so enumerate_nodes checks those preconditions instead of assuming
/// them.
///
/// Preconditions (checked in O(n); each violation throws
/// std::invalid_argument):
///   - a general \p conn passes validate() (mutual gluings with inverse
///     orientations);
///   - every leaf is a valid octant (aligned, level <= max_level, inside
///     the root) of a tree of \p conn;
///   - within each tree, the leaves appear in increasing Morton order and
///     do not overlap;
///   - the leaves of each tree cover it (their volumes sum to the tree's).
/// Leaves of different trees may interleave; element order is the order
/// given, which is what assign_node_owners relies on (rank-major).
///
/// Limits (each throws std::length_error): more than 2^32 - 2 distinct
/// nodes in one chunk or on the chunk seams, and a node with more than 255
/// finest cells around it over all its frames (the counts are bytes).  A
/// lattice node has at most 2^D; only a general connectivity that glues
/// hundreds of trees around one corner or edge, such as a fan of 256 2D
/// trees sharing one corner, reaches the second limit.

#include <array>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "comm/simcomm.hpp"
#include "forest/forest.hpp"

namespace octbal {

/// Leaves per chunk of the numbering.  A constant, not a tuning knob:
/// the numbering does not depend on it.
inline constexpr std::size_t kNodeChunkLeaves = 16384;

/// A std::allocator whose value-less construct default-initialises, so
/// resize() leaves trivial elements unwritten: the chunk pass fills
/// element_nodes from the thread pool instead of zeroing it serially first.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  using std::allocator<T>::allocator;

  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

struct NodeNumbering {
  /// Global number of distinct node coordinates.
  std::uint64_t num_nodes = 0;
  /// num independent (non-hanging) nodes.
  std::uint64_t num_independent = 0;
  /// For each leaf (in the order given), its 2^D corner node ids in
  /// z-order; the entries past 2^D are 0.
  std::vector<std::array<std::int64_t, 8>,
              DefaultInitAllocator<std::array<std::int64_t, 8>>>
      element_nodes;
  /// Per node id: 1 if the node hangs on a coarser neighbor, else 0.  (A
  /// byte, not a bit: the flags are set per id from the thread pool.)
  std::vector<std::uint8_t> hanging;
};

/// Enumerate the corner nodes of a complete leaf set (see the file comment
/// for the checked preconditions; 2:1 balance is what makes the hanging
/// nodes interpolable, but the numbering itself does not need it).  Nodes
/// on periodic boundaries are identified across the wrap; nodes shared
/// across tree faces are identified through the lattice embedding (bricks)
/// or the face-gluing orbit (general connectivities).
template <int D>
NodeNumbering enumerate_nodes(const std::vector<TreeOct<D>>& leaves,
                              const Connectivity<D>& conn);

/// Rank ownership of nodes, for distributed degree-of-freedom numbering:
/// each node is owned by the lowest rank holding a leaf that touches it
/// (the deterministic convention distributed FEM codes use to assign
/// shared degrees of freedom).
struct NodeOwnership {
  std::vector<int> owner;                   ///< per node id
  std::vector<std::uint64_t> nodes_per_rank;
  /// Nodes touched by more than one rank (the partition-boundary layer a
  /// distributed DOF numbering must synchronize).
  std::uint64_t shared_nodes = 0;
  /// Volume of the ownership sync (zero when no communicator was given).
  CommStats traffic;
};

/// Each node is owned by the lowest touching rank.  \p nn must number the
/// leaves of \p f in gather order (f.gather()).  Throws
/// std::invalid_argument when its element count differs from f's leaf
/// count, when an element names an id outside [0, nn.num_nodes), or when
/// an id is the corner of no element.
template <int D>
NodeOwnership assign_node_owners(const Forest<D>& f, const NodeNumbering& nn);

/// Distributed version: additionally performs the ownership sync each
/// owner rank owes its co-touching ranks — the owner ships the ids of
/// shared nodes to every other rank that touches them, through \p comm,
/// so the exchange's messages/bytes are measured and attributed (they
/// were previously invisible in every report).  Feeds the registry under
/// "nodes/*" and fills NodeOwnership::traffic / shared_nodes.  The same
/// preconditions as above.
template <int D>
NodeOwnership assign_node_owners(const Forest<D>& f, const NodeNumbering& nn,
                                 SimComm& comm);

}  // namespace octbal
