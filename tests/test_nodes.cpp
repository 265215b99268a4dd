/// \file test_nodes.cpp
/// \brief Tests for corner-node enumeration: exact counts on known meshes,
/// uniform-grid formulas, periodic identification, the hanging-node
/// guarantee on balanced meshes, element-connectivity consistency, the
/// checked preconditions of the numbering and of node ownership, and a
/// differential battery against the references (nodes_reference.hpp),
/// on bricks and on general face gluings, on forests of one chunk and of
/// several.

#include <gtest/gtest.h>

#include <stdexcept>

#include "forest/balance.hpp"
#include "core/balance_check.hpp"
#include "forest/nodes.hpp"
#include "nodes_reference.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace octbal {
namespace {

TEST(Nodes, UniformGridFormula2D) {
  for (int lvl : {0, 1, 2, 3}) {
    Forest<2> f(Connectivity<2>::unitcube(), 1, lvl);
    const auto nn = enumerate_nodes(f.gather(), f.connectivity());
    const std::uint64_t side = (1u << lvl) + 1;
    EXPECT_EQ(nn.num_nodes, side * side) << "lvl=" << lvl;
    EXPECT_EQ(nn.num_independent, nn.num_nodes);
  }
}

TEST(Nodes, UniformGridFormula3D) {
  Forest<3> f(Connectivity<3>::unitcube(), 1, 2);
  const auto nn = enumerate_nodes(f.gather(), f.connectivity());
  EXPECT_EQ(nn.num_nodes, 5u * 5u * 5u);
  EXPECT_EQ(nn.num_independent, nn.num_nodes);
}

TEST(Nodes, BrickSharesTreeBoundaryNodes) {
  Forest<2> f(Connectivity<2>::brick({2, 1}), 1, 1);
  const auto nn = enumerate_nodes(f.gather(), f.connectivity());
  // A 2x1 brick at level 1 is a uniform 4x2 grid: 5 * 3 nodes.
  EXPECT_EQ(nn.num_nodes, 15u);
  EXPECT_EQ(nn.num_independent, 15u);
}

TEST(Nodes, PeriodicIdentificationWrapsNodes) {
  std::array<bool, 2> per{true, true};
  Forest<2> f(Connectivity<2>::brick({1, 1}, per), 1, 2);
  const auto nn = enumerate_nodes(f.gather(), f.connectivity());
  // Fully periodic: upper boundary nodes identify with the lower ones.
  EXPECT_EQ(nn.num_nodes, 16u);  // 4 x 4 instead of 5 x 5
  EXPECT_EQ(nn.num_independent, 16u);
}

TEST(Nodes, KnownHangingConfiguration) {
  // Level-1 mesh with the first quadrant refined once: 7 leaves, 14 nodes,
  // exactly 2 hanging (the midpoints of the two interior coarse faces).
  Forest<2> f(Connectivity<2>::unitcube(), 1, 1);
  f.refine(
      [](const TreeOct<2>& to) {
        return to.oct.level == 1 && to.oct.x[0] == 0 && to.oct.x[1] == 0;
      },
      false);
  const auto leaves = f.gather();
  ASSERT_EQ(leaves.size(), 7u);
  const auto nn = enumerate_nodes(leaves, f.connectivity());
  EXPECT_EQ(nn.num_nodes, 14u);
  std::uint64_t hanging = 0;
  for (std::uint64_t i = 0; i < nn.num_nodes; ++i) hanging += nn.hanging[i];
  EXPECT_EQ(hanging, 2u);
  EXPECT_EQ(nn.num_independent, 12u);
}

TEST(Nodes, ElementNodesAgreeAcrossSharedFaces) {
  Rng rng(246);
  Forest<2> f(Connectivity<2>::brick({2, 1}), 1, 1);
  f.refine(
      [&](const TreeOct<2>& to) { return to.oct.level < 4 && rng.chance(0.4); },
      true);
  SimComm comm(1);
  BalanceOptions opt = BalanceOptions::new_config();
  opt.k = 1;
  balance(f, opt, comm);
  const auto leaves = f.gather();
  const auto nn = enumerate_nodes(leaves, f.connectivity());
  // Equal-size face neighbors share exactly two node ids (2D).
  const auto& conn = f.connectivity();
  for (std::size_t a = 0; a < leaves.size(); ++a) {
    for (std::size_t b = a + 1; b < leaves.size(); ++b) {
      if (leaves[a].oct.level != leaves[b].oct.level) continue;
      if (leaves[a].tree != leaves[b].tree) continue;
      if (adjacency_codim(leaves[a].oct, leaves[b].oct) != 1) continue;
      int shared = 0;
      for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
          shared += nn.element_nodes[a][i] == nn.element_nodes[b][j];
        }
      }
      EXPECT_EQ(shared, 2) << to_string(leaves[a].oct) << " | "
                           << to_string(leaves[b].oct);
    }
  }
  (void)conn;
}

TEST(Nodes, BalancedMeshHangingNodesHaveUniqueMaster2D) {
  // On a face-balanced 2D mesh, every hanging node is interior to exactly
  // one coarse face — count the containing-but-not-cornering leaves.
  Rng rng(135);
  Forest<2> f(Connectivity<2>::unitcube(), 1, 1);
  f.refine(
      [&](const TreeOct<2>& to) { return to.oct.level < 5 && rng.chance(0.4); },
      true);
  SimComm comm(1);
  BalanceOptions opt = BalanceOptions::new_config();
  opt.k = 1;
  balance(f, opt, comm);
  const auto leaves = f.gather();
  const auto nn = enumerate_nodes(leaves, f.connectivity());

  // Brute force per node.
  std::map<std::array<std::int64_t, 2>, int> masters;
  std::map<std::array<std::int64_t, 2>, std::int64_t> coord_to_id;
  for (std::size_t e = 0; e < leaves.size(); ++e) {
    const std::int64_t h = side_len(leaves[e].oct);
    const std::int64_t ax = leaves[e].oct.x[0], ay = leaves[e].oct.x[1];
    for (int c = 0; c < 4; ++c) {
      const std::array<std::int64_t, 2> g{ax + ((c & 1) ? h : 0),
                                          ay + ((c & 2) ? h : 0)};
      coord_to_id[g] = nn.element_nodes[e][c];
    }
  }
  for (const auto& [g, id] : coord_to_id) {
    int count = 0;
    for (const auto& to : leaves) {
      const std::int64_t h = side_len(to.oct);
      const bool inside = g[0] >= to.oct.x[0] && g[0] <= to.oct.x[0] + h &&
                          g[1] >= to.oct.x[1] && g[1] <= to.oct.x[1] + h;
      if (!inside) continue;
      const bool corner = (g[0] == to.oct.x[0] || g[0] == to.oct.x[0] + h) &&
                          (g[1] == to.oct.x[1] || g[1] == to.oct.x[1] + h);
      if (!corner) ++count;
    }
    masters[g] = count;
    EXPECT_EQ(nn.hanging[id], count > 0);
    if (nn.hanging[id]) {
      EXPECT_EQ(count, 1) << "hanging node with " << count << " masters";
    }
  }
}

TEST(Nodes, RefinementAddsNodes) {
  Forest<3> f(Connectivity<3>::brick({2, 1, 1}), 1, 1);
  const auto before = enumerate_nodes(f.gather(), f.connectivity());
  f.refine([](const TreeOct<3>&) { return true; }, false);
  const auto after = enumerate_nodes(f.gather(), f.connectivity());
  EXPECT_GT(after.num_nodes, before.num_nodes);
  EXPECT_EQ(after.num_independent, after.num_nodes);  // uniform again
}

}  // namespace
}  // namespace octbal

namespace octbal {
namespace {

TEST(NodesGeneral, UntwistedRingMatchesPeriodicBrickCounts) {
  // Cross-implementation oracle: the general ring with identity wrap and
  // the x-periodic brick are the same manifold.
  std::array<bool, 2> per{true, false};
  for (int lvl : {1, 2, 3}) {
    Forest<2> a(Connectivity<2>::ring(1, 0), 1, lvl);
    Forest<2> b(Connectivity<2>::brick({1, 1}, per), 1, lvl);
    const auto na = enumerate_nodes(a.gather(), a.connectivity());
    const auto nb = enumerate_nodes(b.gather(), b.connectivity());
    EXPECT_EQ(na.num_nodes, nb.num_nodes) << "lvl=" << lvl;
    EXPECT_EQ(na.num_independent, nb.num_independent);
  }
}

TEST(NodesGeneral, MoebiusIdentifiesFlippedBoundaryNodes) {
  // One-tree Möbius band at level 2: the x = R column is glued to x = 0
  // with y reversed, leaving 4 distinct columns of 5 nodes.
  Forest<2> f(Connectivity<2>::moebius(1), 1, 2);
  const auto nn = enumerate_nodes(f.gather(), f.connectivity());
  EXPECT_EQ(nn.num_nodes, 20u);
  EXPECT_EQ(nn.num_independent, 20u);
}

TEST(NodesGeneral, HangingNodesAcrossTheTwist) {
  // Refine one tree of a two-tree Möbius band: after face balance, the
  // hanging nodes on the twist link are classified exactly as in the
  // brute-force containment test.
  Forest<2> f(Connectivity<2>::moebius(2), 1, 1);
  f.refine([](const TreeOct<2>& to) { return to.tree == 1; }, false);
  SimComm comm(1);
  BalanceOptions opt = BalanceOptions::new_config();
  opt.k = 1;
  balance(f, opt, comm);
  EXPECT_TRUE(forest_is_balanced(f.gather(), f.connectivity(), 1));
  const auto nn = enumerate_nodes(f.gather(), f.connectivity());
  EXPECT_GT(nn.num_nodes, 0u);
  std::uint64_t hanging = 0;
  for (std::uint64_t i = 0; i < nn.num_nodes; ++i) hanging += nn.hanging[i];
  // Tree 1 is one level finer than tree 0 everywhere: every interior node
  // of a shared tree-boundary edge hangs (two glued links x 1 midpoint
  // each at these levels... just require some hanging and count
  // consistency).
  EXPECT_GT(hanging, 0u);
  EXPECT_EQ(nn.num_independent + hanging, nn.num_nodes);
}

TEST(NodesGeneral, ThreeDTwistedRingUniform) {
  // Uniform level-1 on a 3D ring with swap orientation: 2x2x2 per tree;
  // the x-columns glue into a loop: 2 (distinct x slabs) x 3 x 3 nodes.
  Forest<3> f(Connectivity<3>::ring(1, 0b001), 1, 1);
  const auto nn = enumerate_nodes(f.gather(), f.connectivity());
  EXPECT_EQ(nn.num_nodes, 2u * 3u * 3u);
  EXPECT_EQ(nn.num_independent, nn.num_nodes);
}

}  // namespace
}  // namespace octbal

namespace octbal {
namespace {

TEST(NodeOwnership, LowestTouchingRankOwnsEachNode) {
  Rng rng(555);
  auto f = random_forest(Connectivity<2>::brick({2, 1}), 4, 1, rng, 4, 0.4);
  f.partition_uniform();
  SimComm comm(4);
  BalanceOptions opt = BalanceOptions::new_config();
  opt.k = 1;
  balance(f, opt, comm);
  const auto nn = enumerate_nodes(f.gather(), f.connectivity());
  const auto no = assign_node_owners(f, nn);
  ASSERT_EQ(no.owner.size(), nn.num_nodes);
  // Counts tally.
  std::uint64_t total = 0;
  for (const auto c : no.nodes_per_rank) total += c;
  EXPECT_EQ(total, nn.num_nodes);
  // Every node's owner actually touches it, and no lower-ranked toucher
  // exists: brute-force per element.
  std::vector<int> min_rank(nn.num_nodes, 1 << 30);
  std::size_t e = 0;
  for (int r = 0; r < 4; ++r) {
    for (std::size_t i = 0; i < f.local(r).size(); ++i, ++e) {
      for (int c = 0; c < 4; ++c) {
        min_rank[nn.element_nodes[e][c]] =
            std::min(min_rank[nn.element_nodes[e][c]], r);
      }
    }
  }
  for (std::uint64_t i = 0; i < nn.num_nodes; ++i) {
    EXPECT_EQ(no.owner[i], min_rank[i]) << "node " << i;
  }
}

TEST(NodeOwnership, SingleRankOwnsEverything) {
  Forest<3> f(Connectivity<3>::unitcube(), 1, 2);
  const auto nn = enumerate_nodes(f.gather(), f.connectivity());
  const auto no = assign_node_owners(f, nn);
  EXPECT_EQ(no.nodes_per_rank[0], nn.num_nodes);
}

TEST(NodeOwnership, SharedInterfaceNodesGoToLowerRank) {
  // Uniform level-1 unitcube on 4 ranks (one quadrant each): the center
  // node is shared by all and must be owned by rank 0.
  Forest<2> f(Connectivity<2>::unitcube(), 4, 1);
  const auto nn = enumerate_nodes(f.gather(), f.connectivity());
  const auto no = assign_node_owners(f, nn);
  // Find the center node: it is the one touched by all four elements.
  std::map<std::int64_t, int> touch;
  for (const auto& en : nn.element_nodes) {
    for (int c = 0; c < 4; ++c) ++touch[en[c]];
  }
  int centers = 0;
  for (const auto& [id, cnt] : touch) {
    if (cnt == 4) {
      ++centers;
      EXPECT_EQ(no.owner[id], 0);
    }
  }
  EXPECT_EQ(centers, 1);
}

}  // namespace
}  // namespace octbal

namespace octbal {
namespace {

/// Ownership and its sync traffic must match the serial reference: owners,
/// per-rank counts, the shared-node count, and every message's content
/// (the flight digest of the sync round).
template <int D>
void expect_ownership_matches_reference(const Forest<D>& f,
                                        const NodeNumbering& nn,
                                        const std::string& what) {
  SimComm comm_got(f.num_ranks()), comm_want(f.num_ranks());
  comm_got.set_flight_recording(true);
  comm_want.set_flight_recording(true);
  const NodeOwnership got = assign_node_owners(f, nn, comm_got);
  const NodeOwnership want = reference::assign_node_owners(f, nn, comm_want);
  EXPECT_TRUE(got.owner == want.owner) << what;
  EXPECT_TRUE(got.nodes_per_rank == want.nodes_per_rank) << what;
  EXPECT_EQ(got.shared_nodes, want.shared_nodes) << what;
  EXPECT_EQ(got.traffic.messages, want.traffic.messages) << what;
  EXPECT_EQ(got.traffic.bytes, want.traffic.bytes) << what;
  ASSERT_FALSE(comm_got.rounds().empty()) << what;
  ASSERT_FALSE(comm_want.rounds().empty()) << what;
  EXPECT_EQ(comm_got.rounds().back().digest, comm_want.rounds().back().digest)
      << what;
  EXPECT_TRUE(comm_got.rounds().back().edges == comm_want.rounds().back().edges)
      << what;
  const NodeOwnership plain = assign_node_owners(f, nn);
  EXPECT_TRUE(plain.owner == want.owner) << what;
  EXPECT_TRUE(plain.nodes_per_rank == want.nodes_per_rank) << what;
}

/// The numbering of \p leaves must match the reference byte for byte: ids,
/// hanging flags and counts.
template <int D>
NodeNumbering expect_numbering_matches_reference(
    const std::vector<TreeOct<D>>& leaves, const Connectivity<D>& conn,
    const std::string& what) {
  NodeNumbering got = enumerate_nodes(leaves, conn);
  const NodeNumbering want = reference::enumerate_nodes(leaves, conn);
  EXPECT_EQ(got.num_nodes, want.num_nodes) << what;
  EXPECT_EQ(got.num_independent, want.num_independent) << what;
  EXPECT_TRUE(got.element_nodes == want.element_nodes) << what;
  EXPECT_TRUE(got.hanging == want.hanging) << what;
  return got;
}

/// Numbering and ownership must match the references byte for byte.
template <int D>
void expect_matches_reference(const Forest<D>& f, const std::string& what) {
  const NodeNumbering nn =
      expect_numbering_matches_reference(f.gather(), f.connectivity(), what);
  expect_ownership_matches_reference(f, nn, what);
}

/// A random brick forest: dims 1..3 per axis, random periodicity, 1..4
/// ranks, random recursive refinement; balanced at a random k in 1..D on
/// odd seeds, left unbalanced on even ones.
template <int D>
Forest<D> random_brick_forest(std::uint64_t seed, std::string& what) {
  Rng rng(seed);
  std::array<int, D> dims{};
  std::array<bool, D> per{};
  for (int i = 0; i < D; ++i) {
    dims[i] = 1 + static_cast<int>(rng.below(D == 3 ? 2 : 3));
    per[i] = rng.chance(0.5);
  }
  const int ranks = 1 + static_cast<int>(rng.below(4));
  const int depth = D == 1 ? 9 : (D == 2 ? 6 : 4);
  const double p = D == 3 ? 0.3 : 0.4;
  const int level = static_cast<int>(rng.below(2));
  Forest<D> f = random_forest(Connectivity<D>::brick(dims, per), ranks, level,
                              rng, depth, p);
  f.partition_uniform();
  const int k = 1 + static_cast<int>(rng.below(D));
  const bool balanced = seed % 2 == 1;
  if (balanced) {
    SimComm comm(ranks);
    BalanceOptions opt = BalanceOptions::new_config();
    opt.k = k;
    balance(f, opt, comm);
  }
  what = "D=" + std::to_string(D) + " seed=" + std::to_string(seed) +
         " P=" + std::to_string(ranks) +
         (balanced ? " k=" + std::to_string(k) : std::string(" unbalanced"));
  return f;
}

template <int D>
void differential_sweep(std::uint64_t seeds) {
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    std::string what;
    const Forest<D> f = random_brick_forest<D>(seed, what);
    expect_matches_reference(f, what);
  }
}

TEST(NodesDifferential, RandomBricks1D) { differential_sweep<1>(60); }
TEST(NodesDifferential, RandomBricks2D) { differential_sweep<2>(60); }
TEST(NodesDifferential, RandomBricks3D) { differential_sweep<3>(40); }

TEST(NodesDifferential, PeriodicSingleTreeRootLeaf) {
  // One root leaf on a fully periodic one-tree brick: all 2^D corners wrap
  // onto one node, which the leaf touches from every orthant.
  Forest<3> f(Connectivity<3>::brick({1, 1, 1}, {true, true, true}), 1, 0);
  const auto nn = enumerate_nodes(f.gather(), f.connectivity());
  EXPECT_EQ(nn.num_nodes, 1u);
  EXPECT_EQ(nn.num_independent, 1u);
  expect_matches_reference(f, "periodic root");
}

TEST(NodesDifferential, WideKeyLevel19Brick) {
  // Level-19 leaves in a 4x4x4 brick need 22 bits per axis: 66 bits, so
  // the table runs on unpacked coordinate keys.  Refine one corner chain
  // to the finest level (unbalanced) and check against the reference.
  Forest<3> f(Connectivity<3>::brick({4, 4, 4}, {false, true, false}), 3, 0);
  f.refine(
      [](const TreeOct<3>& to) {
        return to.tree == 21 && to.oct.x == std::array<coord_t, 3>{};
      },
      true);
  f.partition_uniform();
  const auto leaves = f.gather();
  ASSERT_EQ(leaves.size(), 64u + 7u * max_level<3>);
  expect_matches_reference(f, "wide key");
}

TEST(NodesPreconditions, LeafOutsideTheDomainThrows) {
  Forest<2> f(Connectivity<2>::brick({2, 1}), 1, 1);
  auto leaves = f.gather();
  auto bad_tree = leaves;
  bad_tree.back().tree = 2;
  EXPECT_THROW(enumerate_nodes(bad_tree, f.connectivity()),
               std::invalid_argument);
  auto outside = leaves;
  outside.back().oct.x[0] = root_len<2>;
  EXPECT_THROW(enumerate_nodes(outside, f.connectivity()),
               std::invalid_argument);
}

TEST(NodesPreconditions, UnsortedLeavesThrow) {
  Forest<2> f(Connectivity<2>::unitcube(), 1, 1);
  auto leaves = f.gather();
  std::swap(leaves[1], leaves[2]);
  EXPECT_THROW(enumerate_nodes(leaves, f.connectivity()),
               std::invalid_argument);
}

TEST(NodesPreconditions, OverlappingLeavesThrow) {
  // The root followed by one of its children: sorted, but not disjoint.
  Forest<2> f(Connectivity<2>::unitcube(), 1, 1);
  std::vector<TreeOct<2>> leaves{TreeOct<2>{0, root_octant<2>()},
                                 f.gather().front()};
  EXPECT_THROW(enumerate_nodes(leaves, f.connectivity()),
               std::invalid_argument);
}

TEST(NodesPreconditions, IncompleteLeafSetThrows) {
  Forest<3> f(Connectivity<3>::brick({2, 1, 1}), 1, 1);
  auto leaves = f.gather();
  leaves.erase(leaves.begin() + 3);
  EXPECT_THROW(enumerate_nodes(leaves, f.connectivity()),
               std::invalid_argument);
  // A tree with no leaves at all is a gap too.
  Forest<3> g(Connectivity<3>::brick({2, 1, 1}), 1, 0);
  std::vector<TreeOct<3>> one_tree{g.gather().front()};
  EXPECT_THROW(enumerate_nodes(one_tree, g.connectivity()),
               std::invalid_argument);
}

TEST(NodesPreconditions, UnsortedAcrossAChunkSeamThrows) {
  // The two leaves around the first chunk seam swapped: each chunk is
  // sorted on its own, only the stitch sees the step back.
  Forest<2> f(Connectivity<2>::unitcube(), 1, 8);
  auto leaves = f.gather();
  ASSERT_GT(leaves.size(), 2 * kNodeChunkLeaves);
  std::swap(leaves[kNodeChunkLeaves - 1], leaves[kNodeChunkLeaves]);
  EXPECT_THROW(enumerate_nodes(leaves, f.connectivity()),
               std::invalid_argument);
  // A leaf missing at the seam leaves a gap no single chunk sees.
  auto gap = f.gather();
  gap.erase(gap.begin() + kNodeChunkLeaves);
  EXPECT_THROW(enumerate_nodes(gap, f.connectivity()), std::invalid_argument);
}

TEST(NodesPreconditions, NonMutualGluingThrows) {
  // Tree 1's -x face points at its own +x face, which is glued nowhere:
  // the orbit of a node then depends on the frame it is met in.
  std::vector<std::array<FaceGlue, 4>> faces(2);
  faces[0][1] = FaceGlue{1, 0, 0};
  faces[1][0] = FaceGlue{1, 1, 0};
  const auto conn = Connectivity<2>::general(2, std::move(faces));
  ASSERT_FALSE(conn.validate());
  const Forest<2> f(conn, 1, 1);
  EXPECT_THROW(enumerate_nodes(f.gather(), conn), std::invalid_argument);
}

TEST(NodesPreconditions, OwnersRejectANumberingOfAnotherForest) {
  // Both overloads: a numbering with more or fewer elements than the
  // forest has leaves used to read past element_nodes under NDEBUG.
  Forest<2> f(Connectivity<2>::unitcube(), 2, 2);
  Forest<2> g(Connectivity<2>::unitcube(), 2, 3);
  const NodeNumbering finer = enumerate_nodes(g.gather(), g.connectivity());
  SimComm comm(2);
  EXPECT_THROW(assign_node_owners(f, finer), std::invalid_argument);
  EXPECT_THROW(assign_node_owners(f, finer, comm), std::invalid_argument);
  NodeNumbering fewer = enumerate_nodes(f.gather(), f.connectivity());
  fewer.element_nodes.pop_back();
  EXPECT_THROW(assign_node_owners(f, fewer), std::invalid_argument);
  EXPECT_THROW(assign_node_owners(f, fewer, comm), std::invalid_argument);
}

TEST(NodesPreconditions, OwnersRejectIdsOutOfRange) {
  Forest<2> f(Connectivity<2>::unitcube(), 2, 2);
  const NodeNumbering nn = enumerate_nodes(f.gather(), f.connectivity());
  SimComm comm(2);
  for (const std::int64_t bad :
       {static_cast<std::int64_t>(nn.num_nodes), std::int64_t{-1}}) {
    NodeNumbering broken = nn;
    broken.element_nodes.back()[3] = bad;
    EXPECT_THROW(assign_node_owners(f, broken), std::invalid_argument);
    EXPECT_THROW(assign_node_owners(f, broken, comm), std::invalid_argument);
  }
  // An id no element names has no owner.
  NodeNumbering unused = nn;
  ++unused.num_nodes;
  EXPECT_THROW(assign_node_owners(f, unused), std::invalid_argument);
  EXPECT_THROW(assign_node_owners(f, unused, comm), std::invalid_argument);
}

}  // namespace
}  // namespace octbal

namespace octbal {
namespace {

/// Forests of more than three chunks of the lattice pass, so that chunk
/// seams, nodes numbered across them and every merge path are exercised.
void expect_multi_chunk(std::size_t leaves) {
  ASSERT_GT(leaves, 3 * kNodeChunkLeaves) << "fewer than 4 chunks";
}

/// The graded ice-sheet mesh on a 3x2x1 brick, periodic in y, at lmax 7.
Forest<3> graded_brick_3d(bool balanced) {
  Forest<3> f(Connectivity<3>::brick({3, 2, 1}, {false, true, false}), 6, 1);
  icesheet_refine(f, 7);
  f.partition_uniform();
  if (balanced) {
    SimComm comm(6);
    balance(f, BalanceOptions::new_config(), comm);
  }
  return f;
}

TEST(NodesMultiChunk, GradedPeriodicBrick3DUnbalanced) {
  const Forest<3> f = graded_brick_3d(false);
  expect_multi_chunk(f.global_num_octants());
  expect_matches_reference(f, "3D graded periodic-y brick, unbalanced");
}

TEST(NodesMultiChunk, GradedPeriodicBrick3DBalanced) {
  const Forest<3> f = graded_brick_3d(true);
  expect_multi_chunk(f.global_num_octants());
  expect_matches_reference(f, "3D graded periodic-y brick, k=3");
}

TEST(NodesMultiChunk, GradedBrick2D) {
  Forest<2> f(Connectivity<2>::brick({3, 2}), 5, 1);
  icesheet_refine(f, 11);
  f.partition_uniform();
  SimComm comm(5);
  BalanceOptions opt = BalanceOptions::new_config();
  opt.k = 1;
  balance(f, opt, comm);
  expect_multi_chunk(f.global_num_octants());
  expect_matches_reference(f, "2D graded brick, k=1");
}

TEST(NodesMultiChunk, InterleavedTrees) {
  // The precondition orders leaves within a tree only.  Deal the trees'
  // runs out round robin in random-length blocks, so chunks hold several
  // trees and a tree's runs cross many seams.
  const Forest<3> f = graded_brick_3d(true);
  const auto gathered = f.gather();
  std::vector<std::vector<TreeOct<3>>> per_tree(f.connectivity().num_trees());
  for (const auto& to : gathered) per_tree[to.tree].push_back(to);
  std::vector<std::size_t> next(per_tree.size(), 0);
  std::vector<TreeOct<3>> leaves;
  Rng rng(2012);
  while (leaves.size() < gathered.size()) {
    for (std::size_t t = 0; t < per_tree.size(); ++t) {
      const std::size_t take = std::min<std::size_t>(
          1 + rng.below(3000), per_tree[t].size() - next[t]);
      leaves.insert(leaves.end(), per_tree[t].begin() + next[t],
                    per_tree[t].begin() + next[t] + take);
      next[t] += take;
    }
  }
  ASSERT_FALSE(leaves == gathered);
  expect_multi_chunk(leaves.size());
  expect_numbering_matches_reference(leaves, f.connectivity(),
                                     "interleaved trees");
}

TEST(NodesMultiChunk, SameOutputAtEveryThreadCount) {
  const int saved = par::num_threads();
  Forest<3> f(Connectivity<3>::brick({3, 2, 1}), 16, 2);
  fractal_refine(f, 6);
  f.partition_uniform();
  {
    SimComm comm(16);
    balance(f, BalanceOptions::new_config(), comm);
  }
  expect_multi_chunk(f.global_num_octants());
  std::vector<NodeNumbering> nns;
  std::vector<NodeOwnership> owns;
  for (const int threads : {1, 2, 8}) {
    par::set_num_threads(threads);
    nns.push_back(enumerate_nodes(f.gather(), f.connectivity()));
    SimComm comm(16);
    owns.push_back(assign_node_owners(f, nns.back(), comm));
  }
  par::set_num_threads(saved);
  for (std::size_t i = 1; i < nns.size(); ++i) {
    EXPECT_TRUE(nns[i].element_nodes == nns[0].element_nodes) << i;
    EXPECT_TRUE(nns[i].hanging == nns[0].hanging) << i;
    EXPECT_EQ(nns[i].num_independent, nns[0].num_independent) << i;
    EXPECT_TRUE(owns[i].owner == owns[0].owner) << i;
    EXPECT_TRUE(owns[i].nodes_per_rank == owns[0].nodes_per_rank) << i;
    EXPECT_EQ(owns[i].shared_nodes, owns[0].shared_nodes) << i;
    EXPECT_EQ(owns[i].traffic.bytes, owns[0].traffic.bytes) << i;
  }
  expect_matches_reference(f, "fig15 forest");
}

}  // namespace
}  // namespace octbal

namespace octbal {
namespace {

/// Restores the worker-thread count when it leaves scope.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(par::num_threads()) {}
  ~ThreadGuard() { par::set_num_threads(saved_); }

 private:
  int saved_;
};

/// Numbering and ownership of \p f must match the references at 1, 4 and
/// 8 worker threads.
template <int D>
void expect_matches_reference_threaded(const Forest<D>& f,
                                       const std::string& what) {
  ThreadGuard guard;
  for (const int threads : {1, 4, 8}) {
    par::set_num_threads(threads);
    expect_matches_reference(f, what + " threads=" + std::to_string(threads));
  }
}

/// A uniform forest, a random refinement of it, and that refinement
/// balanced at every k in [1, D], each checked against the references.
template <int D>
void general_sweep(const Connectivity<D>& conn, const std::string& name,
                   std::uint64_t seed) {
  ASSERT_TRUE(conn.validate()) << name;
  Rng rng(seed);
  const int ranks = 1 + static_cast<int>(rng.below(4));
  Forest<D> uniform(conn, ranks, D == 2 ? 2 : 1);
  expect_matches_reference_threaded(uniform, name + " uniform");
  const Forest<D> refined =
      random_forest(conn, ranks, 1, rng, D == 2 ? 5 : 4, 0.35);
  expect_matches_reference_threaded(refined, name + " random");
  for (int k = 1; k <= D; ++k) {
    Forest<D> f = refined;
    SimComm comm(ranks);
    BalanceOptions opt = BalanceOptions::new_config();
    opt.k = k;
    balance(f, opt, comm);
    ASSERT_TRUE(forest_is_balanced(f.gather(), f.connectivity(), k)) << name;
    expect_matches_reference_threaded(f, name + " k=" + std::to_string(k));
  }
}

TEST(NodesGeneralDifferential, Rings2D) {
  for (int n = 1; n <= 5; ++n) {
    general_sweep(Connectivity<2>::ring(n, 0), "ring n=" + std::to_string(n),
                  100 + n);
  }
}

TEST(NodesGeneralDifferential, MoebiusBands2D) {
  for (int n = 1; n <= 5; ++n) {
    general_sweep(Connectivity<2>::moebius(n),
                  "moebius n=" + std::to_string(n), 200 + n);
  }
}

TEST(NodesGeneralDifferential, RotatedGluing2D) {
  // Tree 0's +x face meets tree 1's -y face.
  std::vector<std::array<FaceGlue, 4>> faces(2);
  faces[0][1] = FaceGlue{1, 2, 0};
  faces[1][2] = FaceGlue{0, 1, 0};
  general_sweep(Connectivity<2>::general(2, std::move(faces)), "rotated", 300);
}

TEST(NodesGeneralDifferential, Rings3DEveryWrapOrientation) {
  for (int orient = 0; orient < 8; ++orient) {
    for (int n : {1, 2}) {
      general_sweep(Connectivity<3>::ring(n, static_cast<std::uint8_t>(orient)),
                    "3D ring n=" + std::to_string(n) +
                        " orient=" + std::to_string(orient),
                    400 + 10 * orient + n);
    }
  }
}

/// A fan of n trees: tree i's -y face is glued to tree i + 1's -x face,
/// so every tree has its (0, 0) corner (in 3D, its x = y = 0 edge) at one
/// node.  A closed fan also glues tree n - 1 to tree 0, so n trees
/// surround that corner or edge: 4 is a regular grid point, 3 and 5 are
/// the irregular vertices of cubed-sphere-like meshes.
template <int D>
Connectivity<D> fan(int n, bool closed) {
  std::vector<std::array<FaceGlue, 2 * D>> faces(n);
  for (int i = 0; i + 1 < n || (closed && i < n); ++i) {
    const int j = (i + 1) % n;
    faces[i][2] = FaceGlue{j, 0, 0};
    faces[j][0] = FaceGlue{i, 2, 0};
  }
  return Connectivity<D>::general(n, std::move(faces));
}

TEST(NodesGeneralDifferential, ClosedFans) {
  for (int n = 3; n <= 5; ++n) {
    general_sweep(fan<2>(n, true), "2D closed fan n=" + std::to_string(n),
                  600 + n);
    general_sweep(fan<3>(n, true), "3D closed fan n=" + std::to_string(n),
                  700 + n);
  }
}

TEST(NodesGeneralDifferential, FanCornerOrbitSpansEveryTree) {
  // At level 1 each tree has 9 nodes and each of the n - 1 gluings
  // identifies 3 pairs, so there are 9n - 3(n - 1) = 6n + 3 nodes.  The
  // shared corner's orbit has n members, more than 64.
  for (const int n : {65, 70}) {
    const Forest<2> f(fan<2>(n, false), 2, 1);
    ASSERT_TRUE(f.connectivity().validate());
    const NodeNumbering nn = enumerate_nodes(f.gather(), f.connectivity());
    EXPECT_EQ(nn.num_nodes, 6u * n + 3) << "n=" << n;
    EXPECT_EQ(nn.num_independent, nn.num_nodes) << "n=" << n;
    expect_matches_reference(f, "fan n=" + std::to_string(n));
  }
  // 300 cells around the shared corner overflow the byte-wide counts.
  const Forest<2> f(fan<2>(300, false), 1, 1);
  EXPECT_THROW(enumerate_nodes(f.gather(), f.connectivity()),
               std::length_error);
}

/// More than one chunk of the numbering, so nodes on glued tree faces
/// also lie on chunk seams and go through the merge.
template <int D>
void expect_general_multi_chunk(const Connectivity<D>& conn, int level,
                                int lmax, double density, int k,
                                const std::string& name) {
  ASSERT_TRUE(conn.validate()) << name;
  Rng rng(500 + k);
  Forest<D> f = random_forest(conn, 4, level, rng, lmax, density);
  SimComm comm(4);
  BalanceOptions opt = BalanceOptions::new_config();
  opt.k = k;
  balance(f, opt, comm);
  ASSERT_GT(f.global_num_octants(), kNodeChunkLeaves) << "one chunk only";
  expect_matches_reference_threaded(f, name);
}

TEST(NodesGeneralDifferential, MultiChunkMoebius2D) {
  expect_general_multi_chunk(Connectivity<2>::moebius(3), 6, 8, 0.15, 1,
                             "multi-chunk moebius");
}

TEST(NodesGeneralDifferential, MultiChunkTwistedRing3D) {
  expect_general_multi_chunk(Connectivity<3>::ring(2, 0b101), 4, 6, 0.1, 2,
                             "multi-chunk twisted 3D ring");
}

}  // namespace
}  // namespace octbal
