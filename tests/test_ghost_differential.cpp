/// \file test_ghost_differential.cpp
/// \brief build_ghost_layer against the by-definition reference in
/// ghost_reference.hpp: per_rank and the exchange traffic must be
/// byte-identical on random 2D and 3D bricks, periodic bricks, a Möbius
/// band, a rotated 2D gluing and a twisted 3D ring, for every k in [1, D],
/// 1 to 8 ranks (uniform and skewed partitions, empty ranks included), and
/// on a graded forest with about one rank per leaf, at 1, 4 and 8 worker
/// threads (ctest label: tsan).  The send pattern must be symmetric: the
/// build has no pattern reversal, so each rank receives only from the
/// ranks it sends to.

#include <gtest/gtest.h>

#include "ghost_reference.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace octbal {
namespace {

class ThreadGuard {
 public:
  ThreadGuard() : saved_(par::num_threads()) {}
  ~ThreadGuard() { par::set_num_threads(saved_); }

 private:
  int saved_;
};

template <int D>
std::vector<Connectivity<D>> connectivities() {
  std::vector<Connectivity<D>> out;
  if constexpr (D == 2) {
    out.push_back(Connectivity<2>::brick({3, 2}));
    out.push_back(Connectivity<2>::brick({2, 2}, {true, true}));
    out.push_back(Connectivity<2>::brick({1, 2}, {true, false}));
    out.push_back(Connectivity<2>::moebius(3));
    // Rotated gluing: tree 0's +x face meets tree 1's -y face.
    std::vector<std::array<FaceGlue, 4>> faces(2);
    faces[0][1] = FaceGlue{1, 2, 0};
    faces[1][2] = FaceGlue{0, 1, 0};
    out.push_back(Connectivity<2>::general(2, std::move(faces)));
  } else {
    out.push_back(Connectivity<3>::brick({2, 2, 1}));
    out.push_back(Connectivity<3>::brick({2, 1, 2}, {true, false, true}));
    out.push_back(Connectivity<3>::ring(2, 0b101));
  }
  return out;
}

/// A pure, position-derived weight with zeros, so the skewed partitions
/// leave some ranks empty.
template <int D>
int skew_weight(const TreeOct<D>& to) {
  std::uint64_t h = morton_key(to.oct) * 0x9e3779b97f4a7c15ull +
                    static_cast<std::uint64_t>(to.tree) * 0xbf58476d1ce4e5b9ull;
  h ^= h >> 29;
  return static_cast<int>(h % 4) == 0 ? 0 : static_cast<int>(h % 7);
}

/// A graded forest: inside one level-1 octant of tree 0, the leaves along
/// one of its x faces are at level \p lmax, and every other leaf of the
/// forest is coarser, down to level 1 beside that face when it is interior
/// to the tree (a neighbor tree's level-1 leaves when it is not).  With
/// about one rank per leaf, many ranks' ranges sit deep inside one coarse
/// leaf's halo piece, and the sender's descent toward their ends reaches
/// level lmax.
template <int D>
Forest<D> graded_forest(const Connectivity<D>& conn, int lmax, Rng& rng) {
  const Octant<D> fine =
      child(root_octant<D>(), static_cast<int>(rng.below(num_children<D>)));
  const coord_t face = fine.x[0] + (rng.chance(0.5) ? side_len(fine) : 0);
  Forest<D> one(conn, 1, 1);
  one.refine(
      [&](const TreeOct<D>& to) {
        return to.tree == 0 && to.oct.level < lmax && contains(fine, to.oct) &&
               (to.oct.x[0] == face || to.oct.x[0] + side_len(to.oct) == face);
      },
      true);
  const std::vector<TreeOct<D>> leaves = one.gather();
  const int n = static_cast<int>(leaves.size());
  return Forest<D>(conn, n - static_cast<int>(rng.below(n / 4)), leaves);
}

/// build_ghost_layer on \p f against the reference for every k, and the
/// symmetry of its send pattern: q owns a ghost of r exactly when r owns a
/// ghost of q.
template <int D>
void expect_matches_reference(const Forest<D>& f, int threads) {
  const int ranks = f.num_ranks();
  for (int k = 1; k <= D; ++k) {
    SimComm comm(ranks);
    const GhostLayer<D> got = build_ghost_layer(f, k, comm);
    const auto want = reference::ghost_layer(f, k);
    ASSERT_EQ(got.per_rank.size(), want.per_rank.size());
    std::vector<std::vector<char>> sends(ranks, std::vector<char>(ranks, 0));
    for (int r = 0; r < ranks; ++r) {
      ASSERT_EQ(got.per_rank[r], want.per_rank[r])
          << "D=" << D << " ranks=" << ranks << " k=" << k << " rank " << r
          << " threads=" << threads;
      for (const auto& e : got.per_rank[r]) sends[e.owner][r] = 1;
    }
    for (int r = 0; r < ranks; ++r) {
      for (int q = 0; q < r; ++q) {
        ASSERT_EQ(sends[r][q], sends[q][r])
            << "D=" << D << " ranks=" << ranks << " k=" << k << " ranks "
            << r << " and " << q;
      }
    }
    EXPECT_EQ(got.traffic.messages, want.traffic.messages);
    EXPECT_EQ(got.traffic.bytes, want.traffic.bytes);
  }
}

template <int D>
void ghost_matches_reference(int threads, std::uint64_t seed) {
  ThreadGuard guard;
  par::set_num_threads(threads);
  Rng rng(seed);
  int checked = 0;
  for (const auto& conn : connectivities<D>()) {
    ASSERT_TRUE(conn.validate());
    for (int ranks = 1; ranks <= 8; ranks += (ranks < 3 ? 1 : 2)) {
      Forest<D> f = random_forest(conn, ranks, 1, rng, D == 2 ? 5 : 4, 0.35);
      if (rng.chance(0.5)) {
        f.partition_uniform();
      } else {
        f.partition_weighted(skew_weight<D>);
      }
      expect_matches_reference(f, threads);
      ++checked;
    }
    expect_matches_reference(graded_forest(conn, D == 2 ? 7 : 5, rng),
                             threads);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

class GhostDifferential : public ::testing::TestWithParam<int> {};

TEST_P(GhostDifferential, MatchesReference2D) {
  ghost_matches_reference<2>(GetParam(), 8101);
}

TEST_P(GhostDifferential, MatchesReference3D) {
  ghost_matches_reference<3>(GetParam(), 8103);
}

INSTANTIATE_TEST_SUITE_P(Threads, GhostDifferential,
                         ::testing::Values(1, 4, 8));

}  // namespace
}  // namespace octbal
