/// \file mesh_report.cpp
/// \brief A downstream-user's view of a balanced forest: build the mesh a
/// solver would use and report everything it needs to know — face
/// conformity (the T-intersection guarantee of Figure 1), the ghost layer
/// each rank must hold, partition quality, and a reproducibility checksum.
///
///   ./mesh_report [--ranks 6] [--lmax 6] [--k 1]

#include <cstdio>

#include "forest/balance.hpp"
#include "forest/ghost.hpp"
#include "forest/mesh.hpp"
#include "util/cli.hpp"
#include "workload/workloads.hpp"

using namespace octbal;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const int ranks = static_cast<int>(cli.get_int("ranks", 6));
  const int lmax = static_cast<int>(cli.get_int("lmax", 6));
  const int k = static_cast<int>(cli.get_int("k", 1));

  Forest<2> f(Connectivity<2>::brick({4, 4}), ranks, 1);
  icesheet_refine(f, lmax);
  f.partition_uniform();

  const auto before = analyze_mesh(f.gather(), f.connectivity());
  std::printf("before balance: %llu leaves, worst face jump %d, %llu bad "
              "faces\n",
              static_cast<unsigned long long>(before.leaves),
              before.max_face_level_jump,
              static_cast<unsigned long long>(before.bad_faces));

  SimComm comm(ranks);
  BalanceOptions opt = BalanceOptions::new_config();
  opt.k = k;
  balance(f, opt, comm);

  const auto after = analyze_mesh(f.gather(), f.connectivity());
  std::printf("after  balance: %llu leaves, worst face jump %d, %llu bad "
              "faces\n",
              static_cast<unsigned long long>(after.leaves),
              after.max_face_level_jump,
              static_cast<unsigned long long>(after.bad_faces));
  std::printf("faces: %llu conforming, %llu hanging (T), %llu coarse-side, "
              "%llu boundary\n",
              static_cast<unsigned long long>(after.conforming_faces),
              static_cast<unsigned long long>(after.hanging_faces),
              static_cast<unsigned long long>(after.coarse_faces),
              static_cast<unsigned long long>(after.boundary_faces));

  // opt.k = 0 means k = D for balance; the ghost layer takes the resolved k.
  const auto ghost = build_ghost_layer(f, balance_condition<2>(opt), comm);
  std::size_t gmin = static_cast<std::size_t>(-1), gmax = 0, gtot = 0;
  for (int r = 0; r < ranks; ++r) {
    const auto n = ghost.per_rank[r].size();
    gmin = std::min(gmin, n);
    gmax = std::max(gmax, n);
    gtot += n;
  }
  std::printf("ghost layer: %zu entries total (%zu..%zu per rank), %llu "
              "bytes exchanged\n",
              gtot, gmin, gmax,
              static_cast<unsigned long long>(ghost.traffic.bytes));

  const auto s = forest_stats(f);
  std::printf("partition: %zu..%zu leaves/rank; levels %d..%d (avg %.2f)\n",
              s.min_per_rank, s.max_per_rank, s.min_level, s.max_level_seen,
              s.avg_level);
  std::printf("checksum: %016llx\n",
              static_cast<unsigned long long>(forest_checksum(f)));

  return after.bad_faces == 0 ? 0 : 1;
}
