#include "workload/workloads.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace octbal {

template <int D>
void fractal_refine(Forest<D>& f, int lmax) {
  f.refine(
      [lmax](const TreeOct<D>& to) {
        if (to.oct.level >= lmax || to.oct.level == 0) return false;
        const int id = child_id(to.oct);
        if constexpr (D == 3) {
          return id == 0 || id == 3 || id == 5 || id == 6;
        } else if constexpr (D == 2) {
          return id == 0 || id == 3;
        } else {
          return id == 0;
        }
      },
      true);
}

namespace {

/// The synthetic coastline r(θ) with deterministic Fourier coefficients.
class Coastline {
 public:
  explicit Coastline(const IceSheetParams& p) : p_(p) {
    Rng rng(p.seed);
    for (int j = 0; j < p.modes; ++j) {
      amp_.push_back((rng.uniform() * 2 - 1) * p.amp / p.modes);
      phase_.push_back(rng.uniform() * 2 * M_PI);
    }
  }

  double radius_at(double theta) const {
    double r = 1.0;
    for (int j = 0; j < p_.modes; ++j) {
      r += amp_[j] * std::cos((j + 2) * theta + phase_[j]);
    }
    return p_.radius * r;
  }

  /// Signed distance proxy: positive outside the coastline.
  double side_of(double x, double y) const {
    const double dx = x - 0.5, dy = y - 0.5;
    const double rho = std::sqrt(dx * dx + dy * dy);
    const double theta = std::atan2(dy, dx);
    return rho - radius_at(theta);
  }

 private:
  IceSheetParams p_;
  std::vector<double> amp_;
  std::vector<double> phase_;
};

/// Normalized x-y footprint of an octant: the whole brick maps to the
/// unit square (z to [0,1]).
template <int D>
struct Footprint {
  double x0 = 0.0, y0 = 0.5, z0 = 0.0;
  double hx = 0.0, hy = 0.0;
};

template <int D>
Footprint<D> footprint(const Connectivity<D>& conn, const TreeOct<D>& to) {
  const auto dims = conn.dims();
  const double fx = static_cast<double>(dims[0]) * root_len<D>;
  const double fy = D >= 2 ? static_cast<double>(dims[1]) * root_len<D> : 1.0;
  const double fz = D >= 3 ? static_cast<double>(dims[2]) * root_len<D> : 1.0;
  const auto tc = conn.tree_coords(to.tree);
  Footprint<D> fp;
  fp.x0 = (tc[0] * static_cast<double>(root_len<D>) + to.oct.x[0]) / fx;
  fp.hx = side_len(to.oct) / fx;
  if constexpr (D >= 2) {
    fp.y0 = (tc[1] * static_cast<double>(root_len<D>) + to.oct.x[1]) / fy;
    fp.hy = side_len(to.oct) / fy;
  }
  if constexpr (D >= 3) {
    fp.z0 = (tc[2] * static_cast<double>(root_len<D>) + to.oct.x[2]) / fz;
  }
  (void)fz;
  return fp;
}

/// True when the corners of the x-y footprint of the octant do not agree
/// on which side of the (radially shifted) coastline they are — the cell
/// straddles the grounding line.
template <int D>
bool straddles(const Coastline& coast, const Footprint<D>& fp, double shift) {
  int pos = 0, neg = 0;
  for (int c = 0; c < 4; ++c) {
    const double cx = fp.x0 + ((c & 1) ? fp.hx : 0.0);
    const double cy = fp.y0 + ((c & 2) ? fp.hy : 0.0);
    (coast.side_of(cx, cy) - shift >= 0 ? pos : neg)++;
  }
  return pos > 0 && neg > 0;
}

}  // namespace

template <int D>
void icesheet_refine(Forest<D>& f, int lmax, const IceSheetParams& p) {
  const Coastline coast(p);
  f.refine(
      [&](const TreeOct<D>& to) {
        if (to.oct.level >= lmax) return false;
        const auto fp = footprint(f.connectivity(), to);
        if (D >= 3 && fp.z0 > p.zfrac) return false;  // above grounded band
        return straddles(coast, fp, 0.0);
      },
      true);
}

template <int D>
typename Forest<D>::RefinePred front_refine_pred(const Connectivity<D>& conn,
                                                 int lmax,
                                                 const ChurnFrontParams& p,
                                                 int step) {
  return [conn, lmax, coast = Coastline(p.sheet), zfrac = p.sheet.zfrac,
          shift = p.drift * step](const TreeOct<D>& to) {
    if (to.oct.level >= lmax) return false;
    const auto fp = footprint(conn, to);
    if (D >= 3 && fp.z0 > zfrac) return false;
    return straddles(coast, fp, shift);
  };
}

template <int D>
typename Forest<D>::RefinePred front_coarsen_pred(const Connectivity<D>& conn,
                                                  const ChurnFrontParams& p,
                                                  int step) {
  return [conn, coast = Coastline(p.sheet), wake = p.wake,
          shift = p.drift * step](const TreeOct<D>& to) {
    if (to.oct.level == 0) return false;
    const auto fp = footprint(conn, to);
    // Coarsen cells whose whole footprint is well clear of the front:
    // every corner at least wake away, on the same side.
    int far_pos = 0, far_neg = 0;
    for (int c = 0; c < 4; ++c) {
      const double cx = fp.x0 + ((c & 1) ? fp.hx : 0.0);
      const double cy = fp.y0 + ((c & 2) ? fp.hy : 0.0);
      const double s = coast.side_of(cx, cy) - shift;
      if (s >= wake) ++far_pos;
      if (s <= -wake) ++far_neg;
    }
    return far_pos == 4 || far_neg == 4;
  };
}

template <int D>
void front_refine(Forest<D>& f, int lmax, const ChurnFrontParams& p,
                  int step) {
  f.refine(front_refine_pred(f.connectivity(), lmax, p, step), true);
}

template <int D>
void front_coarsen(Forest<D>& f, const ChurnFrontParams& p, int step,
                   int balance_k) {
  f.coarsen(front_coarsen_pred(f.connectivity(), p, step), balance_k);
}

template <int D>
void random_refine(Forest<D>& f, Rng& rng, int lmax, double density) {
  if (f.num_ranks() != 1) {
    throw std::invalid_argument(
        "random_refine: the forest has " + std::to_string(f.num_ranks()) +
        " ranks; its draws need one (refine on one rank, then split)");
  }
  f.refine(
      [&](const TreeOct<D>& to) {
        return to.oct.level < lmax && rng.chance(density);
      },
      true);
}

template <int D>
Forest<D> random_forest(const Connectivity<D>& conn, int ranks, int level,
                        Rng& rng, int lmax, double density) {
  Forest<D> one(conn, 1, level);
  random_refine(one, rng, lmax, density);
  return Forest<D>(conn, ranks, one.gather());
}

template <int D>
std::map<int, std::uint64_t> level_histogram(const Forest<D>& f) {
  std::map<int, std::uint64_t> h;
  for (int r = 0; r < f.num_ranks(); ++r) {
    for (const auto& to : f.local(r)) ++h[to.oct.level];
  }
  return h;
}

#define OCTBAL_INSTANTIATE(D)                                       \
  template void fractal_refine<D>(Forest<D>&, int);                 \
  template void icesheet_refine<D>(Forest<D>&, int,                 \
                                   const IceSheetParams&);          \
  template void front_refine<D>(Forest<D>&, int,                    \
                                const ChurnFrontParams&, int);      \
  template void front_coarsen<D>(Forest<D>&, const ChurnFrontParams&, \
                                 int, int);                         \
  template Forest<D>::RefinePred front_refine_pred<D>(              \
      const Connectivity<D>&, int, const ChurnFrontParams&, int);   \
  template Forest<D>::RefinePred front_coarsen_pred<D>(             \
      const Connectivity<D>&, const ChurnFrontParams&, int);        \
  template void random_refine<D>(Forest<D>&, Rng&, int, double);    \
  template Forest<D> random_forest<D>(const Connectivity<D>&, int,   \
                                      int, Rng&, int, double);      \
  template std::map<int, std::uint64_t> level_histogram<D>(         \
      const Forest<D>&);
OCTBAL_INSTANTIATE(1)
OCTBAL_INSTANTIATE(2)
OCTBAL_INSTANTIATE(3)
#undef OCTBAL_INSTANTIATE

}  // namespace octbal
