// Horizontal boundary conditions.
//
// The paper's benchmarks use doubly-periodic lateral boundaries ("periodic
// boundary condition are adopted in this mountain wave test"); the
// real-data run (Fig. 12) uses externally supplied boundary values with a
// relaxation (Davies) zone, which lateral_relaxation() provides.
// Vertical boundaries (rigid bottom with kinematic terrain condition,
// rigid lid) are enforced inside the dynamics kernels.
#pragma once

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/field/array3.hpp"
#include "src/parallel/thread_pool.hpp"

namespace asuca {

enum class LateralBc {
    Periodic,   ///< doubly periodic (idealized tests, paper benchmarks)
    ZeroGradient,  ///< halo copies the nearest interior value
};

namespace detail {

/// One axis of a halo fill, built once per call: padded index i in
/// [-h, n + h) takes its value from index (*this)(i), i wrapped into
/// [0, period) (Periodic) or clamped into [0, n) (ZeroGradient). Every
/// image lies in [0, keep), where indices map to themselves, so no source
/// is written.
struct HaloAxis {
    HaloAxis(LateralBc bc, Index n, Index period, Index halo)
        : keep(bc == LateralBc::Periodic ? period : n), h(halo) {
        ASUCA_REQUIRE(period >= 1 && period <= n,
                      "lateral BC period " << period << " outside [1, " << n
                                           << "]");
        for (Index i = -h; i < n + h; ++i)
            src.push_back(bc == LateralBc::Periodic
                              ? (i % period + period) % period
                              : std::clamp(i, Index(0), n - 1));
    }
    Index operator()(Index i) const {
        return src[static_cast<std::size_t>(i + h)];
    }

    Index keep, h;
    std::vector<Index> src;
};

}  // namespace detail

/// Fill the lateral halos of every array in `group` in one parallel region
/// over j-slabs. `x_period` / `y_period` are the numbers of unique points:
/// pass nx / ny for centered and staggered arrays alike (a staggered
/// array's duplicate face nx or ny is the periodic image of face 0).
///
/// Each cell outside [0, keep_x) x [0, keep_y), at every k including the z
/// halos, copies the cell its axis tables map it to, which lies inside.
/// No cell is both read and written, so x halos, y halos and corners fill
/// in one pass in any order, race-free, and the result equals an
/// x-then-y two-pass fill bit for bit.
template <class T>
void apply_lateral_bc(std::span<Array3<T>* const> group, LateralBc bc,
                      Index x_period, Index y_period) {
    std::vector<std::pair<detail::HaloAxis, detail::HaloAxis>> axes;
    Index j0 = 0, j1 = 0;
    for (const Array3<T>* a : group) {
        axes.emplace_back(detail::HaloAxis(bc, a->nx(), x_period, a->halo()),
                          detail::HaloAxis(bc, a->ny(), y_period, a->halo()));
        j0 = std::min(j0, -a->halo());
        j1 = std::max(j1, a->ny() + a->halo());
    }
    parallel_for_range(j0, j1, [&](Index jb, Index je) {
        for (std::size_t g = 0; g < group.size(); ++g) {
            Array3<T>& a = *group[g];
            const auto& [sx, sy] = axes[g];
            const Index h = a.halo();
            for (Index j = std::max(jb, -h); j < std::min(je, a.ny() + h);
                 ++j) {
                // A row that is its own source keeps its x interior; any
                // other row is halo (or duplicate face) end to end.
                const Index sj = sy(j);
                const Index lo = sj == j ? sx.keep : 0;
                for (Index k = -h; k < a.nz() + h; ++k) {
                    for (Index i = -h; i < 0; ++i)
                        a(i, j, k) = a(sx(i), sj, k);
                    for (Index i = lo; i < a.nx() + h; ++i)
                        a(i, j, k) = a(sx(i), sj, k);
                }
            }
        }
    });
}

/// Apply the lateral BC to one array (see the group form above).
template <class T>
void apply_lateral_bc(Array3<T>& a, LateralBc bc, Index x_period,
                      Index y_period) {
    Array3<T>* group[] = {&a};
    apply_lateral_bc<T>(group, bc, x_period, y_period);
}

}  // namespace asuca
