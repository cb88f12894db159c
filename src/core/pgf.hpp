// Pressure gradient force and buoyancy in generalized coordinates.
//
// The flux-form momentum equation (paper Eq. 1) contains
// d/dx^n ( (1/J) dx^n/dx_i p ). For the horizontal component i=x this is
// the constant-z derivative expressed on the terrain-following grid:
//
//   -dp/dx|_z = -[ dp/dx|_zeta - (zx/J) dp/dzeta ]
//
// (the paper's "horizontal pressure gradient force" kernel, Fig. 5 kernel
// (2)); the metric cross term vanishes over flat terrain. The vertical
// component is -(1/J) dp/dzeta - rho*g, split here into a z-face gradient
// helper and a buoyancy helper so both the slow RHS (full p' = p - p_ref)
// and the acoustic step (deviation p'') reuse them.
#pragma once

#include <vector>

#include "src/common/constants.hpp"
#include "src/core/state.hpp"
#include "src/field/array3.hpp"
#include "src/field/simd.hpp"
#include "src/grid/grid.hpp"
#include "src/parallel/thread_pool.hpp"

namespace asuca {

/// Accumulate -dp/dx|_z onto the rho*u tendency at x-faces of rows
/// [j0, j1). Region-restricted entry point: the overlapped multi-domain
/// runner launches it separately on boundary strips and the interior so
/// the strip results can be exchanged while the interior computes (paper
/// Sec. V-A method 2). Row regions touch disjoint cells with identical
/// per-cell arithmetic, so any partition is bitwise identical to one
/// full-range call. Only depth-1 x halos of `p` are read — no y halos —
/// which is what lets the runner launch all rows before the y-direction
/// halo exchange completes.
template <class T>
void pgf_x_rows(const Grid<T>& grid, const Array3<T>& p, Array3<T>& tend_rhou,
                Index j0, Index j1) {
    const Index nx = grid.nx(), nz = grid.nz();
    const T rdx = T(1.0 / grid.dx());
    const auto& jxf = grid.jacobian_xface();
    const auto& hs = grid.hsurf();
    const Layout layout = grid.layout();

    parallel_for_range(j0, j1, [&](Index jb, Index je) {
        // Surface slope at the x-faces of one row, hoisted out of the k
        // loop (the slope is level-independent before the decay factor).
        std::vector<T> sl(static_cast<std::size_t>(nx));
        for (Index j = jb; j < je; ++j) {
            for (Index i = 0; i < nx; ++i)
                sl[i] = (hs(i, j) - hs(i - 1, j)) * rdx;
            for (Index k = 0; k < nz; ++k) {
                // zeta derivative spacing (centered; one-sided at the ends).
                const Index km = (k > 0) ? k - 1 : k;
                const Index kp = (k < nz - 1) ? k + 1 : k;
                const T rdzeta =
                    T(1.0 / (grid.zeta_center(kp) - grid.zeta_center(km)));
                const T decay = T(grid.decay(grid.zeta_center(k)));
                for_each_lane_chunk<T>(layout, 0, nx, [&](auto io, Index i) {
                    const auto dpdx =
                        (io(p, i, j, k) - io(p, i - 1, j, k)) * rdx;
                    // Terrain slope at the x-face, at this level.
                    const auto zx = io(sl.data() + i) * decay;
                    const auto dpdzeta =
                        T(0.5) *
                        ((io(p, i - 1, j, kp) - io(p, i - 1, j, km)) +
                         (io(p, i, j, kp) - io(p, i, j, km))) *
                        rdzeta;
                    io.store(tend_rhou, i, j, k,
                             io(tend_rhou, i, j, k) -
                                 (dpdx - zx / io(jxf, i, j, k) * dpdzeta));
                });
            }
        }
    });
}

/// Accumulate -dp/dx|_z onto the rho*u tendency at interior x-faces.
/// `p` must have valid halos to depth 1 in x and full column in z.
template <class T>
void pgf_x(const Grid<T>& grid, const Array3<T>& p, Array3<T>& tend_rhou) {
    pgf_x_rows(grid, p, tend_rhou, Index(0), grid.ny());
}

/// Accumulate -dp/dy|_z onto the rho*v tendency at y-faces [j0, j1).
/// Region-restricted (see pgf_x_rows). Face row j reads pressure rows
/// j-1 and j, so faces [1, ny) need no y halos at all; only face row 0
/// waits for the south halo.
template <class T>
void pgf_y_rows(const Grid<T>& grid, const Array3<T>& p, Array3<T>& tend_rhov,
                Index j0, Index j1) {
    const Index nx = grid.nx(), nz = grid.nz();
    const T rdy = T(1.0 / grid.dy());
    const auto& jyf = grid.jacobian_yface();
    const auto& hs = grid.hsurf();
    const Layout layout = grid.layout();

    parallel_for_range(j0, j1, [&](Index jb, Index je) {
        std::vector<T> sl(static_cast<std::size_t>(nx));
        for (Index j = jb; j < je; ++j) {
            for (Index i = 0; i < nx; ++i)
                sl[i] = (hs(i, j) - hs(i, j - 1)) * rdy;
            for (Index k = 0; k < nz; ++k) {
                const Index km = (k > 0) ? k - 1 : k;
                const Index kp = (k < nz - 1) ? k + 1 : k;
                const T rdzeta =
                    T(1.0 / (grid.zeta_center(kp) - grid.zeta_center(km)));
                const T decay = T(grid.decay(grid.zeta_center(k)));
                for_each_lane_chunk<T>(layout, 0, nx, [&](auto io, Index i) {
                    const auto dpdy =
                        (io(p, i, j, k) - io(p, i, j - 1, k)) * rdy;
                    const auto zy = io(sl.data() + i) * decay;
                    const auto dpdzeta =
                        T(0.5) *
                        ((io(p, i, j - 1, kp) - io(p, i, j - 1, km)) +
                         (io(p, i, j, kp) - io(p, i, j, km))) *
                        rdzeta;
                    io.store(tend_rhov, i, j, k,
                             io(tend_rhov, i, j, k) -
                                 (dpdy - zy / io(jyf, i, j, k) * dpdzeta));
                });
            }
        }
    });
}

/// Accumulate -dp/dy|_z onto the rho*v tendency at interior y-faces.
template <class T>
void pgf_y(const Grid<T>& grid, const Array3<T>& p, Array3<T>& tend_rhov) {
    pgf_y_rows(grid, p, tend_rhov, Index(0), grid.ny());
}

/// Accumulate the vertical pressure gradient -(1/J) dp/dzeta and buoyancy
/// -rho_pert*g onto the rho*w tendency at interior z-faces (k=1..nz-1).
/// `p` and `rho_pert` are deviations from a balanced reference, so this
/// vanishes identically when the state equals the reference.
template <class T>
void pgf_z_buoyancy(const Grid<T>& grid, const Array3<T>& p,
                    const Array3<T>& rho_pert, Array3<T>& tend_rhow) {
    const Index nx = grid.nx(), ny = grid.ny(), nz = grid.nz();
    const auto& jzf = grid.jacobian_zface();
    const T g = T(constants::g);

    parallel_for(ny, [&](Index jb, Index je) {
        for (Index j = jb; j < je; ++j) {
            for (Index k = 1; k < nz; ++k) {
                const T rdzeta =
                    T(1.0 / (grid.zeta_center(k) - grid.zeta_center(k - 1)));
                for (Index i = 0; i < nx; ++i) {
                    const T grad = (p(i, j, k) - p(i, j, k - 1)) * rdzeta /
                                   jzf(i, j, k);
                    const T buoy = g * T(0.5) * (rho_pert(i, j, k - 1) +
                                                 rho_pert(i, j, k));
                    tend_rhow(i, j, k) -= grad + buoy;
                }
            }
        }
    });
}

}  // namespace asuca
