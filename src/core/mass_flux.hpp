// Face mass fluxes in generalized coordinates.
//
// The flux-form equations (paper Eqs. 1-4) transport every quantity with
// the contravariant mass fluxes through the Arakawa-C faces:
//
//   FU = J_xf * rho*u                      (x-faces)
//   FV = J_yf * rho*v                      (y-faces)
//   FZ = J_zf * rho*u3                     (z-faces)
//      = rho*w - (rho*u)|zf * zx - (rho*v)|zf * zy
//
// where u3 = (w - u*zx - v*zy)/J is the contravariant vertical velocity
// and the J_zf factor cancels against the 1/J in rho*u3. FZ vanishes at
// the bottom face (kinematic terrain condition) and the top face (rigid
// lid); both are enforced here so every transport kernel inherits them.
#pragma once

#include "src/core/state.hpp"
#include "src/field/array3.hpp"
#include "src/field/simd.hpp"
#include "src/grid/grid.hpp"
#include "src/parallel/thread_pool.hpp"

namespace asuca {

template <class T>
struct MassFluxes {
    explicit MassFluxes(const Grid<T>& grid)
        : fu({grid.nx() + 1, grid.ny(), grid.nz()}, grid.halo(),
             grid.layout()),
          fv({grid.nx(), grid.ny() + 1, grid.nz()}, grid.halo(),
             grid.layout()),
          fz({grid.nx(), grid.ny(), grid.nz() + 1}, grid.halo(),
             grid.layout()) {}

    Array3<T> fu, fv, fz;
};

/// The coordinate-transform family (the paper's Fig. 5 kernel (1)
/// signature: two reads, one write, one multiply per element): horizontal
/// contravariant mass fluxes J * rho*u, J * rho*v. Fills one halo ring.
template <class T>
void compute_horizontal_mass_fluxes(const Grid<T>& grid,
                                    const State<T>& state,
                                    MassFluxes<T>& out) {
    const Index nx = grid.nx(), ny = grid.ny(), nz = grid.nz();
    const Index e = grid.halo() - 1;  // extension ring
    const auto& jxf = grid.jacobian_xface();
    const auto& jyf = grid.jacobian_yface();
    const Layout layout = grid.layout();

    parallel_for_range(-e, ny + e, [&](Index jb, Index je) {
        for (Index j = jb; j < je; ++j) {
            for (Index k = 0; k < nz; ++k) {
                for_each_lane_chunk<T>(layout, -e, nx + 1 + e, [&](auto io,
                                                                   Index i) {
                    io.store(out.fu, i, j, k,
                             io(jxf, i, j, k) * io(state.rhou, i, j, k));
                });
            }
        }
    });
    parallel_for_range(-e, ny + 1 + e, [&](Index jb, Index je) {
        for (Index j = jb; j < je; ++j) {
            for (Index k = 0; k < nz; ++k) {
                for_each_lane_chunk<T>(layout, -e, nx + e, [&](auto io,
                                                               Index i) {
                    io.store(out.fv, i, j, k,
                             io(jyf, i, j, k) * io(state.rhov, i, j, k));
                });
            }
        }
    });
}

/// Contravariant vertical mass flux through z-faces (terrain metric terms).
template <class T>
void compute_contravariant_flux(const Grid<T>& grid, const State<T>& state,
                                MassFluxes<T>& out) {
    const Index nx = grid.nx(), ny = grid.ny(), nz = grid.nz();
    const Index e = grid.halo() - 1;
    const auto& zx = grid.slope_x_zface();
    const auto& zy = grid.slope_y_zface();
    const Layout layout = grid.layout();

    parallel_for_range(-e, ny + e, [&](Index jb, Index je) {
        for (Index j = jb; j < je; ++j) {
            // No flux through the bottom and top faces.
            for (const Index k : {Index(0), nz})
                for (Index i = -e; i < nx + e; ++i) out.fz(i, j, k) = T(0);
            for (Index k = 1; k < nz; ++k) {
                for_each_lane_chunk<T>(layout, -e, nx + e, [&](auto io,
                                                               Index i) {
                    // Momentum interpolated to the z-face (average over
                    // the 2 x-faces x 2 levels around it).
                    const auto ru =
                        T(0.25) * (io(state.rhou, i, j, k - 1) +
                                   io(state.rhou, i + 1, j, k - 1) +
                                   io(state.rhou, i, j, k) +
                                   io(state.rhou, i + 1, j, k));
                    const auto rv =
                        T(0.25) * (io(state.rhov, i, j, k - 1) +
                                   io(state.rhov, i, j + 1, k - 1) +
                                   io(state.rhov, i, j, k) +
                                   io(state.rhov, i, j + 1, k));
                    io.store(out.fz, i, j, k,
                             io(state.rhow, i, j, k) - ru * io(zx, i, j, k) -
                                 rv * io(zy, i, j, k));
                });
            }
        }
    });
}

/// Convenience: both flux families.
template <class T>
void compute_mass_fluxes(const Grid<T>& grid, const State<T>& state,
                         MassFluxes<T>& out) {
    compute_horizontal_mass_fluxes(grid, state, out);
    compute_contravariant_flux(grid, state, out);
}

}  // namespace asuca
