// Flux-form FVM advection with the Koren limiter (paper Sec. II, IV-A-2).
//
// Every transported quantity phi is reconstructed at cell faces with the
// 4-point upwind-limited stencil and fluxed with the generalized-coordinate
// mass fluxes of mass_flux.hpp:
//
//   d(rho*phi)/dt = -(1/J) * [ d(FU * phi_f)/dx + d(FV * phi_f)/dy
//                              + d(FZ * phi_f)/dzeta ] .
//
// Scalars live at centers; momentum components are advected on their own
// staggered control volumes with mass fluxes averaged to the staggered
// faces (a standard C-grid construction that conserves momentum given
// discrete mass continuity). Vertical stencils are clamped at the rigid
// bottom/top where the contravariant flux vanishes.
//
// Loop structure (the CPU analogue of the paper's xz tile marched along
// y, Sec. IV-A-2 and Fig. 3): one sweep, detail::advect_cv, runs all four
// kernels, and each kernel only names its control volume (CV): the
// specific value it advects, the mass flux through its x, y and z faces,
// its vertical extent, its depth and its Jacobian. The sweep caches the
// specific value phi = (rho phi)/rho in a rolling 5-row window of xz
// planes (one division per value instead of one per stencil read behind
// every flux), and evaluates each face flux exactly once into i-inner
// unit-stride row buffers that are then differenced. Plane fills, flux
// rows and divergence rows run along x on SIMD lanes
// (for_each_lane_chunk, field/simd.hpp), neighbouring columns in lockstep
// as the paper's threads are, with the branch-free lane limiter of
// limiter.hpp. Every lane runs the one-cell operation sequence, so any
// row partition, lane width or thread count is bitwise identical to
// evaluating the stencils in place one cell at a time.
#pragma once

#include <algorithm>
#include <array>
#include <vector>

#include "src/core/limiter.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/core/mass_flux.hpp"
#include "src/core/state.hpp"
#include "src/core/tendencies.hpp"
#include "src/field/simd.hpp"
#include "src/grid/grid.hpp"

namespace asuca {

namespace detail {
/// Clamp a cell index into [0, n) for one-sided vertical stencils.
inline Index clampk(Index k, Index n) {
    return k < 0 ? 0 : (k >= n ? n - 1 : k);
}

/// Rolling window of per-row xz planes (specific-value caches): slot for
/// row j is j mod 5, so the rows [j-2, j+2] a row's stencils read always
/// occupy distinct slots. Plane memory is k-major with the i index
/// innermost and unit-stride, covering i in [-2, nx+1].
template <class T>
struct PlaneRing {
    Index pw = 0;  ///< plane row width: nx + 4
    Index nk = 0;  ///< k-slices per plane
    std::array<std::vector<T>, 5> slots;

    PlaneRing(Index nx, Index nk_) : pw(nx + 4), nk(nk_) {
        for (auto& s : slots)
            s.assign(static_cast<std::size_t>(nk * pw), T(0));
    }
    /// Pointer to the (k-slice, i=0) entry of row j's plane; index with
    /// p[i] for i in [-2, nx+1].
    T* at(Index j, Index k) {
        return slots[static_cast<std::size_t>(((j % 5) + 5) % 5)].data() +
               k * pw + 2;
    }
    /// Fill row j's plane: entry (k, i) = phi(io, i, j, k) for every
    /// k-slice and i in [-2, nx+1], in lane chunks.
    template <class Phi>
    void fill(Layout layout, Index j, Phi phi) {
        for (Index k = 0; k < nk; ++k) {
            T* row = at(j, k);
            for_each_lane_chunk<T>(layout, -2, pw - 2, [&](auto io, Index i) {
                io.store(row + i, phi(io, i, j, k));
            });
        }
    }
};

/// One row of limited face fluxes, out[i] = f * phi_f for i in [i0, i1):
/// f = flux_at(io, i) is the face mass flux and phi_f the Koren face
/// value of the stencil m2[i], m1[i] | face | p0[i], p1[i].
template <class T, class FluxAt>
void limited_flux_row(Layout layout, Index i0, Index i1, FluxAt&& flux_at,
                      const T* m2, const T* m1, const T* p0, const T* p1,
                      T* out) {
    for_each_lane_chunk<T>(layout, i0, i1, [&](auto io, Index i) {
        const auto f = flux_at(io, i);
        io.store(out + i, f * limited_face_value_lanes(f, io(m2 + i),
                                                       io(m1 + i), io(p0 + i),
                                                       io(p1 + i)));
    });
}

/// The advection sweep of one family of control volumes: for every row
/// j, level k in [k0, nz) and i in [0, nx),
///
///   tend(i, j, k) -= [ (X(i+1) - X(i)) rdx + (Y(j+1) - Y(j)) rdy
///                      + (Z(k+1) - Z(k)) rdz(k) ] / jac(i, j, k)
///
/// where X(i), Y(j) and Z(k) are the limited fluxes through the CV faces
/// between plane entries i-1|i, j-1|j and k-1|k. The CV supplies
///   phi(io, i, j, k)  its specific value at plane entry (i, j, k), for
///                     the k-slices [0, planes);
///   fx, fy, fz(io, i, j, k)  the mass flux through those faces.
/// Each face flux is the mass flux times the Koren face value of the
/// 4-point stencil across the face; vertical stencils are clamped into
/// [0, planes) and Z is zero at slices 0 and `planes`. The lane bodies
/// reach the policies, row pointers and indices by reference and hold
/// only per-row T scalars by value: capturing more by value made the
/// kernels up to 23 % slower in interleaved timings (EXPERIMENTS.md).
template <class T, class Rdz, class Phi, class Fx, class Fy, class Fz>
void advect_cv(const Grid<T>& grid, Index planes, Index k0, Rdz rdz,
               const Array3<T>& jac, Phi phi, Fx fx, Fy fy, Fz fz,
               Array3<T>& tend) {
    const Index nx = grid.nx(), ny = grid.ny(), nz = grid.nz();
    const T rdx = T(1.0 / grid.dx());
    const T rdy = T(1.0 / grid.dy());
    const Layout layout = grid.layout();

    parallel_for(ny, [&](Index jb, Index je) {
        PlaneRing<T> ring(nx, planes);
        // Y of one face row (k-major, i-inner); faces j and j+1 of the
        // current row roll through two buffers.
        std::vector<T> yf_lo(static_cast<std::size_t>(nz * nx)),
            yf_hi(static_cast<std::size_t>(nz * nx));
        auto fill_yface = [&](Index jf, std::vector<T>& out) {
            for (Index k = k0; k < nz; ++k) {
                limited_flux_row(
                    layout, 0, nx,
                    [fy, jf, k](auto io, Index i) { return fy(io, i, jf, k); },
                    ring.at(jf - 2, k), ring.at(jf - 1, k), ring.at(jf, k),
                    ring.at(jf + 1, k), out.data() + k * nx);
            }
        };
        // Z at slice kf of row j.
        auto fill_zface = [&](Index j, Index kf, std::vector<T>& out) {
            if (kf == 0 || kf == planes) {
                std::fill(out.begin(), out.end(), T(0));
                return;
            }
            limited_flux_row(
                layout, 0, nx,
                [fz, j, kf](auto io, Index i) { return fz(io, i, j, kf); },
                ring.at(j, clampk(kf - 2, planes)), ring.at(j, kf - 1),
                ring.at(j, kf), ring.at(j, clampk(kf + 1, planes)),
                out.data());
        };

        for (Index jj = jb - 2; jj <= jb + 1; ++jj) ring.fill(layout, jj, phi);
        fill_yface(jb, yf_lo);
        std::vector<T> xf(static_cast<std::size_t>(nx + 1)),
            zf_lo(static_cast<std::size_t>(nx)),
            zf_hi(static_cast<std::size_t>(nx));
        for (Index j = jb; j < je; ++j) {
            ring.fill(layout, j + 2, phi);
            fill_yface(j + 1, yf_hi);
            fill_zface(j, k0, zf_lo);
            for (Index k = k0; k < nz; ++k) {
                const T* pk = ring.at(j, k);
                limited_flux_row(
                    layout, 0, nx + 1,
                    [fx, j, k](auto io, Index i) { return fx(io, i, j, k); },
                    pk - 2, pk - 1, pk, pk + 1, xf.data());
                fill_zface(j, k + 1, zf_hi);
                const T* xr = xf.data();
                const T* yl = yf_lo.data() + k * nx;
                const T* yh = yf_hi.data() + k * nx;
                const T* zl = zf_lo.data();
                const T* zh = zf_hi.data();
                const T rdzk = rdz(k);
                for_each_lane_chunk<T>(layout, 0, nx, [&, rdx, rdy, rdzk](auto io,
                                                                      Index i) {
                    const auto div = (io(xr + i + 1) - io(xr + i)) * rdx +
                                     (io(yh + i) - io(yl + i)) * rdy +
                                     (io(zh + i) - io(zl + i)) * rdzk;
                    io.store(tend, i, j, k,
                             io(tend, i, j, k) - div / io(jac, i, j, k));
                });
                zf_lo.swap(zf_hi);
            }
            yf_lo.swap(yf_hi);
        }
    });
}
}  // namespace detail

/// Mass continuity: d rho/dt = -(1/J) div(F). Exact advection of phi == 1.
template <class T>
void continuity_tendency(const Grid<T>& grid, const MassFluxes<T>& flux,
                         Array3<T>& rho_tend) {
    const Index nx = grid.nx(), ny = grid.ny(), nz = grid.nz();
    const T rdx = T(1.0 / grid.dx());
    const T rdy = T(1.0 / grid.dy());
    const auto& jc = grid.jacobian();
    const Layout layout = grid.layout();
    parallel_for(ny, [&](Index jb, Index je) {
    for (Index j = jb; j < je; ++j) {
        for (Index k = 0; k < nz; ++k) {
            const T rdz = T(1.0 / grid.dzeta(k));
            for_each_lane_chunk<T>(layout, 0, nx, [&, rdx, rdy, rdz](auto io,
                                                                     Index i) {
                const auto div =
                    (io(flux.fu, i + 1, j, k) - io(flux.fu, i, j, k)) * rdx +
                    (io(flux.fv, i, j + 1, k) - io(flux.fv, i, j, k)) * rdy +
                    (io(flux.fz, i, j, k + 1) - io(flux.fz, i, j, k)) * rdz;
                io.store(rho_tend, i, j, k,
                         io(rho_tend, i, j, k) - div / io(jc, i, j, k));
            });
        }
    }
    });
}

/// Limited advection of a cell-centered scalar carried as rho*phi.
/// `rho` supplies the specific value phi = (rho*phi)/rho at cells. The
/// CV is the cell and its faces are the mass-flux faces.
template <class T>
void advect_scalar(const Grid<T>& grid, const MassFluxes<T>& flux,
                   const Array3<T>& rho, const Array3<T>& rhophi,
                   Array3<T>& tend) {
    detail::advect_cv(
        grid, grid.nz(), 0,
        [&grid](Index k) { return T(1.0 / grid.dzeta(k)); }, grid.jacobian(),
        [&](auto io, Index i, Index j, Index k) {
            return io(rhophi, i, j, k) / io(rho, i, j, k);
        },
        [&](auto io, Index i, Index j, Index k) {
            return io(flux.fu, i, j, k);
        },
        [&](auto io, Index i, Index j, Index k) {
            return io(flux.fv, i, j, k);
        },
        [&](auto io, Index i, Index j, Index k) {
            return io(flux.fz, i, j, k);
        },
        tend);
}

/// Advection of rho*u on its x-face control volumes: u at x-face i is
/// rho*u / (rho averaged to the face), and the CV faces (cell centers,
/// xy corners, xz corners) take the mass fluxes averaged along x.
template <class T>
void advect_momentum_x(const Grid<T>& grid, const MassFluxes<T>& flux,
                       const State<T>& state, Array3<T>& tend) {
    detail::advect_cv(
        grid, grid.nz(), 0,
        [&grid](Index k) { return T(1.0 / grid.dzeta(k)); },
        grid.jacobian_xface(),
        [&](auto io, Index i, Index j, Index k) {
            const auto rf = T(0.5) * (io(state.rho, i - 1, j, k) +
                                      io(state.rho, i, j, k));
            return io(state.rhou, i, j, k) / rf;
        },
        [&](auto io, Index i, Index j, Index k) {
            return T(0.5) * (io(flux.fu, i - 1, j, k) + io(flux.fu, i, j, k));
        },
        [&](auto io, Index i, Index j, Index k) {
            return T(0.5) * (io(flux.fv, i - 1, j, k) + io(flux.fv, i, j, k));
        },
        [&](auto io, Index i, Index j, Index k) {
            return T(0.5) * (io(flux.fz, i - 1, j, k) + io(flux.fz, i, j, k));
        },
        tend);
}

/// Advection of rho*v on its y-face control volumes: plane row j holds
/// the v values of y-face row j, and the CV faces (xy corners, cell
/// centers, yz corners) take the mass fluxes averaged along y.
template <class T>
void advect_momentum_y(const Grid<T>& grid, const MassFluxes<T>& flux,
                       const State<T>& state, Array3<T>& tend) {
    detail::advect_cv(
        grid, grid.nz(), 0,
        [&grid](Index k) { return T(1.0 / grid.dzeta(k)); },
        grid.jacobian_yface(),
        [&](auto io, Index i, Index j, Index k) {
            const auto rf = T(0.5) * (io(state.rho, i, j - 1, k) +
                                      io(state.rho, i, j, k));
            return io(state.rhov, i, j, k) / rf;
        },
        [&](auto io, Index i, Index j, Index k) {
            return T(0.5) * (io(flux.fu, i, j - 1, k) + io(flux.fu, i, j, k));
        },
        [&](auto io, Index i, Index j, Index k) {
            return T(0.5) * (io(flux.fv, i, j - 1, k) + io(flux.fv, i, j, k));
        },
        [&](auto io, Index i, Index j, Index k) {
            return T(0.5) * (io(flux.fz, i, j - 1, k) + io(flux.fz, i, j, k));
        },
        tend);
}

/// Advection of rho*w on its z-face (Lorenz) control volumes. Planes hold
/// all nz+1 face slices; tendencies are produced for interior faces
/// k = 1 .. nz-1, whose CV spans layers k-1 and k in zeta. The boundary
/// faces are constrained by the kinematic conditions, not advected. The
/// CV faces (xz corners, yz corners, cell centers) take the mass fluxes
/// averaged along z.
template <class T>
void advect_momentum_z(const Grid<T>& grid, const MassFluxes<T>& flux,
                       const State<T>& state, Array3<T>& tend) {
    const Index nz = grid.nz();
    detail::advect_cv(
        grid, nz + 1, 1,
        [&grid](Index k) {
            return T(2.0 / (grid.dzeta(k - 1) + grid.dzeta(k)));
        },
        grid.jacobian_zface(),
        [&state, nz](auto io, Index i, Index j, Index k) {
            const auto rf =
                T(0.5) * (io(state.rho, i, j, detail::clampk(k - 1, nz)) +
                          io(state.rho, i, j, detail::clampk(k, nz)));
            return io(state.rhow, i, j, k) / rf;
        },
        [&](auto io, Index i, Index j, Index k) {
            return T(0.5) * (io(flux.fu, i, j, k - 1) + io(flux.fu, i, j, k));
        },
        [&](auto io, Index i, Index j, Index k) {
            return T(0.5) * (io(flux.fv, i, j, k - 1) + io(flux.fv, i, j, k));
        },
        [&](auto io, Index i, Index j, Index k) {
            return T(0.5) * (io(flux.fz, i, j, k - 1) + io(flux.fz, i, j, k));
        },
        tend);
}

}  // namespace asuca
