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
// Loop structure (the CPU analogue of the paper's Sec. IV-A layout and
// tiling work): each kernel caches the specific velocity phi =
// (rho phi)/rho in a rolling 5-row window of xz planes (one division per
// value instead of one per stencil read behind every flux), and
// evaluates each face flux exactly once into i-inner unit-stride row
// buffers that are then differenced. Plane fills, flux rows and
// divergence rows run along x on SIMD lanes (for_each_lane_chunk,
// field/simd.hpp), neighbouring columns in lockstep as the paper's
// threads are, with the branch-free lane limiter of limiter.hpp. Every
// lane runs the one-cell operation sequence, so any row partition, lane
// width or thread count is bitwise identical to evaluating the stencils
// in place one cell at a time.
#pragma once

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

/// Rolling window of per-row xz planes (advecting-velocity caches): slot
/// for row j is j mod 5, so the rows [j-2, j+2] a row's stencils read
/// always occupy distinct slots. Plane memory is k-major with the i index
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
    std::vector<T>& plane(Index j) {
        return slots[static_cast<std::size_t>(((j % 5) + 5) % 5)];
    }
    /// Pointer to the (k-slice, i=0) entry of row j's plane; index with
    /// p[i] for i in [-2, nx+1].
    const T* at(Index j, Index k) {
        return plane(j).data() + k * pw + 2;
    }
    /// Fill row jj's plane: entry (k, i) = value_at(io, i, k) for every
    /// k-slice and i in [-2, nx+1], in lane chunks.
    template <class ValueAt>
    void fill(Layout layout, Index jj, ValueAt&& value_at) {
        T* p = plane(jj).data() + 2;
        for (Index k = 0; k < nk; ++k) {
            T* row = p + k * pw;
            for_each_lane_chunk<T>(layout, -2, pw - 2, [&](auto io, Index i) {
                io.store(row + i, value_at(io, i, k));
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

/// tend(i, j, k) -= div / jac(i, j, k) for i in [0, nx), with the flux
/// divergence div = (xf[i+1] - xf[i]) rdx + (yh[i] - yl[i]) rdy
/// + (zh[i] - zl[i]) rdz of one (j, k) row.
template <class T>
void subtract_divergence_row(Layout layout, Index nx, const T* xf,
                             const T* yl, const T* yh, const T* zl,
                             const T* zh, T rdx, T rdy, T rdz,
                             const Array3<T>& jac, Array3<T>& tend, Index j,
                             Index k) {
    for_each_lane_chunk<T>(layout, 0, nx, [&, rdx, rdy, rdz](auto io,
                                                             Index i) {
        const auto div = (io(xf + i + 1) - io(xf + i)) * rdx +
                         (io(yh + i) - io(yl + i)) * rdy +
                         (io(zh + i) - io(zl + i)) * rdz;
        io.store(tend, i, j, k, io(tend, i, j, k) - div / io(jac, i, j, k));
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
/// `rho` supplies the specific value phi = (rho*phi)/rho at cells.
template <class T>
void advect_scalar(const Grid<T>& grid, const MassFluxes<T>& flux,
                   const Array3<T>& rho, const Array3<T>& rhophi,
                   Array3<T>& tend) {
    const Index nx = grid.nx(), ny = grid.ny(), nz = grid.nz();
    const T rdx = T(1.0 / grid.dx());
    const T rdy = T(1.0 / grid.dy());
    const auto& jc = grid.jacobian();
    const Layout layout = grid.layout();

    parallel_for(ny, [&](Index jb, Index je) {
        detail::PlaneRing<T> phi(nx, nz);
        auto fill_plane = [&](Index jj) {
            phi.fill(layout, jj, [&](auto io, Index i, Index k) {
                return io(rhophi, i, jj, k) / io(rho, i, jj, k);
            });
        };
        // y-face fluxes of one face row (k-major, i-inner); faces j and
        // j+1 of the current row roll through two buffers.
        std::vector<T> yf_lo(static_cast<std::size_t>(nz * nx)),
            yf_hi(static_cast<std::size_t>(nz * nx));
        auto fill_yface = [&](Index jf, std::vector<T>& out) {
            for (Index k = 0; k < nz; ++k) {
                detail::limited_flux_row(
                    layout, 0, nx,
                    [&](auto io, Index i) { return io(flux.fv, i, jf, k); },
                    phi.at(jf - 2, k), phi.at(jf - 1, k), phi.at(jf, k),
                    phi.at(jf + 1, k), out.data() + k * nx);
            }
        };

        for (Index jj = jb - 2; jj <= jb + 1; ++jj) fill_plane(jj);
        fill_yface(jb, yf_lo);
        std::vector<T> xf(static_cast<std::size_t>(nx + 1)),
            zf_lo(static_cast<std::size_t>(nx)),
            zf_hi(static_cast<std::size_t>(nx));
        for (Index j = jb; j < je; ++j) {
            fill_plane(j + 2);
            fill_yface(j + 1, yf_hi);
            std::fill(zf_lo.begin(), zf_lo.end(), T(0));  // bottom face
            for (Index k = 0; k < nz; ++k) {
                const T rdz = T(1.0 / grid.dzeta(k));
                // x-face fluxes [0, nx] of this (j, k) row.
                const T* pk = phi.at(j, k);
                detail::limited_flux_row(
                    layout, 0, nx + 1,
                    [&](auto io, Index i) { return io(flux.fu, i, j, k); },
                    pk - 2, pk - 1, pk, pk + 1, xf.data());
                // z-face flux at the upper face k+1 (zero at the top).
                const Index kf = k + 1;
                if (kf >= nz) {
                    std::fill(zf_hi.begin(), zf_hi.end(), T(0));
                } else {
                    detail::limited_flux_row(
                        layout, 0, nx,
                        [&](auto io, Index i) { return io(flux.fz, i, j, kf); },
                        phi.at(j, detail::clampk(kf - 2, nz)),
                        phi.at(j, kf - 1), phi.at(j, kf),
                        phi.at(j, detail::clampk(kf + 1, nz)), zf_hi.data());
                }
                detail::subtract_divergence_row(
                    layout, nx, xf.data(), yf_lo.data() + k * nx,
                    yf_hi.data() + k * nx, zf_lo.data(), zf_hi.data(), rdx,
                    rdy, rdz, jc, tend, j, k);
                zf_lo.swap(zf_hi);
            }
            yf_lo.swap(yf_hi);
        }
    });
}

/// Advection of rho*u on its x-face control volumes.
template <class T>
void advect_momentum_x(const Grid<T>& grid, const MassFluxes<T>& flux,
                       const State<T>& state, Array3<T>& tend) {
    const Index nx = grid.nx(), ny = grid.ny(), nz = grid.nz();
    const T rdx = T(1.0 / grid.dx());
    const T rdy = T(1.0 / grid.dy());
    const auto& jxf = grid.jacobian_xface();
    const Layout layout = grid.layout();

    parallel_for(ny, [&](Index jb, Index je) {
        // u at x-face i = rho*u / (rho averaged to the face).
        detail::PlaneRing<T> uv(nx, nz);
        auto fill_plane = [&](Index jj) {
            uv.fill(layout, jj, [&](auto io, Index i, Index k) {
                const auto rf = T(0.5) * (io(state.rho, i - 1, jj, k) +
                                          io(state.rho, i, jj, k));
                return io(state.rhou, i, jj, k) / rf;
            });
        };
        // y-directed CV fluxes through one xy-corner row jf.
        std::vector<T> yf_lo(static_cast<std::size_t>(nz * nx)),
            yf_hi(static_cast<std::size_t>(nz * nx));
        auto fill_yface = [&](Index jf, std::vector<T>& out) {
            for (Index k = 0; k < nz; ++k) {
                detail::limited_flux_row(
                    layout, 0, nx,
                    [&](auto io, Index i) {
                        return T(0.5) * (io(flux.fv, i - 1, jf, k) +
                                         io(flux.fv, i, jf, k));
                    },
                    uv.at(jf - 2, k), uv.at(jf - 1, k), uv.at(jf, k),
                    uv.at(jf + 1, k), out.data() + k * nx);
            }
        };

        for (Index jj = jb - 2; jj <= jb + 1; ++jj) fill_plane(jj);
        fill_yface(jb, yf_lo);
        // x-directed CV fluxes through cell centers c in [-1, nx-1],
        // stored at xf[c + 1].
        std::vector<T> xf(static_cast<std::size_t>(nx + 1)),
            zf_lo(static_cast<std::size_t>(nx)),
            zf_hi(static_cast<std::size_t>(nx));
        for (Index j = jb; j < je; ++j) {
            fill_plane(j + 2);
            fill_yface(j + 1, yf_hi);
            std::fill(zf_lo.begin(), zf_lo.end(), T(0));  // bottom face
            for (Index k = 0; k < nz; ++k) {
                const T rdz = T(1.0 / grid.dzeta(k));
                const T* pk = uv.at(j, k);
                detail::limited_flux_row(
                    layout, -1, nx,
                    [&](auto io, Index c) {
                        return T(0.5) * (io(flux.fu, c, j, k) +
                                         io(flux.fu, c + 1, j, k));
                    },
                    pk - 1, pk, pk + 1, pk + 2, xf.data() + 1);
                // z-directed CV flux through the xz corner at face k+1.
                const Index kf = k + 1;
                if (kf >= nz) {
                    std::fill(zf_hi.begin(), zf_hi.end(), T(0));
                } else {
                    detail::limited_flux_row(
                        layout, 0, nx,
                        [&](auto io, Index i) {
                            return T(0.5) * (io(flux.fz, i - 1, j, kf) +
                                             io(flux.fz, i, j, kf));
                        },
                        uv.at(j, detail::clampk(kf - 2, nz)), uv.at(j, kf - 1),
                        uv.at(j, kf), uv.at(j, detail::clampk(kf + 1, nz)),
                        zf_hi.data());
                }
                detail::subtract_divergence_row(
                    layout, nx, xf.data(), yf_lo.data() + k * nx,
                    yf_hi.data() + k * nx, zf_lo.data(), zf_hi.data(), rdx,
                    rdy, rdz, jxf, tend, j, k);
                zf_lo.swap(zf_hi);
            }
            yf_lo.swap(yf_hi);
        }
    });
}

/// Advection of rho*v on its y-face control volumes.
template <class T>
void advect_momentum_y(const Grid<T>& grid, const MassFluxes<T>& flux,
                       const State<T>& state, Array3<T>& tend) {
    const Index nx = grid.nx(), ny = grid.ny(), nz = grid.nz();
    const T rdx = T(1.0 / grid.dx());
    const T rdy = T(1.0 / grid.dy());
    const auto& jyf = grid.jacobian_yface();
    const Layout layout = grid.layout();

    parallel_for(ny, [&](Index jb, Index je) {
        // v at y-face j = rho*v / (rho averaged to the face); plane row
        // jj holds the v values of face row jj.
        detail::PlaneRing<T> vv(nx, nz);
        auto fill_plane = [&](Index jj) {
            vv.fill(layout, jj, [&](auto io, Index i, Index k) {
                const auto rf = T(0.5) * (io(state.rho, i, jj - 1, k) +
                                          io(state.rho, i, jj, k));
                return io(state.rhov, i, jj, k) / rf;
            });
        };
        // y-directed CV fluxes through one cell-center row jc.
        std::vector<T> yc_lo(static_cast<std::size_t>(nz * nx)),
            yc_hi(static_cast<std::size_t>(nz * nx));
        auto fill_ycenter = [&](Index jc_row, std::vector<T>& out) {
            for (Index k = 0; k < nz; ++k) {
                detail::limited_flux_row(
                    layout, 0, nx,
                    [&](auto io, Index i) {
                        return T(0.5) * (io(flux.fv, i, jc_row, k) +
                                         io(flux.fv, i, jc_row + 1, k));
                    },
                    vv.at(jc_row - 1, k), vv.at(jc_row, k),
                    vv.at(jc_row + 1, k), vv.at(jc_row + 2, k),
                    out.data() + k * nx);
            }
        };

        for (Index jj = jb - 2; jj <= jb + 1; ++jj) fill_plane(jj);
        fill_ycenter(jb - 1, yc_lo);
        std::vector<T> xf(static_cast<std::size_t>(nx + 1)),
            zf_lo(static_cast<std::size_t>(nx)),
            zf_hi(static_cast<std::size_t>(nx));
        for (Index j = jb; j < je; ++j) {
            fill_plane(j + 2);
            fill_ycenter(j, yc_hi);
            std::fill(zf_lo.begin(), zf_lo.end(), T(0));  // bottom face
            for (Index k = 0; k < nz; ++k) {
                const T rdz = T(1.0 / grid.dzeta(k));
                const T* pk = vv.at(j, k);
                // x-directed CV fluxes through xy corners [0, nx].
                detail::limited_flux_row(
                    layout, 0, nx + 1,
                    [&](auto io, Index i) {
                        return T(0.5) * (io(flux.fu, i, j - 1, k) +
                                         io(flux.fu, i, j, k));
                    },
                    pk - 2, pk - 1, pk, pk + 1, xf.data());
                const Index kf = k + 1;
                if (kf >= nz) {
                    std::fill(zf_hi.begin(), zf_hi.end(), T(0));
                } else {
                    detail::limited_flux_row(
                        layout, 0, nx,
                        [&](auto io, Index i) {
                            return T(0.5) * (io(flux.fz, i, j - 1, kf) +
                                             io(flux.fz, i, j, kf));
                        },
                        vv.at(j, detail::clampk(kf - 2, nz)), vv.at(j, kf - 1),
                        vv.at(j, kf), vv.at(j, detail::clampk(kf + 1, nz)),
                        zf_hi.data());
                }
                detail::subtract_divergence_row(
                    layout, nx, xf.data(), yc_lo.data() + k * nx,
                    yc_hi.data() + k * nx, zf_lo.data(), zf_hi.data(), rdx,
                    rdy, rdz, jyf, tend, j, k);
                zf_lo.swap(zf_hi);
            }
            yc_lo.swap(yc_hi);
        }
    });
}

/// Advection of rho*w on its z-face (Lorenz) control volumes. Tendencies
/// are produced for interior faces k = 1 .. nz-1; the boundary faces are
/// constrained by the kinematic conditions, not advected.
template <class T>
void advect_momentum_z(const Grid<T>& grid, const MassFluxes<T>& flux,
                       const State<T>& state, Array3<T>& tend) {
    const Index nx = grid.nx(), ny = grid.ny(), nz = grid.nz();
    const T rdx = T(1.0 / grid.dx());
    const T rdy = T(1.0 / grid.dy());
    const auto& jzf = grid.jacobian_zface();
    const Layout layout = grid.layout();

    auto clampf = [nz](Index k) {  // clamp a z-face index into [0, nz]
        return k < 0 ? Index(0) : (k > nz ? nz : k);
    };

    parallel_for(ny, [&](Index jb, Index je) {
        // w at z-face k = rho*w / (rho averaged to the face); planes hold
        // all nz+1 face slices, stencil reads clamp the face index.
        detail::PlaneRing<T> wv(nx, nz + 1);
        auto fill_plane = [&](Index jj) {
            wv.fill(layout, jj, [&](auto io, Index i, Index k) {
                const auto rf =
                    T(0.5) *
                    (io(state.rho, i, jj, detail::clampk(k - 1, nz)) +
                     io(state.rho, i, jj, detail::clampk(k, nz)));
                return io(state.rhow, i, jj, k) / rf;
            });
        };
        // y-directed CV fluxes through one xz-corner row jf (interior
        // z-faces k = 1 .. nz-1; face k's slab is stored at (k-1)*nx).
        std::vector<T> yf_lo(static_cast<std::size_t>(nz * nx)),
            yf_hi(static_cast<std::size_t>(nz * nx));
        auto fill_yface = [&](Index jf, std::vector<T>& out) {
            for (Index k = 1; k < nz; ++k) {
                detail::limited_flux_row(
                    layout, 0, nx,
                    [&](auto io, Index i) {
                        return T(0.5) * (io(flux.fv, i, jf, k - 1) +
                                         io(flux.fv, i, jf, k));
                    },
                    wv.at(jf - 2, k), wv.at(jf - 1, k), wv.at(jf, k),
                    wv.at(jf + 1, k), out.data() + (k - 1) * nx);
            }
        };
        // z-directed CV fluxes through one cell-center slice kc.
        std::vector<T> zc_lo(static_cast<std::size_t>(nx)),
            zc_hi(static_cast<std::size_t>(nx));
        auto fill_zcenter = [&](Index j, Index kc, std::vector<T>& out) {
            detail::limited_flux_row(
                layout, 0, nx,
                [&](auto io, Index i) {
                    return T(0.5) * (io(flux.fz, i, j, kc) +
                                     io(flux.fz, i, j, kc + 1));
                },
                wv.at(j, clampf(kc - 1)), wv.at(j, kc), wv.at(j, kc + 1),
                wv.at(j, clampf(kc + 2)), out.data());
        };

        for (Index jj = jb - 2; jj <= jb + 1; ++jj) fill_plane(jj);
        fill_yface(jb, yf_lo);
        std::vector<T> xf(static_cast<std::size_t>(nx + 1));
        for (Index j = jb; j < je; ++j) {
            fill_plane(j + 2);
            fill_yface(j + 1, yf_hi);
            fill_zcenter(j, 0, zc_lo);
            for (Index k = 1; k < nz; ++k) {
                // CV of face k spans layers k-1 and k in zeta.
                const T rdz =
                    T(2.0 / (grid.dzeta(k - 1) + grid.dzeta(k)));
                const T* pk = wv.at(j, k);
                // x-directed CV fluxes through xz corners [0, nx].
                detail::limited_flux_row(
                    layout, 0, nx + 1,
                    [&](auto io, Index i) {
                        return T(0.5) * (io(flux.fu, i, j, k - 1) +
                                         io(flux.fu, i, j, k));
                    },
                    pk - 2, pk - 1, pk, pk + 1, xf.data());
                fill_zcenter(j, k, zc_hi);
                detail::subtract_divergence_row(
                    layout, nx, xf.data(), yf_lo.data() + (k - 1) * nx,
                    yf_hi.data() + (k - 1) * nx, zc_lo.data(), zc_hi.data(),
                    rdx, rdy, rdz, jzf, tend, j, k);
                zc_lo.swap(zc_hi);
            }
            yf_lo.swap(yf_hi);
        }
    });
}

}  // namespace asuca
