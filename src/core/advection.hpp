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
// Loop structure (the CPU analogue of the paper's Sec. IV-A-1 layout
// work): each kernel caches the specific velocity phi = (rho phi)/rho in
// a rolling 5-row window of xz planes (one division per value instead of
// one per stencil read behind every flux), and evaluates each face flux
// exactly once into i-inner unit-stride row buffers that are then
// differenced. Per-value arithmetic is identical to evaluating the
// stencils in place, so any row partition — and any thread count — is
// bitwise identical to the original nested-lambda form.
#pragma once

#include <array>
#include <vector>

#include "src/core/limiter.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/core/mass_flux.hpp"
#include "src/core/state.hpp"
#include "src/core/tendencies.hpp"
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
    std::array<std::vector<T>, 5> slots;

    PlaneRing(Index nx, Index nk) : pw(nx + 4) {
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
};
}  // namespace detail

/// Mass continuity: d rho/dt = -(1/J) div(F). Exact advection of phi == 1.
template <class T>
void continuity_tendency(const Grid<T>& grid, const MassFluxes<T>& flux,
                         Array3<T>& rho_tend) {
    const Index nx = grid.nx(), ny = grid.ny(), nz = grid.nz();
    const T rdx = T(1.0 / grid.dx());
    const T rdy = T(1.0 / grid.dy());
    const auto& jc = grid.jacobian();
    parallel_for(ny, [&](Index jb, Index je) {
    for (Index j = jb; j < je; ++j) {
        for (Index k = 0; k < nz; ++k) {
            const T rdz = T(1.0 / grid.dzeta(k));
            for (Index i = 0; i < nx; ++i) {
                const T div =
                    (flux.fu(i + 1, j, k) - flux.fu(i, j, k)) * rdx +
                    (flux.fv(i, j + 1, k) - flux.fv(i, j, k)) * rdy +
                    (flux.fz(i, j, k + 1) - flux.fz(i, j, k)) * rdz;
                rho_tend(i, j, k) -= div / jc(i, j, k);
            }
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

    parallel_for(ny, [&](Index jb, Index je) {
        detail::PlaneRing<T> phi(nx, nz);
        auto fill_plane = [&](Index jj) {
            auto& p = phi.plane(jj);
            for (Index k = 0; k < nz; ++k) {
                T* row = p.data() + k * phi.pw + 2;
                for (Index i = -2; i < nx + 2; ++i)
                    row[i] = rhophi(i, jj, k) / rho(i, jj, k);
            }
        };
        // y-face fluxes of one face row (k-major, i-inner); faces j and
        // j+1 of the current row roll through two buffers.
        std::vector<T> yf_lo(static_cast<std::size_t>(nz * nx)),
            yf_hi(static_cast<std::size_t>(nz * nx));
        auto fill_yface = [&](Index jf, std::vector<T>& out) {
            for (Index k = 0; k < nz; ++k) {
                const T* pm2 = phi.at(jf - 2, k);
                const T* pm1 = phi.at(jf - 1, k);
                const T* pp0 = phi.at(jf, k);
                const T* pp1 = phi.at(jf + 1, k);
                T* out_row = out.data() + k * nx;
                for (Index i = 0; i < nx; ++i) {
                    const T f = flux.fv(i, jf, k);
                    const T pf = limited_face_value(f, pm2[i], pm1[i],
                                                    pp0[i], pp1[i]);
                    out_row[i] = f * pf;
                }
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
                for (Index i = 0; i <= nx; ++i) {
                    const T f = flux.fu(i, j, k);
                    const T pf = limited_face_value(f, pk[i - 2], pk[i - 1],
                                                    pk[i], pk[i + 1]);
                    xf[i] = f * pf;
                }
                // z-face flux at the upper face k+1 (zero at the top).
                const Index kf = k + 1;
                if (kf >= nz) {
                    std::fill(zf_hi.begin(), zf_hi.end(), T(0));
                } else {
                    const T* pm2 = phi.at(j, detail::clampk(kf - 2, nz));
                    const T* pm1 = phi.at(j, kf - 1);
                    const T* pp0 = phi.at(j, kf);
                    const T* pp1 = phi.at(j, detail::clampk(kf + 1, nz));
                    for (Index i = 0; i < nx; ++i) {
                        const T f = flux.fz(i, j, kf);
                        const T pf = limited_face_value(f, pm2[i], pm1[i],
                                                        pp0[i], pp1[i]);
                        zf_hi[i] = f * pf;
                    }
                }
                const T* yl = yf_lo.data() + k * nx;
                const T* yh = yf_hi.data() + k * nx;
                for (Index i = 0; i < nx; ++i) {
                    const T div = (xf[i + 1] - xf[i]) * rdx +
                                  (yh[i] - yl[i]) * rdy +
                                  (zf_hi[i] - zf_lo[i]) * rdz;
                    tend(i, j, k) -= div / jc(i, j, k);
                }
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

    parallel_for(ny, [&](Index jb, Index je) {
        // u at x-face i = rho*u / (rho averaged to the face).
        detail::PlaneRing<T> uv(nx, nz);
        auto fill_plane = [&](Index jj) {
            auto& p = uv.plane(jj);
            for (Index k = 0; k < nz; ++k) {
                T* row = p.data() + k * uv.pw + 2;
                for (Index i = -2; i < nx + 2; ++i) {
                    const T rf = T(0.5) * (state.rho(i - 1, jj, k) +
                                           state.rho(i, jj, k));
                    row[i] = state.rhou(i, jj, k) / rf;
                }
            }
        };
        // y-directed CV fluxes through one xy-corner row jf.
        std::vector<T> yf_lo(static_cast<std::size_t>(nz * nx)),
            yf_hi(static_cast<std::size_t>(nz * nx));
        auto fill_yface = [&](Index jf, std::vector<T>& out) {
            for (Index k = 0; k < nz; ++k) {
                const T* pm2 = uv.at(jf - 2, k);
                const T* pm1 = uv.at(jf - 1, k);
                const T* pp0 = uv.at(jf, k);
                const T* pp1 = uv.at(jf + 1, k);
                T* out_row = out.data() + k * nx;
                for (Index i = 0; i < nx; ++i) {
                    const T f =
                        T(0.5) * (flux.fv(i - 1, jf, k) + flux.fv(i, jf, k));
                    const T uf = limited_face_value(f, pm2[i], pm1[i],
                                                    pp0[i], pp1[i]);
                    out_row[i] = f * uf;
                }
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
                for (Index c = -1; c < nx; ++c) {
                    const T f =
                        T(0.5) * (flux.fu(c, j, k) + flux.fu(c + 1, j, k));
                    const T uf = limited_face_value(f, pk[c - 1], pk[c],
                                                    pk[c + 1], pk[c + 2]);
                    xf[c + 1] = f * uf;
                }
                // z-directed CV flux through the xz corner at face k+1.
                const Index kf = k + 1;
                if (kf >= nz) {
                    std::fill(zf_hi.begin(), zf_hi.end(), T(0));
                } else {
                    const T* pm2 = uv.at(j, detail::clampk(kf - 2, nz));
                    const T* pm1 = uv.at(j, kf - 1);
                    const T* pp0 = uv.at(j, kf);
                    const T* pp1 = uv.at(j, detail::clampk(kf + 1, nz));
                    for (Index i = 0; i < nx; ++i) {
                        const T f = T(0.5) *
                                    (flux.fz(i - 1, j, kf) + flux.fz(i, j, kf));
                        const T uf = limited_face_value(f, pm2[i], pm1[i],
                                                        pp0[i], pp1[i]);
                        zf_hi[i] = f * uf;
                    }
                }
                const T* yl = yf_lo.data() + k * nx;
                const T* yh = yf_hi.data() + k * nx;
                for (Index i = 0; i < nx; ++i) {
                    const T div = (xf[i + 1] - xf[i]) * rdx +
                                  (yh[i] - yl[i]) * rdy +
                                  (zf_hi[i] - zf_lo[i]) * rdz;
                    tend(i, j, k) -= div / jxf(i, j, k);
                }
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

    parallel_for(ny, [&](Index jb, Index je) {
        // v at y-face j = rho*v / (rho averaged to the face); plane row
        // jj holds the v values of face row jj.
        detail::PlaneRing<T> vv(nx, nz);
        auto fill_plane = [&](Index jj) {
            auto& p = vv.plane(jj);
            for (Index k = 0; k < nz; ++k) {
                T* row = p.data() + k * vv.pw + 2;
                for (Index i = -2; i < nx + 2; ++i) {
                    const T rf = T(0.5) * (state.rho(i, jj - 1, k) +
                                           state.rho(i, jj, k));
                    row[i] = state.rhov(i, jj, k) / rf;
                }
            }
        };
        // y-directed CV fluxes through one cell-center row jc.
        std::vector<T> yc_lo(static_cast<std::size_t>(nz * nx)),
            yc_hi(static_cast<std::size_t>(nz * nx));
        auto fill_ycenter = [&](Index jc_row, std::vector<T>& out) {
            for (Index k = 0; k < nz; ++k) {
                const T* pm1 = vv.at(jc_row - 1, k);
                const T* pp0 = vv.at(jc_row, k);
                const T* pp1 = vv.at(jc_row + 1, k);
                const T* pp2 = vv.at(jc_row + 2, k);
                T* out_row = out.data() + k * nx;
                for (Index i = 0; i < nx; ++i) {
                    const T f = T(0.5) * (flux.fv(i, jc_row, k) +
                                          flux.fv(i, jc_row + 1, k));
                    const T vf = limited_face_value(f, pm1[i], pp0[i],
                                                    pp1[i], pp2[i]);
                    out_row[i] = f * vf;
                }
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
                for (Index i = 0; i <= nx; ++i) {
                    const T f =
                        T(0.5) * (flux.fu(i, j - 1, k) + flux.fu(i, j, k));
                    const T vf = limited_face_value(f, pk[i - 2], pk[i - 1],
                                                    pk[i], pk[i + 1]);
                    xf[i] = f * vf;
                }
                const Index kf = k + 1;
                if (kf >= nz) {
                    std::fill(zf_hi.begin(), zf_hi.end(), T(0));
                } else {
                    const T* pm2 = vv.at(j, detail::clampk(kf - 2, nz));
                    const T* pm1 = vv.at(j, kf - 1);
                    const T* pp0 = vv.at(j, kf);
                    const T* pp1 = vv.at(j, detail::clampk(kf + 1, nz));
                    for (Index i = 0; i < nx; ++i) {
                        const T f = T(0.5) *
                                    (flux.fz(i, j - 1, kf) + flux.fz(i, j, kf));
                        const T vf = limited_face_value(f, pm2[i], pm1[i],
                                                        pp0[i], pp1[i]);
                        zf_hi[i] = f * vf;
                    }
                }
                const T* yl = yc_lo.data() + k * nx;
                const T* yh = yc_hi.data() + k * nx;
                for (Index i = 0; i < nx; ++i) {
                    const T div = (xf[i + 1] - xf[i]) * rdx +
                                  (yh[i] - yl[i]) * rdy +
                                  (zf_hi[i] - zf_lo[i]) * rdz;
                    tend(i, j, k) -= div / jyf(i, j, k);
                }
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

    auto clampf = [nz](Index k) {  // clamp a z-face index into [0, nz]
        return k < 0 ? Index(0) : (k > nz ? nz : k);
    };

    parallel_for(ny, [&](Index jb, Index je) {
        // w at z-face k = rho*w / (rho averaged to the face); planes hold
        // all nz+1 face slices, stencil reads clamp the face index.
        detail::PlaneRing<T> wv(nx, nz + 1);
        auto fill_plane = [&](Index jj) {
            auto& p = wv.plane(jj);
            for (Index k = 0; k <= nz; ++k) {
                T* row = p.data() + k * wv.pw + 2;
                for (Index i = -2; i < nx + 2; ++i) {
                    const T rf =
                        T(0.5) * (state.rho(i, jj, detail::clampk(k - 1, nz)) +
                                  state.rho(i, jj, detail::clampk(k, nz)));
                    row[i] = state.rhow(i, jj, k) / rf;
                }
            }
        };
        // y-directed CV fluxes through one xz-corner row jf (interior
        // z-faces k = 1 .. nz-1; face k's slab is stored at k*nx).
        std::vector<T> yf_lo(static_cast<std::size_t>(nz * nx)),
            yf_hi(static_cast<std::size_t>(nz * nx));
        auto fill_yface = [&](Index jf, std::vector<T>& out) {
            for (Index k = 1; k < nz; ++k) {
                const T* pm2 = wv.at(jf - 2, k);
                const T* pm1 = wv.at(jf - 1, k);
                const T* pp0 = wv.at(jf, k);
                const T* pp1 = wv.at(jf + 1, k);
                T* out_row = out.data() + (k - 1) * nx;
                for (Index i = 0; i < nx; ++i) {
                    const T f = T(0.5) *
                                (flux.fv(i, jf, k - 1) + flux.fv(i, jf, k));
                    const T wf = limited_face_value(f, pm2[i], pm1[i],
                                                    pp0[i], pp1[i]);
                    out_row[i] = f * wf;
                }
            }
        };
        // z-directed CV fluxes through one cell-center slice kc.
        std::vector<T> zc_lo(static_cast<std::size_t>(nx)),
            zc_hi(static_cast<std::size_t>(nx));
        auto fill_zcenter = [&](Index j, Index kc, std::vector<T>& out) {
            const T* pm1 = wv.at(j, clampf(kc - 1));
            const T* pp0 = wv.at(j, kc);
            const T* pp1 = wv.at(j, kc + 1);
            const T* pp2 = wv.at(j, clampf(kc + 2));
            for (Index i = 0; i < nx; ++i) {
                const T f =
                    T(0.5) * (flux.fz(i, j, kc) + flux.fz(i, j, kc + 1));
                const T wf =
                    limited_face_value(f, pm1[i], pp0[i], pp1[i], pp2[i]);
                out[i] = f * wf;
            }
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
                for (Index i = 0; i <= nx; ++i) {
                    const T f =
                        T(0.5) * (flux.fu(i, j, k - 1) + flux.fu(i, j, k));
                    const T wf = limited_face_value(f, pk[i - 2], pk[i - 1],
                                                    pk[i], pk[i + 1]);
                    xf[i] = f * wf;
                }
                fill_zcenter(j, k, zc_hi);
                const T* yl = yf_lo.data() + (k - 1) * nx;
                const T* yh = yf_hi.data() + (k - 1) * nx;
                for (Index i = 0; i < nx; ++i) {
                    const T div = (xf[i + 1] - xf[i]) * rdx +
                                  (yh[i] - yl[i]) * rdy +
                                  (zc_hi[i] - zc_lo[i]) * rdz;
                    tend(i, j, k) -= div / jzf(i, j, k);
                }
                zc_lo.swap(zc_hi);
            }
            yf_lo.swap(yf_hi);
        }
    });
}

}  // namespace asuca
