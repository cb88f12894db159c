// Explicit diffusion and the Rayleigh-damping sponge layer (part of the
// paper's F^i: "diffusion ... and turbulent process", evaluated in the
// long time step).
//
// Diffusion is a second-order Laplacian on the specific quantity phi
// (velocity component or theta deviation), density-weighted:
//
//   d(rho*phi)/dt += rho * K * laplace(phi)
//
// with separate horizontal and vertical coefficients (the horizontal and
// vertical resolutions differ by orders of magnitude in regional NWP).
// The sponge damps vertical momentum toward zero above z_start to absorb
// upward-propagating gravity waves at the rigid model top (standard for
// mountain-wave tests).
#pragma once

#include <algorithm>
#include <cmath>

#include "src/core/state.hpp"
#include "src/core/tendencies.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/field/array3.hpp"
#include "src/field/simd.hpp"
#include "src/grid/grid.hpp"

namespace asuca {

struct DiffusionConfig {
    double kh = 0.0;  ///< horizontal diffusivity [m^2 s^-1]
    double kv = 0.0;  ///< vertical diffusivity [m^2 s^-1]
    /// 4th-order horizontal hyperdiffusion coefficient [m^4 s^-1]:
    /// d(rho*phi)/dt -= rho * k4 * laplace_h(laplace_h(phi)). Damps 2-grid
    /// noise selectively while leaving resolved scales nearly untouched —
    /// the standard scale-selective filter of regional NWP. 0 disables.
    double k4h = 0.0;
};

struct SpongeConfig {
    double z_start = -1.0;   ///< sponge base height [m]; <0 disables
    double time_scale = 300.0;  ///< inverse peak damping rate [s]
};

namespace detail {

/// Laplacian-diffusion of phi = field/rho_at_loc onto tend. Works for any
/// centered or staggered array as long as `field`, `rho_loc` and `tend`
/// share extents; vertical derivative uses the local physical spacing.
/// Rows run in lane chunks: rho_at(io, i, j, k) reads through the chunk's
/// LaneAccess.
template <class T, class RhoAt>
void diffuse_generic(const Grid<T>& grid, const Array3<T>& field,
                     RhoAt&& rho_at, const DiffusionConfig& cfg,
                     Index k_begin, Index k_end, Array3<T>& tend) {
    if (cfg.kh == 0.0 && cfg.kv == 0.0) return;
    const Index nx = field.nx() == grid.nx() + 1 ? grid.nx() : field.nx();
    const Index ny = field.ny() == grid.ny() + 1 ? grid.ny() : field.ny();
    const T kh = T(cfg.kh), kv = T(cfg.kv);
    const T rdx2 = T(1.0 / (grid.dx() * grid.dx()));
    const T rdy2 = T(1.0 / (grid.dy() * grid.dy()));
    const Layout layout = grid.layout();

    parallel_for(ny, [&](Index jb, Index je) {
        for (Index j = jb; j < je; ++j) {
            for (Index k = k_begin; k < k_end; ++k) {
                const Index km = k > k_begin ? k - 1 : k;
                const Index kp = k < k_end - 1 ? k + 1 : k;
                const T dz = T(grid.dzeta(std::min<Index>(k, grid.nz() - 1)));
                const T rdz2 = T(1) / (dz * dz);
                for_each_lane_chunk<T>(
                    layout, 0, nx,
                    [&, kh, kv, rdx2, rdy2, rdz2](auto io, Index i) {
                        auto phi = [&](Index ii, Index jj, Index kk) {
                            return io(field, ii, jj, kk) /
                                   rho_at(io, ii, jj, kk);
                        };
                        const auto c = phi(i, j, k);
                        const auto lap_h = (phi(i + 1, j, k) - T(2) * c +
                                            phi(i - 1, j, k)) * rdx2 +
                                           (phi(i, j + 1, k) - T(2) * c +
                                            phi(i, j - 1, k)) * rdy2;
                        const auto lap_v =
                            (phi(i, j, kp) - T(2) * c + phi(i, j, km)) * rdz2;
                        io.store(tend, i, j, k,
                                 io(tend, i, j, k) +
                                     rho_at(io, i, j, k) *
                                         (kh * lap_h + kv * lap_v));
                    });
            }
        }
    });
}

}  // namespace detail

/// Diffuse the three velocity components and theta_m (deviation from the
/// reference, so the stratified base state is not eroded).
template <class T>
void diffusion(const Grid<T>& grid, const State<T>& state,
               const DiffusionConfig& cfg, Tendencies<T>& tend) {
    if (cfg.kh == 0.0 && cfg.kv == 0.0) return;
    const auto& rho = state.rho;

    detail::diffuse_generic(
        grid, state.rhou,
        [&](auto io, Index i, Index j, Index k) {
            return T(0.5) * (io(rho, i - 1, j, k) + io(rho, i, j, k));
        },
        cfg, 0, grid.nz(), tend.rhou);
    detail::diffuse_generic(
        grid, state.rhov,
        [&](auto io, Index i, Index j, Index k) {
            return T(0.5) * (io(rho, i, j - 1, k) + io(rho, i, j, k));
        },
        cfg, 0, grid.nz(), tend.rhov);
    detail::diffuse_generic(
        grid, state.rhow,
        [&](auto io, Index i, Index j, Index k) {
            const Index kc = k > 0 ? k - 1 : 0;
            const Index kd = k < grid.nz() ? k : grid.nz() - 1;
            return T(0.5) * (io(rho, i, j, kc) + io(rho, i, j, kd));
        },
        cfg, 1, grid.nz(), tend.rhow);

    // theta deviation: phi = theta - theta_ref.
    const Index nx = grid.nx(), ny = grid.ny(), nz = grid.nz();
    const T kh = T(cfg.kh), kv = T(cfg.kv);
    const T rdx2 = T(1.0 / (grid.dx() * grid.dx()));
    const T rdy2 = T(1.0 / (grid.dy() * grid.dy()));
    const Layout layout = grid.layout();
    parallel_for(ny, [&](Index jb, Index je) {
        for (Index j = jb; j < je; ++j) {
            for (Index k = 0; k < nz; ++k) {
                const Index km = k > 0 ? k - 1 : k;
                const Index kp = k < nz - 1 ? k + 1 : k;
                const T dz = T(grid.dzeta(k));
                const T rdz2 = T(1) / (dz * dz);
                for_each_lane_chunk<T>(
                    layout, 0, nx,
                    [&, kh, kv, rdx2, rdy2, rdz2](auto io, Index i) {
                        auto th = [&](Index ii, Index jj, Index kk) {
                            return io(state.rhotheta, ii, jj, kk) /
                                       io(rho, ii, jj, kk) -
                                   io(state.rhotheta_ref, ii, jj, kk) /
                                       io(state.rho_ref, ii, jj, kk);
                        };
                        const auto c = th(i, j, k);
                        const auto lap =
                            kh * ((th(i + 1, j, k) - T(2) * c +
                                   th(i - 1, j, k)) * rdx2 +
                                  (th(i, j + 1, k) - T(2) * c +
                                   th(i, j - 1, k)) * rdy2) +
                            kv * (th(i, j, kp) - T(2) * c + th(i, j, km)) *
                                rdz2;
                        io.store(tend.rhotheta, i, j, k,
                                 io(tend.rhotheta, i, j, k) +
                                     io(rho, i, j, k) * lap);
                    });
            }
        }
    });
}

/// 4th-order horizontal hyperdiffusion of the velocity components and the
/// theta deviation. Applied as two nested 2nd-order Laplacians of the
/// specific quantity; needs halo >= 2 (available: the dycore carries 3).
template <class T>
void hyperdiffusion(const Grid<T>& grid, const State<T>& state,
                    const DiffusionConfig& cfg, Tendencies<T>& tend) {
    if (cfg.k4h == 0.0) return;
    const Index nx = grid.nx(), ny = grid.ny(), nz = grid.nz();
    const T k4 = T(cfg.k4h);
    const T rdx2 = T(1.0 / (grid.dx() * grid.dx()));
    const T rdy2 = T(1.0 / (grid.dy() * grid.dy()));

    // Apply to a generic specific quantity phi with halo-2 support.
    auto apply = [&](auto&& phi, auto&& rho_at, Array3<T>& out, Index nxe,
                     Index nye) {
        auto lap = [&](Index i, Index j, Index k) {
            const T c = phi(i, j, k);
            return (phi(i + 1, j, k) - T(2) * c + phi(i - 1, j, k)) * rdx2 +
                   (phi(i, j + 1, k) - T(2) * c + phi(i, j - 1, k)) * rdy2;
        };
        parallel_for(nye, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j)
                for (Index k = 0; k < nz; ++k)
                    for (Index i = 0; i < nxe; ++i) {
                        const T c = lap(i, j, k);
                        const T lap2 =
                            (lap(i + 1, j, k) - T(2) * c + lap(i - 1, j, k)) *
                                rdx2 +
                            (lap(i, j + 1, k) - T(2) * c + lap(i, j - 1, k)) *
                                rdy2;
                        out(i, j, k) -= rho_at(i, j, k) * k4 * lap2;
                    }
        });
    };

    const auto& rho = state.rho;
    apply([&](Index i, Index j, Index k) {
             const T rf = T(0.5) * (rho(i - 1, j, k) + rho(i, j, k));
             return state.rhou(i, j, k) / rf;
         },
         [&](Index i, Index j, Index k) {
             return T(0.5) * (rho(i - 1, j, k) + rho(i, j, k));
         },
         tend.rhou, nx, ny);
    apply([&](Index i, Index j, Index k) {
             const T rf = T(0.5) * (rho(i, j - 1, k) + rho(i, j, k));
             return state.rhov(i, j, k) / rf;
         },
         [&](Index i, Index j, Index k) {
             return T(0.5) * (rho(i, j - 1, k) + rho(i, j, k));
         },
         tend.rhov, nx, ny);
    apply([&](Index i, Index j, Index k) {
             return state.rhotheta(i, j, k) / rho(i, j, k) -
                    state.rhotheta_ref(i, j, k) / state.rho_ref(i, j, k);
         },
         [&](Index i, Index j, Index k) { return rho(i, j, k); },
         tend.rhotheta, nx, ny);
}

/// Rayleigh sponge on rho*w: d(rho*w)/dt += -tau(z) * rho*w with
/// tau increasing as sin^2 from z_start to the model top.
template <class T>
void sponge_damping(const Grid<T>& grid, const State<T>& state,
                    const SpongeConfig& cfg, Array3<T>& tend_rhow) {
    if (cfg.z_start < 0.0) return;
    const Index nx = grid.nx(), ny = grid.ny(), nz = grid.nz();
    const double ztop = grid.ztop();
    parallel_for(ny, [&](Index jb, Index je) {
        for (Index j = jb; j < je; ++j) {
            for (Index k = 1; k < nz; ++k) {
                const double z = grid.zeta_face(k);  // sponge keyed on zeta
                if (z <= cfg.z_start) continue;
                const double s = (z - cfg.z_start) / (ztop - cfg.z_start);
                const double sn = std::sin(0.5 * M_PI * s);
                const T rate = T(sn * sn / cfg.time_scale);
                for (Index i = 0; i < nx; ++i) {
                    tend_rhow(i, j, k) -= rate * state.rhow(i, j, k);
                }
            }
        }
    });
}

}  // namespace asuca
