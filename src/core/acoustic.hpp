// HE-VI acoustic (short time step) integrator — the fast-mode core of the
// time-splitting scheme (paper Sec. II and IV-A-3).
//
// Within each Wicker–Skamarock RK3 stage the acoustic subsystem is
// integrated with small steps dtau. Deviations (primes) about the RK-stage
// linearization state evolve under:
//
//   d U'/dtau   = -dx p'|z + S_U                (horizontal: explicit RK2)
//   d V'/dtau   = -dy p'|z + S_V
//   d W'/dtau   = -(1/J) dzeta p' - g rho'|zf + S_W   (vertical: implicit)
//   d rho'/dtau = -(1/J) div(J u rho)'         (continuity of deviations)
//   d Th'/dtau  = -(1/J) div(J u rho theta)' + S_Th   (theta_m, linearized
//                                                      with frozen face theta)
//   p' = (dp/d(rho theta))|bar * Th'           (linearized EOS)
//
// Eliminating p' and rho' from the implicit W' equation yields one
// tridiagonal ("1D Helmholtz-like elliptic", paper Fig. 5 kernel (4))
// system per vertical column, solved with the Thomas algorithm; columns
// are independent across the xy plane, which is exactly the parallelism
// the paper's GPU kernel exploits (Fig. 2b).
//
// The off-centering parameter beta (0.5 = centered, >0.5 damps acoustic
// noise) weights the implicit terms.
#pragma once

#include <algorithm>
#include <vector>

#include "src/common/constants.hpp"
#include "src/core/boundary.hpp"
#include "src/core/eos.hpp"
#include "src/core/pgf.hpp"
#include "src/core/state.hpp"
#include "src/core/tendencies.hpp"
#include "src/core/tridiagonal.hpp"
#include "src/field/simd.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/grid/grid.hpp"
#include "src/instrument/kernel_registry.hpp"

namespace asuca {

struct AcousticConfig {
    double beta = 0.6;  ///< implicit off-centering (0.5..1)
    /// Fuse the density (continuity) and potential-temperature update
    /// kernels of the implicit phase into one streaming pass — the
    /// paper's Sec. V-A method 3 "logical fusion", which on the GPU hides
    /// the density exchange (too short to hide alone) behind the theta
    /// compute window. Per-cell arithmetic is unchanged, so results are
    /// bitwise identical either way (asserted by the overlap tests); the
    /// fused pass reads the shared dw/dv3 operands once.
    bool fuse_density_theta = false;
};

template <class T>
class AcousticStepper {
  public:
    AcousticStepper(const Grid<T>& grid, const AcousticConfig& config)
        : grid_(grid), cfg_(config),
          cpt_(center_shape(grid), grid.halo(), grid.layout()),
          thf_x_({grid.nx() + 1, grid.ny(), grid.nz()}, grid.halo(),
                 grid.layout()),
          thf_y_({grid.nx(), grid.ny() + 1, grid.nz()}, grid.halo(),
                 grid.layout()),
          thf_z_({grid.nx(), grid.ny(), grid.nz() + 1}, grid.halo(),
                 grid.layout()),
          du_({grid.nx() + 1, grid.ny(), grid.nz()}, grid.halo(),
              grid.layout()),
          dv_({grid.nx(), grid.ny() + 1, grid.nz()}, grid.halo(),
              grid.layout()),
          dw_({grid.nx(), grid.ny(), grid.nz() + 1}, grid.halo(),
              grid.layout()),
          drho_(center_shape(grid), grid.halo(), grid.layout()),
          dth_(center_shape(grid), grid.halo(), grid.layout()),
          dp_(center_shape(grid), grid.halo(), grid.layout()),
          dp_half_(center_shape(grid), grid.halo(), grid.layout()),
          tend_u_({grid.nx() + 1, grid.ny(), grid.nz()}, grid.halo(),
                  grid.layout()),
          tend_v_({grid.nx(), grid.ny() + 1, grid.nz()}, grid.halo(),
                  grid.layout()),
          cv3_(center_shape(grid), grid.halo(), grid.layout()),
          rv3_(center_shape(grid), grid.halo(), grid.layout()),
          dv3_(center_shape(grid), grid.halo(), grid.layout()) {
        ASUCA_REQUIRE(config.beta >= 0.5 && config.beta <= 1.0,
                      "acoustic beta must be in [0.5, 1], got "
                          << config.beta);
    }

    /// Freeze the linearization coefficients at the RK-stage state.
    void prepare(const State<T>& bar) {
        const Index nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
        const Index h = grid_.halo();
        KernelScope scope("acoustic_prepare", {/*reads=*/3, /*writes=*/4, 2},
                          static_cast<std::uint64_t>(nx * ny * nz));
        auto theta = [&](Index i, Index j, Index k) {
            return bar.rhotheta(i, j, k) / bar.rho(i, j, k);
        };
        parallel_for_range(-h + 1, ny + h - 1, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j) {
                for (Index k = 0; k < nz; ++k) {
                    for (Index i = -h + 1; i < nx + h - 1; ++i) {
                        cpt_(i, j, k) = eos_dp_drhotheta(
                            bar.p(i, j, k), bar.rhotheta(i, j, k));
                    }
                }
            }
        });
        parallel_for_range(-h + 1, ny + h - 1, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j) {
                for (Index k = 0; k < nz; ++k) {
                    for (Index i = -h + 2; i < nx + h - 1; ++i) {
                        thf_x_(i, j, k) =
                            T(0.5) * (theta(i - 1, j, k) + theta(i, j, k));
                    }
                }
            }
        });
        parallel_for_range(-h + 2, ny + h - 1, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j) {
                for (Index k = 0; k < nz; ++k) {
                    for (Index i = -h + 1; i < nx + h - 1; ++i) {
                        thf_y_(i, j, k) =
                            T(0.5) * (theta(i, j - 1, k) + theta(i, j, k));
                    }
                }
            }
        });
        parallel_for_range(-h + 1, ny + h - 1, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j) {
                for (Index k = 0; k <= nz; ++k) {
                    const Index km = k > 0 ? k - 1 : 0;
                    const Index kc = k < nz ? k : nz - 1;
                    for (Index i = -h + 1; i < nx + h - 1; ++i) {
                        thf_z_(i, j, k) =
                            T(0.5) * (theta(i, j, km) + theta(i, j, kc));
                    }
                }
            }
        });
    }

    /// Deviations at the start of the stage: current state minus the
    /// linearization state (zero on the first RK stage), over every padded
    /// cell, so each stage starts from fresh deviation halos.
    void init_deviations(const State<T>& now, const State<T>& bar) {
        const Index h = grid_.halo();
        parallel_for_range(-h, grid_.ny() + 1 + h, [&](Index jb, Index je) {
            diff_rows(now.rhou, bar.rhou, du_, jb, je);
            diff_rows(now.rhov, bar.rhov, dv_, jb, je);
            diff_rows(now.rhow, bar.rhow, dw_, jb, je);
            diff_rows(now.rho, bar.rho, drho_, jb, je);
            diff_rows(now.rhotheta, bar.rhotheta, dth_, jb, je);
            for (Index j = jb; j < std::min(je, grid_.ny() + h); ++j)
                for (Index k = 0; k < grid_.nz(); ++k)
                    for (Index i = -h; i < grid_.nx() + h; ++i)
                        dp_(i, j, k) = cpt_(i, j, k) * dth_(i, j, k);
        });
    }

    /// Advance the deviations by one acoustic substep of length dtau.
    /// Single-domain path: the halos a later phase reads are filled by the
    /// lateral BC — dp_half for the PGF, du/dv for the bottom condition
    /// and the next substep's face reads. The implicit phase leaves the
    /// dw/drho/dth/dp halos stale: no phase reads them, finalize's lateral
    /// halos are overwritten by the state fill, and init_deviations
    /// rewrites them at the next stage. Multi-domain runners call the
    /// phases directly and perform real halo exchanges in between (the
    /// paper's per-short-step MPI exchanges, Sec. V-A).
    void substep(const Tendencies<T>& slow, double dtau, LateralBc bc) {
        const Index nx = grid_.nx(), ny = grid_.ny();
        phase_theta_half(slow, dtau);
        apply_lateral_bc(dp_half_, bc, nx, ny);
        phase_horizontal_momentum(slow, dtau);
        Array3<T>* uv[] = {&du_, &dv_};
        apply_lateral_bc<T>(uv, bc, nx, ny);
        phase_bottom_kinematic();
        phase_vertical_implicit(slow, dtau);
    }

    /// Reconstruct the full state: out = bar + deviations, with the full
    /// (nonlinear) EOS pressure diagnostic. Pointwise, so out == bar works.
    void finalize(const State<T>& bar, State<T>& out) const {
        const Index h = grid_.halo();
        parallel_for_range(-h, grid_.ny() + 1 + h, [&](Index jb, Index je) {
            sum_rows(bar.rhou, du_, out.rhou, jb, je);
            sum_rows(bar.rhov, dv_, out.rhov, jb, je);
            sum_rows(bar.rhow, dw_, out.rhow, jb, je);
            sum_rows(bar.rho, drho_, out.rho, jb, je);
            sum_rows(bar.rhotheta, dth_, out.rhotheta, jb, je);
        });
        const Index nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
        KernelScope scope("eos_pressure", {/*reads=*/1, /*writes=*/1, 0},
                          static_cast<std::uint64_t>(nx * ny * nz));
        parallel_for(ny, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j)
                for (Index k = 0; k < nz; ++k)
                    for (Index i = 0; i < nx; ++i)
                        out.p(i, j, k) = eos_pressure(out.rhotheta(i, j, k));
        });
    }

    /// Deviation accessors. Mutable access is for multi-domain halo
    /// exchangers, which overwrite halo strips between phases.
    const Array3<T>& dw() const { return dw_; }
    const Array3<T>& drho() const { return drho_; }
    Array3<T>& du() { return du_; }
    Array3<T>& dv() { return dv_; }
    Array3<T>& dw() { return dw_; }
    Array3<T>& drho() { return drho_; }
    Array3<T>& dth() { return dth_; }
    Array3<T>& dp() { return dp_; }
    Array3<T>& dp_half() { return dp_half_; }

  private:
    static Int3 center_shape(const Grid<T>& g) {
        return {g.nx(), g.ny(), g.nz()};
    }

    /// out = a - b over the padded rows [jb, je) that `a` has.
    template <class A>
    static void diff_rows(const A& a, const A& b, A& out, Index jb,
                          Index je) {
        const Index h = a.halo();
        for (Index j = jb; j < std::min(je, a.ny() + h); ++j)
            for (Index k = -h; k < a.nz() + h; ++k)
                for (Index i = -h; i < a.nx() + h; ++i)
                    out(i, j, k) = a(i, j, k) - b(i, j, k);
    }
    /// out = a + d over the padded rows [jb, je) that `a` has.
    template <class A>
    static void sum_rows(const A& a, const A& d, A& out, Index jb,
                         Index je) {
        const Index h = a.halo();
        for (Index j = jb; j < std::min(je, a.ny() + h); ++j)
            for (Index k = -h; k < a.nz() + h; ++k)
                for (Index i = -h; i < a.nx() + h; ++i)
                    out(i, j, k) = a(i, j, k) + d(i, j, k);
    }

  public:
    /// RK2 (midpoint) phase 1: provisional theta' at tau + dtau/2 and the
    /// midpoint pressure dp_half (paper: "short time steps ... employ the
    /// second-order Runge-Kutta scheme"). Caller must then fill dp_half
    /// halos (BC or exchange).
    void phase_theta_half(const Tendencies<T>& slow, double dtau) {
        phase_theta_half_region(slow, dtau, 0, grid_.nx(), 0, grid_.ny());
    }

    /// Region-restricted phase 1 over cells [i0,i1) x [j0,j1): the
    /// overlapped multi-domain runner computes the boundary frame first
    /// (whose dp_half values feed the halo channels), posts it, and then
    /// computes the interior while the strips are in flight (paper
    /// Sec. V-A method 2). Reads only current-substep deviations at the
    /// cell's own and +1 stagger positions — no lateral halos — so any
    /// disjoint cover of the interior is bitwise identical to one
    /// full-range call.
    void phase_theta_half_region(const Tendencies<T>& slow, double dtau,
                                 Index i0, Index i1, Index j0, Index j1) {
        const Index nz = grid_.nz();
        const T rdx = T(1.0 / grid_.dx());
        const T rdy = T(1.0 / grid_.dy());
        const auto& jc = grid_.jacobian();
        const auto& jxf = grid_.jacobian_xface();
        const auto& jyf = grid_.jacobian_yface();
        const auto& zx = grid_.slope_x_zface();
        const auto& zy = grid_.slope_y_zface();
        const T half_dtau = T(0.5 * dtau);

        const Layout layout = grid_.layout();

        {
            KernelScope scope("theta_update_half",
                              {/*reads=*/10, /*writes=*/1, 14},
                              static_cast<std::uint64_t>(
                                  (i1 - i0) * (j1 - j0) * nz));
            parallel_for_range(j0, j1, [&](Index jb, Index je) {
            // Rolling row buffers of the vertical deviation flux
            // (J rho u3)' at the two faces bracketing level k (zero at the
            // bottom/top faces), computed once per face instead of twice
            // per cell; per-cell arithmetic is unchanged.
            const auto wi = static_cast<std::size_t>(i1 - i0);
            std::vector<T> fz_lo(wi), fz_hi(wi);
            for (Index j = jb; j < je; ++j) {
                std::fill(fz_lo.begin(), fz_lo.end(), T(0));  // bottom face
                for (Index k = 0; k < nz; ++k) {
                    const T rdz = T(1.0 / grid_.dzeta(k));
                    const Index kf = k + 1;  // upper face of level k
                    if (kf >= nz) {
                        std::fill(fz_hi.begin(), fz_hi.end(), T(0));
                    } else {
                        for_each_lane_chunk<T>(layout, i0, i1, [&](auto io,
                                                                   Index i) {
                            const auto ru =
                                T(0.25) * (io(du_, i, j, kf - 1) +
                                           io(du_, i + 1, j, kf - 1) +
                                           io(du_, i, j, kf) +
                                           io(du_, i + 1, j, kf));
                            const auto rv =
                                T(0.25) * (io(dv_, i, j, kf - 1) +
                                           io(dv_, i, j + 1, kf - 1) +
                                           io(dv_, i, j, kf) +
                                           io(dv_, i, j + 1, kf));
                            io.store(fz_hi.data() + (i - i0),
                                     io(dw_, i, j, kf) -
                                         ru * io(zx, i, j, kf) -
                                         rv * io(zy, i, j, kf));
                        });
                    }
                    for_each_lane_chunk<T>(layout, i0, i1, [&](auto io,
                                                               Index i) {
                        const auto div =
                            (io(jxf, i + 1, j, k) * io(thf_x_, i + 1, j, k) *
                                 io(du_, i + 1, j, k) -
                             io(jxf, i, j, k) * io(thf_x_, i, j, k) *
                                 io(du_, i, j, k)) *
                                rdx +
                            (io(jyf, i, j + 1, k) * io(thf_y_, i, j + 1, k) *
                                 io(dv_, i, j + 1, k) -
                             io(jyf, i, j, k) * io(thf_y_, i, j, k) *
                                 io(dv_, i, j, k)) *
                                rdy +
                            (io(thf_z_, i, j, k + 1) *
                                 io(fz_hi.data() + (i - i0)) -
                             io(thf_z_, i, j, k) *
                                 io(fz_lo.data() + (i - i0))) *
                                rdz;
                        const auto dth_half =
                            io(dth_, i, j, k) +
                            half_dtau * (io(slow.rhotheta, i, j, k) -
                                         div / io(jc, i, j, k));
                        io.store(dp_half_, i, j, k,
                                 io(cpt_, i, j, k) * dth_half);
                    });
                    fz_lo.swap(fz_hi);
                }
            }
            });
        }
    }

    /// RK2 phase 2: full-step update of the horizontal momentum deviations
    /// with the midpoint pressure gradient (paper Fig. 5 kernel (2)).
    /// Requires dp_half halos to be valid; caller must refresh du/dv halos
    /// afterwards.
    void phase_horizontal_momentum(const Tendencies<T>& slow, double dtau) {
        phase_momentum_x_rows(slow, dtau, 0, grid_.ny());
        phase_momentum_y_rows(slow, dtau, 0, grid_.ny());
    }

    /// x-momentum update restricted to rows [j0, j1). pgf_x reads only
    /// depth-1 x halos of dp_half — no y halos — so the overlapped runner
    /// launches ALL rows right after the dp_half x-strips unpack, without
    /// waiting for the y exchange (paper Sec. V-A method 2). Row regions
    /// are disjoint with unchanged per-cell arithmetic, hence bitwise
    /// identical to one full-range call.
    void phase_momentum_x_rows(const Tendencies<T>& slow, double dtau,
                               Index j0, Index j1) {
        const Index nx = grid_.nx(), nz = grid_.nz();
        KernelScope scope("pgf_x_short", {/*reads=*/4, /*writes=*/1, 16},
                          static_cast<std::uint64_t>(nx * (j1 - j0) * nz));
        // Zero, accumulate and update touch only their own row, so one
        // region runs all three per j-slab (pgf_x_rows nests inline).
        const T dt = T(dtau);
        parallel_for_range(j0, j1, [&](Index jb, Index je) {
            for_interior_rows(jb, je, [&](auto io, Index i, Index j, Index k) {
                io.store(tend_u_, i, j, k, io.splat(T(0)));
            });
            pgf_x_rows(grid_, dp_half_, tend_u_, jb, je);
            for_interior_rows(jb, je, [&](auto io, Index i, Index j, Index k) {
                io.store(du_, i, j, k,
                         io(du_, i, j, k) + dt * (io(tend_u_, i, j, k) +
                                                  io(slow.rhou, i, j, k)));
            });
        });
    }

    /// y-momentum update restricted to face rows [j0, j1). Face row j
    /// reads dp_half rows j-1 and j, so rows [1, ny) run before the south
    /// y halo arrives; only row 0 waits for it.
    void phase_momentum_y_rows(const Tendencies<T>& slow, double dtau,
                               Index j0, Index j1) {
        const Index nx = grid_.nx(), nz = grid_.nz();
        KernelScope scope("pgf_y_short", {/*reads=*/4, /*writes=*/1, 16},
                          static_cast<std::uint64_t>(nx * (j1 - j0) * nz));
        // One region per j-slab, as in phase_momentum_x_rows.
        const T dt = T(dtau);
        parallel_for_range(j0, j1, [&](Index jb, Index je) {
            for_interior_rows(jb, je, [&](auto io, Index i, Index j, Index k) {
                io.store(tend_v_, i, j, k, io.splat(T(0)));
            });
            pgf_y_rows(grid_, dp_half_, tend_v_, jb, je);
            for_interior_rows(jb, je, [&](auto io, Index i, Index j, Index k) {
                io.store(dv_, i, j, k,
                         io(dv_, i, j, k) + dt * (io(tend_v_, i, j, k) +
                                                  io(slow.rhov, i, j, k)));
            });
        });
    }

    /// The bottom kinematic condition for the deviation field; requires
    /// du/dv halos to be valid (one ring).
    void phase_bottom_kinematic() {
        const Index nx = grid_.nx(), ny = grid_.ny();
        const auto& zx = grid_.slope_x_zface();
        const auto& zy = grid_.slope_y_zface();
        parallel_for_range(-1, ny + 1, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j) {
                for (Index i = -1; i < nx + 1; ++i) {
                    const T dmu = T(0.5) * (du_(i, j, 0) + du_(i + 1, j, 0));
                    const T dmv = T(0.5) * (dv_(i, j, 0) + dv_(i, j + 1, 0));
                    dw_(i, j, 0) = dmu * zx(i, j, 0) + dmv * zy(i, j, 0);
                }
            }
        });
    }

    /// Phase 3: build and solve the vertical implicit (Helmholtz) system,
    /// then update rho', theta', p' over the interior columns. Reads only
    /// interior cells of the deviations; leaves their halos as they were.
    /// All nx columns of one j-row march k together (the CPU analogue of
    /// the paper's xzy storage order, Sec. IV-A-1): each level is one
    /// unit-stride row of lane chunks, and the row's tridiagonal systems
    /// are solved in one batched sweep.
    void phase_vertical_implicit(const Tendencies<T>& slow, double dtau) {
        const Index nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
        const T rdx = T(1.0 / grid_.dx());
        const T rdy = T(1.0 / grid_.dy());
        const auto& jc = grid_.jacobian();
        const auto& jzf = grid_.jacobian_zface();
        const auto& jxf = grid_.jacobian_xface();
        const auto& jyf = grid_.jacobian_yface();
        const auto& zx = grid_.slope_x_zface();
        const auto& zy = grid_.slope_y_zface();
        const T beta = T(cfg_.beta);
        const T one_m_beta = T(1.0) - beta;
        const T g = T(constants::g);
        const T dt = T(dtau);
        const T hgb = T(0.5) * dt * g * beta;
        const Layout layout = grid_.layout();
        const auto row_size = static_cast<std::size_t>(nx);

        {
        KernelScope scope("helmholtz_1d", {/*reads=*/12, /*writes=*/4, 12},
                          static_cast<std::uint64_t>(nx * ny * nz));
        parallel_for(ny, [&](Index jb, Index je) {
        // Row workspaces, level-major: level k of column i at k*nx + i.
        // Allocated once per j-slab.
        const auto levels = static_cast<std::size_t>(nz);
        std::vector<T> fzs((levels + 1) * row_size);
        std::vector<T> sub(levels * row_size), dia(levels * row_size),
            sup(levels * row_size), rhs(levels * row_size),
            scratch(levels * row_size), betav(row_size);
        auto at = [nx](std::vector<T>& v, Index k, Index i) {
            return v.data() + (k * nx + i);
        };
        for (Index j = jb; j < je; ++j) {
            // Vertical deviation fluxes at interior faces (zero at the
            // bottom/top faces).
            std::fill_n(at(fzs, 0, 0), nx, T(0));
            std::fill_n(at(fzs, nz, 0), nx, T(0));
            for (Index k = 1; k < nz; ++k) {
                for_each_lane_chunk<T>(layout, 0, nx, [&](auto io, Index i) {
                    const auto ru = T(0.25) * (io(du_, i, j, k - 1) +
                                               io(du_, i + 1, j, k - 1) +
                                               io(du_, i, j, k) +
                                               io(du_, i + 1, j, k));
                    const auto rv = T(0.25) * (io(dv_, i, j, k - 1) +
                                               io(dv_, i, j + 1, k - 1) +
                                               io(dv_, i, j, k) +
                                               io(dv_, i, j + 1, k));
                    io.store(at(fzs, k, i),
                             one_m_beta * io(dw_, i, j, k) -
                                 (ru * io(zx, i, j, k) + rv * io(zy, i, j, k)));
                });
            }
            // Explicit parts of the continuity and theta updates, kept in
            // dv3_/rv3_/cv3_ for the update kernels.
            for (Index k = 0; k < nz; ++k) {
                const T rdz = T(1.0 / grid_.dzeta(k));
                for_each_lane_chunk<T>(layout, 0, nx, [&](auto io, Index i) {
                    io.store(dv3_, i, j, k, dt * beta * rdz / io(jc, i, j, k));
                    const auto hdiv_rho =
                        (io(jxf, i + 1, j, k) * io(du_, i + 1, j, k) -
                         io(jxf, i, j, k) * io(du_, i, j, k)) *
                            rdx +
                        (io(jyf, i, j + 1, k) * io(dv_, i, j + 1, k) -
                         io(jyf, i, j, k) * io(dv_, i, j, k)) *
                            rdy;
                    const auto hdiv_th =
                        (io(jxf, i + 1, j, k) * io(thf_x_, i + 1, j, k) *
                             io(du_, i + 1, j, k) -
                         io(jxf, i, j, k) * io(thf_x_, i, j, k) *
                             io(du_, i, j, k)) *
                            rdx +
                        (io(jyf, i, j + 1, k) * io(thf_y_, i, j + 1, k) *
                             io(dv_, i, j + 1, k) -
                         io(jyf, i, j, k) * io(thf_y_, i, j, k) *
                             io(dv_, i, j, k)) *
                            rdy;
                    const auto hrho = -hdiv_rho / io(jc, i, j, k);
                    const auto hth = -hdiv_th / io(jc, i, j, k);
                    const auto fz_lo = io(at(fzs, k, i));
                    const auto fz_hi = io(at(fzs, k + 1, i));
                    const auto vflux_rho =
                        (fz_hi - fz_lo) * rdz / io(jc, i, j, k);
                    const auto vflux_th = (io(thf_z_, i, j, k + 1) * fz_hi -
                                           io(thf_z_, i, j, k) * fz_lo) *
                                          rdz / io(jc, i, j, k);
                    io.store(rv3_, i, j, k,
                             io(drho_, i, j, k) +
                                 dt * (hrho + io(slow.rho, i, j, k) -
                                       vflux_rho));
                    io.store(cv3_, i, j, k,
                             io(dth_, i, j, k) +
                                 dt * (hth + io(slow.rhotheta, i, j, k) -
                                       vflux_th));
                });
            }
            // Assemble the tridiagonal systems for W' at faces 1..nz-1
            // (system row k-1).
            for (Index k = 1; k < nz; ++k) {
                const T dzc =
                    T(grid_.zeta_center(k) - grid_.zeta_center(k - 1));
                for_each_lane_chunk<T>(layout, 0, nx, [&](auto io, Index i) {
                    const auto gk = dt / (io(jzf, i, j, k) * dzc);
                    const auto cpt_k = io(cpt_, i, j, k);
                    const auto cpt_m = io(cpt_, i, j, k - 1);
                    const auto gb = gk * beta;
                    const auto thf_m = io(thf_z_, i, j, k - 1);
                    const auto thf_k = io(thf_z_, i, j, k);
                    const auto thf_p = io(thf_z_, i, j, k + 1);
                    const auto d_m = io(dv3_, i, j, k - 1);
                    const auto d_k = io(dv3_, i, j, k);
                    auto a = -gb * cpt_m * d_m * thf_m + hgb * d_m;
                    const auto b =
                        T(1) +
                        gb * (cpt_k * d_k * thf_k + cpt_m * d_m * thf_k) +
                        hgb * (d_k - d_m);
                    auto c = -gb * cpt_k * d_k * thf_p - hgb * d_k;
                    const auto r =
                        io(dw_, i, j, k) + dt * io(slow.rhow, i, j, k) -
                        gk * (beta * (cpt_k * io(cv3_, i, j, k) -
                                      cpt_m * io(cv3_, i, j, k - 1)) +
                              one_m_beta *
                                  (io(dp_, i, j, k) - io(dp_, i, j, k - 1))) -
                        dt * g *
                            (beta * T(0.5) *
                                 (io(rv3_, i, j, k - 1) + io(rv3_, i, j, k)) +
                             one_m_beta * T(0.5) *
                                 (io(drho_, i, j, k - 1) +
                                  io(drho_, i, j, k)));
                    // Boundary folds: W'_0 and W'_nz carry no flux.
                    if (k == 1) a = io.splat(T(0));
                    if (k == nz - 1) c = io.splat(T(0));
                    io.store(at(sub, k - 1, i), a);
                    io.store(at(dia, k - 1, i), b);
                    io.store(at(sup, k - 1, i), c);
                    io.store(at(rhs, k - 1, i), r);
                });
            }
            solve_tridiagonal_batched<T>(sub.data(), dia.data(), sup.data(),
                                         rhs.data(), scratch.data(),
                                         betav.data(), nz - 1, nx);
            for (Index k = 1; k < nz; ++k) {
                for_each_lane_chunk<T>(layout, 0, nx, [&](auto io, Index i) {
                    io.store(dw_, i, j, k, io(at(rhs, k - 1, i)));
                });
            }
            for (Index i = 0; i < nx; ++i) dw_(i, j, nz) = T(0);
        }
        });
        }  // helmholtz_1d scope
        update_after_implicit();
    }

  private:
    /// Run body(io, i, j, k) over the interior cells of rows [jb, je),
    /// k by k, each x row in lane chunks (for_each_lane_chunk).
    template <class Body>
    void for_interior_rows(Index jb, Index je, Body&& body) const {
        const Index nx = grid_.nx(), nz = grid_.nz();
        const Layout layout = grid_.layout();
        for (Index j = jb; j < je; ++j)
            for (Index k = 0; k < nz; ++k)
                for_each_lane_chunk<T>(layout, 0, nx, [&](auto io, Index i) {
                    body(io, i, j, k);
                });
    }

    /// New rho' and theta' of one lane chunk from the explicit parts the
    /// sweep kept and the new W' (zero at the bottom and top faces).
    template <class IO>
    auto new_drho(IO io, Index i, Index j, Index k) const {
        const auto w_lo = k == 0 ? io.splat(T(0)) : io(dw_, i, j, k);
        const auto w_hi =
            k == grid_.nz() - 1 ? io.splat(T(0)) : io(dw_, i, j, k + 1);
        return io(rv3_, i, j, k) - io(dv3_, i, j, k) * (w_hi - w_lo);
    }
    template <class IO>
    auto new_dth(IO io, Index i, Index j, Index k) const {
        const auto w_lo = k == 0 ? io.splat(T(0)) : io(dw_, i, j, k);
        const auto w_hi =
            k == grid_.nz() - 1 ? io.splat(T(0)) : io(dw_, i, j, k + 1);
        return io(cv3_, i, j, k) -
               io(dv3_, i, j, k) * (io(thf_z_, i, j, k + 1) * w_hi -
                                    io(thf_z_, i, j, k) * w_lo);
    }

    /// Final rho', theta', p' updates with the beta-averaged new W' from
    /// the explicit parts the sweep kept. The fused variant (paper
    /// Sec. V-A method 3 "logical fusion") performs all three updates in
    /// one streaming pass so the shared dw/dv3 operands are read once and
    /// the density update rides in the theta kernel's window; per-cell
    /// arithmetic is unchanged, so both variants are bitwise identical
    /// (asserted by tests/test_multidomain.cpp: the decomposed runner
    /// fuses, the single-domain stepper does not).
    void update_after_implicit() {
        const Index nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
        const auto cells = static_cast<std::uint64_t>(nx * ny * nz);
        if (cfg_.fuse_density_theta) {
            KernelScope scope("density_theta_fused",
                              {/*reads=*/6, /*writes=*/3, 6}, cells);
            parallel_for(ny, [&](Index jb, Index je) {
                for_interior_rows(jb, je, [&](auto io, Index i, Index j,
                                              Index k) {
                    io.store(drho_, i, j, k, new_drho(io, i, j, k));
                    const auto th = new_dth(io, i, j, k);
                    io.store(dth_, i, j, k, th);
                    io.store(dp_, i, j, k, io(cpt_, i, j, k) * th);
                });
            });
            return;
        }
        {
            KernelScope scope("continuity_update",
                              {/*reads=*/3, /*writes=*/1, 2}, cells);
            parallel_for(ny, [&](Index jb, Index je) {
                for_interior_rows(jb, je, [&](auto io, Index i, Index j,
                                              Index k) {
                    io.store(drho_, i, j, k, new_drho(io, i, j, k));
                });
            });
        }
        {
            KernelScope scope("theta_update", {/*reads=*/4, /*writes=*/1, 4},
                              cells);
            parallel_for(ny, [&](Index jb, Index je) {
                for_interior_rows(jb, je, [&](auto io, Index i, Index j,
                                              Index k) {
                    io.store(dth_, i, j, k, new_dth(io, i, j, k));
                });
            });
        }
        {
            KernelScope scope("pressure_update", {/*reads=*/2, /*writes=*/1, 0},
                              cells);
            parallel_for(ny, [&](Index jb, Index je) {
                for_interior_rows(jb, je, [&](auto io, Index i, Index j,
                                              Index k) {
                    io.store(dp_, i, j, k,
                             io(cpt_, i, j, k) * io(dth_, i, j, k));
                });
            });
        }
    }

    const Grid<T>& grid_;
    AcousticConfig cfg_;
    // Linearization coefficients (frozen per RK stage).
    Array3<T> cpt_;  ///< dp/d(rho theta_m) at centers
    Array3<T> thf_x_, thf_y_, thf_z_;  ///< face theta_m
    // Deviations.
    Array3<T> du_, dv_, dw_, drho_, dth_, dp_;
    // Workspace.
    Array3<T> dp_half_, tend_u_, tend_v_;
    Array3<T> cv3_, rv3_, dv3_;  ///< explicit parts of the implicit update
};

}  // namespace asuca
