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
    /// Column-batch width of the vertical implicit solve (the CPU analogue
    /// of the paper's kij->xzy layout change, Sec. IV-A-1): W columns are
    /// swept simultaneously with the column index innermost and
    /// unit-stride, so the Thomas recurrences auto-vectorize.
    ///   0   — auto: the SIMD default (field/simd.hpp);
    ///   W>0 — exactly W columns per sweep (W=1 marches one column at a
    ///         time through the same code).
    /// Every width produces bitwise-identical results on default builds
    /// (each lane runs the same op sequence; see DESIGN.md).
    Index column_batch = 0;
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
          dv3_(center_shape(grid), grid.halo(), grid.layout()),
          batch_w_(resolve_column_batch<T>(config.column_batch)) {
        ASUCA_REQUIRE(config.beta >= 0.5 && config.beta <= 1.0,
                      "acoustic beta must be in [0.5, 1], got "
                          << config.beta);
    }

    /// Resolved column-batch width (config value or SIMD default).
    Index column_batch_width() const { return batch_w_; }

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

        {
            KernelScope scope("theta_update_half",
                              {/*reads=*/10, /*writes=*/1, 14},
                              static_cast<std::uint64_t>(
                                  (i1 - i0) * (j1 - j0) * nz));
            parallel_for_range(j0, j1, [&](Index jb, Index je) {
            // Rolling buffers of the vertical deviation flux (J rho u3)' at
            // the two faces bracketing level k (zero at the bottom/top
            // faces), computed once per face instead of twice per cell.
            // The inner i loops are unit-stride under Layout::XZY and carry
            // no branches, so they auto-vectorize; per-cell arithmetic is
            // unchanged, hence bitwise identical to the unbuffered form.
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
                        for (Index i = i0; i < i1; ++i) {
                            const T ru =
                                T(0.25) *
                                (du_(i, j, kf - 1) + du_(i + 1, j, kf - 1) +
                                 du_(i, j, kf) + du_(i + 1, j, kf));
                            const T rv =
                                T(0.25) *
                                (dv_(i, j, kf - 1) + dv_(i, j + 1, kf - 1) +
                                 dv_(i, j, kf) + dv_(i, j + 1, kf));
                            fz_hi[static_cast<std::size_t>(i - i0)] =
                                dw_(i, j, kf) - ru * zx(i, j, kf) -
                                rv * zy(i, j, kf);
                        }
                    }
                    for (Index i = i0; i < i1; ++i) {
                        const auto l = static_cast<std::size_t>(i - i0);
                        const T div =
                            (jxf(i + 1, j, k) * thf_x_(i + 1, j, k) *
                                 du_(i + 1, j, k) -
                             jxf(i, j, k) * thf_x_(i, j, k) * du_(i, j, k)) *
                                rdx +
                            (jyf(i, j + 1, k) * thf_y_(i, j + 1, k) *
                                 dv_(i, j + 1, k) -
                             jyf(i, j, k) * thf_y_(i, j, k) * dv_(i, j, k)) *
                                rdy +
                            (thf_z_(i, j, k + 1) * fz_hi[l] -
                             thf_z_(i, j, k) * fz_lo[l]) *
                                rdz;
                        const T dth_half =
                            dth_(i, j, k) +
                            half_dtau * (slow.rhotheta(i, j, k) -
                                         div / jc(i, j, k));
                        dp_half_(i, j, k) = cpt_(i, j, k) * dth_half;
                    }
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
        parallel_for_range(j0, j1, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j)
                for (Index k = 0; k < nz; ++k)
                    for (Index i = 0; i < nx; ++i) tend_u_(i, j, k) = T(0);
            pgf_x_rows(grid_, dp_half_, tend_u_, jb, je);
            for (Index j = jb; j < je; ++j)
                for (Index k = 0; k < nz; ++k)
                    for (Index i = 0; i < nx; ++i)
                        du_(i, j, k) += T(dtau) * (tend_u_(i, j, k) +
                                                    slow.rhou(i, j, k));
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
        parallel_for_range(j0, j1, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j)
                for (Index k = 0; k < nz; ++k)
                    for (Index i = 0; i < nx; ++i) tend_v_(i, j, k) = T(0);
            pgf_y_rows(grid_, dp_half_, tend_v_, jb, je);
            for (Index j = jb; j < je; ++j)
                for (Index k = 0; k < nz; ++k)
                    for (Index i = 0; i < nx; ++i)
                        dv_(i, j, k) += T(dtau) * (tend_v_(i, j, k) +
                                                    slow.rhov(i, j, k));
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
    /// The sweep marches batch_w_ columns of one j-row simultaneously over
    /// interleaved column-block workspaces (lane index innermost and
    /// unit-stride, the CPU analogue of the paper's xzy storage order,
    /// Sec. IV-A-1); at width 1 it marches one column at a time.
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

        const auto n = static_cast<std::size_t>(nz);
        const auto W = static_cast<std::size_t>(batch_w_);

        {
        KernelScope scope("helmholtz_1d", {/*reads=*/12, /*writes=*/4, 12},
                          static_cast<std::uint64_t>(nx * ny * nz));
        parallel_for(ny, [&](Index jb, Index je) {
        // Interleaved column-block workspaces: level k of lane l lives at
        // k*W + l, so every inner lane loop below is unit-stride and
        // auto-vectorizes. Allocated once per j-slab.
        std::vector<T> fzs((n + 1) * W);
        std::vector<T> Dv(n * W), Rv(n * W), Cv(n * W);
        std::vector<T> sub(n * W), dia(n * W), sup(n * W), rhs(n * W),
            scratch(n * W), betav(W);
        for (Index j = jb; j < je; ++j) {
            for (Index ib = 0; ib < nx; ib += batch_w_) {
                const Index iw = std::min(batch_w_, nx - ib);
                const auto w = static_cast<std::size_t>(iw);
                // Vertical deviation fluxes at interior faces (zero at the
                // bottom/top faces), lane-interleaved.
                for (std::size_t l = 0; l < w; ++l) {
                    fzs[l] = T(0);
                    fzs[n * W + l] = T(0);
                }
                for (Index k = 1; k < nz; ++k) {
                    const std::size_t row = static_cast<std::size_t>(k) * W;
                    for (Index l = 0; l < iw; ++l) {
                        const Index i = ib + l;
                        const T ru =
                            T(0.25) *
                            (du_(i, j, k - 1) + du_(i + 1, j, k - 1) +
                             du_(i, j, k) + du_(i + 1, j, k));
                        const T rv =
                            T(0.25) *
                            (dv_(i, j, k - 1) + dv_(i, j + 1, k - 1) +
                             dv_(i, j, k) + dv_(i, j + 1, k));
                        fzs[row + static_cast<std::size_t>(l)] =
                            one_m_beta * dw_(i, j, k) -
                            (ru * zx(i, j, k) + rv * zy(i, j, k));
                    }
                }
                // Explicit parts of the continuity and theta updates.
                for (Index k = 0; k < nz; ++k) {
                    const std::size_t row = static_cast<std::size_t>(k) * W;
                    const T rdz = T(1.0 / grid_.dzeta(k));
                    for (Index l = 0; l < iw; ++l) {
                        const Index i = ib + l;
                        const auto lu = static_cast<std::size_t>(l);
                        Dv[row + lu] = dt * beta * rdz / jc(i, j, k);
                        const T hdiv_rho =
                            (jxf(i + 1, j, k) * du_(i + 1, j, k) -
                             jxf(i, j, k) * du_(i, j, k)) *
                                rdx +
                            (jyf(i, j + 1, k) * dv_(i, j + 1, k) -
                             jyf(i, j, k) * dv_(i, j, k)) *
                                rdy;
                        const T hdiv_th =
                            (jxf(i + 1, j, k) * thf_x_(i + 1, j, k) *
                                 du_(i + 1, j, k) -
                             jxf(i, j, k) * thf_x_(i, j, k) * du_(i, j, k)) *
                                rdx +
                            (jyf(i, j + 1, k) * thf_y_(i, j + 1, k) *
                                 dv_(i, j + 1, k) -
                             jyf(i, j, k) * thf_y_(i, j, k) * dv_(i, j, k)) *
                                rdy;
                        const T hrho = -hdiv_rho / jc(i, j, k);
                        const T hth = -hdiv_th / jc(i, j, k);
                        const T vflux_rho =
                            (fzs[row + W + lu] - fzs[row + lu]) * rdz /
                            jc(i, j, k);
                        const T vflux_th =
                            (thf_z_(i, j, k + 1) * fzs[row + W + lu] -
                             thf_z_(i, j, k) * fzs[row + lu]) *
                            rdz / jc(i, j, k);
                        Rv[row + lu] =
                            drho_(i, j, k) +
                            dt * (hrho + slow.rho(i, j, k) - vflux_rho);
                        Cv[row + lu] =
                            dth_(i, j, k) +
                            dt * (hth + slow.rhotheta(i, j, k) - vflux_th);
                    }
                }
                // Assemble the tridiagonal systems for W' at faces
                // 1..nz-1 (system row k-1, lane-interleaved).
                for (Index k = 1; k < nz; ++k) {
                    const std::size_t row =
                        static_cast<std::size_t>(k - 1) * W;
                    const std::size_t ku = row + W;  // level k block
                    const std::size_t km = row;      // level k-1 block
                    const T dzc = T(grid_.zeta_center(k) -
                                    grid_.zeta_center(k - 1));
                    for (Index l = 0; l < iw; ++l) {
                        const Index i = ib + l;
                        const auto lu = static_cast<std::size_t>(l);
                        const T gk = dt / (jzf(i, j, k) * dzc);
                        const T cpt_k = cpt_(i, j, k);
                        const T cpt_m = cpt_(i, j, k - 1);
                        const T gb = gk * beta;
                        const T thf_m = thf_z_(i, j, k - 1);
                        const T thf_k = thf_z_(i, j, k);
                        const T thf_p = thf_z_(i, j, k + 1);
                        T a = -gb * cpt_m * Dv[km + lu] * thf_m +
                              hgb * Dv[km + lu];
                        T b = T(1) +
                              gb * (cpt_k * Dv[ku + lu] * thf_k +
                                    cpt_m * Dv[km + lu] * thf_k) +
                              hgb * (Dv[ku + lu] - Dv[km + lu]);
                        T c = -gb * cpt_k * Dv[ku + lu] * thf_p -
                              hgb * Dv[ku + lu];
                        T r = dw_(i, j, k) + dt * slow.rhow(i, j, k) -
                              gk * (beta * (cpt_k * Cv[ku + lu] -
                                            cpt_m * Cv[km + lu]) +
                                    one_m_beta *
                                        (dp_(i, j, k) - dp_(i, j, k - 1))) -
                              dt * g *
                                  (beta * T(0.5) *
                                       (Rv[km + lu] + Rv[ku + lu]) +
                                   one_m_beta * T(0.5) *
                                       (drho_(i, j, k - 1) +
                                        drho_(i, j, k)));
                        // Boundary folds: W'_0 and W'_nz carry no flux.
                        if (k == 1) a = T(0);
                        if (k == nz - 1) c = T(0);
                        sub[row + lu] = a;
                        dia[row + lu] = b;
                        sup[row + lu] = c;
                        rhs[row + lu] = r;
                    }
                }
                solve_tridiagonal_batched<T>(sub.data(), dia.data(),
                                             sup.data(), rhs.data(),
                                             scratch.data(), betav.data(),
                                             n - 1, w, W);
                for (Index k = 1; k < nz; ++k) {
                    const std::size_t row =
                        static_cast<std::size_t>(k - 1) * W;
                    for (Index l = 0; l < iw; ++l) {
                        dw_(ib + l, j, k) =
                            rhs[row + static_cast<std::size_t>(l)];
                    }
                }
                for (Index l = 0; l < iw; ++l) dw_(ib + l, j, nz) = T(0);
                // Stash the explicit parts for the update kernels.
                for (Index k = 0; k < nz; ++k) {
                    const std::size_t row = static_cast<std::size_t>(k) * W;
                    for (Index l = 0; l < iw; ++l) {
                        const Index i = ib + l;
                        const auto lu = static_cast<std::size_t>(l);
                        cv3_(i, j, k) = Cv[row + lu];
                        rv3_(i, j, k) = Rv[row + lu];
                        dv3_(i, j, k) = Dv[row + lu];
                    }
                }
            }
        }
        });
        }  // helmholtz_1d scope
        update_after_implicit();
    }

  private:
    /// Final rho', theta', p' updates with the beta-averaged new W' from
    /// the explicit parts the sweep stashed. The fused variant (paper
    /// Sec. V-A method 3 "logical fusion") performs all three updates in
    /// one streaming pass so the shared dw/dv3 operands are read once and
    /// the density update rides in the theta kernel's window; per-cell arithmetic is unchanged, so both variants are
    /// bitwise identical (asserted by tests/test_multidomain.cpp: the
    /// decomposed runner fuses, the single-domain stepper does not).
    void update_after_implicit() {
        const Index nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
        if (cfg_.fuse_density_theta) {
            KernelScope scope("density_theta_fused",
                              {/*reads=*/6, /*writes=*/3, 6},
                              static_cast<std::uint64_t>(nx * ny * nz));
            parallel_for(ny, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j)
                for (Index k = 0; k < nz; ++k)
                    for (Index i = 0; i < nx; ++i) {
                        const T w_lo = (k == 0) ? T(0) : dw_(i, j, k);
                        const T w_hi =
                            (k == nz - 1) ? T(0) : dw_(i, j, k + 1);
                        drho_(i, j, k) =
                            rv3_(i, j, k) - dv3_(i, j, k) * (w_hi - w_lo);
                        dth_(i, j, k) =
                            cv3_(i, j, k) -
                            dv3_(i, j, k) * (thf_z_(i, j, k + 1) * w_hi -
                                             thf_z_(i, j, k) * w_lo);
                        dp_(i, j, k) = cpt_(i, j, k) * dth_(i, j, k);
                    }
            });
            return;
        }
        {
            KernelScope scope("continuity_update",
                              {/*reads=*/3, /*writes=*/1, 2},
                              static_cast<std::uint64_t>(nx * ny * nz));
            parallel_for(ny, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j)
                for (Index k = 0; k < nz; ++k)
                    for (Index i = 0; i < nx; ++i) {
                        const T w_lo = (k == 0) ? T(0) : dw_(i, j, k);
                        const T w_hi =
                            (k == nz - 1) ? T(0) : dw_(i, j, k + 1);
                        drho_(i, j, k) =
                            rv3_(i, j, k) - dv3_(i, j, k) * (w_hi - w_lo);
                    }
            });
        }
        {
            KernelScope scope("theta_update", {/*reads=*/4, /*writes=*/1, 4},
                              static_cast<std::uint64_t>(nx * ny * nz));
            parallel_for(ny, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j)
                for (Index k = 0; k < nz; ++k)
                    for (Index i = 0; i < nx; ++i) {
                        const T w_lo = (k == 0) ? T(0) : dw_(i, j, k);
                        const T w_hi =
                            (k == nz - 1) ? T(0) : dw_(i, j, k + 1);
                        dth_(i, j, k) =
                            cv3_(i, j, k) -
                            dv3_(i, j, k) * (thf_z_(i, j, k + 1) * w_hi -
                                             thf_z_(i, j, k) * w_lo);
                    }
            });
        }
        {
            KernelScope scope("pressure_update", {/*reads=*/2, /*writes=*/1, 0},
                              static_cast<std::uint64_t>(nx * ny * nz));
            parallel_for(ny, [&](Index jb, Index je) {
                for (Index j = jb; j < je; ++j)
                    for (Index k = 0; k < nz; ++k)
                        for (Index i = 0; i < nx; ++i)
                            dp_(i, j, k) = cpt_(i, j, k) * dth_(i, j, k);
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
    Index batch_w_;  ///< resolved column-batch width (columns per sweep)
};

}  // namespace asuca
