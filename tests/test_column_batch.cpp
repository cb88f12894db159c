// The short-step kernels run each per-cell expression along unit-stride
// x rows on SIMD lanes (Lanes<T>, field/simd.hpp): whole lane chunks of a
// row, then a scalar remainder through the same expression, and a strided
// lane gather under the kij layout. The vertical implicit solve (paper
// Fig. 5 kernel (4)) marches all nx columns of one j-row together (the
// CPU analogue of the paper's kij->xzy layout change, Sec. IV-A-1). Each
// lane executes the one-cell operation sequence, so on default builds (no
// implicit FMA contraction) every kernel must be bitwise identical to its
// scalar form. These tests pin that claim: the implicit phase against a
// test-local one-column sweep built from public inputs only, every other
// lane kernel against a test-local scalar copy of its loop (odd row
// widths on both sides of a lane chunk, the decomposed runner's strip
// regions), both layouts and both precisions, and the full RK3/HE-VI
// step with microphysics across layouts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/acoustic.hpp"
#include "src/core/diagnostics.hpp"
#include "src/core/initial.hpp"
#include "src/core/scenarios.hpp"
#include "src/field/simd.hpp"
#include "src/instrument/counting_real.hpp"

namespace asuca {
namespace {

template <class T>
void expect_bitwise_equal(const Array3<T>& a, const Array3<T>& b,
                          const char* name) {
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0)
        << name << " differs (max |diff| = " << max_abs_diff(a, b) << ")";
}

TEST(ColumnBatch, AutoWidthDefaultsToSimdMultiple) {
    // The kernels run at exactly the native lane width; the benchmark
    // envelope's resolve_column_batch reports it whatever it is passed.
    EXPECT_EQ((lane_count<Lanes<double>, double>), simd_lanes<double>());
    EXPECT_EQ((lane_count<Lanes<float>, float>), simd_lanes<float>());
    EXPECT_EQ(resolve_column_batch<double>(0), simd_lanes<double>());
    EXPECT_EQ(resolve_column_batch<double>(8), simd_lanes<double>());
    // The FLOP counter runs one cell at a time.
    EXPECT_TRUE((std::is_same_v<Lanes<CountedDouble>, CountedDouble>));
}

// ---------------------------------------------------------------------
// Implicit phase in isolation: the stepper's sweep at any width must
// reproduce, bit for bit, the one-column sweep below on the same inputs.

/// The one-column Helmholtz sweep and rho'/theta'/p' update: the reference
/// every batch width is compared against. It sees only what a caller of
/// AcousticStepper sees — the grid, the linearization state `bar` (from
/// which it rebuilds the coefficients exactly as `prepare` does), the slow
/// forcing and the deviations — and marches each (i, j) column on its own
/// with the scalar Thomas solver. Reads `du`, `dv`; updates `dw`, `drho`,
/// `dth` and `dp` over the interior columns and leaves their halos as they
/// were.
template <class T>
void one_column_vertical_implicit(const Grid<T>& grid, const State<T>& bar,
                                  const Tendencies<T>& slow, double beta_cfg,
                                  double dtau, const Array3<T>& du,
                                  const Array3<T>& dv, Array3<T>& dw,
                                  Array3<T>& drho, Array3<T>& dth,
                                  Array3<T>& dp) {
    const Index nx = grid.nx(), ny = grid.ny(), nz = grid.nz();
    const T rdx = T(1.0 / grid.dx());
    const T rdy = T(1.0 / grid.dy());
    const auto& jc = grid.jacobian();
    const auto& jzf = grid.jacobian_zface();
    const auto& jxf = grid.jacobian_xface();
    const auto& jyf = grid.jacobian_yface();
    const auto& zx = grid.slope_x_zface();
    const auto& zy = grid.slope_y_zface();
    const T beta = T(beta_cfg);
    const T one_m_beta = T(1.0) - beta;
    const T g = T(constants::g);
    const T dt = T(dtau);
    const T hgb = T(0.5) * dt * g * beta;

    // Linearization coefficients, as AcousticStepper::prepare builds them.
    auto cpt = [&](Index i, Index j, Index k) {
        return eos_dp_drhotheta(bar.p(i, j, k), bar.rhotheta(i, j, k));
    };
    auto theta = [&](Index i, Index j, Index k) {
        return bar.rhotheta(i, j, k) / bar.rho(i, j, k);
    };
    auto thf_x = [&](Index i, Index j, Index k) {
        return T(0.5) * (theta(i - 1, j, k) + theta(i, j, k));
    };
    auto thf_y = [&](Index i, Index j, Index k) {
        return T(0.5) * (theta(i, j - 1, k) + theta(i, j, k));
    };
    auto thf_z = [&](Index i, Index j, Index k) {
        const Index km = k > 0 ? k - 1 : 0;
        const Index kc = k < nz ? k : nz - 1;
        return T(0.5) * (theta(i, j, km) + theta(i, j, kc));
    };

    const auto n = static_cast<std::size_t>(nz);
    std::vector<T> fzs(n + 1), Dv(n), Rv(n), Cv(n);
    std::vector<T> sub(n), dia(n), sup(n), rhs(n), scratch(n);
    for (Index j = 0; j < ny; ++j) {
        for (Index i = 0; i < nx; ++i) {
            // Vertical deviation fluxes; zero at the bottom/top faces.
            fzs[0] = T(0);
            fzs[n] = T(0);
            for (Index k = 1; k < nz; ++k) {
                const T ru = T(0.25) * (du(i, j, k - 1) + du(i + 1, j, k - 1) +
                                        du(i, j, k) + du(i + 1, j, k));
                const T rv = T(0.25) * (dv(i, j, k - 1) + dv(i, j + 1, k - 1) +
                                        dv(i, j, k) + dv(i, j + 1, k));
                fzs[static_cast<std::size_t>(k)] =
                    one_m_beta * dw(i, j, k) -
                    (ru * zx(i, j, k) + rv * zy(i, j, k));
            }
            // Explicit parts of the continuity and theta updates.
            for (Index k = 0; k < nz; ++k) {
                const auto ku = static_cast<std::size_t>(k);
                const T rdz = T(1.0 / grid.dzeta(k));
                Dv[ku] = dt * beta * rdz / jc(i, j, k);
                const T hdiv_rho = (jxf(i + 1, j, k) * du(i + 1, j, k) -
                                    jxf(i, j, k) * du(i, j, k)) *
                                       rdx +
                                   (jyf(i, j + 1, k) * dv(i, j + 1, k) -
                                    jyf(i, j, k) * dv(i, j, k)) *
                                       rdy;
                const T hdiv_th =
                    (jxf(i + 1, j, k) * thf_x(i + 1, j, k) * du(i + 1, j, k) -
                     jxf(i, j, k) * thf_x(i, j, k) * du(i, j, k)) *
                        rdx +
                    (jyf(i, j + 1, k) * thf_y(i, j + 1, k) * dv(i, j + 1, k) -
                     jyf(i, j, k) * thf_y(i, j, k) * dv(i, j, k)) *
                        rdy;
                const T hrho = -hdiv_rho / jc(i, j, k);
                const T hth = -hdiv_th / jc(i, j, k);
                const T vflux_rho = (fzs[ku + 1] - fzs[ku]) * rdz / jc(i, j, k);
                const T vflux_th = (thf_z(i, j, k + 1) * fzs[ku + 1] -
                                    thf_z(i, j, k) * fzs[ku]) *
                                   rdz / jc(i, j, k);
                Rv[ku] = drho(i, j, k) +
                         dt * (hrho + slow.rho(i, j, k) - vflux_rho);
                Cv[ku] = dth(i, j, k) +
                         dt * (hth + slow.rhotheta(i, j, k) - vflux_th);
            }
            // Tridiagonal system for W' at faces 1..nz-1 (row k-1).
            for (Index k = 1; k < nz; ++k) {
                const auto ku = static_cast<std::size_t>(k);
                const auto km = ku - 1;
                const T gk = dt / (jzf(i, j, k) * T(grid.zeta_center(k) -
                                                    grid.zeta_center(k - 1)));
                const T cpt_k = cpt(i, j, k);
                const T cpt_m = cpt(i, j, k - 1);
                const T gb = gk * beta;
                const T thf_m = thf_z(i, j, k - 1);
                const T thf_k = thf_z(i, j, k);
                const T thf_p = thf_z(i, j, k + 1);
                T a = -gb * cpt_m * Dv[km] * thf_m + hgb * Dv[km];
                T b = T(1) +
                      gb * (cpt_k * Dv[ku] * thf_k + cpt_m * Dv[km] * thf_k) +
                      hgb * (Dv[ku] - Dv[km]);
                T c = -gb * cpt_k * Dv[ku] * thf_p - hgb * Dv[ku];
                const T r =
                    dw(i, j, k) + dt * slow.rhow(i, j, k) -
                    gk * (beta * (cpt_k * Cv[ku] - cpt_m * Cv[km]) +
                          one_m_beta * (dp(i, j, k) - dp(i, j, k - 1))) -
                    dt * g *
                        (beta * T(0.5) * (Rv[km] + Rv[ku]) +
                         one_m_beta * T(0.5) *
                             (drho(i, j, k - 1) + drho(i, j, k)));
                if (k == 1) a = T(0);
                if (k == nz - 1) c = T(0);
                sub[km] = a;
                dia[km] = b;
                sup[km] = c;
                rhs[km] = r;
            }
            solve_tridiagonal<T>(std::span<const T>(sub.data(), n - 1),
                                 std::span<const T>(dia.data(), n - 1),
                                 std::span<const T>(sup.data(), n - 1),
                                 std::span<T>(rhs.data(), n - 1),
                                 std::span<T>(scratch.data(), n - 1));
            for (Index k = 1; k < nz; ++k)
                dw(i, j, k) = rhs[static_cast<std::size_t>(k - 1)];
            dw(i, j, nz) = T(0);
            // Continuity, theta and pressure updates with the new W'.
            for (Index k = 0; k < nz; ++k) {
                const auto ku = static_cast<std::size_t>(k);
                const T w_lo = (k == 0) ? T(0) : dw(i, j, k);
                const T w_hi = (k == nz - 1) ? T(0) : dw(i, j, k + 1);
                drho(i, j, k) = Rv[ku] - Dv[ku] * (w_hi - w_lo);
                dth(i, j, k) = Cv[ku] - Dv[ku] * (thf_z(i, j, k + 1) * w_hi -
                                                  thf_z(i, j, k) * w_lo);
                dp(i, j, k) = cpt(i, j, k) * dth(i, j, k);
            }
        }
    }
}

/// A smooth nonzero pattern over every padded cell of `a`.
template <class T>
void fill_smooth(Array3<T>& a, double amplitude, double phase) {
    const Index h = a.halo();
    for (Index j = -h; j < a.ny() + h; ++j)
        for (Index k = -h; k < a.nz() + h; ++k)
            for (Index i = -h; i < a.nx() + h; ++i)
                a(i, j, k) = T(amplitude *
                               std::sin(0.7 * double(i) + 0.4 * double(j) +
                                        phase) *
                               std::cos(0.3 * double(k) + phase));
}

/// An acoustic stepper on an nx x 6 x 16 bell-mountain grid in `layout`,
/// with nonzero slow forcing and a few substeps taken, so every deviation
/// a short-step kernel reads is nontrivial.
template <class T>
struct PhaseSetup {
    GridSpec spec;
    Grid<T> grid;
    State<T> state;
    Tendencies<T> slow;
    AcousticStepper<T> stepper;

    PhaseSetup(Index nx, Layout layout, bool fuse_density_theta = false)
        : spec(make_spec(nx, layout)), grid(spec),
          state(grid, SpeciesSet::dry()), slow(grid, SpeciesSet::dry()),
          stepper(grid, make_config(fuse_density_theta)) {
        initialize_hydrostatic(grid,
                               AtmosphereProfile::constant_n(300.0, 0.01),
                               5.0, 2.0, state);
        add_theta_bubble(grid, 1.5, 6000.0, 3000.0, 5000.0, 3000.0, 3000.0,
                         2000.0, state);
        // Nonzero slow forcing, so every slow-tendency term of the
        // short-step right-hand sides takes part in the comparison.
        fill_smooth(slow.rho, 1e-5, 0.1);
        fill_smooth(slow.rhou, 1e-3, 0.2);
        fill_smooth(slow.rhov, 1e-3, 0.3);
        fill_smooth(slow.rhow, 1e-3, 0.4);
        fill_smooth(slow.rhotheta, 3e-3, 0.5);
        stepper.prepare(state);
        stepper.init_deviations(state, state);
        for (int n = 0; n < 4; ++n) {
            stepper.substep(slow, 1.0, LateralBc::Periodic);
        }
    }

    static AcousticConfig make_config(bool fuse_density_theta) {
        AcousticConfig cfg;
        cfg.fuse_density_theta = fuse_density_theta;
        return cfg;
    }

    static GridSpec make_spec(Index nx, Layout layout) {
        GridSpec s;
        s.nx = nx;
        s.ny = 6;
        s.nz = 16;
        s.dx = 1000.0;
        s.dy = 1000.0;
        s.ztop = 12000.0;
        s.layout = layout;
        s.terrain = bell_mountain(300.0, 2500.0, 6000.0, 3000.0);
        return s;
    }
};

constexpr Layout kLayouts[] = {Layout::XZY, Layout::ZXY};

/// The stepper's implicit phase (whole-row sweep, then the unfused or
/// fused update) against the one-column reference on the same inputs.
template <class T>
void expect_implicit_phase_matches_one_column(Index nx, Layout layout,
                                              bool fuse_density_theta) {
    SCOPED_TRACE(testing::Message()
                 << "nx " << nx << ", " << name_of(layout) << ", "
                 << sizeof(T) * 8 << "-bit"
                 << (fuse_density_theta ? ", fused update" : ""));
    PhaseSetup<T> s(nx, layout, fuse_density_theta);
    Array3<T> dw = s.stepper.dw(), drho = s.stepper.drho(),
              dth = s.stepper.dth(), dp = s.stepper.dp();
    one_column_vertical_implicit(s.grid, s.state, s.slow,
                                 AcousticConfig{}.beta, 1.0, s.stepper.du(),
                                 s.stepper.dv(), dw, drho, dth, dp);
    s.stepper.phase_vertical_implicit(s.slow, 1.0);
    expect_bitwise_equal(dw, s.stepper.dw(), "dw");
    expect_bitwise_equal(drho, s.stepper.drho(), "drho");
    expect_bitwise_equal(dth, s.stepper.dth(), "dth");
    expect_bitwise_equal(dp, s.stepper.dp(), "dp");
}

/// Row widths: every lane-chunk/remainder split of a double (2 lanes)
/// and float (4 lanes) row, including rows shorter than one chunk.
class ColumnBatchPhase : public ::testing::TestWithParam<Index> {};

TEST_P(ColumnBatchPhase, BatchedImplicitPhaseMatchesScalarBitwise) {
    for (const Layout layout : kLayouts) {
        expect_implicit_phase_matches_one_column<double>(GetParam(), layout,
                                                         false);
        expect_implicit_phase_matches_one_column<float>(GetParam(), layout,
                                                        false);
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, ColumnBatchPhase,
                         ::testing::Values<Index>(1, 2, 3, 4, 8, 13, 16, 64));

TEST(LaneKernels, FusedUpdateMatchesOneColumnBitwise) {
    for (const Layout layout : kLayouts)
        for (const Index nx : {Index(3), Index(13)}) {
            expect_implicit_phase_matches_one_column<double>(nx, layout,
                                                             true);
            expect_implicit_phase_matches_one_column<float>(nx, layout, true);
        }
}

// ---------------------------------------------------------------------
// The other lane kernels, each against a scalar copy of its loop.

/// theta_update_half over [i0,i1) x [j0,j1): the scalar loop of
/// AcousticStepper::phase_theta_half_region, with the linearization
/// coefficients rebuilt from `bar` as `prepare` builds them.
template <class T>
void theta_half_reference(const Grid<T>& grid, const State<T>& bar,
                          const Tendencies<T>& slow, double dtau,
                          const Array3<T>& du, const Array3<T>& dv,
                          const Array3<T>& dw, const Array3<T>& dth,
                          Array3<T>& dp_half, Index i0, Index i1, Index j0,
                          Index j1) {
    const Index nz = grid.nz();
    const T rdx = T(1.0 / grid.dx());
    const T rdy = T(1.0 / grid.dy());
    const auto& jc = grid.jacobian();
    const auto& jxf = grid.jacobian_xface();
    const auto& jyf = grid.jacobian_yface();
    const auto& zx = grid.slope_x_zface();
    const auto& zy = grid.slope_y_zface();
    const T half_dtau = T(0.5 * dtau);
    auto theta = [&](Index i, Index j, Index k) {
        return bar.rhotheta(i, j, k) / bar.rho(i, j, k);
    };
    auto thf_x = [&](Index i, Index j, Index k) {
        return T(0.5) * (theta(i - 1, j, k) + theta(i, j, k));
    };
    auto thf_y = [&](Index i, Index j, Index k) {
        return T(0.5) * (theta(i, j - 1, k) + theta(i, j, k));
    };
    auto thf_z = [&](Index i, Index j, Index k) {
        const Index km = k > 0 ? k - 1 : 0;
        const Index kc = k < nz ? k : nz - 1;
        return T(0.5) * (theta(i, j, km) + theta(i, j, kc));
    };
    auto fz = [&](Index i, Index j, Index kf) {
        if (kf == 0 || kf >= nz) return T(0);
        const T ru = T(0.25) * (du(i, j, kf - 1) + du(i + 1, j, kf - 1) +
                                du(i, j, kf) + du(i + 1, j, kf));
        const T rv = T(0.25) * (dv(i, j, kf - 1) + dv(i, j + 1, kf - 1) +
                                dv(i, j, kf) + dv(i, j + 1, kf));
        return dw(i, j, kf) - ru * zx(i, j, kf) - rv * zy(i, j, kf);
    };
    for (Index j = j0; j < j1; ++j)
        for (Index k = 0; k < nz; ++k) {
            const T rdz = T(1.0 / grid.dzeta(k));
            for (Index i = i0; i < i1; ++i) {
                const T div =
                    (jxf(i + 1, j, k) * thf_x(i + 1, j, k) * du(i + 1, j, k) -
                     jxf(i, j, k) * thf_x(i, j, k) * du(i, j, k)) *
                        rdx +
                    (jyf(i, j + 1, k) * thf_y(i, j + 1, k) * dv(i, j + 1, k) -
                     jyf(i, j, k) * thf_y(i, j, k) * dv(i, j, k)) *
                        rdy +
                    (thf_z(i, j, k + 1) * fz(i, j, k + 1) -
                     thf_z(i, j, k) * fz(i, j, k)) *
                        rdz;
                const T dth_half =
                    dth(i, j, k) +
                    half_dtau * (slow.rhotheta(i, j, k) - div / jc(i, j, k));
                dp_half(i, j, k) =
                    eos_dp_drhotheta(bar.p(i, j, k), bar.rhotheta(i, j, k)) *
                    dth_half;
            }
        }
}

template <class T>
void expect_theta_half_regions_match(Index nx, Layout layout) {
    SCOPED_TRACE(testing::Message() << "nx " << nx << ", " << name_of(layout)
                                    << ", " << sizeof(T) * 8 << "-bit");
    PhaseSetup<T> s(nx, layout);
    const Index ny = s.grid.ny();
    struct Region {
        Index i0, i1, j0, j1;
    };
    // The whole interior, then the decomposed runner's strips: x widths
    // 1-3 at both edges and in the middle of a row, y strips of depth 1-2.
    std::vector<Region> regions = {{0, nx, 0, ny}, {0, 1, 0, ny},
                                   {nx - 1, nx, 0, ny}, {0, nx, 0, 2},
                                   {0, nx, ny - 1, ny}};
    if (nx >= 3) {
        regions.push_back({0, 3, 0, ny});
        regions.push_back({nx - 3, nx, 1, ny});
        regions.push_back({nx / 2 - 1, nx / 2 + 1, 2, 4});
    }
    for (const Region& r : regions) {
        SCOPED_TRACE(testing::Message() << "region [" << r.i0 << "," << r.i1
                                        << ")x[" << r.j0 << "," << r.j1
                                        << ")");
        Array3<T> expected = s.stepper.dp_half();
        theta_half_reference(s.grid, s.state, s.slow, 0.7, s.stepper.du(),
                             s.stepper.dv(), s.stepper.dw(), s.stepper.dth(),
                             expected, r.i0, r.i1, r.j0, r.j1);
        s.stepper.phase_theta_half_region(s.slow, 0.7, r.i0, r.i1, r.j0,
                                          r.j1);
        expect_bitwise_equal(expected, s.stepper.dp_half(), "dp_half");
    }
}

TEST(LaneKernels, ThetaHalfRegionsMatchScalarLoopBitwise) {
    for (const Layout layout : kLayouts)
        for (const Index nx : {Index(1), Index(2), Index(3), Index(13)}) {
            expect_theta_half_regions_match<double>(nx, layout);
            expect_theta_half_regions_match<float>(nx, layout);
        }
}

/// pgf_x_rows / pgf_y_rows over rows [j0, j1): the scalar loops, with the
/// surface slope computed per cell (the kernels hoist it per row).
template <class T>
void pgf_rows_reference(const Grid<T>& grid, const Array3<T>& p,
                        Array3<T>& tend_u, Array3<T>& tend_v, Index j0,
                        Index j1) {
    const Index nx = grid.nx(), nz = grid.nz();
    const T rdx = T(1.0 / grid.dx());
    const T rdy = T(1.0 / grid.dy());
    const auto& jxf = grid.jacobian_xface();
    const auto& jyf = grid.jacobian_yface();
    const auto& hs = grid.hsurf();
    for (Index j = j0; j < j1; ++j)
        for (Index k = 0; k < nz; ++k) {
            const Index km = (k > 0) ? k - 1 : k;
            const Index kp = (k < nz - 1) ? k + 1 : k;
            const T rdzeta =
                T(1.0 / (grid.zeta_center(kp) - grid.zeta_center(km)));
            const T decay = T(grid.decay(grid.zeta_center(k)));
            for (Index i = 0; i < nx; ++i) {
                const T dpdx = (p(i, j, k) - p(i - 1, j, k)) * rdx;
                const T zx = (hs(i, j) - hs(i - 1, j)) * rdx * decay;
                const T dpdzeta_x = T(0.5) *
                                    ((p(i - 1, j, kp) - p(i - 1, j, km)) +
                                     (p(i, j, kp) - p(i, j, km))) *
                                    rdzeta;
                tend_u(i, j, k) -= dpdx - zx / jxf(i, j, k) * dpdzeta_x;
                const T dpdy = (p(i, j, k) - p(i, j - 1, k)) * rdy;
                const T zy = (hs(i, j) - hs(i, j - 1)) * rdy * decay;
                const T dpdzeta_y = T(0.5) *
                                    ((p(i, j - 1, kp) - p(i, j - 1, km)) +
                                     (p(i, j, kp) - p(i, j, km))) *
                                    rdzeta;
                tend_v(i, j, k) -= dpdy - zy / jyf(i, j, k) * dpdzeta_y;
            }
        }
}

template <class T>
void expect_pgf_rows_match(Index nx, Layout layout) {
    SCOPED_TRACE(testing::Message() << "nx " << nx << ", " << name_of(layout)
                                    << ", " << sizeof(T) * 8 << "-bit");
    PhaseSetup<T> s(nx, layout);
    const Index ny = s.grid.ny(), nz = s.grid.nz(), h = s.grid.halo();
    Array3<T> p({nx, ny, nz}, h, layout);
    fill_smooth(p, 50.0, 0.6);
    Array3<T> tu({nx + 1, ny, nz}, h, layout), tv({nx, ny + 1, nz}, h, layout);
    fill_smooth(tu, 1e-2, 0.7);
    fill_smooth(tv, 1e-2, 0.8);
    const std::pair<Index, Index> row_ranges[] = {
        {0, ny}, {1, ny}, {0, 1}, {2, 5}};
    for (const auto& [j0, j1] : row_ranges) {
        Array3<T> eu = tu, ev = tv;
        pgf_rows_reference(s.grid, p, eu, ev, j0, j1);
        pgf_x_rows(s.grid, p, tu, j0, j1);
        pgf_y_rows(s.grid, p, tv, j0, j1);
        expect_bitwise_equal(eu, tu, "tend_rhou");
        expect_bitwise_equal(ev, tv, "tend_rhov");
    }
}

TEST(LaneKernels, PgfRowsMatchScalarLoopBitwise) {
    for (const Layout layout : kLayouts)
        for (const Index nx : {Index(1), Index(3), Index(13)}) {
            expect_pgf_rows_match<double>(nx, layout);
            expect_pgf_rows_match<float>(nx, layout);
        }
}

/// phase_momentum_{x,y}_rows: zero the tendency, accumulate the PGF and
/// update du/dv over the given face rows, against the same steps done by
/// scalar loops (pgf_rows_reference) on copies.
template <class T>
void expect_momentum_rows_match(Index nx, Layout layout) {
    SCOPED_TRACE(testing::Message() << "nx " << nx << ", " << name_of(layout)
                                    << ", " << sizeof(T) * 8 << "-bit");
    PhaseSetup<T> s(nx, layout);
    const Index ny = s.grid.ny(), nz = s.grid.nz(), h = s.grid.halo();
    const double dtau = 0.7;
    // The runner's order: x over all rows, y over rows [1, ny) then row 0.
    const std::pair<Index, Index> row_ranges[] = {{0, ny}, {1, ny}, {0, 1}};
    for (const auto& [j0, j1] : row_ranges) {
        Array3<T> eu = s.stepper.du(), ev = s.stepper.dv();
        Array3<T> tu({nx + 1, ny, nz}, h, layout), tv({nx, ny + 1, nz}, h,
                                                      layout);
        pgf_rows_reference(s.grid, s.stepper.dp_half(), tu, tv, j0, j1);
        for (Index j = j0; j < j1; ++j)
            for (Index k = 0; k < nz; ++k)
                for (Index i = 0; i < nx; ++i) {
                    eu(i, j, k) +=
                        T(dtau) * (tu(i, j, k) + s.slow.rhou(i, j, k));
                    ev(i, j, k) +=
                        T(dtau) * (tv(i, j, k) + s.slow.rhov(i, j, k));
                }
        s.stepper.phase_momentum_x_rows(s.slow, dtau, j0, j1);
        s.stepper.phase_momentum_y_rows(s.slow, dtau, j0, j1);
        expect_bitwise_equal(eu, s.stepper.du(), "du");
        expect_bitwise_equal(ev, s.stepper.dv(), "dv");
    }
}

TEST(LaneKernels, MomentumRowsMatchScalarLoopBitwise) {
    for (const Layout layout : kLayouts)
        for (const Index nx : {Index(1), Index(3), Index(13)}) {
            expect_momentum_rows_match<double>(nx, layout);
            expect_momentum_rows_match<float>(nx, layout);
        }
}

// ---------------------------------------------------------------------
// Full-step equivalence: the mountain-wave + warm-rain configuration must
// produce bit-identical states with unit-stride lane loads (xzy) and
// strided lane gathers (kij), on a row width with a scalar remainder in
// both precisions.

template <class T>
std::unique_ptr<AsucaModel<T>> run_full_steps(Layout layout, int steps) {
    auto cfg = scenarios::mountain_wave_config<T>(23, 10, 16);
    cfg.microphysics = true;
    cfg.grid.layout = layout;
    auto m = std::make_unique<AsucaModel<T>>(cfg);
    scenarios::init_mountain_wave(*m);
    m->run(steps);
    return m;
}

template <class T>
void expect_full_steps_layout_invariant() {
    const int steps = 2;
    auto xzy = run_full_steps<T>(Layout::XZY, steps);
    auto kij = run_full_steps<T>(Layout::ZXY, steps);
    ASSERT_TRUE(state_is_finite(xzy->state()));
    const auto& a = xzy->state();
    const auto& b = kij->state();
    auto expect_same = [](const Array3<T>& x, const Array3<T>& y,
                          const std::string& name) {
        EXPECT_EQ(max_abs_diff(x, y), 0.0) << name << " differs";
    };
    expect_same(a.rho, b.rho, "rho");
    expect_same(a.rhou, b.rhou, "rhou");
    expect_same(a.rhov, b.rhov, "rhov");
    expect_same(a.rhow, b.rhow, "rhow");
    expect_same(a.rhotheta, b.rhotheta, "rhotheta");
    expect_same(a.p, b.p, "p");
    ASSERT_EQ(a.tracers.size(), b.tracers.size());
    for (std::size_t n = 0; n < a.tracers.size(); ++n) {
        expect_same(a.tracers[n], b.tracers[n],
                    std::string(name_of(a.species.at(n))));
    }
}

TEST(ColumnBatch, FullStepLanesMatchKijGatherBitwise) {
    expect_full_steps_layout_invariant<double>();
}

TEST(ColumnBatch, FloatFullStepLanesMatchKijGatherBitwise) {
    expect_full_steps_layout_invariant<float>();
}

}  // namespace
}  // namespace asuca
