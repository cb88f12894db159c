// The vertical implicit solve (paper Fig. 5 kernel (4)) is one
// column-batched sweep: W columns are marched simultaneously with the
// column index innermost and unit-stride (the CPU analogue of the paper's
// kij->xzy layout change, Sec. IV-A-1), and W=1 marches one column at a
// time through the same code. Each lane executes the one-column operation
// sequence, so on default builds (no implicit FMA contraction) every width
// must be bitwise identical to it. These tests pin that claim at three
// levels: the width-resolution rules, the implicit phase in isolation
// against a test-local one-column sweep built from public inputs only,
// and the full RK3/HE-VI step with microphysics in double and float.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/acoustic.hpp"
#include "src/core/diagnostics.hpp"
#include "src/core/initial.hpp"
#include "src/core/scenarios.hpp"
#include "src/field/simd.hpp"

namespace asuca {
namespace {

template <class T>
void expect_bitwise_equal(const Array3<T>& a, const Array3<T>& b,
                          const char* name) {
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0)
        << name << " differs (max |diff| = " << max_abs_diff(a, b) << ")";
}

TEST(ColumnBatch, ExplicitConfigValueWins) {
    EXPECT_EQ(resolve_column_batch<double>(1), 1);
    EXPECT_EQ(resolve_column_batch<double>(4), 4);
    EXPECT_EQ(resolve_column_batch<double>(12), 12);
}

TEST(ColumnBatch, AutoWidthDefaultsToSimdMultiple) {
    EXPECT_EQ(resolve_column_batch<double>(0), default_column_batch<double>());
    EXPECT_EQ(default_column_batch<double>() % simd_lanes<double>(), 0);
    EXPECT_GE(default_column_batch<double>(), 4);
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
void fill_smooth(Array3<double>& a, double amplitude, double phase) {
    const Index h = a.halo();
    for (Index j = -h; j < a.ny() + h; ++j)
        for (Index k = -h; k < a.nz() + h; ++k)
            for (Index i = -h; i < a.nx() + h; ++i)
                a(i, j, k) = amplitude *
                             std::sin(0.7 * double(i) + 0.4 * double(j) +
                                      phase) *
                             std::cos(0.3 * double(k) + phase);
}

struct PhaseSetup {
    GridSpec spec;
    Grid<double> grid;
    State<double> state;
    Tendencies<double> slow;
    AcousticStepper<double> stepper;

    explicit PhaseSetup(Index column_batch)
        : spec(make_spec()), grid(spec), state(grid, SpeciesSet::dry()),
          slow(grid, SpeciesSet::dry()),
          stepper(grid, make_config(column_batch)) {
        initialize_hydrostatic(grid,
                               AtmosphereProfile::constant_n(300.0, 0.01),
                               5.0, 2.0, state);
        add_theta_bubble(grid, 1.5, 6000.0, 3000.0, 5000.0, 3000.0, 3000.0,
                         2000.0, state);
        // Nonzero slow forcing, so every slow-tendency term of the
        // implicit right-hand side takes part in the comparison.
        fill_smooth(slow.rho, 1e-5, 0.1);
        fill_smooth(slow.rhou, 1e-3, 0.2);
        fill_smooth(slow.rhov, 1e-3, 0.3);
        fill_smooth(slow.rhow, 1e-3, 0.4);
        fill_smooth(slow.rhotheta, 3e-3, 0.5);
        stepper.prepare(state);
        stepper.init_deviations(state, state);
        // A few substeps so the deviations feeding the implicit phase are
        // nontrivial in every field.
        for (int n = 0; n < 4; ++n) {
            stepper.substep(slow, 1.0, LateralBc::Periodic);
        }
    }

    static AcousticConfig make_config(Index column_batch) {
        AcousticConfig cfg;
        cfg.column_batch = column_batch;
        return cfg;
    }

    static GridSpec make_spec() {
        GridSpec s;
        s.nx = 13;  // deliberately not a multiple of any batch width
        s.ny = 6;
        s.nz = 16;
        s.dx = 1000.0;
        s.dy = 1000.0;
        s.ztop = 12000.0;
        s.terrain = bell_mountain(300.0, 2500.0, 6000.0, 3000.0);
        return s;
    }
};

class ColumnBatchPhase : public ::testing::TestWithParam<Index> {};

TEST_P(ColumnBatchPhase, BatchedImplicitPhaseMatchesScalarBitwise) {
    PhaseSetup s(GetParam());
    ASSERT_EQ(s.stepper.column_batch_width(), GetParam());
    Array3<double> dw = s.stepper.dw(), drho = s.stepper.drho(),
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

INSTANTIATE_TEST_SUITE_P(Widths, ColumnBatchPhase,
                         ::testing::Values<Index>(1, 2, 4, 8, 13, 16));

// ---------------------------------------------------------------------
// Full-step equivalence: the mountain-wave + warm-rain configuration must
// produce bit-identical states at one column per sweep, small/odd widths,
// and the resolved auto width, in both precisions.

template <class T>
std::unique_ptr<AsucaModel<T>> run_full_steps(Index column_batch, int steps) {
    auto cfg = scenarios::mountain_wave_config<T>(24, 10, 16);
    cfg.microphysics = true;
    cfg.stepper.acoustic.column_batch = column_batch;
    auto m = std::make_unique<AsucaModel<T>>(cfg);
    scenarios::init_mountain_wave(*m);
    m->run(steps);
    return m;
}

template <class T>
void expect_full_steps_width_invariant() {
    const int steps = 2;
    auto one_column = run_full_steps<T>(1, steps);
    ASSERT_TRUE(state_is_finite(one_column->state()));
    for (const Index w : {Index(4), Index(7), Index(0)}) {  // 0 = auto
        SCOPED_TRACE(testing::Message() << "column_batch " << w);
        auto batched = run_full_steps<T>(w, steps);
        const auto& a = one_column->state();
        const auto& b = batched->state();
        expect_bitwise_equal(a.rho, b.rho, "rho");
        expect_bitwise_equal(a.rhou, b.rhou, "rhou");
        expect_bitwise_equal(a.rhov, b.rhov, "rhov");
        expect_bitwise_equal(a.rhow, b.rhow, "rhow");
        expect_bitwise_equal(a.rhotheta, b.rhotheta, "rhotheta");
        expect_bitwise_equal(a.p, b.p, "p");
        ASSERT_EQ(a.tracers.size(), b.tracers.size());
        for (std::size_t n = 0; n < a.tracers.size(); ++n) {
            expect_bitwise_equal(a.tracers[n], b.tracers[n],
                                 std::string(name_of(a.species.at(n))).c_str());
        }
    }
}

TEST(ColumnBatch, FullStepBatchedWidthsMatchScalarBitwise) {
    expect_full_steps_width_invariant<double>();
}

TEST(ColumnBatch, FloatFullStepBatchedWidthsMatchW1Bitwise) {
    expect_full_steps_width_invariant<float>();
}

TEST(ColumnBatch, StepperReportsResolvedWidth) {
    PhaseSetup su(0);
    EXPECT_EQ(su.stepper.column_batch_width(), default_column_batch<double>());
    PhaseSetup forced(3);
    EXPECT_EQ(forced.stepper.column_batch_width(), 3);
}

}  // namespace
}  // namespace asuca
