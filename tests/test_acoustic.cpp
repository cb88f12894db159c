// Tests for the HE-VI acoustic stepper: exact steadiness, stability of
// the implicit vertical solve, and hydrostatic adjustment behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "src/core/acoustic.hpp"
#include "src/core/diagnostics.hpp"
#include "src/core/initial.hpp"
#include "src/core/tendencies.hpp"
#include "src/core/timestepper.hpp"
#include "src/parallel/thread_pool.hpp"

namespace asuca {
namespace {

struct AcousticSetup {
    GridSpec spec;
    Grid<double> grid;
    State<double> state;
    Tendencies<double> slow;
    AcousticStepper<double> stepper;

    explicit AcousticSetup(double beta = 0.6,
                           TerrainFunction terrain = flat_terrain())
        : spec(make_spec(std::move(terrain))), grid(spec),
          state(grid, SpeciesSet::dry()), slow(grid, SpeciesSet::dry()),
          stepper(grid, AcousticConfig{beta}) {
        initialize_hydrostatic(grid,
                               AtmosphereProfile::constant_n(300.0, 0.01),
                               0.0, 0.0, state);
        slow.clear();
    }

    static GridSpec make_spec(TerrainFunction terrain) {
        GridSpec s;
        s.nx = 12;
        s.ny = 8;
        s.nz = 16;
        s.dx = 1000.0;
        s.dy = 1000.0;
        s.ztop = 12000.0;
        s.terrain = std::move(terrain);
        return s;
    }
};

TEST(Acoustic, BalancedStateHasZeroDeviations) {
    AcousticSetup su;
    su.stepper.prepare(su.state);
    su.stepper.init_deviations(su.state, su.state);
    for (int n = 0; n < 10; ++n) {
        su.stepper.substep(su.slow, 1.0, LateralBc::Periodic);
    }
    EXPECT_EQ(max_abs(su.stepper.dw()), 0.0);
    EXPECT_EQ(max_abs(su.stepper.drho()), 0.0);
}

class AcousticBeta : public ::testing::TestWithParam<double> {};

TEST_P(AcousticBeta, PressurePerturbationStaysBounded) {
    // A theta' perturbation launches acoustic/gravity waves; with the
    // implicit vertical treatment the integration must stay bounded for
    // a vertical sound CFL (cs*dtau/dz ~ 0.45*340/750 >> 1 explicit limit).
    AcousticSetup su(GetParam());
    State<double> perturbed = su.state;
    add_theta_bubble(su.grid, 1.0, 6000.0, 4000.0, 5000.0, 3000.0, 3000.0,
                     2000.0, perturbed);
    su.stepper.prepare(su.state);
    su.stepper.init_deviations(perturbed, su.state);

    const double dtau = 1.0;  // vertical CFL cs*dtau/dz ~ 0.45
    double max_dw = 0.0;
    for (int n = 0; n < 300; ++n) {
        su.stepper.substep(su.slow, dtau, LateralBc::Periodic);
        max_dw = std::max(max_dw, max_abs(su.stepper.dw()));
        ASSERT_LT(max_abs(su.stepper.dw()), 1e3)
            << "blow-up at substep " << n << " (beta=" << GetParam() << ")";
    }
    EXPECT_GT(max_dw, 0.0);  // waves actually propagate
}

INSTANTIATE_TEST_SUITE_P(OffCentering, AcousticBeta,
                         ::testing::Values(0.5, 0.6, 0.8, 1.0));

TEST(Acoustic, RejectsExplicitBeta) {
    EXPECT_THROW(AcousticSetup su(0.3), Error);
    EXPECT_THROW(AcousticSetup su(1.2), Error);
}

TEST(Acoustic, SlowForcingIntegratesLinearly) {
    // With a constant slow tendency on rho*u and no pressure coupling
    // (uniform forcing => no divergence), du grows linearly in tau.
    AcousticSetup su;
    su.slow.rhou.fill(2.0);  // kg m^-2 s^-2
    su.stepper.prepare(su.state);
    su.stepper.init_deviations(su.state, su.state);
    for (int n = 0; n < 5; ++n) {
        su.stepper.substep(su.slow, 0.5, LateralBc::Periodic);
    }
    // After 2.5 s: du = 5.0 everywhere.
    auto& du = su.stepper.du();
    for (Index j = 0; j < su.spec.ny; ++j)
        for (Index k = 0; k < su.spec.nz; ++k)
            for (Index i = 0; i < su.spec.nx; ++i)
                EXPECT_NEAR(du(i, j, k), 5.0, 1e-9);
}

TEST(Acoustic, HydrostaticAdjustmentRemovesColumnImbalance) {
    // A column-wide density surplus creates downward buoyancy; the
    // implicit solve + continuity must start restoring balance rather
    // than amplifying the perturbation (energy radiates as sound).
    AcousticSetup su;
    State<double> perturbed = su.state;
    const Index h = su.grid.halo();
    for (Index j = -h; j < su.spec.ny + h; ++j)
        for (Index k = -h; k < su.spec.nz + h; ++k)
            for (Index i = -h; i < su.spec.nx + h; ++i)
                perturbed.rho(i, j, k) *= 1.001;
    su.stepper.prepare(su.state);
    su.stepper.init_deviations(perturbed, su.state);
    const double drho0 = max_abs(su.stepper.drho());
    for (int n = 0; n < 200; ++n) {
        su.stepper.substep(su.slow, 1.0, LateralBc::Periodic);
    }
    // The perturbation must not grow (beta > 0.5 damps the transients).
    EXPECT_LT(max_abs(su.stepper.drho()), 2.0 * drho0);
}

TEST(Acoustic, TerrainKinematicConditionHolds) {
    // Over terrain, the bottom dw must equal the metric part of the
    // horizontal momentum deviations (impermeable slope).
    AcousticSetup su(0.6, bell_ridge(500.0, 2000.0, 6000.0));
    initialize_hydrostatic(su.grid, AtmosphereProfile::constant_n(300.0, 0.01),
                           0.0, 0.0, su.state);
    su.slow.clear();
    su.slow.rhou.fill(1.0);  // accelerate flow over the ridge
    su.stepper.prepare(su.state);
    su.stepper.init_deviations(su.state, su.state);
    for (int n = 0; n < 10; ++n) {
        su.stepper.substep(su.slow, 0.5, LateralBc::Periodic);
    }
    const auto& zx = su.grid.slope_x_zface();
    auto& du = su.stepper.du();
    auto& dw = su.stepper.dw();
    for (Index i = 0; i < su.spec.nx; ++i) {
        const double dmu = 0.5 * (du(i, 3, 0) + du(i + 1, 3, 0));
        EXPECT_NEAR(dw(i, 3, 0), dmu * zx(i, 3, 0), 1e-10);
        if (std::abs(zx(i, 3, 0)) > 1e-4) {
            EXPECT_NE(dw(i, 3, 0), 0.0);  // slopes force vertical motion
        }
    }
}

bool same_padded(const Array3<double>& a, const Array3<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Acoustic, EndOfSubstepDeviationFillIsDead) {
    // substep() no longer fills the six deviation halos after the implicit
    // phase. Stepping with that fill restored (built from the public
    // phases) must give the same padded states after finalize and the
    // state fill: a phase that starts reading a deviation halo fails here.
    ThreadPool pool(4);
    ThreadPool::ScopedOverride use(pool);
    for (const LateralBc bc :
         {LateralBc::Periodic, LateralBc::ZeroGradient}) {
        AcousticSetup su(0.6, bell_ridge(500.0, 2000.0, 6000.0));
        TimeStepperConfig tcfg;
        tcfg.bc = bc;
        TimeStepper<double> ts(su.grid, SpeciesSet::dry(), tcfg);
        State<double>& bar = su.state;
        ts.apply_state_bcs(bar);
        State<double> now = bar;
        add_theta_bubble(su.grid, 1.0, 6000.0, 4000.0, 4000.0, 3000.0,
                         3000.0, 2000.0, now);
        ts.apply_state_bcs(now);
        // Nonzero slow tendencies in every acoustic equation.
        Array3<double>* slows[] = {&su.slow.rhou, &su.slow.rhov,
                                   &su.slow.rhow, &su.slow.rho,
                                   &su.slow.rhotheta};
        for (std::size_t f = 0; f < 5; ++f) {
            Array3<double>& a = *slows[f];
            for (Index j = 0; j < a.ny(); ++j)
                for (Index k = 0; k < a.nz(); ++k)
                    for (Index i = 0; i < a.nx(); ++i)
                        a(i, j, k) = 1e-3 * std::sin(0.7 * double(i) +
                                                     1.3 * double(j) +
                                                     0.4 * double(k) +
                                                     double(f));
        }

        AcousticStepper<double> current(su.grid, AcousticConfig{});
        AcousticStepper<double> filled(su.grid, AcousticConfig{});
        const Index nx = su.spec.nx, ny = su.spec.ny;
        for (AcousticStepper<double>* ac : {&current, &filled}) {
            ac->prepare(bar);
            ac->init_deviations(now, bar);
        }
        for (int n = 0; n < 6; ++n) {
            current.substep(su.slow, 0.5, bc);
            filled.phase_theta_half(su.slow, 0.5);
            apply_lateral_bc(filled.dp_half(), bc, nx, ny);
            filled.phase_horizontal_momentum(su.slow, 0.5);
            apply_lateral_bc(filled.du(), bc, nx, ny);
            apply_lateral_bc(filled.dv(), bc, nx, ny);
            filled.phase_bottom_kinematic();
            filled.phase_vertical_implicit(su.slow, 0.5);
            for (Array3<double>* d :
                 {&filled.du(), &filled.dv(), &filled.dw(), &filled.drho(),
                  &filled.dth(), &filled.dp()}) {
                apply_lateral_bc(*d, bc, nx, ny);
            }
        }
        // The fill did write: the halos it wrote really are stale now.
        EXPECT_FALSE(same_padded(current.dth(), filled.dth()));
        EXPECT_FALSE(same_padded(current.dw(), filled.dw()));

        State<double> out_current = bar, out_filled = bar;
        current.finalize(bar, out_current);
        filled.finalize(bar, out_filled);
        ts.apply_state_bcs(out_current);
        ts.apply_state_bcs(out_filled);
        const char* bc_name =
            bc == LateralBc::Periodic ? "Periodic" : "ZeroGradient";
        EXPECT_TRUE(same_padded(out_current.rho, out_filled.rho)) << bc_name;
        EXPECT_TRUE(same_padded(out_current.rhou, out_filled.rhou))
            << bc_name;
        EXPECT_TRUE(same_padded(out_current.rhov, out_filled.rhov))
            << bc_name;
        EXPECT_TRUE(same_padded(out_current.rhow, out_filled.rhow))
            << bc_name;
        EXPECT_TRUE(same_padded(out_current.rhotheta, out_filled.rhotheta))
            << bc_name;
        EXPECT_TRUE(same_padded(out_current.p, out_filled.p)) << bc_name;
    }
}

}  // namespace
}  // namespace asuca
