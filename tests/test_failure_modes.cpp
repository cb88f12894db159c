// Failure-injection and stability-envelope tests: the model must fail
// loudly and detectably outside its stability region, and conserve what
// it promises inside it.
#include <gtest/gtest.h>

#include "src/core/scenarios.hpp"
#include "src/resilience/watchdog.hpp"

namespace asuca {
namespace {

TEST(FailureModes, AcousticCflViolationIsDetected) {
    // dt = 60 s with a single short step gives a horizontal sound CFL of
    // cs*dtau/dx ~ 340*20/1000 >> 1 on the first RK stage: the explicit
    // horizontal acoustic update must go unstable. The watchdog must not
    // merely notice (the old is_finite() poll) but attribute: a
    // structured finding naming the check, the field and the cell.
    auto cfg = scenarios::mountain_wave_config<double>(16, 8, 12, false);
    cfg.species = SpeciesSet::dry();
    cfg.stepper.dt = 60.0;
    cfg.stepper.n_short_steps = 1;
    AsucaModel<double> m(cfg);
    m.initialize(AtmosphereProfile::constant_n(288.0, 0.01), 10.0, 0.0);

    resilience::WatchdogConfig wcfg;
    wcfg.cfl_limit = 2.0;  // RK3 advective stability ends near 1.6
    const resilience::Watchdog<double> dog(wcfg);
    resilience::HealthReport report;
    for (int n = 0; n < 30 && report.healthy(); ++n) {
        m.step();
        dog.scan(m.grid(), m.state(), cfg.stepper.dt, 0, n, report);
    }
    ASSERT_FALSE(report.healthy());
    // The blow-up is caught as a non-finite value or a CFL excursion;
    // either way the finding is localized to a named field and cell.
    const auto& f = report.findings.front();
    EXPECT_TRUE(f.check == "nonfinite" || f.check == "cfl");
    EXPECT_FALSE(f.field.empty());
    EXPECT_GE(f.i, 0);
    EXPECT_LT(f.i, 16);
    EXPECT_NE(f.to_string().find(f.check), std::string::npos);
}

TEST(FailureModes, StableConfigSurvivesLongIntegration) {
    // The same case inside the stability envelope runs 100 steps clean.
    auto cfg = scenarios::mountain_wave_config<double>(16, 8, 12, false);
    cfg.species = SpeciesSet::dry();
    AsucaModel<double> m(cfg);
    m.initialize(AtmosphereProfile::constant_n(288.0, 0.01), 10.0, 0.0);
    m.run(100);
    EXPECT_TRUE(m.is_finite());
    EXPECT_LT(m.max_w(), 10.0);
}

TEST(FailureModes, TotalWaterBudgetClosesOverFullMoistCycle) {
    // Advection + saturation adjustment + autoconversion + accretion +
    // sedimentation: total water in the air plus accumulated surface
    // precipitation stays constant (up to the positivity clipping, which
    // is tiny for smooth fields).
    auto cfg = scenarios::real_case_config<double>(24, 24, 14);
    AsucaModel<double> m(cfg);
    scenarios::init_real_case(m);

    auto airborne_water = [&] {
        double sum = 0.0;
        for (const auto& q : m.state().tracers) {
            sum += total_mass(m.grid(), q);
        }
        return sum;
    };
    const double w0 = airborne_water();
    m.run(30);
    double fallen = 0.0;
    const auto& precip = m.microphysics().accumulated_precip();
    const double cell_area = m.grid().dx() * m.grid().dy();
    for (Index j = 0; j < 24; ++j)
        for (Index i = 0; i < 24; ++i) fallen += precip(i, j) * cell_area;
    const double w1 = airborne_water();
    EXPECT_GT(fallen, 0.0);  // it rained
    EXPECT_NEAR(w1 + fallen, w0, 2e-3 * w0);
}

TEST(FailureModes, CalmAtmosphereIsBoring) {
    // Nothing-in, nothing-out: a resting dry atmosphere over flat ground
    // produces no motion, no rain, no drift over a long run — and a
    // fully-armed watchdog agrees it is healthy throughout.
    auto cfg = scenarios::mountain_wave_config<double>(12, 8, 10);
    cfg.grid.terrain = flat_terrain();
    AsucaModel<double> m(cfg);
    m.initialize(AtmosphereProfile::constant_n(300.0, 0.01));
    const double mass0 = m.total_mass();

    resilience::WatchdogConfig wcfg;
    wcfg.cfl_limit = 2.0;
    wcfg.mass_drift_tol = 1e-9;
    const resilience::Watchdog<double> dog(wcfg);
    const double wmass0 =
        resilience::Watchdog<double>::total_mass(m.grid(), m.state());
    resilience::HealthReport report;
    for (int n = 0; n < 50; ++n) {
        m.step();
        dog.scan(m.grid(), m.state(), cfg.stepper.dt, 0, n, report);
        dog.check_mass(resilience::Watchdog<double>::total_mass(m.grid(),
                                                               m.state()),
                       wmass0, 0, n, report);
    }
    EXPECT_TRUE(report.healthy()) << report.to_string();
    EXPECT_LT(m.max_w(), 1e-9);
    EXPECT_NEAR(m.total_mass(), mass0, 1e-9 * mass0);
    const auto& precip = m.microphysics().accumulated_precip();
    for (Index j = 0; j < 8; ++j)
        for (Index i = 0; i < 12; ++i) EXPECT_EQ(precip(i, j), 0.0);
}

}  // namespace
}  // namespace asuca
