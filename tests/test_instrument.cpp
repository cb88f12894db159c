// Tests for the FLOP-counting scalar, kernel registry and calibration —
// the reproduction's PAPI substitute.
#include <gtest/gtest.h>

#include "src/instrument/calibration.hpp"
#include "src/instrument/counting_real.hpp"
#include "src/instrument/kernel_registry.hpp"

namespace asuca {
namespace {

TEST(CountingReal, CountsBasicArithmetic) {
    FlopCounter::reset();
    CountedDouble a(2.0), b(3.0);
    CountedDouble c = a + b;   // 1
    c = c * a;                 // 1
    c = c - b;                 // 1
    c = c / a;                 // 1
    c += a;                    // 1
    EXPECT_EQ(FlopCounter::value(), 5u);
    EXPECT_DOUBLE_EQ(static_cast<double>(c), 5.5);
}

TEST(CountingReal, TranscendentalsUseWeights) {
    FlopCounter::reset();
    CountedDouble x(2.0);
    auto y = exp(x);
    EXPECT_EQ(FlopCounter::value(), flop_weights::exp_w);
    FlopCounter::reset();
    y = pow(x, CountedDouble(0.875));
    EXPECT_EQ(FlopCounter::value(), flop_weights::pow_w);
    FlopCounter::reset();
    y = sqrt(x);
    EXPECT_EQ(FlopCounter::value(), flop_weights::sqrt_w);
    (void)y;
}

TEST(CountingReal, ResultsMatchDouble) {
    // The wrapper must be numerically transparent.
    const double a = 1.7, b = -0.3;
    CountedDouble ca(a), cb(b);
    EXPECT_EQ(static_cast<double>(ca * cb + ca / cb), a * b + a / b);
    EXPECT_EQ(static_cast<double>(exp(ca)), std::exp(a));
    EXPECT_EQ(static_cast<double>(max(ca, cb)), std::max(a, b));
}

TEST(KernelRegistry, RecordsScopes) {
    KernelRegistry reg;
    {
        KernelScope scope("k1", {2, 1, 3}, 100, &reg);
        FlopCounter::add(500);
    }
    {
        KernelScope scope("k1", {2, 1, 3}, 100, &reg);
        FlopCounter::add(300);
    }
    auto rec = reg.find("k1");
    EXPECT_EQ(rec.calls, 2u);
    EXPECT_EQ(rec.elements, 200u);
    EXPECT_EQ(rec.flops, 800u);
    EXPECT_DOUBLE_EQ(rec.flops_per_element(), 4.0);
    EXPECT_GE(rec.seconds, 0.0);
}

TEST(Calibration, FullModelStepProducesPerKernelFlops) {
    auto cfg = benchmark_model_config();
    cfg.stepper.n_short_steps = 2;
    const auto cal = calibrate_flops(cfg, {12, 10, 8});
    ASSERT_FALSE(cal.records.empty());
    EXPECT_GT(cal.flops_per_step_per_element, 100.0);

    // The paper's five key kernels must all be present and instrumented.
    auto has = [&](const char* name) {
        for (const auto& r : cal.records)
            if (r.name == name && r.flops > 0) return true;
        return false;
    };
    EXPECT_TRUE(has("coordinate_transform"));
    EXPECT_TRUE(has("pgf_x_short"));
    EXPECT_TRUE(has("advection_momentum_x"));
    EXPECT_TRUE(has("helmholtz_1d"));
    EXPECT_TRUE(has("warm_rain"));
}

TEST(Calibration, FlopsPerElementIsMeshIndependent) {
    auto cfg = benchmark_model_config();
    cfg.stepper.n_short_steps = 2;
    cfg.microphysics = false;  // microphysics work depends on saturation
    cfg.species = SpeciesSet::dry();
    const auto small = calibrate_flops(cfg, {10, 8, 8});
    const auto large = calibrate_flops(cfg, {20, 16, 8});
    auto fpe = [](const CalibrationResult& c, const char* name) {
        for (const auto& r : c.records)
            if (r.name == name) return r.flops_per_element();
        return 0.0;
    };
    // Streaming kernels: identical per-element work at any mesh size.
    for (const char* k : {"pgf_x_short", "continuity_update",
                          "pressure_update", "coordinate_transform"}) {
        EXPECT_NEAR(fpe(small, k), fpe(large, k), 0.05 * fpe(large, k))
            << k;
        EXPECT_GT(fpe(large, k), 0.0) << k;
    }
}

TEST(Calibration, ShortStepFlopsPerElementUnchanged) {
    // StepModel's Fig. 9-11 rows and the benchmark's GFLOP/s read these
    // counts. The short-step kernels run on SIMD lanes, and a lane body
    // that computed a per-cell scalar product once per chunk would move
    // them, so they are pinned to the per-cell arithmetic of the scalar
    // loops, exactly.
    const auto cal = calibrate_flops(benchmark_model_config(), {16, 12, 12});
    auto fpe = [&](const char* name) {
        for (const auto& r : cal.records)
            if (r.name == name) return r.flops_per_element();
        return 0.0;
    };
    EXPECT_EQ(fpe("helmholtz_1d"), 105.83333333333333);
    EXPECT_EQ(fpe("theta_update_half"), 34.0);
    EXPECT_EQ(fpe("pgf_x_short"), 15.166666666666666);
    EXPECT_EQ(fpe("pgf_y_short"), 15.166666666666666);
    EXPECT_EQ(fpe("theta_update"), 5.0);
    EXPECT_EQ(fpe("continuity_update"), 3.0);
    EXPECT_EQ(fpe("pressure_update"), 1.0);
}

TEST(Calibration, LongStepFlopsPerElementUnchanged) {
    // The long-step kernels run on SIMD lanes too, with a branch-free
    // lane limiter. The calibration runs CountingReal at width 1, which
    // keeps the branchy scalar limiter and the per-cell arithmetic of the
    // scalar loops, so these counts are pinned exactly as well.
    const auto cal = calibrate_flops(benchmark_model_config(), {16, 12, 12});
    auto fpe = [&](const char* name) {
        for (const auto& r : cal.records)
            if (r.name == name) return r.flops_per_element();
        return 0.0;
    };
    EXPECT_EQ(fpe("acoustic_prepare"), 23.138888888888889);
    EXPECT_EQ(fpe("advection_momentum_x"), 53.111111111111114);
    EXPECT_EQ(fpe("advection_momentum_y"), 42.125);
    EXPECT_EQ(fpe("advection_momentum_z"), 51.336805555555557);
    EXPECT_EQ(fpe("advection_theta"), 42.638888888888886);
    EXPECT_EQ(fpe("advection_qv"), 42.638888888888886);
    EXPECT_EQ(fpe("advection_qc"), 27.666666666666668);
    EXPECT_EQ(fpe("advection_qr"), 27.666666666666668);
    EXPECT_EQ(fpe("diffusion"), 159.07291666666666);
    EXPECT_EQ(fpe("continuity"), 10.0);
    EXPECT_EQ(fpe("contravariant_w"), 10.153846153846153);
    EXPECT_EQ(fpe("coordinate_transform"), 1.0);
    EXPECT_EQ(fpe("perturbation_fields"), 6.1875);
}

}  // namespace
}  // namespace asuca
