// The j-slab decomposition assigns every output element to exactly one
// thread and performs no cross-slab reductions, so a time step must be
// bit-identical for any thread count. This pins that property on the
// mountain-wave configuration (dynamics + warm-rain microphysics +
// sedimentation), comparing a 1-thread and a 4-thread run bytewise.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "src/cluster/multidomain.hpp"
#include "src/core/scenarios.hpp"
#include "src/parallel/thread_pool.hpp"

namespace asuca {
namespace {

template <class T>
void expect_bitwise_equal(const Array3<T>& a, const Array3<T>& b,
                          const char* name) {
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0)
        << name << " differs between thread counts (max |diff| = "
        << max_abs_diff(a, b) << ")";
}

// AsucaModel's stepper references its grid, so keep it behind a pointer.
std::unique_ptr<AsucaModel<double>> run_with_threads(std::size_t threads,
                                                     int steps) {
    ThreadPool::set_global_threads(threads);
    auto cfg = scenarios::mountain_wave_config<double>(24, 10, 16);
    cfg.microphysics = true;
    auto m = std::make_unique<AsucaModel<double>>(cfg);
    scenarios::init_mountain_wave(*m);
    m->run(steps);
    return m;
}

TEST(ParallelDeterminism, StepIsBitIdenticalAcrossThreadCounts) {
    const int steps = 2;
    auto serial = run_with_threads(1, steps);
    auto parallel = run_with_threads(4, steps);
    ThreadPool::set_global_threads(0);  // restore the default pool

    const auto& a = serial->state();
    const auto& b = parallel->state();
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

// The two parallel substrates composed: a 2x2 MultiDomain run with a
// 4-thread j-slab pool inside every rank must agree bitwise with the
// single-domain run on a 1-thread pool. This crosses thread-count
// determinism with decomposition equivalence in one shot — a reduction
// reordered by either substrate, or a halo exchange racing the j-slab
// kernels, breaks it.
TEST(ParallelDeterminism, MultiDomainFourThreadsMatchesSingleDomainSerial) {
    GridSpec spec;
    spec.nx = 24;
    spec.ny = 12;
    spec.nz = 10;
    spec.ztop = 10000.0;
    spec.terrain = bell_mountain(350.0, 3000.0, 12000.0, 6000.0);
    TimeStepperConfig scfg;
    scfg.dt = 4.0;
    scfg.n_short_steps = 6;
    scfg.diffusion.kh = 10.0;
    scfg.diffusion.kv = 1.0;
    scfg.sponge.z_start = 8000.0;
    const SpeciesSet species = SpeciesSet::warm_rain();
    const int steps = 3;

    auto init_state = [&](const Grid<double>& grid, State<double>& s) {
        initialize_hydrostatic(grid,
                               AtmosphereProfile::constant_n(292.0, 0.011),
                               8.0, 3.0, s);
        set_relative_humidity(
            grid, [](double z) { return z < 2000.0 ? 0.8 : 0.3; }, s);
    };

    // Reference: single domain, one thread.
    ThreadPool::set_global_threads(1);
    Grid<double> grid(spec);
    State<double> single(grid, species);
    init_state(grid, single);
    State<double> initial = single;
    TimeStepper<double> stepper(grid, species, scfg);
    for (int n = 0; n < steps; ++n) stepper.step(single);

    ThreadPool::set_global_threads(0);  // restore the default pool

    // 2x2 decomposition, four threads per rank, from the same initial
    // state.
    cluster::MultiDomainConfig md;
    md.threads_per_rank = 4;
    cluster::MultiDomainRunner<double> runner(spec, 2, 2, species, scfg, md);
    runner.scatter(initial);
    for (int n = 0; n < steps; ++n) runner.step();
    State<double> gathered(grid, species);
    runner.gather(gathered);

    ASSERT_TRUE(state_is_finite(single));  // NaNs would vacuously "agree"
    EXPECT_EQ(max_abs_diff(single.rho, gathered.rho), 0.0);
    EXPECT_EQ(max_abs_diff(single.rhou, gathered.rhou), 0.0);
    EXPECT_EQ(max_abs_diff(single.rhov, gathered.rhov), 0.0);
    EXPECT_EQ(max_abs_diff(single.rhow, gathered.rhow), 0.0);
    EXPECT_EQ(max_abs_diff(single.rhotheta, gathered.rhotheta), 0.0);
    ASSERT_EQ(single.tracers.size(), gathered.tracers.size());
    for (std::size_t n = 0; n < single.tracers.size(); ++n) {
        EXPECT_EQ(max_abs_diff(single.tracers[n], gathered.tracers[n]), 0.0)
            << name_of(single.species.at(n));
    }
}

}  // namespace
}  // namespace asuca
