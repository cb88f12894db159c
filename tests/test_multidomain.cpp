// Multi-domain equivalence: a decomposed run with real halo exchanges
// must reproduce the single-domain run to machine precision — the
// decomposition analog of the paper's round-off-level CPU/GPU agreement.
// The runner's overlap methods (kernel division, density-theta fusion)
// change only WHEN work happens, never what is computed, so every shape,
// rank-pool width and step count lands on the single-domain bits.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/cluster/multidomain.hpp"
#include "src/core/diagnostics.hpp"
#include "src/core/initial.hpp"

namespace asuca::cluster {
namespace {

GridSpec make_global(TerrainFunction terrain) {
    GridSpec s;
    s.nx = 24;
    s.ny = 12;
    s.nz = 10;
    s.dx = 1000.0;
    s.dy = 1000.0;
    s.ztop = 10000.0;
    s.terrain = std::move(terrain);
    return s;
}

TimeStepperConfig make_stepper_cfg() {
    TimeStepperConfig cfg;
    cfg.dt = 4.0;
    cfg.n_short_steps = 6;
    cfg.diffusion.kh = 10.0;
    cfg.diffusion.kv = 1.0;
    cfg.sponge.z_start = 8000.0;
    return cfg;
}

void init_case(const Grid<double>& grid, const SpeciesSet& species,
               State<double>& state) {
    initialize_hydrostatic(grid, AtmosphereProfile::constant_n(292.0, 0.011),
                           8.0, 3.0, state);
    if (species.contains(Species::Vapor)) {
        set_relative_humidity(
            grid, [](double z) { return z < 2000.0 ? 0.8 : 0.3; }, state);
    }
}

/// Runs `steps` long steps single-domain and decomposed into px x py
/// ranks (each with a `threads_per_rank` j-slab pool) from the same
/// initial state and expects every prognostic field bitwise equal.
void expect_matches_single_domain(Index px, Index py,
                                  std::size_t threads_per_rank, int steps) {
    const auto spec = make_global(
        bell_mountain(350.0, 3000.0, 12000.0, 6000.0));
    const auto cfg = make_stepper_cfg();
    const auto species = SpeciesSet::warm_rain();

    // Reference: single-domain run.
    Grid<double> grid(spec);
    State<double> ref(grid, species);
    init_case(grid, species, ref);
    TimeStepper<double> stepper(grid, species, cfg);
    State<double> initial = ref;
    for (int n = 0; n < steps; ++n) stepper.step(ref);

    // Decomposed run from the same initial state.
    MultiDomainConfig md;
    md.threads_per_rank = threads_per_rank;
    MultiDomainRunner<double> runner(spec, px, py, species, cfg, md);
    runner.scatter(initial);
    for (int n = 0; n < steps; ++n) runner.step();
    State<double> gathered(grid, species);
    runner.gather(gathered);

    EXPECT_EQ(max_abs_diff(ref.rho, gathered.rho), 0.0);
    EXPECT_EQ(max_abs_diff(ref.rhou, gathered.rhou), 0.0);
    EXPECT_EQ(max_abs_diff(ref.rhov, gathered.rhov), 0.0);
    EXPECT_EQ(max_abs_diff(ref.rhow, gathered.rhow), 0.0);
    EXPECT_EQ(max_abs_diff(ref.rhotheta, gathered.rhotheta), 0.0);
    EXPECT_EQ(max_abs_diff(ref.p, gathered.p), 0.0);
    for (std::size_t n = 0; n < species.count(); ++n) {
        EXPECT_EQ(max_abs_diff(ref.tracers[n], gathered.tracers[n]), 0.0);
    }
}

struct DecompShape {
    Index px, py;
};

class MultiDomainShapes : public ::testing::TestWithParam<DecompShape> {};

TEST_P(MultiDomainShapes, MatchesSingleDomainBitwise) {
    const auto shape = GetParam();
    expect_matches_single_domain(shape.px, shape.py, 1, 3);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MultiDomainShapes,
    // 4x3 and 3x4 have local extents below two halos (4 and 3 rows),
    // where the kernel frame clamps.
    ::testing::Values(DecompShape{2, 1}, DecompShape{1, 2}, DecompShape{2, 2},
                      DecompShape{4, 3}, DecompShape{3, 4}),
    [](const auto& info) {
        return std::to_string(info.param.px) + "x" +
               std::to_string(info.param.py);
    });

/// The rank-pool cases of the Sec. V-A overlap suite. The names are the
/// ones the cases were introduced under, when the runner had three
/// schedules and these were checked against its lockstep one; that
/// schedule reproduced the single-domain stepper bit for bit, which is
/// the reference now. Every case runs the runner's one program (kernel
/// division + fusion): `split` cases with two j-slab threads per rank,
/// `pipeline` cases (named for the retired tracer pipeline) with three,
/// so each shape is covered at two pool widths.
struct OverlapCase {
    Index px, py;
    std::int32_t threads_per_rank;
    std::int32_t steps;
};

class MultiDomainOverlap : public ::testing::TestWithParam<OverlapCase> {};

TEST_P(MultiDomainOverlap, BitwiseIdenticalToLockstep) {
    const auto c = GetParam();
    expect_matches_single_domain(
        c.px, c.py, static_cast<std::size_t>(c.threads_per_rank), c.steps);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, MultiDomainOverlap,
    ::testing::Values(
        OverlapCase{2, 1, 2, 2}, OverlapCase{2, 1, 3, 2},
        OverlapCase{1, 2, 2, 2}, OverlapCase{1, 2, 3, 2},
        OverlapCase{2, 2, 2, 1}, OverlapCase{2, 2, 2, 3},
        OverlapCase{2, 2, 3, 1}, OverlapCase{2, 2, 3, 3},
        OverlapCase{4, 2, 2, 2}, OverlapCase{4, 2, 3, 2}),
    [](const auto& info) {
        const OverlapCase& c = info.param;
        return std::to_string(c.px) + "x" + std::to_string(c.py) +
               (c.threads_per_rank == 2 ? "_split_" : "_pipeline_") +
               std::to_string(c.steps) + "step";
    });

TEST(MultiDomainOverlap, MatchesSingleDomainBitwise) {
    // A longer run than the cases above: eight long steps at 2x2 with
    // two j-slab threads per rank.
    expect_matches_single_domain(2, 2, 2, 8);
}

TEST(MultiDomain, ScatterGatherRoundTrips) {
    const auto spec = make_global(flat_terrain());
    const auto species = SpeciesSet::dry();
    Grid<double> grid(spec);
    State<double> global(grid, species);
    init_case(grid, species, global);

    MultiDomainRunner<double> runner(spec, 3, 2, species, make_stepper_cfg());
    runner.scatter(global);
    State<double> back(grid, species);
    runner.gather(back);
    EXPECT_EQ(max_abs_diff(global.rho, back.rho), 0.0);
    EXPECT_EQ(max_abs_diff(global.rhou, back.rhou), 0.0);
    EXPECT_EQ(max_abs_diff(global.rhotheta, back.rhotheta), 0.0);
}

TEST(MultiDomain, ExchangedHalosEqualPeriodicWrap) {
    // After scatter, rank halos must carry the periodic-global values.
    const auto spec = make_global(flat_terrain());
    const auto species = SpeciesSet::dry();
    Grid<double> grid(spec);
    State<double> global(grid, species);
    init_case(grid, species, global);
    // A recognizable pattern.
    for (Index j = 0; j < spec.ny; ++j)
        for (Index k = 0; k < spec.nz; ++k)
            for (Index i = 0; i < spec.nx; ++i)
                global.rho(i, j, k) =
                    1000.0 * static_cast<double>(i) +
                    10.0 * static_cast<double>(j) + static_cast<double>(k);

    MultiDomainRunner<double> runner(spec, 2, 2, species, make_stepper_cfg());
    runner.scatter(global);
    // Rank 0 (owns i in [0,12), j in [0,6)): its left halo wraps to
    // global i = 23, its y halo wraps to global j = 11.
    const auto& s0 = runner.rank_state(0);
    EXPECT_EQ(s0.rho(-1, 2, 3), global.rho(23, 2, 3));
    EXPECT_EQ(s0.rho(-3, 2, 3), global.rho(21, 2, 3));
    EXPECT_EQ(s0.rho(12, 2, 3), global.rho(12, 2, 3));  // right neighbor
    EXPECT_EQ(s0.rho(2, -1, 3), global.rho(2, 11, 3));
    // Corner.
    EXPECT_EQ(s0.rho(-1, -1, 0), global.rho(23, 11, 0));
}

TEST(MultiDomain, ExchangesOnlyLiveHalos) {
    // Per step each rank refreshes its state's halos four times (step
    // start and after each RK stage) and, per acoustic substep, exchanges
    // only the two deviation halos a later phase reads: dp_half, then du
    // and dv. Every exchanged field posts four messages per rank (west,
    // east, south, north). An exchange of the implicit phase's
    // dw/drho/dth/dp halos, which nothing reads, breaks the count.
    struct MetricsGuard {
        MetricsGuard() {
            obs::MetricsRegistry::global().reset();
            obs::MetricsRegistry::global().enable();
        }
        ~MetricsGuard() {
            obs::MetricsRegistry::global().disable();
            obs::MetricsRegistry::global().reset();
        }
    };
    const auto spec = make_global(
        bell_mountain(350.0, 3000.0, 12000.0, 6000.0));
    const auto cfg = make_stepper_cfg();
    const auto species = SpeciesSet::warm_rain();
    Grid<double> grid(spec);
    State<double> initial(grid, species);
    init_case(grid, species, initial);
    MultiDomainRunner<double> runner(spec, 2, 2, species, cfg);
    runner.scatter(initial);

    MetricsGuard guard;
    runner.step();
    // F = 6 dynamic fields + 3 tracers; S = 2 + 3 + 6 substeps
    // (n_short_steps = 6 over the stage fractions 1/3, 1/2, 1).
    const std::uint64_t fields = 6 + species.count();
    ASSERT_EQ(fields, 9u);
    const std::uint64_t substeps = 11;
    const std::uint64_t per_field = 4 * 4;  // 4 ranks x 4 sides
    EXPECT_EQ(obs::MetricsRegistry::global().counter("halo.messages").value(),
              per_field * (4 * fields + 3 * substeps));
}

TEST(MultiDomain, RejectsIndivisibleDecomposition) {
    const auto spec = make_global(flat_terrain());
    EXPECT_THROW(MultiDomainRunner<double>(spec, 5, 1, SpeciesSet::dry(),
                                           make_stepper_cfg()),
                 Error);
}

TEST(MultiDomain, RejectsSubdomainsSmallerThanHalo) {
    const auto spec = make_global(flat_terrain());
    // 12 / 6 = 2 rows and 24 / 12 = 2 columns per rank, below the halo
    // width (3): a halo strip would have to span two neighbors.
    EXPECT_THROW(MultiDomainRunner<double>(spec, 1, 6, SpeciesSet::dry(),
                                           make_stepper_cfg()),
                 Error);
    EXPECT_THROW(MultiDomainRunner<double>(spec, 12, 1, SpeciesSet::dry(),
                                           make_stepper_cfg()),
                 Error);
}

}  // namespace
}  // namespace asuca::cluster
