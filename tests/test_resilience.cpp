// Resilience subsystem tests: deterministic fault injection, guarded
// halo channels (deadlines, integrity words, poisoning), watchdog health
// scans, and the multi-domain rollback-and-replay recovery policy.
//
// The two load-bearing guarantees, each pinned bitwise:
//   * with injection disabled, a guarded run equals an unguarded run;
//   * with a transient injected fault, the RECOVERED run equals a clean
//     run — rollback restores byte-identical rank states and the replay
//     recomputes the step deterministically.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include "src/cluster/multidomain.hpp"
#include "src/common/hash.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/core/diagnostics.hpp"
#include "src/core/initial.hpp"
#include "src/resilience/fault_injector.hpp"
#include "src/resilience/watchdog.hpp"

namespace asuca::cluster {
namespace {

using resilience::Fault;
using resilience::FaultKind;
using resilience::FaultPlan;

GridSpec make_global() {
    GridSpec s;
    s.nx = 24;
    s.ny = 12;
    s.nz = 10;
    s.dx = 1000.0;
    s.dy = 1000.0;
    s.ztop = 10000.0;
    s.terrain = bell_mountain(350.0, 3000.0, 12000.0, 6000.0);
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

void expect_bitwise(const State<double>& a, const State<double>& b) {
    EXPECT_EQ(max_abs_diff(a.rho, b.rho), 0.0);
    EXPECT_EQ(max_abs_diff(a.rhou, b.rhou), 0.0);
    EXPECT_EQ(max_abs_diff(a.rhov, b.rhov), 0.0);
    EXPECT_EQ(max_abs_diff(a.rhow, b.rhow), 0.0);
    EXPECT_EQ(max_abs_diff(a.rhotheta, b.rhotheta), 0.0);
    EXPECT_EQ(max_abs_diff(a.p, b.p), 0.0);
    ASSERT_EQ(a.tracers.size(), b.tracers.size());
    for (std::size_t n = 0; n < a.tracers.size(); ++n) {
        EXPECT_EQ(max_abs_diff(a.tracers[n], b.tracers[n]), 0.0);
    }
}

// ---------------------------------------------------------------------
// Fault injector.
// ---------------------------------------------------------------------

TEST(FaultInjector, SeededPlanIsReproducible) {
    const auto a = resilience::random_plan(42, 8, FaultKind::FieldNaN, 4, 10,
                                           12, 6, 10);
    const auto b = resilience::random_plan(42, 8, FaultKind::FieldNaN, 4, 10,
                                           12, 6, 10);
    ASSERT_EQ(a.size(), b.size());
    const auto c = resilience::random_plan(43, 8, FaultKind::FieldNaN, 4, 10,
                                           12, 6, 10);
    bool same_as_other_seed = true;
    for (std::size_t n = 0; n < a.size(); ++n) {
        EXPECT_EQ(a[n].rank, b[n].rank);
        EXPECT_EQ(a[n].step, b[n].step);
        EXPECT_EQ(a[n].i, b[n].i);
        EXPECT_EQ(a[n].j, b[n].j);
        EXPECT_EQ(a[n].k, b[n].k);
        same_as_other_seed = same_as_other_seed && a[n].rank == c[n].rank &&
                             a[n].step == c[n].step && a[n].i == c[n].i &&
                             a[n].j == c[n].j && a[n].k == c[n].k;
    }
    EXPECT_FALSE(same_as_other_seed);
}

// Property: the plan a seed derives is a pure function of its arguments —
// identical across repeated calls, across the installed thread-pool
// width, and across which thread generates it. The forecast server leans
// on this: an injection schedule in a request spec must reproduce no
// matter which worker (with which private pool) executes the request.
TEST(FaultInjector, SeededPlanIsIdenticalAcrossThreadCounts) {
    const auto plan_equal = [](const FaultPlan& a, const FaultPlan& b) {
        if (a.size() != b.size()) return false;
        for (std::size_t n = 0; n < a.size(); ++n) {
            if (a[n].kind != b[n].kind || a[n].rank != b[n].rank ||
                a[n].step != b[n].step || a[n].var != b[n].var ||
                a[n].i != b[n].i || a[n].j != b[n].j || a[n].k != b[n].k ||
                a[n].delay != b[n].delay) {
                return false;
            }
        }
        return true;
    };
    const auto make = [] {
        return resilience::random_plan(1234, 16, FaultKind::HaloCorrupt, 6,
                                       20, 24, 12, 10,
                                       std::chrono::milliseconds(3));
    };
    const FaultPlan reference = make();
    ASSERT_EQ(reference.size(), 16u);

    // Same process, different installed pool widths.
    for (std::size_t width : {1u, 2u, 5u}) {
        ThreadPool pool(width);
        ThreadPool::ScopedOverride guard(pool);
        EXPECT_TRUE(plan_equal(reference, make()))
            << "plan differs under a " << width << "-thread pool";
    }

    // Generated concurrently from many threads at once.
    std::vector<FaultPlan> got(8);
    {
        std::vector<std::thread> threads;
        threads.reserve(got.size());
        for (std::size_t t = 0; t < got.size(); ++t) {
            threads.emplace_back([&, t] { got[t] = make(); });
        }
        for (auto& th : threads) th.join();
    }
    for (std::size_t t = 0; t < got.size(); ++t) {
        EXPECT_TRUE(plan_equal(reference, got[t]))
            << "plan differs on generator thread " << t;
    }
}

TEST(FaultInjector, EachFaultFiresExactlyOnce) {
    FaultPlan plan;
    plan.push_back({FaultKind::RankStall, 1, 3, VarId::RhoTheta, 0, 0, 0,
                    std::chrono::milliseconds(7)});
    plan.push_back({FaultKind::RankKill, 0, 2, VarId::RhoTheta, 0, 0, 0, {}});
    plan.push_back(
        {FaultKind::HaloCorrupt, 2, 5, VarId::RhoTheta, 0, 0, 0, {}});
    resilience::FaultInjector inj(plan);
    EXPECT_TRUE(inj.enabled());
    EXPECT_EQ(inj.fired_count(), 0);

    EXPECT_EQ(inj.stall(1, 2).count(), 0);   // wrong step
    EXPECT_EQ(inj.stall(0, 3).count(), 0);   // wrong rank
    EXPECT_EQ(inj.stall(1, 3), std::chrono::milliseconds(7));
    EXPECT_EQ(inj.stall(1, 3).count(), 0);   // consumed

    EXPECT_FALSE(inj.kill(0, 0));
    EXPECT_TRUE(inj.kill(0, 2));
    EXPECT_FALSE(inj.kill(0, 2));

    EXPECT_TRUE(inj.arm_halo_corrupt(2, 5));
    EXPECT_FALSE(inj.arm_halo_corrupt(2, 5));
    EXPECT_EQ(inj.fired_count(), 3);
}

TEST(FaultInjector, FieldFaultsCorruptTheNamedCell) {
    GridSpec spec = make_global();
    Grid<double> grid(spec);
    State<double> state(grid, SpeciesSet::dry());
    state.rhotheta.fill(300.0);
    FaultPlan plan;
    plan.push_back({FaultKind::FieldNaN, 0, 1, VarId::RhoTheta, 3, 4, 2, {}});
    plan.push_back({FaultKind::FieldInf, 0, 1, VarId::Rho, 1, 1, 1, {}});
    resilience::FaultInjector inj(plan);
    std::string log;
    EXPECT_EQ(inj.apply_field_faults(
                  0, 1, [&](Index) -> State<double>& { return state; }, &log),
              0);
    EXPECT_EQ(inj.apply_field_faults(
                  1, 1, [&](Index) -> State<double>& { return state; }, &log),
              2);
    EXPECT_TRUE(std::isnan(state.rhotheta(3, 4, 2)));
    EXPECT_TRUE(std::isinf(state.rho(1, 1, 1)));
    EXPECT_NE(log.find("field_nan"), std::string::npos);
    EXPECT_NE(log.find("rho_theta"), std::string::npos);
    // Replay: already fired, nothing happens.
    EXPECT_EQ(inj.apply_field_faults(
                  1, 1, [&](Index) -> State<double>& { return state; }),
              0);
}

// ---------------------------------------------------------------------
// Guarded channels (unit level).
// ---------------------------------------------------------------------

TEST(ResilienceChannel, IntegrityPassesCleanMessages) {
    HaloChannel<double> ch;
    ch.configure(std::chrono::seconds(2), 0, 1, 0);
    for (int msg = 0; msg < 5; ++msg) {
        auto& buf = ch.begin_post(64);
        for (std::size_t n = 0; n < buf.size(); ++n) {
            buf[n] = static_cast<double>(msg * 100 + static_cast<int>(n));
        }
        ch.finish_post();
        const auto& got = ch.begin_receive();
        EXPECT_EQ(got[7], static_cast<double>(msg * 100 + 7));
        ch.finish_receive();
    }
}

TEST(ResilienceChannel, CorruptedMessageIsDetected) {
    HaloChannel<double> ch;
    ch.configure(std::chrono::seconds(2), 3, 1, 2);
    auto& buf = ch.begin_post(64);
    for (std::size_t n = 0; n < buf.size(); ++n) buf[n] = 1.0;
    ch.finish_post(/*corrupt_in_flight=*/true);
    try {
        ch.begin_receive();
        FAIL() << "corruption not detected";
    } catch (const HaloFaultError& e) {
        EXPECT_EQ(e.fault, HaloFault::Corrupt);
        EXPECT_EQ(e.owner_rank, 3);
        EXPECT_EQ(e.suspect_rank, 1);  // the producer is the suspect
        EXPECT_NE(std::string(e.what()).find("corrupt"), std::string::npos);
    }
}

TEST(ResilienceChannel, ReceiveDeadlineTimesOutWithPeerSuspect) {
    HaloChannel<double> ch;
    ch.configure(std::chrono::milliseconds(60), 2, 7, 1);
    const auto t0 = std::chrono::steady_clock::now();
    try {
        ch.begin_receive();
        FAIL() << "deadline did not fire";
    } catch (const HaloFaultError& e) {
        EXPECT_EQ(e.fault, HaloFault::Timeout);
        EXPECT_EQ(e.suspect_rank, 7);
    }
    const auto waited = std::chrono::steady_clock::now() - t0;
    EXPECT_GE(waited, std::chrono::milliseconds(55));
}

TEST(ResilienceChannel, PoisonReleasesABlockedWaiter) {
    HaloChannel<double> ch;
    ch.configure(std::chrono::seconds(30), 0, 1, 0);
    HaloFault seen = HaloFault::None;
    std::thread waiter([&] {
        try {
            ch.begin_receive();
        } catch (const HaloFaultError& e) {
            seen = e.fault;
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ch.poison();
    waiter.join();  // returns long before the 30 s deadline
    EXPECT_EQ(seen, HaloFault::Poisoned);
}

// ---------------------------------------------------------------------
// Watchdog (unit level).
// ---------------------------------------------------------------------

TEST(WatchdogReport, FlagsNonFiniteWithFieldAndLocation) {
    GridSpec spec = make_global();
    Grid<double> grid(spec);
    State<double> state(grid, SpeciesSet::dry());
    state.rho.fill(1.0);
    state.rhotheta.fill(300.0);
    state.p.fill(1.0e5);
    resilience::Watchdog<double> dog;
    resilience::HealthReport report;
    EXPECT_EQ(dog.scan(grid, state, 4.0, 1, 9, report), 0);
    EXPECT_TRUE(report.healthy());

    state.rhotheta(5, 2, 3) = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(dog.scan(grid, state, 4.0, 1, 9, report), 1);
    ASSERT_FALSE(report.healthy());
    const auto* f = report.first("nonfinite");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->rank, 1);
    EXPECT_EQ(f->step, 9);
    EXPECT_EQ(f->field, "rho_theta");
    EXPECT_EQ(f->i, 5);
    EXPECT_EQ(f->j, 2);
    EXPECT_EQ(f->k, 3);
    EXPECT_NE(report.to_string().find("rho_theta"), std::string::npos);
}

TEST(WatchdogReport, FlagsCflExcursionAndMassDrift) {
    GridSpec spec = make_global();
    Grid<double> grid(spec);
    State<double> state(grid, SpeciesSet::dry());
    state.rho.fill(1.0);
    resilience::WatchdogConfig cfg;
    cfg.cfl_limit = 2.0;
    cfg.mass_drift_tol = 1.0e-6;
    resilience::Watchdog<double> dog(cfg);
    resilience::HealthReport report;
    EXPECT_EQ(dog.scan(grid, state, 4.0, 0, 0, report), 0);

    // A finite but absurd momentum: exactly what a high-exponent bit flip
    // produces and what is_finite() alone cannot see.
    state.rhou(6, 3, 2) = 1.0e6;
    dog.scan(grid, state, 4.0, 0, 0, report);
    ASSERT_TRUE(report.has("cfl"));
    EXPECT_GT(report.first("cfl")->value, 2.0);

    resilience::HealthReport mass_report;
    const double mass = resilience::Watchdog<double>::total_mass(grid, state);
    EXPECT_EQ(dog.check_mass(mass, mass, 0, 0, mass_report), 0);
    EXPECT_EQ(dog.check_mass(mass * 1.001, mass, 0, 0, mass_report), 1);
    EXPECT_TRUE(mass_report.has("mass_drift"));
}

// ---------------------------------------------------------------------
// Runner-level recovery.
// ---------------------------------------------------------------------

MultiDomainConfig resilient_config(FaultPlan faults = {}) {
    MultiDomainConfig md;
    md.threads_per_rank = 1;
    md.resilience.enabled = true;
    md.resilience.checkpoint_interval = 1;
    md.resilience.max_retries = 3;
    md.resilience.halo_deadline = std::chrono::seconds(20);
    md.resilience.faults = std::move(faults);
    return md;
}

TEST(ResilienceRecovery, GuardedRunIsBitwiseIdenticalToUnguarded) {
    const auto spec = make_global();
    const auto cfg = make_stepper_cfg();
    const auto species = SpeciesSet::warm_rain();
    Grid<double> grid(spec);
    State<double> initial(grid, species);
    init_case(grid, species, initial);

    MultiDomainRunner<double> unguarded(spec, 2, 2, species, cfg);
    unguarded.scatter(initial);
    for (int n = 0; n < 4; ++n) unguarded.step();
    State<double> ref(grid, species);
    unguarded.gather(ref);

    // Deadlines, integrity words, watchdog scans, per-step snapshots:
    // none of it may change a single bit of the answer.
    auto md = resilient_config();
    md.resilience.watchdog.cfl_limit = 10.0;
    md.resilience.watchdog.mass_drift_tol = 1.0e-6;
    MultiDomainRunner<double> guarded(spec, 2, 2, species, cfg, md);
    guarded.scatter(initial);
    guarded.advance(4);
    State<double> got(grid, species);
    guarded.gather(got);
    expect_bitwise(ref, got);
    EXPECT_EQ(guarded.step_index(), 4);
    EXPECT_TRUE(guarded.last_health_report().healthy());
    EXPECT_EQ(guarded.recovery_log(), "");
}

TEST(ResilienceRecovery, InjectedFieldNaNRollsBackAndReplaysBitwise) {
    const auto spec = make_global();
    const auto cfg = make_stepper_cfg();
    const auto species = SpeciesSet::warm_rain();
    Grid<double> grid(spec);
    State<double> initial(grid, species);
    init_case(grid, species, initial);

    MultiDomainRunner<double> clean(spec, 2, 2, species, cfg,
                                    resilient_config());
    clean.scatter(initial);
    clean.advance(5);
    State<double> ref(grid, species);
    clean.gather(ref);

    FaultPlan plan;
    plan.push_back({FaultKind::FieldNaN, 2, 2, VarId::RhoTheta, 4, 2, 3, {}});
    MultiDomainRunner<double> faulty(
        spec, 2, 2, species, cfg,
        resilient_config(plan));
    faulty.scatter(initial);
    faulty.advance(5);
    State<double> got(grid, species);
    faulty.gather(got);

    expect_bitwise(ref, got);
    EXPECT_EQ(faulty.injector().fired_count(), 1);
    EXPECT_NE(faulty.recovery_log().find("rollback to step 2"),
              std::string::npos);
    EXPECT_NE(faulty.recovery_log().find("nonfinite"), std::string::npos);
}

TEST(ResilienceRecovery, HaloCorruptionRollsBackAndReplaysBitwise) {
    const auto spec = make_global();
    const auto cfg = make_stepper_cfg();
    const auto species = SpeciesSet::warm_rain();
    Grid<double> grid(spec);
    State<double> initial(grid, species);
    init_case(grid, species, initial);

    MultiDomainRunner<double> clean(
        spec, 2, 2, species, cfg,
        resilient_config());
    clean.scatter(initial);
    clean.advance(4);
    State<double> ref(grid, species);
    clean.gather(ref);

    FaultPlan plan;
    plan.push_back(
        {FaultKind::HaloCorrupt, 1, 1, VarId::RhoTheta, 0, 0, 0, {}});
    MultiDomainRunner<double> faulty(
        spec, 2, 2, species, cfg,
        resilient_config(plan));
    faulty.scatter(initial);
    faulty.advance(4);
    State<double> got(grid, species);
    faulty.gather(got);

    expect_bitwise(ref, got);
    EXPECT_EQ(faulty.injector().fired_count(), 1);
    EXPECT_NE(faulty.recovery_log().find("transient halo corruption"),
              std::string::npos);
}

TEST(ResilienceRecovery, FieldInfFaultRecoversBitwise) {
    // An Inf (not NaN) in a dry run's density on the last rank: the same
    // detect -> roll back -> replay path, bitwise.
    const auto spec = make_global();
    const auto cfg = make_stepper_cfg();
    const auto species = SpeciesSet::dry();
    Grid<double> grid(spec);
    State<double> initial(grid, species);
    init_case(grid, species, initial);

    MultiDomainRunner<double> clean(spec, 2, 2, species, cfg,
                                    resilient_config());
    clean.scatter(initial);
    clean.advance(3);
    State<double> ref(grid, species);
    clean.gather(ref);

    FaultPlan plan;
    plan.push_back({FaultKind::FieldInf, 3, 1, VarId::Rho, 2, 2, 2, {}});
    MultiDomainRunner<double> faulty(
        spec, 2, 2, species, cfg, resilient_config(plan));
    faulty.scatter(initial);
    faulty.advance(3);
    State<double> got(grid, species);
    faulty.gather(got);
    expect_bitwise(ref, got);
    EXPECT_NE(faulty.recovery_log().find("rollback"), std::string::npos);
}

TEST(ResilienceRecovery, StallPastDeadlineFailsCleanlyWithRankAttribution) {
    // 2x1: the only cross-rank channels run between ranks 0 and 1, so a
    // timeout's suspect is unambiguous. Rank 1 sleeps well past the
    // deadline; rank 0 must NOT hang — its guarded wait expires, every
    // channel is poisoned, and advance() aborts naming rank 1.
    const auto spec = make_global();
    const auto cfg = make_stepper_cfg();
    const auto species = SpeciesSet::dry();
    Grid<double> grid(spec);
    State<double> initial(grid, species);
    init_case(grid, species, initial);

    FaultPlan plan;
    plan.push_back({FaultKind::RankStall, 1, 0, VarId::RhoTheta, 0, 0, 0,
                    std::chrono::milliseconds(1500)});
    auto md = resilient_config(plan);
    md.resilience.halo_deadline = std::chrono::milliseconds(300);
    MultiDomainRunner<double> runner(spec, 2, 1, species, cfg, md);
    runner.scatter(initial);
    try {
        runner.advance(1);
        FAIL() << "stalled rank not detected";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("halo deadline missed"), std::string::npos);
        EXPECT_NE(what.find("suspect rank(s) 1"), std::string::npos);
    }
}

TEST(ResilienceRecovery, InjectedKillTerminatesAllRanksCleanly) {
    const auto spec = make_global();
    const auto cfg = make_stepper_cfg();
    const auto species = SpeciesSet::dry();
    Grid<double> grid(spec);
    State<double> initial(grid, species);
    init_case(grid, species, initial);

    FaultPlan plan;
    plan.push_back({FaultKind::RankKill, 0, 0, VarId::RhoTheta, 0, 0, 0, {}});
    MultiDomainRunner<double> runner(
        spec, 2, 1, species, cfg,
        resilient_config(plan));
    runner.scatter(initial);
    try {
        runner.advance(1);
        FAIL() << "killed rank not detected";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("rank(s) 0 died"), std::string::npos);
    }
}

TEST(ResilienceRecovery, PersistentFaultExhaustsRetries) {
    // A CFL limit below the flow's actual Courant number trips the
    // watchdog on every deterministic replay — a persistent fault.
    // The bounded-retry policy must declare it fatal instead of
    // rolling back forever.
    const auto spec = make_global();
    const auto cfg = make_stepper_cfg();
    const auto species = SpeciesSet::dry();
    Grid<double> grid(spec);
    State<double> initial(grid, species);
    init_case(grid, species, initial);

    auto md = resilient_config();
    md.resilience.max_retries = 1;
    md.resilience.watchdog.cfl_limit = 1.0e-12;  // u0 = 8 m/s trips this
    MultiDomainRunner<double> runner(spec, 1, 1, species, cfg, md);
    runner.scatter(initial);
    try {
        runner.advance(1);
        FAIL() << "persistent watchdog fault not declared fatal";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("persists"), std::string::npos);
    }
    EXPECT_NE(runner.recovery_log().find("rollback"), std::string::npos);
    EXPECT_FALSE(runner.last_health_report().healthy());
}

TEST(ResilienceRecovery, FaultPlanWithoutResilienceIsRejected) {
    const auto spec = make_global();
    const auto cfg = make_stepper_cfg();
    MultiDomainConfig md;
    md.resilience.faults.push_back(
        {FaultKind::FieldNaN, 0, 0, VarId::Rho, 0, 0, 0, {}});
    EXPECT_THROW(MultiDomainRunner<double>(spec, 2, 2, SpeciesSet::dry(),
                                           cfg, md),
                 Error);
}

TEST(ResilienceRecovery, RescatterResetsMassBaseline) {
    // scatter() replaces every rank state, so the mass-drift check must
    // measure against the new state's mass: a stale baseline from the
    // first state reads as ~1.6% drift and fails every replay.
    const auto spec = make_global();
    const auto cfg = make_stepper_cfg();
    const auto species = SpeciesSet::dry();
    Grid<double> grid(spec);
    const auto hydrostatic = [&](double theta0) {
        State<double> s(grid, species);
        initialize_hydrostatic(
            grid, AtmosphereProfile::constant_n(theta0, 0.011), 8.0, 3.0, s);
        return s;
    };
    const State<double> a = hydrostatic(292.0);
    const State<double> b = hydrostatic(300.0);

    auto md = resilient_config();
    md.resilience.watchdog.mass_drift_tol = 1.0e-6;
    MultiDomainRunner<double> runner(spec, 2, 2, species, cfg, md);
    runner.scatter(a);
    runner.advance(1);
    runner.scatter(b);
    ASSERT_NO_THROW(runner.advance(1));
    EXPECT_EQ(runner.recovery_log(), "");

    MultiDomainRunner<double> fresh(spec, 2, 2, species, cfg, md);
    fresh.scatter(b);
    fresh.advance(1);
    State<double> got(grid, species);
    State<double> ref(grid, species);
    runner.gather(got);
    fresh.gather(ref);
    expect_bitwise(ref, got);
}

// ---------------------------------------------------------------------
// Fused halo integrity (unit level).
// ---------------------------------------------------------------------

// The fused pack path accumulates the element-wise FNV-1a word inside
// the copy loop; the receiver's recompute path (begin_receive) must
// accept it. Odd sizes exercise every tail case.
TEST(ResilienceChannel, FusedPostHashMatchesStandaloneChecksum) {
    HaloChannel<double> ch;
    ch.configure(std::chrono::seconds(2), 0, 1, 0);
    int msg = 0;
    for (std::size_t size : {std::size_t(1), std::size_t(3), std::size_t(7),
                             std::size_t(13), std::size_t(64),
                             std::size_t(129)}) {
        auto& buf = ch.begin_post(size);
        hash::Fnv4 h;
        for (std::size_t n = 0; n < buf.size(); ++n) {
            buf[n] = 0.25 * static_cast<double>(msg * 1000 + int(n)) - 3.0;
            h.add(buf[n]);
        }
        // The streaming 4-lane accumulator must equal the block
        // function the receiver's recompute path uses — including the
        // tail lanes at odd sizes.
        EXPECT_EQ(h.digest(), hash::fnv1a_elems4(buf.data(), buf.size()));
        ch.finish_post_hashed(h.digest());
        const auto& got = ch.begin_receive();  // recompute-verify path
        ASSERT_EQ(got.size(), size);
        EXPECT_EQ(got[size - 1],
                  0.25 * static_cast<double>(msg * 1000 + int(size) - 1) -
                      3.0);
        ch.finish_receive();
        ++msg;
    }
}

TEST(ResilienceChannel, FusedPostHashMatchesStandaloneChecksumFloat) {
    HaloChannel<float> ch;
    ch.configure(std::chrono::seconds(2), 0, 1, 1);
    auto& buf = ch.begin_post(37);
    hash::Fnv4 h;
    for (std::size_t n = 0; n < buf.size(); ++n) {
        buf[n] = 1.5f * static_cast<float>(n) - 7.0f;
        h.add(buf[n]);
    }
    EXPECT_EQ(h.digest(), hash::fnv1a_elems4(buf.data(), buf.size()));
    ch.finish_post_hashed(h.digest());
    EXPECT_EQ(ch.begin_receive()[36], 1.5f * 36.0f - 7.0f);
    ch.finish_receive();
}

// The fused unpack path: begin_receive_deferred() + hash-while-copying
// + verify_receive() must detect in-flight corruption exactly like the
// recompute path does.
TEST(ResilienceChannel, DeferredVerifyDetectsCorruption) {
    HaloChannel<double> ch;
    ch.configure(std::chrono::seconds(2), 4, 9, 3);
    {
        auto& buf = ch.begin_post(32);
        hash::Fnv4 h;
        for (std::size_t n = 0; n < buf.size(); ++n) {
            buf[n] = static_cast<double>(n);
            h.add(buf[n]);
        }
        ch.finish_post_hashed(h.digest(), /*corrupt_in_flight=*/true);
    }
    const auto& got = ch.begin_receive_deferred();
    const std::uint64_t rh = hash::fnv1a_elems4(got.data(), got.size());
    try {
        ch.verify_receive(rh);
        FAIL() << "deferred verify missed corruption";
    } catch (const HaloFaultError& e) {
        EXPECT_EQ(e.fault, HaloFault::Corrupt);
        EXPECT_EQ(e.owner_rank, 4);
        EXPECT_EQ(e.suspect_rank, 9);
    }
}

TEST(ResilienceChannel, DeferredVerifyPassesCleanMessages) {
    HaloChannel<double> ch;
    ch.configure(std::chrono::seconds(2), 0, 1, 0);
    for (int msg = 0; msg < 3; ++msg) {
        auto& buf = ch.begin_post(17);
        hash::Fnv4 h;
        for (std::size_t n = 0; n < buf.size(); ++n) {
            buf[n] = static_cast<double>(msg) + 0.5 * static_cast<double>(n);
            h.add(buf[n]);
        }
        ch.finish_post_hashed(h.digest());
        const auto& got = ch.begin_receive_deferred();
        hash::Fnv4 rh;
        double sink = 0.0;
        for (std::size_t n = 0; n < got.size(); ++n) {
            sink += got[n];  // "unpack" fused with the hash
            rh.add(got[n]);
        }
        ch.verify_receive(rh.digest());
        ch.finish_receive();
        EXPECT_GT(sink, 0.0);
    }
}

// ---------------------------------------------------------------------
// Watchdog scan (unit level).
// ---------------------------------------------------------------------

// The row-parallel scan must report the same "first" bad cell (fixed
// j,k,i traversal order) no matter how the rows were chunked over
// threads.
TEST(WatchdogScan, ParallelScanFindingIsDeterministic) {
    GridSpec spec = make_global();
    Grid<double> grid(spec);
    State<double> state(grid, SpeciesSet::dry());
    state.rho.fill(1.0);
    state.rhotheta.fill(300.0);
    state.p.fill(1.0e5);
    // Two bad cells in the same field; j=3 precedes j=7 in traversal
    // order, so (2,3,1) is the canonical finding.
    state.rho(2, 3, 1) = std::numeric_limits<double>::quiet_NaN();
    state.rho(1, 7, 0) = std::numeric_limits<double>::quiet_NaN();

    resilience::Watchdog<double> dog;
    for (std::size_t threads : {std::size_t(1), std::size_t(4)}) {
        ThreadPool pool(threads);
        ThreadPool::ScopedOverride guard(pool);
        resilience::HealthReport report;
        EXPECT_EQ(dog.scan(grid, state, 4.0, 0, 0, report), 1);
        const auto* f = report.first("nonfinite");
        ASSERT_NE(f, nullptr);
        EXPECT_EQ(f->field, "rho");
        EXPECT_EQ(f->i, 2);
        EXPECT_EQ(f->j, 3);
        EXPECT_EQ(f->k, 1);
    }
}

// ---------------------------------------------------------------------
// Rollback snapshots (runner level).
// ---------------------------------------------------------------------

void expect_padded_bitwise(const State<double>& a, const State<double>& b) {
    const auto eq = [](const Array3<double>& x, const Array3<double>& y,
                       const char* name) {
        ASSERT_EQ(x.size(), y.size()) << name;
        EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size() * sizeof(double)),
                  0)
            << name;
    };
    eq(a.rho, b.rho, "rho");
    eq(a.rhou, b.rhou, "rhou");
    eq(a.rhov, b.rhov, "rhov");
    eq(a.rhow, b.rhow, "rhow");
    eq(a.rhotheta, b.rhotheta, "rhotheta");
    eq(a.p, b.p, "p");
    eq(a.rho_ref, b.rho_ref, "rho_ref");
    eq(a.p_ref, b.p_ref, "p_ref");
    eq(a.rhotheta_ref, b.rhotheta_ref, "rhotheta_ref");
    eq(a.cs2, b.cs2, "cs2");
    ASSERT_EQ(a.tracers.size(), b.tracers.size());
    for (std::size_t n = 0; n < a.tracers.size(); ++n) {
        eq(a.tracers[n], b.tracers[n], "tracer");
    }
}

// The double-buffered snapshot must hold exactly the rank states
// as of its capture step — bitwise, including halos and the static
// reference fields — and a restore from it must replay to the same
// trajectory as the uninterrupted run.
TEST(ResilienceSnapshot, AsyncSnapshotRestoresBitwiseStateAndReplays) {
    const auto spec = make_global();
    const auto cfg = make_stepper_cfg();
    const auto species = SpeciesSet::warm_rain();
    Grid<double> grid(spec);
    State<double> initial(grid, species);
    init_case(grid, species, initial);

    auto md = resilient_config();
    md.resilience.checkpoint_interval = 3;
    MultiDomainRunner<double> runner(spec, 2, 2, species, cfg, md);
    runner.scatter(initial);
    runner.advance(3);
    std::vector<State<double>> at3;
    for (Index r = 0; r < runner.rank_count(); ++r) {
        at3.push_back(runner.rank_state(r));
    }
    runner.advance(2);  // steps 4,5 — snapshot cadence not due yet
    State<double> ref5(grid, species);
    runner.gather(ref5);

    runner.restore_last_snapshot();
    EXPECT_EQ(runner.step_index(), 3);
    EXPECT_NE(runner.recovery_log().find("rollback to step 3"),
              std::string::npos);
    EXPECT_NE(runner.recovery_log().find("manual restore"),
              std::string::npos);
    for (Index r = 0; r < runner.rank_count(); ++r) {
        expect_padded_bitwise(at3[static_cast<std::size_t>(r)],
                              runner.rank_state(r));
    }

    runner.advance(2);  // replay 4,5
    EXPECT_EQ(runner.step_index(), 5);
    State<double> got5(grid, species);
    runner.gather(got5);
    expect_bitwise(ref5, got5);
}

TEST(ResilienceSnapshot, ManualRestoreRequiresResilience) {
    const auto spec = make_global();
    const auto cfg = make_stepper_cfg();
    MultiDomainConfig md;  // resilience off
    MultiDomainRunner<double> runner(spec, 1, 1, SpeciesSet::dry(), cfg, md);
    EXPECT_THROW(runner.restore_last_snapshot(), Error);
}

// ---------------------------------------------------------------------
// Late detection + rollback snapshots end to end.
// ---------------------------------------------------------------------

// A fault the watchdog cannot see in its own step: flipping the top
// exponent bit of a small nonzero rhow multiplies it by 2^1024, which
// stays finite (~1e307), so the injection step commits and promotes its
// rollback round. The next step's stencils overflow it to Inf/NaN, the
// scan catches that, and rollback must land on the round promoted at
// the injection step — clean, because each rank staged its copy before
// the fault landed — and replay to a run bitwise equal to a clean one.
TEST(ResilienceRecovery, LateDetectedBitFlipRollsBackToTheInjectionStepRound) {
    const auto spec = make_global();
    const auto cfg = make_stepper_cfg();
    const auto species = SpeciesSet::dry();
    Grid<double> grid(spec);
    State<double> initial(grid, species);
    init_case(grid, species, initial);

    State<double> ref(grid, species);
    double flipped_value = 0.0;
    {
        MultiDomainRunner<double> clean(spec, 2, 2, species, cfg,
                                        resilient_config());
        clean.scatter(initial);
        clean.advance(3);
        flipped_value = clean.rank_state(1).rhow(4, 2, 3);
        clean.advance(2);
        clean.gather(ref);
    }
    // The premise: the value the fault flips (rank 1's rhow after step
    // index 2) is nonzero and small enough that the flipped value stays
    // finite.
    ASSERT_NE(flipped_value, 0.0);
    ASSERT_TRUE(std::isfinite(std::ldexp(flipped_value, 1024)));

    FaultPlan plan;
    plan.push_back({FaultKind::FieldBitFlip, 1, 2, VarId::RhoW, 4, 2, 3, {}});
    MultiDomainRunner<double> runner(spec, 2, 2, species, cfg,
                                     resilient_config(plan));
    runner.scatter(initial);
    runner.advance(5);

    EXPECT_EQ(runner.injector().fired_count(), 1);
    const std::string& log = runner.recovery_log();
    EXPECT_NE(log.find("field_bitflip rank 1 step 2"), std::string::npos);
    EXPECT_NE(log.find("rollback to step 3 (watchdog: nonfinite)"),
              std::string::npos)
        << log;
    EXPECT_EQ(log.find("rollback to step 2"), std::string::npos) << log;
    EXPECT_EQ(runner.step_index(), 5);
    State<double> got(grid, species);
    runner.gather(got);
    expect_bitwise(ref, got);
}

// ---------------------------------------------------------------------
// Guarded-mode forcing for CI.
// ---------------------------------------------------------------------

TEST(ResilienceConfigEnv, ForceGuardedFlipsDisabledRunners) {
    const auto spec = make_global();
    const auto cfg = make_stepper_cfg();
    ASSERT_EQ(setenv("ASUCA_FORCE_GUARDED", "1", 1), 0);
    {
        MultiDomainConfig md;  // resilience off in the config...
        MultiDomainRunner<double> runner(spec, 2, 2, SpeciesSet::dry(), cfg,
                                         md);
        EXPECT_TRUE(runner.resilience_enabled());  // ...forced on by env
    }
    {
        // A fault plan with resilience disabled stays a config error —
        // the env override must not launder it into a valid setup.
        MultiDomainConfig md;
        md.resilience.faults.push_back(
            {FaultKind::FieldNaN, 0, 0, VarId::Rho, 0, 0, 0, {}});
        EXPECT_THROW(
            MultiDomainRunner<double>(spec, 2, 2, SpeciesSet::dry(), cfg, md),
            Error);
    }
    ASSERT_EQ(unsetenv("ASUCA_FORCE_GUARDED"), 0);
    MultiDomainConfig md;
    MultiDomainRunner<double> runner(spec, 2, 2, SpeciesSet::dry(), cfg, md);
    EXPECT_FALSE(runner.resilience_enabled());
}

}  // namespace
}  // namespace asuca::cluster
