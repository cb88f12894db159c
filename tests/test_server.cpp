// Forecast-service specification (test-first): queue semantics, scenario
// canonicalization and cache keying, the degradation ladder, submission /
// deduplication / error paths, checkpoint-backed warm starts, ensemble
// fork determinism, and the bitwise server-vs-standalone guarantee.
//
// The concurrency stress/soak side lives in test_server_stress.cpp; this
// file pins the FUNCTIONAL contract every stress run leans on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/core/diagnostics.hpp"
#include "src/server/forecast_server.hpp"

namespace asuca::server {
namespace {

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

ScenarioSpec small_spec(int steps = 2) {
    ScenarioSpec s;
    s.scenario = "warm_bubble";
    s.nx = 16;
    s.ny = 16;
    s.nz = 12;
    s.steps = steps;
    return s;
}

/// Every in-repo caller speaks the wire envelope API; this wraps a spec
/// the way an out-of-process client's frame would arrive.
wire::ForecastRequestV1 envelope(const ScenarioSpec& spec) {
    wire::ForecastRequestV1 req;
    req.spec = spec;
    return req;
}

// ---------------------------------------------------------------------
// Bounded request queue.
// ---------------------------------------------------------------------

TEST(ServerQueue, FifoOrderAndCapacity) {
    RequestQueue<int> q(4);
    EXPECT_EQ(q.capacity(), 4u);
    EXPECT_EQ(q.size(), 0u);
    for (int n = 0; n < 4; ++n) EXPECT_TRUE(q.try_push(n));
    EXPECT_EQ(q.size(), 4u);
    EXPECT_FALSE(q.try_push(99));  // full: non-blocking push sheds
    for (int n = 0; n < 4; ++n) {
        int got = -1;
        EXPECT_TRUE(q.pop(got));
        EXPECT_EQ(got, n);  // FIFO
    }
    EXPECT_EQ(q.size(), 0u);
}

TEST(ServerQueue, PushBlocksWhileFullUntilPop) {
    RequestQueue<int> q(1);
    ASSERT_TRUE(q.push(0));
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        EXPECT_TRUE(q.push(1));  // blocks until the consumer pops
        pushed.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(pushed.load());  // still blocked on a full queue
    int got = -1;
    EXPECT_TRUE(q.pop(got));
    EXPECT_EQ(got, 0);
    producer.join();
    EXPECT_TRUE(pushed.load());
    EXPECT_TRUE(q.pop(got));
    EXPECT_EQ(got, 1);
}

TEST(ServerQueue, PopBlocksUntilPush) {
    RequestQueue<int> q(2);
    std::atomic<int> got{-1};
    std::thread consumer([&] {
        int v = -1;
        EXPECT_TRUE(q.pop(v));
        got.store(v);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(got.load(), -1);
    EXPECT_TRUE(q.push(7));
    consumer.join();
    EXPECT_EQ(got.load(), 7);
}

TEST(ServerQueue, CloseReleasesWaitersAndDrainsBacklog) {
    RequestQueue<int> q(1);
    ASSERT_TRUE(q.push(5));
    // A producer blocked on a full queue is released by close() -> false.
    std::thread producer([&] { EXPECT_FALSE(q.push(6)); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.close();
    producer.join();
    EXPECT_TRUE(q.closed());
    EXPECT_FALSE(q.push(7));      // admissions stopped
    EXPECT_FALSE(q.try_push(8));
    int got = -1;
    EXPECT_TRUE(q.pop(got));  // backlog survives close (drain-then-stop)
    EXPECT_EQ(got, 5);
    EXPECT_FALSE(q.pop(got));  // closed AND drained
    q.close();                 // idempotent
}

TEST(ServerQueue, CloseWakesBlockedPushWithoutEnqueueing) {
    // The negative path of push(): a producer blocked on a full queue at
    // the moment close() lands must wake with a CLEAN rejection — false,
    // and its item must never appear in the backlog (a half-enqueued
    // item after "admissions stopped" would be a lost-or-duplicated job).
    RequestQueue<int> q(1);
    ASSERT_TRUE(q.push(1));
    std::thread blocked([&] { EXPECT_FALSE(q.push(2)); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.close();
    blocked.join();
    int got = -1;
    EXPECT_TRUE(q.pop(got));
    EXPECT_EQ(got, 1);          // only the pre-close item drains
    EXPECT_FALSE(q.pop(got));   // 2 was rejected, not enqueued
}

TEST(ServerQueue, PoisonReturnsBacklogAndReleasesEveryWaiter) {
    RequestQueue<int> q(2);
    ASSERT_TRUE(q.push(1));
    ASSERT_TRUE(q.push(2));
    // One producer blocked on full, one consumer about to block on a
    // queue poison() will empty before it can pop.
    std::thread producer([&] { EXPECT_FALSE(q.push(3)); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::deque<int> orphans = q.poison();
    producer.join();
    // Unlike close(), the backlog is NOT poppable — it came back to us.
    ASSERT_EQ(orphans.size(), 2u);
    EXPECT_EQ(orphans[0], 1);
    EXPECT_EQ(orphans[1], 2);
    int got = -1;
    EXPECT_FALSE(q.pop(got));   // consumers stop immediately
    EXPECT_FALSE(q.push(4));
    std::thread consumer([&] {
        int v = -1;
        EXPECT_FALSE(q.pop(v));  // a late consumer is released too
    });
    consumer.join();
}

TEST(ServerQueue, RequeueFrontEnqueuesPastTheCapacityBound) {
    RequestQueue<int> q(1);
    ASSERT_TRUE(q.push(10));
    EXPECT_FALSE(q.try_push(11));   // full: admission backpressure...
    EXPECT_TRUE(q.requeue(12));     // ...but the retry path never blocks
    EXPECT_EQ(q.size(), 2u);        // over capacity, by design
    int got = -1;
    EXPECT_TRUE(q.pop(got));
    EXPECT_EQ(got, 12);             // retried job jumps the backlog
    EXPECT_TRUE(q.pop(got));
    EXPECT_EQ(got, 10);
    q.close();
    EXPECT_FALSE(q.requeue(13));    // closed is the only rejection
}

// ---------------------------------------------------------------------
// Scenario canonicalization and cache keying.
// ---------------------------------------------------------------------

TEST(ServerScenario, EquivalentSpecsShareOneCanonicalKey) {
    // Irrelevant fields must not split the cache: a physics flag on
    // warm_bubble, perturbation fields with zero amplitude.
    ScenarioSpec a = small_spec();
    ScenarioSpec b = small_spec();
    b.physics = true;          // warm_bubble forces physics off
    b.member = 3;              // meaningless without a warm-start fork
    b.perturb_seed = 999;
    EXPECT_EQ(canonical_key(canonicalize(a)), canonical_key(canonicalize(b)));

    // Two 2x2 frames that differ only in the retired "overlap" field (v1
    // clients still send it) are one product: the runner has one
    // schedule, and every schedule it ever had gave the same bits.
    const auto decomposed = [](const char* overlap) {
        io::JsonValue j = wire::spec_to_json(small_spec());
        j.set("px", 2LL);
        j.set("py", 2LL);
        j.set("overlap", overlap);
        return canonical_key(canonicalize(wire::spec_from_json(j)));
    };
    EXPECT_EQ(decomposed("none"), decomposed("pipeline"));

    // Fields that DO change the product must split the key.
    ScenarioSpec c = small_spec(3);
    EXPECT_NE(canonical_key(canonicalize(a)), canonical_key(canonicalize(c)));
    ScenarioSpec d = small_spec();
    d.nx = 32;
    EXPECT_NE(canonical_key(canonicalize(a)), canonical_key(canonicalize(d)));
}

TEST(ServerScenario, RejectsNonsense) {
    ScenarioSpec s = small_spec();
    s.scenario = "tornado";
    EXPECT_THROW(canonicalize(s), Error);
    s = small_spec();
    s.nx = 4;  // below the minimum extent
    EXPECT_THROW(canonicalize(s), Error);
    s = small_spec();
    s.steps = 0;
    EXPECT_THROW(canonicalize(s), Error);
    s = small_spec();
    s.px = 2;  // decomposed runs are dry-dycore only
    s.scenario = "real_case";
    EXPECT_THROW(canonicalize(s), Error);
    s = small_spec();
    s.px = 3;  // 16 columns do not split three ways
    EXPECT_THROW(canonicalize(s), Error);
    s = small_spec();
    s.py = 8;  // 2 rows per rank: below the runner's one-halo floor
    EXPECT_THROW(canonicalize(s), Error);
}

TEST(ServerScenario, DegradationLadderShedsHorizonThenResolution) {
    ScenarioSpec s = canonicalize(small_spec(8));
    EXPECT_EQ(max_degrade_level(s), 2);  // 16x16 coarsens to 8x8

    const ScenarioSpec l1 = apply_degradation(s, 1);
    EXPECT_EQ(l1.steps, 4);  // horizon halved
    EXPECT_EQ(l1.coarsen, 0);
    EXPECT_EQ(l1.nx, s.nx);

    const ScenarioSpec l2 = apply_degradation(s, 2);
    EXPECT_EQ(l2.steps, 4);
    EXPECT_EQ(l2.coarsen, 1);  // grid coarsened 2x...
    const auto cfg_full = build_config(s);
    const auto cfg_l2 = build_config(l2);
    EXPECT_EQ(cfg_l2.grid.nx, cfg_full.grid.nx / 2);
    // ...with dx doubled, so the physical domain is preserved.
    EXPECT_DOUBLE_EQ(cfg_l2.grid.dx, 2.0 * cfg_full.grid.dx);
    EXPECT_DOUBLE_EQ(cfg_l2.grid.nx * cfg_l2.grid.dx,
                     cfg_full.grid.nx * cfg_full.grid.dx);

    // Every ladder level is a distinct cached product.
    EXPECT_NE(canonical_key(s), canonical_key(l1));
    EXPECT_NE(canonical_key(l1), canonical_key(l2));

    // A grid that cannot coarsen stops at level 1 (horizon shedding
    // always works).
    ScenarioSpec tiny = small_spec(8);
    tiny.nx = 8;
    tiny.ny = 8;
    const ScenarioSpec t = canonicalize(tiny);
    EXPECT_EQ(max_degrade_level(t), 1);
    EXPECT_EQ(apply_degradation(t, 2).coarsen, 0);
    EXPECT_EQ(apply_degradation(t, 2).steps, 4);
}

// The one admission rule, as a table: depth watermarks while the server
// is cold, then the estimated wait (depth x EWMA / healthy workers)
// against the target, always clamped to the spec's ladder.
TEST(ServerAdmission, RuleTable) {
    struct Row {
        std::size_t depth, capacity;
        double ewma_ms;
        std::size_t healthy;
        double target_ms;
        int max_level, expected;
        const char* why;
    };
    const Row rows[] = {
        // Cold (no completion yet): level 1 from cap/2, 2 from 3cap/4;
        // the target plays no part.
        {0, 8, 0.0, 2, 2000.0, 2, 0, "cold, empty"},
        {3, 8, 0.0, 2, 2000.0, 2, 0, "cold, below cap/2"},
        {4, 8, 0.0, 2, 2000.0, 2, 1, "cold, at cap/2"},
        {5, 8, 0.0, 2, 1.0, 2, 1, "cold, a tiny target is not read"},
        {6, 8, 0.0, 2, 2000.0, 2, 2, "cold, at 3cap/4"},
        {8, 8, 0.0, 2, 2000.0, 2, 2, "cold, full"},
        // Calibrated: wait = depth x 250 ms on one worker; level 1 from
        // half the 1000 ms target, level 2 from three quarters, where
        // the depth watermarks would still say 0.
        {1, 8, 250.0, 1, 1000.0, 2, 0, "wait 250 < 500"},
        {2, 8, 249.0, 1, 1000.0, 2, 0, "wait 498 < 500"},
        {2, 8, 250.0, 1, 1000.0, 2, 1, "wait 500 = target/2"},
        {3, 8, 249.0, 1, 1000.0, 2, 1, "wait 747 < 750"},
        {3, 8, 250.0, 1, 1000.0, 2, 2, "wait 750 = 3 target/4"},
        {6, 8, 10.0, 1, 1000.0, 2, 0, "fast requests: a deep queue is fine"},
        // Quarantined workers raise the estimate (4 slots, depth 4).
        {4, 8, 250.0, 4, 1000.0, 2, 0, "4 healthy: wait 250"},
        {4, 8, 250.0, 2, 1000.0, 2, 1, "2 healthy: wait 500"},
        {4, 8, 250.0, 1, 1000.0, 2, 2, "1 healthy: wait 1000"},
        {2, 8, 250.0, 0, 1000.0, 2, 1, "none healthy counts as one"},
        // The spec's ladder clamps the level.
        {8, 8, 0.0, 2, 2000.0, 1, 1, "cold full, grid cannot coarsen"},
        {3, 8, 250.0, 1, 1000.0, 1, 1, "calibrated, grid cannot coarsen"},
    };
    for (const Row& r : rows) {
        EXPECT_EQ(admission_rule(r.depth, r.capacity, r.ewma_ms, r.healthy,
                                 r.target_ms, r.max_level),
                  r.expected)
            << r.why;
    }
}

// ---------------------------------------------------------------------
// Submission, deduplication, error paths.
// ---------------------------------------------------------------------

TEST(ServerSubmit, RunsARequestAndReportsDiagnostics) {
    ForecastServer server;
    ForecastHandle h = server.submit(envelope(small_spec()));
    const ForecastResult& res = h.wait();
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_EQ(res.steps_run, 2);
    EXPECT_NE(res.fingerprint, 0u);
    EXPECT_GT(res.total_mass, 0.0);
    EXPECT_GE(res.latency_ms, 0.0);
    EXPECT_EQ(res.degrade_level, 0);
    server.shutdown();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.submitted, 1u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.failed, 0u);
}

TEST(ServerSubmit, DeduplicatesEquivalentRequests) {
    ForecastServer server;
    ForecastHandle a = server.submit(envelope(small_spec()));
    // Same product, differently-filled struct: must attach, not re-run.
    ScenarioSpec same = small_spec();
    same.physics = true;
    same.perturb_seed = 77;
    ForecastHandle b = server.submit(envelope(same));
    EXPECT_FALSE(a.attached());
    EXPECT_TRUE(b.attached());
    EXPECT_EQ(a.wait().fingerprint, b.wait().fingerprint);
    server.shutdown();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.submitted, 1u);   // one execution...
    EXPECT_EQ(stats.dedup_hits, 1u);  // ...served both callers
    EXPECT_EQ(stats.completed, 1u);
}

TEST(ServerSubmit, UnknownWarmStartFailsCleanlyAndServerKeepsServing) {
    ForecastServer server;
    ScenarioSpec bad = small_spec();
    bad.warm_start = "no-such-analysis";
    // Hold the handle: failed entries leave the result cache, so the
    // handle alone keeps the result alive past wait().
    const ForecastHandle bad_handle = server.submit(envelope(bad));
    const ForecastResult& res = bad_handle.wait();
    EXPECT_FALSE(res.ok());
    EXPECT_NE(res.error.find("no-such-analysis"), std::string::npos);
    // The taxonomy blames the right party: the CLIENT named a
    // checkpoint the store does not have.
    EXPECT_EQ(res.code, ErrorCode::bad_request);
    // The failure neither wedged a worker nor poisoned the cache.
    const ForecastResult& good = server.submit(envelope(small_spec())).wait();
    EXPECT_TRUE(good.ok()) << good.error;
    server.shutdown();
    EXPECT_EQ(server.stats().failed, 1u);
    EXPECT_EQ(server.stats().completed, 1u);
}

TEST(ServerSubmit, ShedPolicyRejectsOnlyWhenOptedIn) {
    ServerConfig cfg;
    cfg.n_workers = 1;
    cfg.queue_capacity = 1;
    cfg.shed_when_full = true;
    cfg.degrade_under_load = false;
    cfg.cache_results = false;
    ForecastServer server(cfg);
    // Flood faster than one worker drains: some submissions must shed,
    // and every shed is reported as a clean per-request error.
    std::vector<ForecastHandle> handles;
    for (int n = 0; n < 12; ++n) handles.push_back(server.submit(envelope(small_spec())));
    std::size_t ok = 0, shed = 0;
    for (auto& h : handles) {
        const ForecastResult& res = h.wait();
        if (res.ok()) {
            ++ok;
        } else {
            EXPECT_NE(res.error.find("shed"), std::string::npos);
            EXPECT_EQ(res.code, ErrorCode::over_capacity);
            ++shed;
        }
    }
    server.shutdown();
    EXPECT_GE(ok, 1u);  // the first admission always runs
    EXPECT_EQ(shed, server.stats().shed);
    EXPECT_EQ(ok + shed, 12u);
}

TEST(ServerSubmit, PerRequestDeadlineRidesTheEnvelope) {
    // A deadline_ms on the envelope overrides the server default for
    // that request only; with faults off it must not perturb anything.
    ForecastServer server;
    wire::ForecastRequestV1 req = envelope(small_spec());
    req.deadline_ms = 60000;
    const ForecastResult& res = server.submit(req).wait();
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_EQ(res.code, ErrorCode::none);
}

// ---------------------------------------------------------------------
// Warm starts and ensemble forking.
// ---------------------------------------------------------------------

TEST(ServerWarmStart, ContinuesBitwiseFromACapturedCheckpoint) {
    const ScenarioSpec spec = canonicalize(small_spec());

    // Reference: one model integrated 3 + 2 steps straight through.
    AsucaModel<double> reference(build_config(spec));
    init_model(reference, spec);
    reference.run(3);

    ServerConfig cfg;
    cfg.keep_state = true;
    ForecastServer server(cfg);
    server.checkpoints().capture("analysis", reference);
    reference.run(2);

    ScenarioSpec warm = spec;
    warm.warm_start = "analysis";
    warm.steps = 2;
    const ForecastResult& res = server.submit(envelope(warm)).wait();
    ASSERT_TRUE(res.ok()) << res.error;
    ASSERT_NE(res.state, nullptr);
    expect_bitwise(reference.state(), *res.state);
    EXPECT_EQ(res.fingerprint, state_fingerprint(reference.state()));
}

TEST(EnsembleFork, MemberSeedsAreWellSeparated) {
    EXPECT_NE(member_seed(1, 0), member_seed(1, 1));
    EXPECT_NE(member_seed(1, 0), member_seed(2, 0));
    EXPECT_EQ(member_seed(42, 7), member_seed(42, 7));
}

TEST(EnsembleFork, ExpansionIsDeterministicAndPerMember) {
    EnsembleRequest req;
    req.base = small_spec();
    req.base.warm_start = "analysis";
    req.n_members = 4;
    req.seed = 9;
    req.amplitude = 2.0e-3;
    const auto members = expand_members(req);
    const auto again = expand_members(req);
    ASSERT_EQ(members.size(), 4u);
    for (std::size_t m = 0; m < members.size(); ++m) {
        EXPECT_EQ(members[m].member, static_cast<int>(m));
        EXPECT_EQ(members[m].perturb_seed, again[m].perturb_seed);
        EXPECT_DOUBLE_EQ(members[m].perturb_amplitude, 2.0e-3);
    }
    // Distinct members are distinct cache products.
    EXPECT_NE(canonical_key(canonicalize(members[0])),
              canonical_key(canonicalize(members[1])));
}

TEST(EnsembleFork, PerturbationIsSeedDeterministic) {
    const ScenarioSpec spec = canonicalize(small_spec());
    AsucaModel<double> model(build_config(spec));
    init_model(model, spec);

    State<double> a = model.state();
    State<double> b = model.state();
    perturb_theta(a, 1234, 1.0e-3);
    perturb_theta(b, 1234, 1.0e-3);
    expect_bitwise(a, b);  // same seed, same bits

    State<double> c = model.state();
    perturb_theta(c, 1235, 1.0e-3);
    EXPECT_GT(max_abs_diff(a.rhotheta, c.rhotheta), 0.0);  // seeds matter
    EXPECT_EQ(max_abs_diff(a.rho, c.rho), 0.0);  // only theta is touched
}

// ---------------------------------------------------------------------
// The bitwise server-vs-standalone guarantee (fault injection off — the
// server path must add nothing to the numbers).
// ---------------------------------------------------------------------

TEST(ServerDeterminism, RequestMatchesStandaloneRunBitwise) {
    const ScenarioSpec spec = canonicalize(small_spec(3));

    // Standalone: a plain model run, no server machinery anywhere.
    AsucaModel<double> standalone(build_config(spec));
    init_model(standalone, spec);
    standalone.run(3);

    ServerConfig cfg;
    cfg.n_workers = 2;
    cfg.keep_state = true;
    ForecastServer server(cfg);
    const ForecastResult& res = server.submit(envelope(spec)).wait();
    ASSERT_TRUE(res.ok()) << res.error;
    ASSERT_NE(res.state, nullptr);
    expect_bitwise(standalone.state(), *res.state);
    EXPECT_EQ(res.fingerprint, state_fingerprint(standalone.state()));

    // And the executor invoked directly (what the stress harness uses as
    // its serial baseline) agrees too.
    const ForecastResult direct = run_forecast(spec, nullptr, true);
    EXPECT_EQ(direct.fingerprint, res.fingerprint);
    expect_bitwise(*direct.state, *res.state);
}

TEST(ServerDeterminism, DecomposedRequestMatchesSingleDomainStepper) {
    // A 2x2 request (HaloChannel + TaskLayer under the server's
    // ScopedOverride) must equal the single-domain dycore bitwise.
    ScenarioSpec spec = small_spec(2);
    spec.px = 2;
    spec.py = 2;
    spec = canonicalize(spec);
    const ModelConfig<double> mcfg = build_config(spec);
    AsucaModel<double> reference(mcfg);
    init_model(reference, spec);
    TimeStepper<double> stepper(reference.grid(), mcfg.species,
                                mcfg.stepper);
    for (int n = 0; n < spec.steps; ++n) stepper.step(reference.state());

    ServerConfig cfg;
    cfg.keep_state = true;
    ForecastServer server(cfg);
    const ForecastResult& res = server.submit(envelope(spec)).wait();
    ASSERT_TRUE(res.ok()) << res.error;
    ASSERT_NE(res.state, nullptr);
    expect_bitwise(reference.state(), *res.state);
}

}  // namespace
}  // namespace asuca::server
