// Concurrency stress harness for the forecast service (and, through it,
// HaloChannel + TaskLayer under oversubscription). Three load-bearing
// claims, each asserted bitwise:
//
//   1. An 8-member ensemble forked from ONE checkpoint and run
//      concurrently on a shared worker pool is per-member bitwise
//      identical to running each member serially in isolation.
//   2. M concurrent decomposed runners x N ranks each — far more
//      resident rank workers than cores — complete without deadlock or
//      lost halo messages, and every runner's answer is bitwise stable
//      across repetitions (and equal to a runner running alone, which
//      ServerDeterminism pins to the single-domain stepper).
//   3. Under 2x sustained overload the server DEGRADES (shorter horizon,
//      coarser grid) instead of shedding: every request completes.
//
// The ServerSoak suite repeats the churn at higher iteration counts; it
// carries the `slow` ctest label and reads ASUCA_SOAK_ITERS so the cron
// CI job can turn the crank harder than the tier-1 gate does.
#include <gtest/gtest.h>

#include <cstdlib>
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

/// Wrap a spec the way an out-of-process client's frame would arrive —
/// every in-repo caller speaks the wire envelope API.
wire::ForecastRequestV1 envelope(const ScenarioSpec& spec) {
    wire::ForecastRequestV1 req;
    req.spec = spec;
    return req;
}

int soak_iters(int fallback) {
    if (const char* env = std::getenv("ASUCA_SOAK_ITERS")) {
        const int n = std::atoi(env);
        if (n > 0) return n;
    }
    return fallback;
}

// The acceptance-criterion run: fork one analysis checkpoint into 8
// perturbed members, schedule them concurrently on 4 shared workers, and
// demand bitwise identity with each member executed serially, alone.
TEST(ServerStress, EightMemberEnsembleMatchesSerialBitwise) {
    const ScenarioSpec base_scenario = canonicalize(small_spec());

    // The "analysis": one model integrated a little, captured once.
    AsucaModel<double> analysis(build_config(base_scenario));
    init_model(analysis, base_scenario);
    analysis.run(2);

    EnsembleRequest req;
    req.base = base_scenario;
    req.base.warm_start = "analysis";
    req.base.steps = 2;
    req.n_members = 8;
    req.seed = 2026;
    req.amplitude = 1.0e-3;

    // Serial baselines: each member alone, through the same executor the
    // server workers call — no server, no concurrency, nothing shared.
    CheckpointStore store;
    store.capture("analysis", analysis);
    const auto blob = store.get("analysis");
    ASSERT_NE(blob, nullptr);
    std::vector<ForecastResult> serial;
    for (const ScenarioSpec& m : expand_members(req)) {
        serial.push_back(run_forecast(canonicalize(m), blob, true));
        ASSERT_TRUE(serial.back().ok()) << serial.back().error;
    }

    // Members must actually differ — otherwise "bitwise identical" would
    // be vacuous.
    EXPECT_NE(serial[0].fingerprint, serial[1].fingerprint);

    // Concurrent: all 8 members in flight across 4 workers at once.
    ServerConfig cfg;
    cfg.n_workers = 4;
    cfg.queue_capacity = 64;  // deep enough that nothing degrades
    cfg.keep_state = true;
    ForecastServer server(cfg);
    server.checkpoints().capture("analysis", analysis);
    auto handles = server.submit_ensemble(req);
    ASSERT_EQ(handles.size(), 8u);
    for (std::size_t m = 0; m < handles.size(); ++m) {
        const ForecastResult& res = handles[m].wait();
        ASSERT_TRUE(res.ok()) << "member " << m << ": " << res.error;
        EXPECT_EQ(res.degrade_level, 0) << "member " << m;
        ASSERT_NE(res.state, nullptr);
        EXPECT_EQ(res.fingerprint, serial[m].fingerprint)
            << "member " << m << " diverged under concurrency";
        expect_bitwise(*serial[m].state, *res.state);
    }
    server.shutdown();
    EXPECT_EQ(server.stats().completed, 8u);
    EXPECT_EQ(server.stats().failed, 0u);
    EXPECT_EQ(server.stats().shed, 0u);
}

// Satellite: HaloChannel + TaskLayer oversubscription. Four concurrent
// 2x2 runners make 16 resident rank workers (plus the client
// threads) on whatever cores this machine has — typically several times
// oversubscribed. No deadlock, no lost halo messages (any loss breaks
// the bitwise identity), stable across repetitions.
TEST(ServerStress, OversubscribedConcurrentRunnersAreBitwiseStable) {
    ScenarioSpec spec = small_spec(2);
    spec.px = 2;
    spec.py = 2;
    const ScenarioSpec canon = canonicalize(spec);

    // Baseline: one runner alone on the machine.
    const ForecastResult serial = run_forecast(canon, nullptr, true);
    ASSERT_TRUE(serial.ok()) << serial.error;

    constexpr int kRunners = 4;
    for (int rep = 0; rep < 2; ++rep) {
        std::vector<ForecastResult> got(kRunners);
        std::vector<std::thread> threads;
        threads.reserve(kRunners);
        for (int r = 0; r < kRunners; ++r) {
            threads.emplace_back([&, r] {
                // Each client thread gets its own 1-wide pool, like a
                // server worker would.
                ThreadPool pool(1);
                ThreadPool::ScopedOverride guard(pool);
                got[static_cast<std::size_t>(r)] =
                    run_forecast(canon, nullptr, true);
            });
        }
        for (auto& th : threads) th.join();
        for (int r = 0; r < kRunners; ++r) {
            const ForecastResult& res = got[static_cast<std::size_t>(r)];
            ASSERT_TRUE(res.ok())
                << "rep " << rep << " runner " << r << ": " << res.error;
            ASSERT_NE(res.state, nullptr);
            EXPECT_EQ(res.fingerprint, serial.fingerprint)
                << "rep " << rep << " runner " << r;
            expect_bitwise(*serial.state, *res.state);
        }
    }
}

// Acceptance criterion: 2x sustained overload degrades resolution, never
// drops. Capacity 4 with 2 workers, 16 distinct requests flooded in:
// depth sits at the high watermarks, so admissions land on ladder levels
// 1-2 — and every single request still completes successfully.
TEST(ServerStress, OverloadDegradesResolutionInsteadOfDropping) {
    ServerConfig cfg;
    cfg.n_workers = 2;
    cfg.queue_capacity = 4;
    cfg.cache_results = false;  // distinct executions, no dedup relief
    ForecastServer server(cfg);

    std::vector<ForecastHandle> handles;
    for (int n = 0; n < 16; ++n) {
        // Distinct horizons -> distinct products (no accidental dedup).
        handles.push_back(server.submit(envelope(small_spec(4 + 4 * n))));
    }
    int degraded = 0;
    for (std::size_t n = 0; n < handles.size(); ++n) {
        const ForecastResult& res = handles[n].wait();
        ASSERT_TRUE(res.ok()) << "request " << n << ": " << res.error;
        EXPECT_GT(res.steps_run, 0);
        if (res.degrade_level > 0) {
            ++degraded;
            // Degraded admissions ran a REDUCED product of the same
            // request: shorter horizon, and at level 2 a coarser grid.
            EXPECT_LT(res.executed.steps, 4 + 4 * static_cast<int>(n));
            if (res.degrade_level >= 2) {
                EXPECT_EQ(res.executed.coarsen, 1);
            }
        }
    }
    server.shutdown();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.shed, 0u);            // nothing dropped...
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.completed, 16u);      // ...everything answered
    EXPECT_GT(degraded, 0);               // and the ladder engaged
    EXPECT_EQ(stats.degraded, static_cast<std::uint64_t>(degraded));
}

// Soak: repeated ensemble churn through fresh servers. Every iteration
// must reproduce iteration 0's member fingerprints exactly — any drift
// or flakiness in queue/worker/channel teardown shows up here. The cron
// CI job raises ASUCA_SOAK_ITERS and runs this under TSan.
TEST(ServerSoak, RepeatedEnsembleChurnIsReproducible) {
    const int iters = soak_iters(2);
    const ScenarioSpec base_scenario = canonicalize(small_spec());
    AsucaModel<double> analysis(build_config(base_scenario));
    init_model(analysis, base_scenario);
    analysis.run(1);

    EnsembleRequest req;
    req.base = base_scenario;
    req.base.warm_start = "analysis";
    req.n_members = 4;
    req.seed = 7;
    req.amplitude = 5.0e-4;

    std::vector<std::uint64_t> first;
    for (int it = 0; it < iters; ++it) {
        ServerConfig cfg;
        cfg.n_workers = 3;
        cfg.queue_capacity = 32;
        ForecastServer server(cfg);
        server.checkpoints().capture("analysis", analysis);
        auto handles = server.submit_ensemble(req);
        // Interleave unrelated traffic so members contend with strangers.
        ForecastHandle cold = server.submit(envelope(small_spec(1)));
        std::vector<std::uint64_t> prints;
        for (auto& h : handles) {
            const ForecastResult& res = h.wait();
            ASSERT_TRUE(res.ok()) << "iter " << it << ": " << res.error;
            prints.push_back(res.fingerprint);
        }
        ASSERT_TRUE(cold.wait().ok()) << cold.wait().error;
        server.shutdown();
        if (it == 0) {
            first = prints;
        } else {
            EXPECT_EQ(prints, first) << "fingerprints drifted at iter " << it;
        }
    }
}

}  // namespace
}  // namespace asuca::server
