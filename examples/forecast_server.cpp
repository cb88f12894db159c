// Forecast-as-a-service demo: boot an in-process ForecastServer, capture
// an "analysis" checkpoint from a short assimilation-like run, fork it
// into an ensemble of perturbed members scheduled across shared workers,
// and mix in ad-hoc scenario requests (including a duplicate that the
// cache must serve without re-running).
//
//   ./examples/forecast_server [members workers steps]
//                              [--overload] [--trace=FILE.json]
//                              [--inject=halo|nan|stall] [--store=DIR]
//
// --overload shrinks the queue and floods it with extra requests so the
// admission controller's degradation ladder engages (watch the level
// column: shorter horizons, then coarser grids — never a dropped
// request). --trace writes a Chrome trace-event JSON with one span per
// executed request, tagged by worker.
//
// --inject adds a decomposed 2x2 request with a deterministic fault:
// "halo"/"nan" are transient (the runner's rollback recovers them
// inline), "stall" is fatal to the attempt (the server's retry ladder
// quarantines the worker and re-dispatches). --store=DIR spills the
// checkpoint store to DIR (durable epochs, verified reloads).
//
// Exit status is 0 only if every request completed, the ensemble members
// were pairwise distinct, the duplicate submission was deduplicated, an
// injected request matched its clean run's fingerprint, and (with
// --store) the on-disk analysis epoch verified.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/server/forecast_server.hpp"

using namespace asuca;
using namespace asuca::server;

/// Wrap a spec the way an out-of-process client's frame would arrive —
/// callers speak the wire envelope API (wire.hpp).
static wire::ForecastRequestV1 envelope(const ScenarioSpec& spec) {
    wire::ForecastRequestV1 req;
    req.spec = spec;
    return req;
}

int main(int argc, char** argv) {
    int members = 6;
    int workers = 3;
    int steps = 2;
    bool overload = false;
    std::string trace_path;
    std::string inject;
    std::string store_dir;
    int n_pos = 0;
    for (int a = 1; a < argc; ++a) {
        if (std::strcmp(argv[a], "--overload") == 0) {
            overload = true;
        } else if (std::strncmp(argv[a], "--trace=", 8) == 0) {
            trace_path = argv[a] + 8;
        } else if (std::strncmp(argv[a], "--inject=", 9) == 0) {
            inject = argv[a] + 9;
        } else if (std::strncmp(argv[a], "--store=", 8) == 0) {
            store_dir = argv[a] + 8;
        } else if (n_pos == 0) {
            members = std::atoi(argv[a]);
            ++n_pos;
        } else if (n_pos == 1) {
            workers = std::atoi(argv[a]);
            ++n_pos;
        } else {
            steps = std::atoi(argv[a]);
        }
    }
    if (!trace_path.empty()) obs::TraceRecorder::global().enable();

    // The "analysis": a short warm-bubble run captured into the store.
    ScenarioSpec base;
    base.scenario = "warm_bubble";
    base.nx = 16;
    base.ny = 16;
    base.nz = 12;
    base.steps = steps;
    const ScenarioSpec canon = canonicalize(base);
    AsucaModel<double> analysis(build_config(canon));
    init_model(analysis, canon);
    analysis.run(2);

    ServerConfig cfg;
    cfg.n_workers = static_cast<std::size_t>(workers < 1 ? 1 : workers);
    cfg.queue_capacity = overload ? 4 : 32;
    cfg.store_dir = store_dir;
    cfg.retry_backoff = std::chrono::milliseconds(2);
    cfg.canary_backoff = std::chrono::milliseconds(2);
    ForecastServer srv(cfg);
    srv.checkpoints().capture("analysis", analysis);

    std::printf("forecast server: %d workers, queue capacity %zu%s%s%s\n",
                workers, cfg.queue_capacity,
                overload ? " (overload demo)" : "",
                store_dir.empty() ? "" : ", durable store ",
                store_dir.c_str());

    // The ensemble: `members` perturbed forks of the analysis.
    EnsembleRequest ens;
    ens.base = base;
    ens.base.warm_start = "analysis";
    ens.n_members = members;
    ens.seed = 2026;
    ens.amplitude = 1.0e-3;
    auto ensemble = srv.submit_ensemble(ens);

    // Ad-hoc traffic: a cold mountain-wave request, a duplicate of it
    // (must dedup), and under --overload a flood of distinct requests.
    ScenarioSpec mw;
    mw.scenario = "mountain_wave";
    mw.nx = 16;
    mw.ny = 16;
    mw.nz = 12;
    mw.steps = steps;
    ForecastHandle first = srv.submit(envelope(mw));
    ForecastHandle duplicate = srv.submit(envelope(mw));

    // Fault drill: a decomposed request with a deterministic injected
    // fault, plus its clean twin run serially as the expected answer.
    ForecastHandle injected;
    std::uint64_t inject_want = 0;
    if (!inject.empty()) {
        ScenarioSpec dec = base;
        dec.steps = 2;
        dec.px = 2;
        dec.py = 2;
        inject_want =
            run_forecast(canonicalize(dec), nullptr, false).fingerprint;
        dec.inject = inject;
        injected = srv.submit(envelope(dec));
    }

    std::vector<ForecastHandle> flood;
    if (overload) {
        for (int n = 0; n < 12; ++n) {
            ScenarioSpec s = base;
            s.steps = 2 * steps + 2 * n;  // distinct products
            flood.push_back(srv.submit(envelope(s)));
        }
    }

    bool all_ok = true;
    std::set<std::uint64_t> member_prints;
    std::printf("\n  %-16s %5s %6s %10s %12s\n", "request", "level", "steps",
                "max|w|", "latency");
    auto report = [&](const char* name, const ForecastHandle& h) {
        const ForecastResult& r = h.wait();
        if (!r.ok()) {
            std::printf("  %-16s FAILED: %s\n", name, r.error.c_str());
            all_ok = false;
            return;
        }
        std::printf("  %-16s %5d %6lld %10.3e %9.1f ms%s\n", name,
                    r.degrade_level, r.steps_run, r.max_w, r.latency_ms,
                    h.attached() ? "  (deduplicated)" : "");
    };
    for (int m = 0; m < members; ++m) {
        const ForecastResult& r = ensemble[static_cast<std::size_t>(m)].wait();
        char name[32];
        std::snprintf(name, sizeof(name), "member %d", m);
        report(name, ensemble[static_cast<std::size_t>(m)]);
        if (r.ok()) member_prints.insert(r.fingerprint);
    }
    report("mountain_wave", first);
    report("duplicate", duplicate);
    bool inject_ok = true;
    if (injected.valid()) {
        char name[32];
        std::snprintf(name, sizeof(name), "inject:%s", inject.c_str());
        report(name, injected);
        const ForecastResult& r = injected.wait();
        inject_ok = r.ok() && r.fingerprint == inject_want;
        if (!inject_ok) {
            std::printf("ERROR: injected '%s' request did not recover to "
                        "the clean run's fingerprint\n",
                        inject.c_str());
        }
    }
    for (std::size_t n = 0; n < flood.size(); ++n) {
        char name[32];
        std::snprintf(name, sizeof(name), "flood %zu", n);
        report(name, flood[n]);
    }

    srv.shutdown();
    const ServerStats st = srv.stats();
    std::printf("\n  served: %llu executed, %llu deduplicated, "
                "%llu degraded, %llu shed, %llu failed\n",
                (unsigned long long)st.completed,
                (unsigned long long)st.dedup_hits,
                (unsigned long long)st.degraded, (unsigned long long)st.shed,
                (unsigned long long)st.failed);
    if (!inject.empty()) {
        std::printf("  ladder: %llu retried, %llu quarantined, "
                    "%llu reinstated\n",
                    (unsigned long long)st.retried,
                    (unsigned long long)st.quarantined,
                    (unsigned long long)st.reinstated);
    }

    // With --store, the analysis must be durable: an on-disk epoch that
    // verifies standalone (what a restarted server would reload).
    bool store_ok = true;
    if (!store_dir.empty()) {
        DurableCheckpointStore* store = srv.durable_store();
        store_ok = store != nullptr && store->latest_epoch("analysis") >= 1;
        if (store_ok) {
            const std::string bytes = io::read_file(store->epoch_path(
                "analysis", store->latest_epoch("analysis")));
            store_ok = io::verify_wrapped_blob(bytes);
            std::printf("  durable: analysis epoch %lld on disk, %zu "
                        "bytes, %s\n",
                        store->latest_epoch("analysis"), bytes.size(),
                        store_ok ? "verified" : "CORRUPT");
        }
        if (!store_ok) {
            std::printf("ERROR: durable store did not hold a verifiable "
                        "analysis epoch\n");
        }
    }

    if (!trace_path.empty()) {
        obs::TraceRecorder::global().disable();
        obs::TraceRecorder::global().write_chrome_trace(trace_path);
        std::printf("  trace written to %s\n", trace_path.c_str());
    }

    const bool members_distinct =
        member_prints.size() == static_cast<std::size_t>(members);
    if (!members_distinct) {
        std::printf("ERROR: ensemble members were not pairwise distinct\n");
    }
    if (!duplicate.attached()) {
        std::printf("ERROR: duplicate request was not deduplicated\n");
    }
    if (st.shed != 0) {
        std::printf("ERROR: requests were shed (degradation should absorb "
                    "overload)\n");
    }
    return (all_ok && members_distinct && duplicate.attached() &&
            inject_ok && store_ok && st.shed == 0 && st.failed == 0)
               ? 0
               : 1;
}
