// Forecast-service throughput/latency under offered load, with the
// 2x-overload degradation evidence the serving design promises: when the
// offered rate exceeds capacity, the admission ladder sheds RESOLUTION
// (shorter horizon, coarser grid) and every request still completes —
// nothing is dropped.
//
//   ./bench/bench_server_throughput [workers requests]
//
// Writes its members of BENCH_server.json and keeps the others (the
// service_rtt member of bench_service_rtt): per-phase (1x, 2x, and 1x
// under injected WorkerPoison faults) requests/s, client-observed
// p50/p99 latency (submit -> completion, queueing included), the
// degradation/shed/failure counts, and the retry-ladder counters for the
// faulted row (retried/quarantined/reinstated, dropped must stay 0).
// Every phase runs the server's one admission rule (forecast_server.hpp
// admission_rule) with admission_target_ms set to the calibrated cost of
// one request, so an estimated wait of half a request sheds the horizon
// and 2x load reaches the ladder.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/server/forecast_server.hpp"

using namespace asuca;
using namespace asuca::server;

namespace {

using Clock = std::chrono::steady_clock;

ScenarioSpec bench_spec(int salt) {
    ScenarioSpec s;
    s.scenario = "warm_bubble";
    s.nx = 16;
    s.ny = 16;
    s.nz = 12;
    // Distinct horizons: no dedup relief, every submission executes.
    s.steps = 4 + 2 * salt;
    return s;
}

/// Wrap a spec the way an out-of-process client's frame would arrive —
/// callers speak the wire envelope API (wire.hpp).
wire::ForecastRequestV1 envelope(const ScenarioSpec& spec) {
    wire::ForecastRequestV1 req;
    req.spec = spec;
    return req;
}

struct PhaseResult {
    double offered_rps = 0.0;
    double achieved_rps = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    ServerStats stats;
    int completed_full = 0;
    int completed_degraded = 0;
};

double percentile(std::vector<double> sorted, double p) {
    if (sorted.empty()) return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

/// Offer `n` requests at a fixed inter-arrival gap and measure
/// client-observed completion latency (one waiter thread per handle).
/// A non-empty fault plan arms the server's injector (WorkerPoison):
/// the retry ladder must absorb the faults with zero dropped requests.
PhaseResult run_phase(int workers, int n, double gap_ms, double target_ms,
                      resilience::FaultPlan faults = {}) {
    ServerConfig cfg;
    cfg.n_workers = static_cast<std::size_t>(workers);
    cfg.queue_capacity = 4;      // small bound: overload hits the ladder
    cfg.cache_results = false;   // measure executions, not cache hits
    cfg.admission_target_ms = target_ms;
    cfg.faults = std::move(faults);
    cfg.retry_backoff = std::chrono::milliseconds(1);
    cfg.canary_backoff = std::chrono::milliseconds(1);
    ForecastServer srv(cfg);

    std::vector<double> latency_ms(static_cast<std::size_t>(n), 0.0);
    std::vector<int> level(static_cast<std::size_t>(n), 0);
    std::vector<std::thread> waiters;
    waiters.reserve(static_cast<std::size_t>(n));
    const auto t0 = Clock::now();
    for (int r = 0; r < n; ++r) {
        const auto submit_time = Clock::now();
        ForecastHandle h = srv.submit(envelope(bench_spec(r)));
        waiters.emplace_back([&, r, h, submit_time] {
            const ForecastResult& res = h.wait();
            const auto done = Clock::now();
            latency_ms[static_cast<std::size_t>(r)] =
                std::chrono::duration<double, std::milli>(done - submit_time)
                    .count();
            level[static_cast<std::size_t>(r)] =
                res.ok() ? res.degrade_level : -1;
        });
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(gap_ms));
    }
    for (auto& w : waiters) w.join();
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    srv.shutdown();

    PhaseResult out;
    out.offered_rps = 1000.0 / gap_ms;
    out.achieved_rps = static_cast<double>(n) / wall_s;
    out.p50_ms = percentile(latency_ms, 0.50);
    out.p99_ms = percentile(latency_ms, 0.99);
    out.stats = srv.stats();
    for (int l : level) {
        if (l == 0) ++out.completed_full;
        if (l > 0) ++out.completed_degraded;
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    const int workers = argc > 1 ? std::atoi(argv[1]) : 3;
    const int requests = argc > 2 ? std::atoi(argv[2]) : 24;

    bench::title("Forecast-service throughput under offered load");

    // Calibrate one request's execution cost, then offer load at the
    // service capacity (1x = workers / cost) and at twice it (2x). The
    // cost is the median of 5 calls after one discarded warm-up call (a
    // cold first call read up to 1.5x the warm cost).
    const auto calibration = bench::time_interleaved(
        {[&] {
            run_forecast(canonicalize(bench_spec(requests / 2)), nullptr,
                         false);
        }},
        5, 1)[0];
    const double cost_ms = 1e3 * calibration.median();
    const double capacity_rps = 1000.0 * workers / cost_ms;
    std::printf("  one request ~%.1f ms -> capacity ~%.1f req/s "
                "on %d workers\n",
                cost_ms, capacity_rps, workers);

    struct Phase {
        const char* name;
        double factor;
    };
    io::JsonArray phases_json;
    std::printf("\n  %-9s %10s %10s %9s %9s %6s %9s %5s\n", "load",
                "offered/s", "served/s", "p50", "p99", "full", "degraded",
                "shed");
    // The faulted-load row re-runs the 1x phase with injected
    // WorkerPoison faults: the retry ladder (quarantine + re-dispatch +
    // canary reinstatement) must absorb them with zero dropped requests.
    resilience::FaultPlan chaos;
    chaos.push_back({resilience::FaultKind::WorkerPoison, 0, 0});
    if (workers > 1) {
        chaos.push_back({resilience::FaultKind::WorkerPoison, 1, 2});
    }
    struct Run {
        Phase phase;
        resilience::FaultPlan plan;
    };
    for (const Run& run : {Run{{"1x", 1.0}, {}}, Run{{"2x", 2.0}, {}},
                           Run{{"1x+faults", 1.0}, chaos}}) {
        const Phase phase = run.phase;
        const double gap_ms = cost_ms / workers / phase.factor;
        const PhaseResult r =
            run_phase(workers, requests, gap_ms, cost_ms, run.plan);
        std::printf("  %-9s %10.2f %10.2f %7.1fms %7.1fms %6d %9d %5llu\n",
                    phase.name, r.offered_rps, r.achieved_rps, r.p50_ms,
                    r.p99_ms, r.completed_full, r.completed_degraded,
                    (unsigned long long)r.stats.shed);
        io::JsonValue row;
        row.set("phase", phase.name);
        row.set("offered_factor", phase.factor);
        row.set("faults_injected", (long long)run.plan.size());
        row.set("offered_rps", r.offered_rps);
        row.set("achieved_rps", r.achieved_rps);
        row.set("latency_p50_ms", r.p50_ms);
        row.set("latency_p99_ms", r.p99_ms);
        row.set("completed_full", r.completed_full);
        row.set("completed_degraded", r.completed_degraded);
        row.set("submitted", (long long)r.stats.submitted);
        row.set("completed", (long long)r.stats.completed);
        row.set("degraded", (long long)r.stats.degraded);
        row.set("shed", (long long)r.stats.shed);
        row.set("failed", (long long)r.stats.failed);
        row.set("retried", (long long)r.stats.retried);
        row.set("quarantined", (long long)r.stats.quarantined);
        row.set("reinstated", (long long)r.stats.reinstated);
        row.set("dropped", (long long)(r.stats.shed + r.stats.failed));
        phases_json.push_back(std::move(row));
    }

    bench::note("2x overload must show degraded > 0 and shed == 0: the");
    bench::note("ladder trades resolution for admission, never drops.");
    bench::note("1x+faults must show quarantined > 0 and dropped == 0:");
    bench::note("the retry ladder absorbs worker faults, never drops.");

    // Replace only this bench's members of the server bench document, so
    // the service_rtt member bench_service_rtt merged in survives.
    io::JsonValue doc = bench::read_json_or_empty("BENCH_server.json");
    doc.set("config", "warm_bubble_16x16x12");
    doc.set("workers", workers);
    doc.set("requests_per_phase", requests);
    doc.set("queue_capacity", 4);
    doc.set("calibrated_request_ms", cost_ms);
    io::JsonArray calibration_ms;
    for (const double sec : calibration.seconds)
        calibration_ms.emplace_back(1e3 * sec);
    doc.set("calibration_ms", std::move(calibration_ms));
    doc.set("admission_target_ms", cost_ms);
    doc.set("capacity_rps", capacity_rps);
    doc.set("hardware_threads",
            static_cast<long long>(
                std::max(1u, std::thread::hardware_concurrency())));
    doc.set("compiler", __VERSION__);
    doc.set("phases", std::move(phases_json));
    return bench::write_json("BENCH_server.json", doc) ? 0 : 1;
}
