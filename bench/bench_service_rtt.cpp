// Wire-transport round-trip overhead of the out-of-process forecast
// service: what does a client pay for crossing the socket instead of
// calling submit() in-process?
//
//   ./bench/bench_service_rtt [roundtrips]
//
// Method: serve ONE warm_bubble product, then measure per-request
// latency of repeat queries — which the server answers from its dedup
// cache without executing anything — two ways: in-process
// submit().wait() against the SAME core, and a full loopback TCP round
// trip (serialize -> frame -> recv -> parse). The difference is the
// wire tax: JSON codec + syscalls + loopback, with model execution
// subtracted out by construction. One cold (executed) round trip is
// also timed for scale.
//
// Merges a "service_rtt" member into BENCH_server.json next to the
// throughput phases (bench_server_throughput.cpp writes the rest).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/server/client.hpp"
#include "src/server/socket_server.hpp"

using namespace asuca;
using namespace asuca::server;

namespace {

using Clock = std::chrono::steady_clock;

ScenarioSpec bench_spec() {
    ScenarioSpec s;
    s.scenario = "warm_bubble";
    s.nx = 16;
    s.ny = 16;
    s.nz = 12;
    s.steps = 2;
    return s;
}

wire::ForecastRequestV1 envelope(const ScenarioSpec& spec) {
    wire::ForecastRequestV1 req;
    req.spec = spec;
    return req;
}

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(idx, v.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
    const int roundtrips = argc > 1 ? std::atoi(argv[1]) : 200;

    bench::title("Forecast-service wire RTT vs in-process submit");

    SocketServerConfig cfg;
    cfg.server.n_workers = 2;
    SocketServer server(cfg);
    ForecastClient client("127.0.0.1", server.port());

    // Cold round trip: the one real execution, for scale.
    const auto cold0 = Clock::now();
    const wire::ForecastResponseV1 cold =
        client.forecast(envelope(bench_spec()));
    const double cold_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - cold0)
            .count();
    if (!cold.ok) {
        std::fprintf(stderr, "cold request failed: %s\n",
                     cold.error.detail.c_str());
        return 1;
    }

    // Repeat queries are dedup-cache hits: no execution on either path,
    // so the measured times are pure call/transport overhead.
    std::vector<double> in_process_us, socket_us;
    in_process_us.reserve(static_cast<std::size_t>(roundtrips));
    socket_us.reserve(static_cast<std::size_t>(roundtrips));
    for (int r = 0; r < roundtrips; ++r) {
        const auto t0 = Clock::now();
        const ForecastResult& res =
            server.core().submit(envelope(bench_spec())).wait();
        const auto t1 = Clock::now();
        if (!res.ok()) return 1;
        in_process_us.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    for (int r = 0; r < roundtrips; ++r) {
        const auto t0 = Clock::now();
        const wire::ForecastResponseV1 res =
            client.forecast(envelope(bench_spec()));
        const auto t1 = Clock::now();
        if (!res.ok) return 1;
        socket_us.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
    }

    const double in_p50 = percentile(in_process_us, 0.50);
    const double in_p99 = percentile(in_process_us, 0.99);
    const double so_p50 = percentile(socket_us, 0.50);
    const double so_p99 = percentile(socket_us, 0.99);
    std::printf("  %-28s %10s %10s\n", "path (cached product)", "p50",
                "p99");
    std::printf("  %-28s %8.1fus %8.1fus\n", "in-process submit().wait()",
                in_p50, in_p99);
    std::printf("  %-28s %8.1fus %8.1fus\n", "loopback TCP round trip",
                so_p50, so_p99);
    std::printf("  wire tax p50: %.1f us/request "
                "(cold executed RTT %.1f ms)\n",
                so_p50 - in_p50, cold_ms);
    bench::note("repeat queries dedup on the server: both paths skip the");
    bench::note("model, so the difference is codec + socket alone.");

    io::JsonValue rtt;
    rtt.set("roundtrips", roundtrips);
    rtt.set("in_process_p50_us", in_p50);
    rtt.set("in_process_p99_us", in_p99);
    rtt.set("socket_p50_us", so_p50);
    rtt.set("socket_p99_us", so_p99);
    rtt.set("wire_tax_p50_us", so_p50 - in_p50);
    rtt.set("cold_executed_rtt_ms", cold_ms);

    // Merge into the server bench document (create it if the throughput
    // bench has not run yet).
    io::JsonValue doc = bench::read_json_or_empty("BENCH_server.json");
    doc.set("config", "warm_bubble_16x16x12");
    doc.set("service_rtt", std::move(rtt));
    return bench::write_json("BENCH_server.json", doc) ? 0 : 1;
}
