// The out-of-process front-end (src/server/socket_server.hpp +
// src/server/client.hpp): newline-delimited wire envelopes over loopback
// TCP, in front of the same ForecastServer core the in-process tests
// exercise. The contracts:
//
//   * Serving over the socket changes NOTHING about the answer — the
//     loopback fingerprint is bitwise identical to an in-process
//     submit() of the same spec.
//   * Malformed frames are typed bad_request replies that never consume
//     forecast capacity (the queue and counters stay untouched).
//   * The stats frame reports the same numbers as stats() — one source
//     of truth observed from outside the process.
//   * A RESTARTED service on the same store directory answers a repeat
//     query from the durable result cache, bitwise identical, without
//     re-integrating.
//   * The shutdown frame acks, drains gracefully, and wait() returns.
//   * A closed connection gives back its descriptor: a long-lived server
//     does not creep toward the descriptor limit.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/server/client.hpp"
#include "src/server/socket_server.hpp"

namespace asuca::server {
namespace {

namespace fs = std::filesystem;

struct TempDir {
    fs::path path;
    explicit TempDir(const char* name)
        : path(fs::temp_directory_path() / name) {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
    std::string str() const { return path.string(); }
};

ScenarioSpec small_spec(int steps = 2) {
    ScenarioSpec s;
    s.scenario = "warm_bubble";
    s.nx = 16;
    s.ny = 16;
    s.nz = 12;
    s.steps = steps;
    return s;
}

wire::ForecastRequestV1 envelope(const ScenarioSpec& spec,
                                 std::uint64_t id = 0) {
    wire::ForecastRequestV1 req;
    req.spec = spec;
    req.id = id;
    return req;
}

SocketServerConfig loopback_config() {
    SocketServerConfig cfg;
    cfg.port = 0;  // ephemeral: tests never collide on a port
    cfg.server.n_workers = 2;
    return cfg;
}

TEST(SocketServer, LoopbackForecastIsBitwiseIdenticalToInProcess) {
    // The in-process answer, through the same submit() API the socket
    // front-end calls — a separate core so nothing is shared.
    ForecastServer local;
    const ForecastResult& expected =
        local.submit(envelope(small_spec())).wait();
    ASSERT_TRUE(expected.ok()) << expected.error;
    local.shutdown();

    SocketServer server(loopback_config());
    ForecastClient client("127.0.0.1", server.port());
    const wire::ForecastResponseV1 res =
        client.forecast(envelope(small_spec(), 42));
    ASSERT_TRUE(res.ok) << res.error.detail;
    EXPECT_EQ(res.id, 42u);  // correlation id echoed
    EXPECT_EQ(res.fingerprint, expected.fingerprint)
        << "the wire changed the bits";
    EXPECT_EQ(res.steps_run, expected.steps_run);
    EXPECT_EQ(res.max_w, expected.max_w);
    EXPECT_EQ(res.total_mass, expected.total_mass);
    EXPECT_EQ(res.served_from, "executed");
    EXPECT_EQ(res.error.code, ErrorCode::none);
}

TEST(SocketServer, MalformedFramesLeaveTheQueueUntouched) {
    SocketServer server(loopback_config());
    ForecastClient client("127.0.0.1", server.port());
    const std::string bad_frames[] = {
        "{\"v\":1,\"type\":\"forecast\"",          // truncated JSON
        "not json at all",                          // not JSON
        "{\"v\":2,\"type\":\"forecast\",\"spec\":{}}",  // future version
        // unknown spec field (a typo'd "step")
        "{\"v\":1,\"type\":\"forecast\",\"spec\":{\"scenario\":"
        "\"warm_bubble\",\"nx\":16,\"ny\":16,\"nz\":12,\"steps\":2,"
        "\"step\":99}}",
        // out-of-range mesh and a semantic canonicalize() rejection
        "{\"v\":1,\"type\":\"forecast\",\"spec\":{\"scenario\":"
        "\"warm_bubble\",\"nx\":0,\"ny\":16,\"nz\":12,\"steps\":2}}",
        "{\"v\":1,\"type\":\"forecast\",\"spec\":{\"scenario\":"
        "\"no_such_scenario\",\"nx\":16,\"ny\":16,\"nz\":12,"
        "\"steps\":2}}",
        // overflow-to-Inf numeric
        "{\"v\":1,\"type\":\"forecast\",\"spec\":{\"scenario\":"
        "\"warm_bubble\",\"nx\":16,\"ny\":16,\"nz\":12,\"steps\":2,"
        "\"perturb_amplitude\":1e999}}",
        // nesting far past the JSON parser's depth bound
        std::string(100000, '['),
    };
    for (const std::string& frame : bad_frames) {
        const io::JsonValue reply = io::json_parse(client.raw_roundtrip(frame));
        EXPECT_FALSE(reply.at("ok").as_bool()) << frame;
        EXPECT_EQ(reply.at("error").at("code").as_string(), "bad_request")
            << frame;
    }
    // None of it consumed forecast capacity.
    const ServerStats stats = server.core().stats();
    EXPECT_EQ(stats.submitted, 0u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(server.core().queue_depth(), 0u);
    // And the connection still works: a valid request serves normally.
    const wire::ForecastResponseV1 res =
        client.forecast(envelope(small_spec(), 1));
    EXPECT_TRUE(res.ok) << res.error.detail;
}

TEST(SocketServer, OversizedFrameGetsOneTypedReply) {
    SocketServerConfig cfg = loopback_config();
    cfg.max_frame_bytes = 512;
    SocketServer server(cfg);
    ForecastClient client("127.0.0.1", server.port());
    const std::string huge(2048, 'x');  // no newline until the tail
    const io::JsonValue reply = io::json_parse(client.raw_roundtrip(huge));
    EXPECT_FALSE(reply.at("ok").as_bool());
    EXPECT_EQ(reply.at("error").at("code").as_string(), "bad_request");
    EXPECT_NE(reply.at("error").at("detail").as_string().find("exceeds"),
              std::string::npos);
    EXPECT_EQ(server.core().stats().submitted, 0u);
}

TEST(SocketServer, StatsFrameMatchesInProcessCounters) {
    SocketServer server(loopback_config());
    ForecastClient client("127.0.0.1", server.port());
    ASSERT_TRUE(client.forecast(envelope(small_spec(), 1)).ok);
    ASSERT_TRUE(client.forecast(envelope(small_spec(3), 2)).ok);
    // The duplicate: served by dedup, still one wire answer.
    ASSERT_TRUE(client.forecast(envelope(small_spec(), 3)).ok);

    const io::JsonValue stats = client.stats();
    const ServerStats truth = server.core().stats();
    EXPECT_EQ(stats.at("submitted").as_number(),
              static_cast<double>(truth.submitted));
    EXPECT_EQ(stats.at("completed").as_number(),
              static_cast<double>(truth.completed));
    EXPECT_EQ(stats.at("dedup_hits").as_number(),
              static_cast<double>(truth.dedup_hits));
    EXPECT_EQ(truth.dedup_hits, 1u);
    EXPECT_EQ(stats.at("workers_total").as_number(), 2.0);
    // The calibrated-admission signal is live after two completions.
    EXPECT_GT(stats.at("ewma_service_ms").as_number(), 0.0);
}

TEST(SocketServer, ConcurrentClientsAreAllServed) {
    SocketServer server(loopback_config());
    constexpr int kClients = 4;
    std::vector<std::uint64_t> prints(kClients, 0);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            ForecastClient client("127.0.0.1", server.port());
            // Distinct horizons: every client runs a real execution.
            const wire::ForecastResponseV1 res = client.forecast(
                envelope(small_spec(2 + c), static_cast<std::uint64_t>(c)));
            if (res.ok) prints[static_cast<std::size_t>(c)] = res.fingerprint;
        });
    }
    for (auto& th : threads) th.join();
    for (int c = 0; c < kClients; ++c) {
        EXPECT_NE(prints[static_cast<std::size_t>(c)], 0u)
            << "client " << c << " not served";
    }
    EXPECT_EQ(server.core().stats().completed,
              static_cast<std::uint64_t>(kClients));
}

TEST(SocketServer, RestartServesRepeatQueryFromDurableCacheBitwise) {
    TempDir tmp("asuca_socket_restart");
    SocketServerConfig cfg = loopback_config();
    cfg.server.store_dir = tmp.str();

    std::uint64_t live_print = 0;
    {
        SocketServer server(cfg);
        ForecastClient client("127.0.0.1", server.port());
        const wire::ForecastResponseV1 res =
            client.forecast(envelope(small_spec(), 1));
        ASSERT_TRUE(res.ok) << res.error.detail;
        EXPECT_EQ(res.served_from, "executed");
        live_print = res.fingerprint;
        client.shutdown_server();
        server.wait();
    }
    {
        // A new incarnation — new process in production, same store.
        SocketServer server(cfg);
        ForecastClient client("127.0.0.1", server.port());
        const wire::ForecastResponseV1 res =
            client.forecast(envelope(small_spec(), 2));
        ASSERT_TRUE(res.ok) << res.error.detail;
        EXPECT_EQ(res.served_from, "durable")
            << "repeat query re-integrated instead of serving from disk";
        EXPECT_EQ(res.fingerprint, live_print)
            << "durable answer is not bitwise identical";
        EXPECT_EQ(server.core().stats().durable_hits, 1u);
        EXPECT_EQ(server.core().stats().completed, 0u)
            << "the durable hit must not have executed anything";
    }
}

/// Descriptors this process holds right now.
std::size_t open_fd_count() {
    std::size_t n = 0;
    for (const auto& entry : fs::directory_iterator("/proc/self/fd")) {
        (void)entry;
        ++n;
    }
    return n;
}

TEST(SocketServer, ClosedConnectionsReleaseTheirDescriptors) {
    SocketServer server(loopback_config());
    const std::size_t before = open_fd_count();
    for (int n = 0; n < 64; ++n) {
        ForecastClient client("127.0.0.1", server.port());
        ASSERT_EQ(client.stats().at("type").as_string(), "stats");
    }
    // Each reader closes its descriptor when it reads the client's EOF,
    // a moment after the client closed: give the last ones time.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    std::size_t after = open_fd_count();
    while (after > before + 2 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        after = open_fd_count();
    }
    EXPECT_LE(after, before + 2)
        << "64 closed connections left " << after - before
        << " descriptors open";
    ForecastClient client("127.0.0.1", server.port());
    EXPECT_EQ(client.stats().at("type").as_string(), "stats");
}

TEST(SocketServer, ShutdownFrameAcksThenDrains) {
    SocketServer server(loopback_config());
    ForecastClient client("127.0.0.1", server.port());
    ASSERT_TRUE(client.forecast(envelope(small_spec(), 1)).ok);
    client.shutdown_server();  // asserts the ack frame internally
    server.wait();             // must return: the drain completed
    const ServerStats stats = server.core().stats();
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.failed, 0u);
}

}  // namespace
}  // namespace asuca::server
