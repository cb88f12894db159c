// SocketServer: the out-of-process front-end of the forecast service —
// newline-delimited JSON frames (wire.hpp envelopes) over blocking
// POSIX TCP sockets, feeding the in-process ForecastServer it owns.
//
//   clients ──connect──► accept loop ──► per-connection reader threads
//                                            │ parse_request_line
//                                            │ (bad frame -> typed
//                                            │  bad_request reply,
//                                            │  queue NEVER touched)
//                                            ▼
//                                 ForecastServer::submit(envelope)
//                                            │ handle.wait()
//                                            ▼
//                                 result_to_response -> one reply frame
//
// Protocol (one JSON object per line, both directions):
//   {"v":1,"type":"forecast","id":"7","spec":{...}}  -> response frame
//   {"v":1,"type":"stats"}                           -> stats frame
//   {"v":1,"type":"shutdown"}                        -> ack frame, then
//      the server drains gracefully (same path as SIGTERM in the
//      example driver: stop accepting, finish in-flight work, answer
//      every waiter, then close the lingering connections).
//
// Scope decisions, deliberately boring:
//   * Blocking I/O, one reader thread per connection, one request in
//     flight per connection. Concurrency comes from the BACKEND (the
//     bounded queue and worker pool) and from clients opening more
//     connections — the front-end stays dumb enough to reason about.
//   * A connection's resources end with it: its reader closes its own
//     descriptor on exit and the accept loop joins finished readers on
//     its next wake-up, so a long-lived server holds descriptors only
//     for live connections. Running out of descriptors (EMFILE/ENFILE)
//     pauses accepting briefly instead of ending it.
//   * Loopback-oriented: binds 127.0.0.1 by default, numeric addresses
//     only (no resolver). This is a service front-end for tests, the
//     example driver and benches — not an internet-facing daemon.
//   * Malformed input can never consume forecast capacity: every frame
//     is parsed and validated BEFORE submit(), and a parse failure
//     answers with the taxonomy's bad_request on the offending
//     connection only.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/server/forecast_server.hpp"
#include "src/server/wire.hpp"

namespace asuca::server {

struct SocketServerConfig {
    std::string host = "127.0.0.1";  ///< numeric address to bind
    int port = 0;                    ///< 0 = ephemeral (see port())
    int backlog = 16;                ///< listen(2) backlog
    /// Longest accepted frame; a connection exceeding it without a
    /// newline gets one bad_request reply and is closed.
    std::size_t max_frame_bytes = 1 << 20;
    ServerConfig server;             ///< the in-process core's config
};

namespace net_detail {

/// Send all of `data` (blocking). False on any send error — the peer
/// vanished; the caller drops the connection.
inline bool send_all(int fd, const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
#ifdef MSG_NOSIGNAL
                                 MSG_NOSIGNAL
#else
                                 0
#endif
        );
        if (n <= 0) return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/// Pull one '\n'-terminated line out of fd, carrying partial bytes in
/// `buffer` across calls. Returns false on EOF/error with no complete
/// line; sets `overflow` instead when max_bytes is exceeded.
inline bool recv_line(int fd, std::string& buffer, std::string& line,
                      std::size_t max_bytes, bool& overflow) {
    overflow = false;
    for (;;) {
        const std::size_t nl = buffer.find('\n');
        if (nl != std::string::npos) {
            // A terminated line is still a frame: the size limit applies
            // whether or not the newline ever arrived.
            if (nl > max_bytes) {
                buffer.erase(0, nl + 1);
                overflow = true;
                return false;
            }
            line = buffer.substr(0, nl);
            buffer.erase(0, nl + 1);
            if (!line.empty() && line.back() == '\r') line.pop_back();
            return true;
        }
        if (buffer.size() > max_bytes) {
            overflow = true;
            return false;
        }
        char chunk[4096];
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) return false;
        buffer.append(chunk, static_cast<std::size_t>(n));
    }
}

}  // namespace net_detail

class SocketServer {
  public:
    explicit SocketServer(const SocketServerConfig& config)
        : cfg_(config), core_(std::make_unique<ForecastServer>(
                            config.server)) {
        listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        ASUCA_REQUIRE(listen_fd_ >= 0, "socket() failed");
        const int one = 1;
        ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.port));
        ASUCA_REQUIRE(
            ::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) == 1,
            "bad numeric bind address '" << cfg_.host << "'");
        ASUCA_REQUIRE(::bind(listen_fd_,
                             reinterpret_cast<const sockaddr*>(&addr),
                             sizeof(addr)) == 0,
                      "bind(" << cfg_.host << ":" << cfg_.port
                              << ") failed");
        ASUCA_REQUIRE(::listen(listen_fd_, cfg_.backlog) == 0,
                      "listen() failed");
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        ASUCA_REQUIRE(::getsockname(listen_fd_,
                                    reinterpret_cast<sockaddr*>(&bound),
                                    &len) == 0,
                      "getsockname() failed");
        port_ = static_cast<int>(ntohs(bound.sin_port));
        accept_thread_ = std::thread([this] { accept_loop(); });
    }

    ~SocketServer() { stop(); }

    SocketServer(const SocketServer&) = delete;
    SocketServer& operator=(const SocketServer&) = delete;

    /// The bound port — the ephemeral one the kernel picked when the
    /// config asked for port 0.
    int port() const { return port_; }

    /// The in-process core (tests seed checkpoints / read stats here).
    ForecastServer& core() { return *core_; }

    /// Block until a `shutdown` frame (or stop()) ends the service,
    /// then perform the graceful drain. The example's --serve mode is
    /// exactly: construct, wait().
    void wait() {
        {
            std::unique_lock lock(stop_mutex_);
            stop_cv_.wait(lock, [&] {
                return shutdown_requested_ ||
                       stop_started_.load(std::memory_order_acquire);
            });
        }
        stop();
    }

    /// Graceful drain, idempotent: stop accepting, let the core finish
    /// every admitted request (workers drain the bounded queue), then
    /// unblock and join every connection thread. Waiters always get an
    /// answer — either their result or a typed shutdown fault.
    void stop() {
        {
            std::lock_guard lock(stop_mutex_);
            stop_started_.store(true, std::memory_order_release);
            stop_cv_.notify_all();
        }
        std::call_once(stop_once_, [this] {
            ::shutdown(listen_fd_, SHUT_RDWR);  // unblock accept()
            if (accept_thread_.joinable()) accept_thread_.join();
            // Finish in-flight work while the connections are still
            // writable, so every pending reply can be delivered.
            core_->shutdown();
            {
                // Only live connections: a finished reader has closed
                // its descriptor, and the number may be reused by now.
                std::lock_guard lock(conn_mutex_);
                for (const auto& c : conns_) {
                    if (c->fd >= 0) ::shutdown(c->fd, SHUT_RDWR);
                }
            }
            // Readers take conn_mutex_ to close their descriptor, so
            // join them without holding it.
            for (const auto& c : conns_) c->thread.join();
            ::close(listen_fd_);
        });
    }

  private:
    struct Conn {
        int fd = -1;  ///< -1 once the reader closed it (conn_mutex_)
        std::thread thread;
    };

    void accept_loop() {
        obs::name_this_thread("socket accept");
        for (;;) {
            const int fd = ::accept(listen_fd_, nullptr, nullptr);
            const int err = errno;
            reap_finished_conns();
            if (fd < 0) {
                if (stop_started_.load(std::memory_order_acquire)) break;
                if (err == EINTR || err == ECONNABORTED) continue;
                if (err == EMFILE || err == ENFILE) {
                    // Out of descriptors: the pending connection waits
                    // in the backlog until a reader releases one.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(10));
                    continue;
                }
                break;  // listener shut down (or fatal): drain
            }
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
            if (stop_started_.load(std::memory_order_acquire)) {
                ::close(fd);
                break;
            }
            auto conn = std::make_unique<Conn>();
            conn->fd = fd;
            Conn* raw = conn.get();
            std::lock_guard lock(conn_mutex_);
            conn->thread = std::thread([this, raw] { serve_conn(raw); });
            conns_.push_back(std::move(conn));
        }
    }

    /// Join and drop the connections whose reader has exited. Only the
    /// accept thread adds to or removes from conns_ until stop() joins
    /// it, so the pointers stop() walks stay valid.
    void reap_finished_conns() {
        std::vector<std::unique_ptr<Conn>> finished;
        {
            std::lock_guard lock(conn_mutex_);
            const auto done = std::partition(
                conns_.begin(), conns_.end(),
                [](const std::unique_ptr<Conn>& c) { return c->fd >= 0; });
            std::move(done, conns_.end(), std::back_inserter(finished));
            conns_.erase(done, conns_.end());
        }
        for (const auto& c : finished) c->thread.join();
    }

    void serve_conn(Conn* conn) {
        obs::name_this_thread("socket conn");
        serve_frames(conn->fd);
        std::lock_guard lock(conn_mutex_);
        ::close(conn->fd);
        conn->fd = -1;
    }

    /// Read and answer frames until EOF, an error, an oversized frame or
    /// a shutdown frame ends the connection.
    void serve_frames(int fd) {
        std::string buffer, line;
        for (;;) {
            bool overflow = false;
            if (!net_detail::recv_line(fd, buffer, line,
                                       cfg_.max_frame_bytes, overflow)) {
                if (overflow) {
                    reply(fd,
                          wire::error_response(
                              0, ErrorCode::bad_request,
                              "frame exceeds " +
                                  std::to_string(cfg_.max_frame_bytes) +
                                  " bytes"));
                }
                return;  // EOF, error or oversized frame: drop the conn
            }
            if (line.empty()) continue;
            if (!handle_frame(fd, line)) return;
        }
    }

    /// Dispatch one frame; false ends the connection (shutdown frame).
    bool handle_frame(int fd, const std::string& line) {
        io::JsonValue j;
        try {
            j = io::json_parse(line);
        } catch (const Error& e) {
            return reply(fd, wire::error_response(
                                 0, ErrorCode::bad_request,
                                 std::string("malformed JSON frame: ") +
                                     e.what()));
        }
        const std::string type =
            j.is_object() && j.has("type") && j.at("type").is_string()
                ? j.at("type").as_string()
                : "forecast";
        if (type == "stats") {
            return reply_raw(fd, core_->stats_json().dump_compact());
        }
        if (type == "shutdown") {
            io::JsonValue ack;
            ack.set("v", wire::kWireVersion);
            ack.set("type", "shutdown");
            ack.set("ok", true);
            reply_raw(fd, ack.dump_compact());
            std::lock_guard lock(stop_mutex_);
            shutdown_requested_ = true;
            stop_cv_.notify_all();  // wait() performs the drain
            return false;
        }
        // A forecast. Every validation failure up to submit() is a
        // typed bad_request that never touches the queue.
        wire::ForecastRequestV1 req;
        try {
            req = wire::request_from_json(j);
        } catch (const wire::WireError& e) {
            return reply(fd,
                         wire::error_response(0, e.code(), e.what()));
        }
        try {
            ForecastHandle handle = core_->submit(req);
            const ForecastResult& res = handle.wait();
            return reply(fd, wire::result_to_response(req.id, res));
        } catch (const Error& e) {
            // canonicalize() rejected the spec: semantically invalid.
            return reply(fd, wire::error_response(
                                 req.id, ErrorCode::bad_request,
                                 e.what()));
        }
    }

    bool reply(int fd, const wire::ForecastResponseV1& r) {
        return reply_raw(fd, wire::response_to_json(r).dump_compact());
    }

    static bool reply_raw(int fd, std::string frame) {
        frame += '\n';
        return net_detail::send_all(fd, frame);
    }

    SocketServerConfig cfg_;
    std::unique_ptr<ForecastServer> core_;
    int listen_fd_ = -1;
    int port_ = 0;
    std::thread accept_thread_;

    std::mutex conn_mutex_;
    std::vector<std::unique_ptr<Conn>> conns_;

    std::mutex stop_mutex_;
    std::condition_variable stop_cv_;
    bool shutdown_requested_ = false;      ///< guarded by stop_mutex_
    std::atomic<bool> stop_started_{false};
    std::once_flag stop_once_;
};

}  // namespace asuca::server
