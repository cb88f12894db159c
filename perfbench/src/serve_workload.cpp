// The serve_mix workload: a closed loop of two loopback ForecastClient
// connections against an in-process SocketServer (2 workers x 1 thread,
// default admission, in-memory checkpoint store), sending the seeded
// request mix of mix.hpp. Each client sends its next request only after
// the previous reply arrived, as forecast callers wait for answers.
#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "src/observability/metrics.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/server/client.hpp"
#include "src/server/socket_server.hpp"

#include "bench.hpp"
#include "layers.hpp"
#include "mix.hpp"

namespace perfbench {
namespace {

namespace srv = asuca::server;

constexpr int kClients = 2;
constexpr int kSetupReps = 3;
constexpr int kAnalysisSteps = 2;
/// Every cold product once: the mix never repeats a cold request.
constexpr std::size_t kMixLength = 2 * kColdProducts;
constexpr std::size_t kReplaySamples = 8;
constexpr std::size_t kTraceCapacity = std::size_t(1) << 18;

/// A running service and its connected clients (destroyed clients
/// first, so the server sees every connection close before it drains).
struct Service {
    std::unique_ptr<srv::SocketServer> server;
    std::vector<std::unique_ptr<srv::ForecastClient>> clients;
};

/// The analysis warm members fork from: the seeded, theta-perturbed
/// mountain wave (physics on, 32x32x16) after a short spin-up.
void capture_analysis(srv::ForecastServer& core, std::uint64_t seed) {
    srv::ScenarioSpec spec = warm_member(seed, 0);
    spec.warm_start.clear();
    spec = srv::canonicalize(spec);
    asuca::AsucaModel<double> model(srv::build_config(spec));
    srv::init_model(model, spec);
    srv::perturb_theta(model.state(), seed, 1.0e-3);
    model.stepper().apply_state_bcs(model.state());
    model.run(kAnalysisSteps);
    core.checkpoints().capture(kAnalysisName, model);
}

std::unique_ptr<Service> start_service(std::uint64_t seed) {
    auto svc = std::make_unique<Service>();
    srv::SocketServerConfig cfg;
    cfg.server.n_workers = 2;
    cfg.server.threads_per_worker = 1;
    svc->server = std::make_unique<srv::SocketServer>(cfg);
    capture_analysis(svc->server->core(), seed);
    for (int c = 0; c < kClients; ++c) {
        svc->clients.push_back(std::make_unique<srv::ForecastClient>(
            "127.0.0.1", svc->server->port()));
    }
    // Warm-up: one small product per client (never part of the mix), so
    // both workers and connections have run before timing starts.
    for (int c = 0; c < kClients; ++c) {
        srv::wire::ForecastRequestV1 req;
        req.spec.scenario = "warm_bubble";
        req.spec.nx = req.spec.ny = 8;
        req.spec.nz = 6;
        req.spec.steps = 1 + c;
        const auto resp = svc->clients[static_cast<std::size_t>(c)]->forecast(req);
        if (!resp.ok) throw std::runtime_error("warm-up request failed");
    }
    return svc;
}

struct Reply {
    std::size_t index = 0;
    double rtt_ms = 0;
    double done_s = 0;  ///< reply time, seconds since the loop started
    bool cached = false;  ///< its product had been answered before it was sent
    bool transport_ok = true;
    srv::wire::ForecastResponseV1 resp;
};

struct Loop {
    std::vector<Reply> replies;
    double wall_s = 0;
};

/// Closed loop over mix[next...] until `seconds` pass or the mix ends.
Loop run_clients(Service& svc, const std::vector<MixRequest>& mix,
                 std::size_t& next, std::set<std::string>& answered,
                 double seconds) {
    Loop loop;
    std::mutex mu;  // guards next, answered, loop.replies
    const auto start = Clock::now();
    auto client_loop = [&](srv::ForecastClient& client) {
        for (;;) {
            Reply r;
            std::string key;
            {
                std::lock_guard lock(mu);
                if (next >= mix.size() || seconds_since(start) >= seconds) {
                    return;
                }
                r.index = next++;
                key = srv::canonical_key(srv::canonicalize(mix[r.index].spec));
                r.cached = answered.count(key) != 0;
            }
            srv::wire::ForecastRequestV1 req;
            req.spec = mix[r.index].spec;
            req.id = r.index;
            req.client = "perfbench";
            const auto t0 = Clock::now();
            try {
                asuca::obs::TraceSpan span("client.forecast", "bench");
                r.resp = client.forecast(req);
            } catch (const std::exception& e) {
                r.transport_ok = false;
                std::fprintf(stderr, "request %zu: %s\n", r.index, e.what());
            }
            r.rtt_ms = 1e3 * seconds_since(t0);
            r.done_s = seconds_since(start);
            std::lock_guard lock(mu);
            if (r.transport_ok && r.resp.ok) answered.insert(key);
            loop.replies.push_back(std::move(r));
        }
    };
    std::vector<std::thread> threads;
    for (auto& c : svc.clients) {
        threads.emplace_back(client_loop, std::ref(*c));
    }
    for (auto& t : threads) t.join();
    loop.wall_s = seconds_since(start);
    return loop;
}

bool full_resolution(const Reply& r) {
    return r.transport_ok && r.resp.ok && r.resp.degrade_level == 0;
}

std::vector<double> rtts(const Loop& loop) {
    std::vector<double> v;
    for (const auto& r : loop.replies) v.push_back(r.rtt_ms);
    return v;
}

/// Correctness of every reply: ok, repeats equal to their first answer,
/// and sampled distinct products equal to a standalone run_forecast.
void check_replies(const std::vector<Reply>& replies,
                   const std::vector<MixRequest>& mix,
                   const srv::CheckpointStore::Blob& analysis, Outcome& out) {
    long long bad = 0;
    std::map<std::string, std::uint64_t> first;
    long long repeat_mismatch = 0;
    for (const auto& r : replies) {
        if (!r.transport_ok || !r.resp.ok) {
            ++bad;
            continue;
        }
        const auto key =
            srv::canonical_key(srv::canonicalize(mix[r.index].spec));
        const auto [it, inserted] = first.emplace(key, r.resp.fingerprint);
        if (!inserted && it->second != r.resp.fingerprint) ++repeat_mismatch;
    }
    out.attempted += static_cast<long long>(replies.size());
    out.failed += bad;
    if (bad > 0) out.correct = false;
    out.check(bad == 0, std::to_string(replies.size()) + " replies ok");
    out.check(repeat_mismatch == 0, "repeats return their first answer");

    // One executed product of each scenario, replayed outside the server.
    for (const char* scenario : {"warm_bubble", "real_case", "mountain_wave"}) {
        for (const auto& r : replies) {
            const MixRequest& q = mix[r.index];
            if (q.kind == RequestKind::repeat || q.spec.scenario != scenario ||
                !r.resp.ok || r.cached) {
                continue;
            }
            asuca::obs::TraceSpan span("replay.run_forecast", "bench");
            const auto res = srv::run_forecast(
                r.resp.executed,
                r.resp.executed.warm_start.empty() ? nullptr : analysis,
                false);
            out.check(res.fingerprint == r.resp.fingerprint,
                      std::string(kind_name(q.kind)) + " " + scenario +
                          " == standalone run_forecast");
            break;
        }
    }
}

/// Share of request execution spent building and initializing (or
/// warm-loading) the model: replay sampled executed specs outside the
/// server, timing the set-up part apart from a whole run_forecast.
double setup_share(const std::vector<Reply>& replies,
                   const std::vector<MixRequest>& mix,
                   const srv::CheckpointStore::Blob& analysis) {
    std::vector<const Reply*> executed;
    for (const auto& r : replies) {
        if (r.resp.ok && !r.cached && mix[r.index].kind != RequestKind::repeat) {
            executed.push_back(&r);
        }
    }
    double setup = 0, total = 0;
    const std::size_t stride =
        std::max<std::size_t>(1, executed.size() / kReplaySamples);
    for (std::size_t i = 0; i < executed.size(); i += stride) {
        const srv::ScenarioSpec& spec = executed[i]->resp.executed;
        const bool warm = !spec.warm_start.empty();
        {
            asuca::obs::TraceSpan span("replay.setup", "bench");
            const auto t0 = Clock::now();
            asuca::AsucaModel<double> model(srv::build_config(spec));
            if (warm) {
                std::istringstream in(*analysis, std::ios::binary);
                double steps = 0;
                const auto side = asuca::io::model_side_state(model, &steps);
                asuca::io::load_state(in, model.state(), side);
                srv::perturb_theta(model.state(), spec.perturb_seed,
                                   spec.perturb_amplitude);
                model.stepper().apply_state_bcs(model.state());
            } else {
                srv::init_model(model, spec);
            }
            setup += seconds_since(t0);
        }
        asuca::obs::TraceSpan span("replay.run_forecast", "bench");
        const auto t0 = Clock::now();
        srv::run_forecast(spec, warm ? analysis : nullptr, false);
        total += seconds_since(t0);
    }
    return total > 0 ? setup / total : 0.0;
}

/// CheckpointStore::get + io::load_state of the analysis, median ms.
double warm_load_ms(srv::ForecastServer& core, std::uint64_t seed) {
    srv::ScenarioSpec spec = srv::canonicalize(warm_member(seed, 0));
    asuca::AsucaModel<double> model(srv::build_config(spec));
    std::vector<double> ms;
    for (int r = 0; r < 20; ++r) {
        const auto t0 = Clock::now();
        const auto blob = core.checkpoints().get(kAnalysisName);
        std::istringstream in(*blob, std::ios::binary);
        double steps = 0;
        const auto side = asuca::io::model_side_state(model, &steps);
        asuca::io::load_state(in, model.state(), side);
        ms.push_back(1e3 * seconds_since(t0));
    }
    return median(ms);
}

/// request_to_json + response parse of one exchange, median us.
double codec_us(const Reply& sample, const MixRequest& request) {
    srv::wire::ForecastRequestV1 req;
    req.spec = request.spec;
    req.id = sample.index;
    const std::string line =
        srv::wire::response_to_json(sample.resp).dump_compact();
    std::vector<double> us;
    std::size_t sink = 0;
    for (int r = 0; r < 2000; ++r) {
        const auto t0 = Clock::now();
        sink += srv::wire::request_to_json(req).dump_compact().size();
        sink += srv::wire::parse_response_line(line).steps_run;
        us.push_back(1e6 * seconds_since(t0));
    }
    return sink > 0 ? median(us) : 0.0;
}

void attribute_serve(const Loop& untraced, const Loop& traced,
                     const std::vector<MixRequest>& mix,
                     const srv::ServerStats& before,
                     const srv::ServerStats& after, Service& svc,
                     std::uint64_t seed, MetricSet& m) {
    const KernelTotals kt = kernel_totals();
    std::vector<double> exec_ms, overhead_ms, cached_us;
    double degraded = 0;
    for (const auto& r : traced.replies) {
        if (r.transport_ok && r.resp.ok && r.resp.degrade_level > 0) {
            ++degraded;
        }
        if (!r.resp.ok) continue;
        if (r.cached) {
            cached_us.push_back(1e3 * r.rtt_ms);
        } else {
            exec_ms.push_back(r.resp.latency_ms);
            overhead_ms.push_back(r.rtt_ms - r.resp.latency_ms);
        }
    }
    const double executed = static_cast<double>(after.completed -
                                                before.completed);
    for (const auto& [group, s] : kt.group_s) {
        m.set(group, executed > 0 ? 1e3 * s / executed : 0.0);
    }
    m.set("core.kernel_calls",
          executed > 0 ? static_cast<double>(kt.calls) / executed : 0.0);
    m.set("instrument.coverage", kt.total_s / (2.0 * traced.wall_s));
    m.set("trace.overhead", median(rtts(traced)) / median(rtts(untraced)));
    if (!exec_ms.empty()) {
        m.set("server.exec_ms_p50", median(exec_ms));
        m.set("server.overhead_ms_p50", median(overhead_ms));
    }
    if (!cached_us.empty()) m.set("server.cached_rtt_us_p50", median(cached_us));
    const double hits =
        static_cast<double>(after.dedup_hits - before.dedup_hits);
    const double requests = static_cast<double>(traced.replies.size());
    m.set("server.cache_hit_ratio", requests > 0 ? hits / requests : 0.0);
    m.set("server.executed", executed);
    m.set("server.retried", static_cast<double>(after.retried - before.retried));
    m.set("server.degraded_frac", requests > 0 ? degraded / requests : 0.0);

    const auto analysis = svc.server->core().checkpoints().get(kAnalysisName);
    m.set("server.setup_share", setup_share(traced.replies, mix, analysis));
    m.set("io.warm_load_ms", warm_load_ms(svc.server->core(), seed));
    if (!traced.replies.empty()) {
        const Reply& sample = traced.replies.front();
        m.set("wire.codec_us", codec_us(sample, mix[sample.index]));
    }
    std::printf("  traced: %zu requests (%zu cached), %.0f executed, "
                "kernel coverage %.3f of 2 workers\n",
                traced.replies.size(), cached_us.size(), executed,
                m.get("instrument.coverage"));
}

}  // namespace

void run_serve_mix(const Options& opt, Outcome& out, MetricSet& m) {
    // Workers own their pools; the process pool is not used.
    asuca::ThreadPool::set_global_threads(1);
    const auto mix = make_mix(opt.seed, kMixLength);
    std::unique_ptr<Service> svc;
    const double setup_s = timed_setup(kSetupReps, [&] {
        svc.reset();
        svc = start_service(opt.seed);
    });
    const auto analysis =
        svc->server->core().checkpoints().get(kAnalysisName);

    std::size_t next = 0;
    std::set<std::string> answered;
    if (!opt.trace) {
        const Loop loop = run_clients(*svc, mix, next, answered, opt.seconds);
        std::vector<double> full_res_done;
        for (const auto& r : loop.replies) {
            if (full_resolution(r)) full_res_done.push_back(r.done_s);
        }
        set_end_to_end(m, rtts(loop), full_res_done, setup_s);
        check_replies(loop.replies, mix, analysis, out);
        return;
    }
    const Loop untraced =
        run_clients(*svc, mix, next, answered, opt.seconds / 2);
    asuca::KernelRegistry::global().reset();
    auto& metrics = asuca::obs::MetricsRegistry::global();
    metrics.reset();
    metrics.enable();
    asuca::obs::TraceRecorder::global().enable(kTraceCapacity);
    const srv::ServerStats before = svc->server->core().stats();
    const Loop traced = run_clients(*svc, mix, next, answered, opt.seconds / 2);
    const srv::ServerStats after = svc->server->core().stats();
    metrics.disable();
    attribute_serve(untraced, traced, mix, before, after, *svc, opt.seed, m);
    std::vector<Reply> all = untraced.replies;
    all.insert(all.end(), traced.replies.begin(), traced.replies.end());
    check_replies(all, mix, analysis, out);
    finish_trace(opt.workload, opt.seed);
    zero_unset(m);
}

}  // namespace perfbench
