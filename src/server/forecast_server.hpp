// ForecastServer: a long-running in-process forecast service — the
// "millions of users" direction of ROADMAP, exercising the observability
// (PR 5), resilience (PR 4) and checkpoint (PR 4) layers together under
// real concurrent load.
//
// Architecture (specified first by tests/test_server.cpp and
// tests/test_server_stress.cpp — this implementation fills the spec in):
//
//   clients ──submit()──► admission ──► bounded RequestQueue ──► workers
//                │                                                │
//                ├─ canonicalize + degradation ladder             ├─ per-worker
//                ├─ dedup/cache on canonical keys                 │  ThreadPool
//                └─ ForecastHandle (waitable)                     │  (ScopedOverride)
//                                                                 └─ run_forecast()
//
//   * Admission control picks a degradation level BEFORE enqueueing: a
//     loaded server sheds RESOLUTION (shorter horizon, then coarser
//     grid — scenario.hpp's ladder), never requests. Only the opt-in
//     shed_when_full policy ever rejects. The one admission rule
//     (admission_rule) is LATENCY-CALIBRATED: an EWMA of measured
//     per-request service time turns the queue depth into an estimated
//     wait, compared against admission_target_ms — so the ladder reacts
//     to what this machine actually delivers, not to a depth heuristic
//     tuned for some other hardware. Until the first completion
//     calibrates the estimate, depth watermarks decide.
//   * Deduplication: submissions canonicalize to a key; a key already
//     pending or completed attaches the caller to the existing entry —
//     one execution serves every duplicate (and completed entries keep
//     serving from cache).
//   * Scheduling: n_workers threads pop jobs and execute them under
//     their own ThreadPool installed via ThreadPool::ScopedOverride —
//     the same mechanism MultiDomainRunner rank tasks use — so many
//     concurrent model instances share the machine without colliding on
//     the process-global pool. Decomposed requests additionally spin up
//     TaskLayer per-rank workers inside the runner.
//   * Ensembles: an EnsembleRequest forks one stored checkpoint into N
//     perturbed member requests that schedule independently (concurrent
//     across workers), each bitwise identical to running that member
//     serially in isolation.
//   * Fault tolerance (the retry ladder): a fatal runner verdict
//     (cluster::FatalFaultError, carrying the halo layer's suspect-rank
//     attribution) or an injected WorkerPoison QUARANTINES the worker
//     slot that ran the request — the slot stops popping jobs, the
//     server.capacity gauge drops, and the slot probes itself with a
//     tiny canary forecast until a clean, fingerprint-matching run
//     REINSTATES it. The failed request is re-dispatched to healthy
//     workers (front-requeued past admission backpressure) with bounded
//     exponential backoff, a bounded attempt count, and an optional
//     per-request deadline budget; warm starts re-resolve from the
//     durable store's newest VERIFIED epoch, so a corrupted checkpoint
//     falls back to the previous epoch instead of failing the request.
//   * Durability: store_dir switches the checkpoint store to a
//     DurableCheckpointStore (crash-safe atomic spills, checksum-
//     verified reloads, epoch retention, LRU RAM cache, all at the
//     DurableStoreConfig defaults); empty keeps the in-memory store.
//     With a store_dir the server also keeps a durable RESULT cache
//     (<store_dir>/results, wrapped-blob format) unless it keeps
//     states: completed results spill as compact JSON keyed on
//     canonical_key, and a RESTARTED server answers a repeat query from
//     disk — served_from == "durable", fingerprint bitwise identical to
//     the live run — without re-integrating anything.
//   * API: the entry point is the wire envelope —
//     submit(wire::ForecastRequestV1) — shared with the out-of-process
//     front-end (socket_server.hpp). Every failure carries a typed
//     ErrorCode from the scenario.hpp taxonomy.
//   * Observability: per-request TraceSpans ("server" category),
//     server.* gauges/histograms (capacity, queue_depth, latency_us)
//     through the existing TraceRecorder / MetricsRegistry — and ONE
//     source of truth for event counts: the always-on stats() atomics,
//     exported into every MetricsRegistry snapshot through a snapshot
//     provider (no parallel gated counters to drift out of sync).
//
// Bitwise guarantee: a request's bits depend only on its canonical spec
// (and the referenced checkpoint blob) — never on which worker ran it,
// what else was in flight, or the pool width — because every model
// instance owns its state, the dycore is bit-identical for any thread
// count, and the only cross-request state (metrics/trace/cache) carries
// no numerics.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/observability/metrics.hpp"
#include "src/observability/trace.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/resilience/fault_injector.hpp"
#include "src/server/checkpoint_store.hpp"
#include "src/server/ensemble.hpp"
#include "src/server/request_queue.hpp"
#include "src/server/scenario.hpp"
#include "src/server/wire.hpp"

namespace asuca::server {

/// The degradation ladder's admission rule: the level a new admission
/// runs at, given the queue `depth` out of `capacity`, the EWMA of
/// measured per-request service time (0 until the first completion),
/// the healthy worker count, the acceptable wait `target_ms` and the
/// spec's `max_level`. Calibrated, the estimated wait is depth x EWMA /
/// healthy workers: the horizon is shed from half of `target_ms`,
/// resolution too from three quarters — a direct "will this answer
/// arrive in time" test using MEASURED service times. Cold, the depth
/// watermarks decide: level 1 from half the capacity, level 2 from
/// three quarters. The result never exceeds `max_level`.
inline int admission_rule(std::size_t depth, std::size_t capacity,
                          double ewma_service_ms, std::size_t healthy_workers,
                          double target_ms, int max_level) {
    int level = 0;
    if (ewma_service_ms > 0.0) {
        const double workers = static_cast<double>(
            std::max<std::size_t>(1, healthy_workers));
        const double est_wait_ms =
            static_cast<double>(depth) * ewma_service_ms / workers;
        if (2.0 * est_wait_ms >= target_ms) level = 1;
        if (4.0 * est_wait_ms >= 3.0 * target_ms) level = 2;
    } else {
        if (2 * depth >= capacity) level = 1;
        if (4 * depth >= 3 * capacity) level = 2;
    }
    return std::min(level, max_level);
}

struct ServerConfig {
    std::size_t n_workers = 2;         ///< concurrent forecast executions
    std::size_t threads_per_worker = 1;  ///< j-slab threads per execution
    std::size_t queue_capacity = 8;    ///< admission bound (backpressure)
    bool keep_state = false;  ///< attach full final states to results
    /// Degradation ladder on admission (shed resolution under load).
    bool degrade_under_load = true;
    /// Acceptable estimated wait of a new admission (admission_rule).
    double admission_target_ms = 2000.0;
    /// Reject when the queue is full instead of blocking the submitter.
    /// OFF by default: the production policy is backpressure + degraded
    /// resolution, never dropped requests.
    bool shed_when_full = false;
    /// Serve repeated canonical keys from the completed-request cache.
    bool cache_results = true;
    /// Durable checkpoint spill directory. Empty keeps the in-memory
    /// store; non-empty constructs a DurableCheckpointStore there
    /// (atomic writes, verified reloads, epoch retention, LRU cache)
    /// and spills completed results to <store_dir>/results, so repeat
    /// queries are served from disk across restarts. Servers that
    /// keep_state skip the result spill (a disk result has no state to
    /// attach, and tests that demand states must get them).
    std::string store_dir;
    /// Retry ladder: re-dispatches tolerated per request after a fatal
    /// worker/runner fault before the request fails for the client.
    int max_request_retries = 2;
    /// Base of the bounded exponential backoff before a re-dispatch
    /// (doubles per attempt, capped at 8x).
    std::chrono::milliseconds retry_backoff{5};
    /// Per-request deadline budget from admission; retries stop when it
    /// is spent. Zero means no deadline.
    std::chrono::milliseconds request_deadline{0};
    /// Pause between canary probes of a quarantined worker slot.
    std::chrono::milliseconds canary_backoff{20};
    /// Server-level injected faults (WorkerPoison / CheckpointCorrupt)
    /// for tests and chaos gates; empty in production.
    resilience::FaultPlan faults;
};

struct ServerStats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;   ///< executions that produced a result
    std::uint64_t failed = 0;      ///< executions that threw
    std::uint64_t dedup_hits = 0;  ///< submissions served by another entry
    std::uint64_t durable_hits = 0;  ///< served from the on-disk results
    std::uint64_t degraded = 0;    ///< admissions rewritten by the ladder
    std::uint64_t shed = 0;        ///< rejected (shed_when_full only)
    std::uint64_t retried = 0;     ///< re-dispatches by the retry ladder
    std::uint64_t quarantined = 0; ///< worker-slot quarantine events
    std::uint64_t reinstated = 0;  ///< quarantined slots reinstated
};

class ForecastServer;

namespace detail {
/// One admitted request: the canonical executed spec plus the waitable
/// completion slot every attached submitter shares.
struct Entry {
    ScenarioSpec spec;  ///< canonical, post-degradation
    std::string key;
    int degrade_level = 0;
    /// Retry-ladder state. Touched only by the worker currently holding
    /// the job (the queue's mutex orders the handoff between workers).
    int attempts = 0;
    std::chrono::steady_clock::time_point deadline{};  ///< zero = none

    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    ForecastResult result;

    void complete(ForecastResult res) {
        {
            std::lock_guard lock(mutex);
            result = std::move(res);
            done = true;
        }
        cv.notify_all();
    }
};
}  // namespace detail

/// Waitable result of one submission. Copyable; every copy (and every
/// deduplicated submission) shares the same underlying entry.
class ForecastHandle {
  public:
    ForecastHandle() = default;

    /// Block until the request completes; the result stays owned by the
    /// server entry (valid while any handle to it lives).
    const ForecastResult& wait() const {
        ASUCA_REQUIRE(entry_ != nullptr, "empty forecast handle");
        std::unique_lock lock(entry_->mutex);
        entry_->cv.wait(lock, [&] { return entry_->done; });
        return entry_->result;
    }

    bool valid() const { return entry_ != nullptr; }

    bool ready() const {
        ASUCA_REQUIRE(entry_ != nullptr, "empty forecast handle");
        std::lock_guard lock(entry_->mutex);
        return entry_->done;
    }

    /// True when this submission attached to an already-admitted entry
    /// (dedup) instead of scheduling its own execution.
    bool attached() const { return attached_; }
    int degrade_level() const {
        ASUCA_REQUIRE(entry_ != nullptr, "empty forecast handle");
        return entry_->degrade_level;
    }

  private:
    friend class ForecastServer;
    ForecastHandle(std::shared_ptr<detail::Entry> entry, bool attached)
        : entry_(std::move(entry)), attached_(attached) {}

    std::shared_ptr<detail::Entry> entry_;
    bool attached_ = false;
};

class ForecastServer {
  public:
    explicit ForecastServer(const ServerConfig& config = {})
        : cfg_(config), queue_(config.queue_capacity),
          injector_(config.faults) {
        ASUCA_REQUIRE(cfg_.n_workers >= 1, "server needs >= 1 worker");
        ASUCA_REQUIRE(cfg_.max_request_retries >= 0, "bad retry budget");
        if (cfg_.store_dir.empty()) {
            store_ = std::make_unique<CheckpointStore>();
        } else {
            store_ = std::make_unique<DurableCheckpointStore>(
                DurableStoreConfig{cfg_.store_dir});
            if (!cfg_.keep_state) {
                results_ = std::make_unique<DurableCheckpointStore>(
                    DurableStoreConfig{cfg_.store_dir + "/results"});
            }
        }
        // One source of truth for server event counts: the always-on
        // stats() atomics, exported into every metrics snapshot.
        provider_id_ = obs::MetricsRegistry::global().add_provider(
            [this](io::JsonValue& out) {
                const ServerStats s = stats();
                out.set("server.submitted",
                        static_cast<double>(s.submitted));
                out.set("server.completed",
                        static_cast<double>(s.completed));
                out.set("server.failed", static_cast<double>(s.failed));
                out.set("server.deduped",
                        static_cast<double>(s.dedup_hits));
                out.set("server.durable_hits",
                        static_cast<double>(s.durable_hits));
                out.set("server.degraded",
                        static_cast<double>(s.degraded));
                out.set("server.shed", static_cast<double>(s.shed));
                out.set("server.retried",
                        static_cast<double>(s.retried));
                out.set("server.quarantined",
                        static_cast<double>(s.quarantined));
                out.set("server.reinstated",
                        static_cast<double>(s.reinstated));
            });
        quarantined_ = std::make_unique<std::atomic<bool>[]>(cfg_.n_workers);
        for (std::size_t w = 0; w < cfg_.n_workers; ++w) {
            quarantined_[w] = false;
        }
        set_capacity_gauge();
        pools_.reserve(cfg_.n_workers);
        for (std::size_t w = 0; w < cfg_.n_workers; ++w) {
            pools_.push_back(std::make_unique<ThreadPool>(
                std::max<std::size_t>(1, cfg_.threads_per_worker)));
        }
        workers_.reserve(cfg_.n_workers);
        for (std::size_t w = 0; w < cfg_.n_workers; ++w) {
            workers_.emplace_back([this, w] { worker_loop(w); });
        }
    }

    ~ForecastServer() { shutdown(); }

    ForecastServer(const ForecastServer&) = delete;
    ForecastServer& operator=(const ForecastServer&) = delete;

    const ServerConfig& config() const { return cfg_; }
    CheckpointStore& checkpoints() { return *store_; }
    /// The durable store when store_dir was set, nullptr otherwise.
    DurableCheckpointStore* durable_store() {
        return dynamic_cast<DurableCheckpointStore*>(store_.get());
    }
    std::size_t queue_depth() const { return queue_.size(); }
    bool worker_quarantined(std::size_t w) const {
        ASUCA_REQUIRE(w < cfg_.n_workers, "bad worker index " << w);
        return quarantined_[w].load(std::memory_order_acquire);
    }

    /// Submit one envelope request — the API shared with the
    /// out-of-process front-end. Never blocks on execution — returns a
    /// handle immediately (after any backpressure wait for a queue
    /// slot). Throws asuca::Error (a bad_request to the wire layer)
    /// when the spec fails canonicalize(); every post-admission failure
    /// instead completes the handle with a typed ErrorCode.
    ForecastHandle submit(const wire::ForecastRequestV1& req) {
        return submit_spec(req.spec,
                           std::chrono::milliseconds(req.deadline_ms));
    }

    /// Fork a stored checkpoint into n_members perturbed member requests
    /// (scheduled concurrently; one handle per member, in member order).
    std::vector<ForecastHandle> submit_ensemble(const EnsembleRequest& req) {
        ASUCA_REQUIRE(store_->contains(req.base.warm_start),
                      "ensemble warm-start checkpoint '"
                          << req.base.warm_start << "' not in the store");
        std::vector<ForecastHandle> handles;
        const auto members = expand_members(req);
        handles.reserve(members.size());
        for (const auto& m : members) {
            if (obs::metrics_enabled()) {
                obs::MetricsRegistry::global()
                    .counter("server.ensemble_members")
                    .add();
            }
            handles.push_back(submit_spec(m, std::chrono::milliseconds{0}));
        }
        return handles;
    }

    /// Stop admissions, finish the backlog, join the workers. Idempotent;
    /// also runs from the destructor. Entries the workers could not
    /// drain (every surviving worker quarantined at close) are completed
    /// with a shutdown error — no waiter is left hanging.
    void shutdown() {
        bool expected = false;
        if (!stopped_.compare_exchange_strong(expected, true)) return;
        obs::MetricsRegistry::global().remove_provider(provider_id_);
        queue_.close();
        for (auto& th : workers_) th.join();
        for (auto& job : queue_.poison()) {
            ForecastResult res;
            res.executed = job->spec;
            res.degrade_level = job->degrade_level;
            res.error = "server is shut down";
            res.code = ErrorCode::internal_fault;
            failed_.fetch_add(1, std::memory_order_relaxed);
            forget(job->key);
            job->complete(std::move(res));
        }
    }

    ServerStats stats() const {
        ServerStats s;
        s.submitted = submitted_.load(std::memory_order_relaxed);
        s.completed = completed_.load(std::memory_order_relaxed);
        s.failed = failed_.load(std::memory_order_relaxed);
        s.dedup_hits = dedup_hits_.load(std::memory_order_relaxed);
        s.durable_hits = durable_hits_.load(std::memory_order_relaxed);
        s.degraded = degraded_.load(std::memory_order_relaxed);
        s.shed = shed_.load(std::memory_order_relaxed);
        s.retried = retried_.load(std::memory_order_relaxed);
        s.quarantined = quarantined_count_.load(std::memory_order_relaxed);
        s.reinstated = reinstated_.load(std::memory_order_relaxed);
        return s;
    }

    /// The calibrated admission signal: EWMA of per-request service
    /// time in ms; 0 until the first completion.
    double ewma_service_ms() const {
        const std::uint64_t bits =
            ewma_bits_.load(std::memory_order_relaxed);
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        return d;
    }

    std::size_t healthy_workers() const {
        std::size_t healthy = 0;
        for (std::size_t w = 0; w < cfg_.n_workers; ++w) {
            healthy +=
                quarantined_[w].load(std::memory_order_relaxed) ? 0 : 1;
        }
        return healthy;
    }

    /// The wire `stats` endpoint body: the SAME atomics stats() reads
    /// (and the metrics snapshot provider exports), plus the live
    /// admission signals — one source of truth, three views.
    io::JsonValue stats_json() const {
        const ServerStats s = stats();
        io::JsonValue j;
        j.set("v", wire::kWireVersion);
        j.set("type", "stats");
        j.set("submitted", static_cast<long long>(s.submitted));
        j.set("completed", static_cast<long long>(s.completed));
        j.set("failed", static_cast<long long>(s.failed));
        j.set("dedup_hits", static_cast<long long>(s.dedup_hits));
        j.set("durable_hits", static_cast<long long>(s.durable_hits));
        j.set("degraded", static_cast<long long>(s.degraded));
        j.set("shed", static_cast<long long>(s.shed));
        j.set("retried", static_cast<long long>(s.retried));
        j.set("quarantined", static_cast<long long>(s.quarantined));
        j.set("reinstated", static_cast<long long>(s.reinstated));
        j.set("queue_depth", static_cast<long long>(queue_.size()));
        j.set("workers_total", static_cast<long long>(cfg_.n_workers));
        j.set("workers_healthy",
              static_cast<long long>(healthy_workers()));
        j.set("ewma_service_ms", ewma_service_ms());
        return j;
    }

  private:
    /// The shared execution path behind submit() and submit_ensemble().
    /// deadline_override > 0 replaces the config's per-request deadline
    /// budget for this request.
    ForecastHandle submit_spec(const ScenarioSpec& spec,
                               std::chrono::milliseconds deadline_override) {
        const ScenarioSpec canon = canonicalize(spec);
        const int level = admission_level(canon);
        const ScenarioSpec exec = apply_degradation(canon, level);
        const std::string key = canonical_key(exec);

        std::shared_ptr<detail::Entry> entry;
        {
            std::lock_guard lock(cache_mutex_);
            if (cfg_.cache_results) {
                const auto it = cache_.find(key);
                if (it != cache_.end()) {
                    dedup_hits_.fetch_add(1, std::memory_order_relaxed);
                    return ForecastHandle(it->second, /*attached=*/true);
                }
            }
            entry = std::make_shared<detail::Entry>();
            entry->spec = exec;
            entry->key = key;
            entry->degrade_level = level;
            const auto deadline = deadline_override.count() > 0
                                      ? deadline_override
                                      : cfg_.request_deadline;
            if (deadline.count() > 0) {
                entry->deadline =
                    std::chrono::steady_clock::now() + deadline;
            }
            if (cfg_.cache_results) cache_[key] = entry;
        }

        submitted_.fetch_add(1, std::memory_order_relaxed);
        if (level > 0) {
            degraded_.fetch_add(1, std::memory_order_relaxed);
        }
        // Durable cold hit: a previous incarnation of this server (or
        // this one, before a cache_results=false caller re-asked)
        // already produced this exact product — serve its spilled
        // result from disk instead of re-integrating.
        if (results_ != nullptr) {
            if (CheckpointStore::Blob blob = results_->get(key)) {
                ForecastResult res;
                bool parsed = false;
                try {
                    res = wire::result_from_json(io::json_parse(*blob));
                    parsed = true;
                } catch (const Error&) {
                    // A result spilled by a FUTURE format would land
                    // here; fall through and execute fresh.
                }
                if (parsed) {
                    res.degrade_level = level;
                    res.served_from = "durable";
                    durable_hits_.fetch_add(1, std::memory_order_relaxed);
                    entry->complete(std::move(res));
                    return ForecastHandle(std::move(entry),
                                          /*attached=*/false);
                }
            }
        }
        bool admitted;
        if (cfg_.shed_when_full) {
            admitted = queue_.try_push(entry);
            if (!admitted) {
                shed_.fetch_add(1, std::memory_order_relaxed);
            }
        } else {
            admitted = queue_.push(entry);  // backpressure, never drops
        }
        if (!admitted) {
            forget(key);
            ForecastResult res;
            res.executed = exec;
            res.degrade_level = level;
            const bool shed = cfg_.shed_when_full && !queue_.closed();
            res.error = shed ? "shed: request queue full"
                             : "server is shut down";
            res.code = shed ? ErrorCode::over_capacity
                            : ErrorCode::internal_fault;
            entry->complete(std::move(res));
        } else if (obs::metrics_enabled()) {
            obs::MetricsRegistry::global()
                .gauge("server.queue_depth")
                .set(static_cast<double>(queue_.size()));
        }
        return ForecastHandle(std::move(entry), /*attached=*/false);
    }
    /// The degradation level of a new admission right now.
    int admission_level(const ScenarioSpec& spec) const {
        if (!cfg_.degrade_under_load) return 0;
        return admission_rule(queue_.size(), queue_.capacity(),
                              ewma_service_ms(), healthy_workers(),
                              cfg_.admission_target_ms,
                              max_degrade_level(spec));
    }

    /// Fold one measured service time into the admission EWMA (bitwise
    /// CAS on double bits; the first sample seeds the estimate).
    void observe_service_ms(double ms) {
        constexpr double kAlpha = 0.2;  // weight of the newest sample
        if (!(ms > 0.0)) return;
        std::uint64_t expected =
            ewma_bits_.load(std::memory_order_relaxed);
        for (;;) {
            double cur;
            std::memcpy(&cur, &expected, sizeof(cur));
            const double next =
                cur == 0.0 ? ms : kAlpha * ms + (1.0 - kAlpha) * cur;
            std::uint64_t bits;
            std::memcpy(&bits, &next, sizeof(bits));
            if (ewma_bits_.compare_exchange_weak(
                    expected, bits, std::memory_order_relaxed)) {
                return;
            }
        }
    }

    void forget(const std::string& key) {
        if (!cfg_.cache_results) return;
        std::lock_guard lock(cache_mutex_);
        cache_.erase(key);  // a shed/failed key must stay retryable
    }

    /// Resolve a warm-start blob, running any injected store-level fault
    /// first (damage the newest durable epoch, evict the RAM cache) so
    /// the verified-reload fallback is exercised on the REAL read path.
    CheckpointStore::Blob resolve_warm(const ScenarioSpec& spec) {
        if (spec.warm_start.empty()) return nullptr;
        if (injector_.enabled()) {
            std::lock_guard lock(injector_mutex_);
            const long long n = warm_resolutions_++;
            if (injector_.corrupt_checkpoint(n)) {
                if (auto* d =
                        dynamic_cast<DurableCheckpointStore*>(store_.get())) {
                    d->corrupt_latest_epoch(spec.warm_start);
                    d->drop_ram(spec.warm_start);
                    obs::trace_instant("inject_checkpoint_corrupt",
                                       "server");
                }
            }
        }
        CheckpointStore::Blob blob = store_->get(spec.warm_start);
        if (blob == nullptr) {
            // The client named a checkpoint the store cannot serve: a
            // bad_request (their problem), not a worker fault — the
            // retry ladder must not engage.
            throw BadRequestError("warm-start checkpoint '" +
                                  spec.warm_start + "' not in the store");
        }
        return blob;
    }

    void set_capacity_gauge() {
        if (!obs::metrics_enabled()) return;
        std::size_t healthy = 0;
        for (std::size_t w = 0; w < cfg_.n_workers; ++w) {
            healthy += quarantined_[w].load(std::memory_order_relaxed) ? 0
                                                                       : 1;
        }
        obs::MetricsRegistry::global()
            .gauge("server.capacity")
            .set(static_cast<double>(healthy));
    }

    void quarantine(std::size_t w, const std::string& why) {
        quarantined_[w].store(true, std::memory_order_release);
        quarantined_count_.fetch_add(1, std::memory_order_relaxed);
        set_capacity_gauge();
        obs::trace_instant("quarantine", static_cast<Index>(w), "server");
        (void)why;
    }

    /// The fixed probe a quarantined slot must complete cleanly (with
    /// the fingerprint every healthy execution produces) before it pops
    /// real work again.
    static ScenarioSpec canary_spec() {
        ScenarioSpec s;
        s.scenario = "warm_bubble";
        s.nx = 8;
        s.ny = 8;
        s.nz = 6;
        s.steps = 1;
        return canonicalize(s);
    }

    /// One probe-and-reinstate attempt for quarantined worker `w`.
    /// Returns false when the queue closed (the worker should exit).
    bool canary_probe(std::size_t w) {
        if (queue_.closed()) return false;
        std::this_thread::sleep_for(cfg_.canary_backoff);
        // The expected canary fingerprint, computed once on demand. The
        // injection model poisons a slot by THROWING, never by silent
        // wrong numerics, so first-computation-by-a-quarantined-slot is
        // sound — and any later mismatch still fails the probe.
        static const std::uint64_t expected = [] {
            return run_forecast(canary_spec(), nullptr, false).fingerprint;
        }();
        bool clean = false;
        try {
            ThreadPool::ScopedOverride pool_guard(*pools_[w]);
            obs::TraceSpan span("canary_probe", static_cast<long long>(w),
                                "server");
            const ForecastResult probe =
                run_forecast(canary_spec(), nullptr, false);
            clean = probe.ok() && probe.fingerprint == expected;
        } catch (const std::exception&) {
            clean = false;
        }
        if (clean) {
            quarantined_[w].store(false, std::memory_order_release);
            reinstated_.fetch_add(1, std::memory_order_relaxed);
            set_capacity_gauge();
            obs::trace_instant("reinstate", static_cast<Index>(w),
                               "server");
        }
        return true;
    }

    /// Why a re-dispatch did not happen — each maps to its own typed
    /// ErrorCode for the client.
    enum class RetryVerdict {
        requeued,           ///< job is back on the queue
        retries_exhausted,  ///< attempt budget spent -> internal_fault
        past_deadline,      ///< deadline budget spent -> deadline_exceeded
        queue_closed,       ///< server shut down -> internal_fault
    };

    /// Decide and execute a re-dispatch of a job whose attempt just hit
    /// a fatal fault: front-requeued past backpressure after bounded
    /// exponential backoff, unless its retry/deadline budget is spent
    /// or the queue closed — the caller then fails the request for the
    /// client with the verdict's error code.
    RetryVerdict try_retry(const std::shared_ptr<detail::Entry>& job) {
        job->attempts += 1;
        if (job->attempts > cfg_.max_request_retries) {
            return RetryVerdict::retries_exhausted;
        }
        if (job->deadline.time_since_epoch().count() != 0 &&
            std::chrono::steady_clock::now() >= job->deadline) {
            return RetryVerdict::past_deadline;
        }
        // Injected run faults model first-attempt hazards: a fresh
        // runner would re-arm spec.inject every attempt and never
        // converge, so the re-dispatch runs the clean product. (The
        // entry and its key are unchanged — every attached waiter gets
        // the result.)
        job->spec.inject.clear();
        const int shift = std::min(job->attempts - 1, 3);
        std::this_thread::sleep_for(cfg_.retry_backoff * (1 << shift));
        retried_.fetch_add(1, std::memory_order_relaxed);
        return queue_.requeue(job) ? RetryVerdict::requeued
                                   : RetryVerdict::queue_closed;
    }

    void worker_loop(std::size_t w) {
        obs::name_this_thread("forecast worker " + std::to_string(w));
        long long jobs_popped = 0;
        std::shared_ptr<detail::Entry> job;
        while (true) {
            // A quarantined slot stops serving: it probes itself until
            // a clean canary reinstates it (or the queue closes).
            if (quarantined_[w].load(std::memory_order_acquire)) {
                if (!canary_probe(w)) break;
                continue;
            }
            if (!queue_.pop(job)) break;
            // Route this execution's j-slab loops to the worker's own
            // pool (inline when single-threaded): concurrent requests
            // share machine capacity without sharing a run_region.
            ThreadPool::ScopedOverride pool_guard(*pools_[w]);
            obs::TraceSpan span("forecast_request",
                                static_cast<long long>(w), "server");
            if (obs::metrics_enabled()) {
                obs::MetricsRegistry::global()
                    .gauge("server.queue_depth")
                    .set(static_cast<double>(queue_.size()));
            }
            const long long job_idx = jobs_popped++;
            ForecastResult res;
            bool fatal_fault = false;   // quarantine + ladder
            std::string fault_what;
            try {
                if (injector_.enabled()) {
                    std::lock_guard lock(injector_mutex_);
                    if (injector_.poison_worker(static_cast<Index>(w),
                                                job_idx)) {
                        throw resilience::WorkerPoisonError(
                            static_cast<Index>(w), job_idx);
                    }
                }
                res = run_forecast(job->spec, resolve_warm(job->spec),
                                   cfg_.keep_state);
            } catch (const resilience::WorkerPoisonError& e) {
                fatal_fault = true;
                fault_what = e.what();
            } catch (const cluster::FatalFaultError& e) {
                // The runner's verdict with suspect-rank attribution:
                // the implicated worker slot is the one that ran it.
                fatal_fault = true;
                fault_what = e.what();
                if (obs::metrics_enabled()) {
                    for (const Index r : e.suspect_ranks) {
                        (void)r;
                        obs::MetricsRegistry::global()
                            .counter("server.suspect_ranks")
                            .add();
                    }
                }
            } catch (const BadRequestError& e) {
                // The client named something the server cannot serve
                // (e.g. an unknown warm-start checkpoint): typed
                // bad_request, no ladder.
                res = ForecastResult{};
                res.executed = job->spec;
                res.error = e.what();
                res.code = ErrorCode::bad_request;
            } catch (const std::exception& e) {
                // Ordinary request failure: the request's problem, not
                // the worker's — no ladder, but an internal_fault code
                // (the server accepted a request it could not run).
                res = ForecastResult{};
                res.executed = job->spec;
                res.error = e.what();
                res.code = ErrorCode::internal_fault;
            }
            if (fatal_fault) {
                quarantine(w, fault_what);
                const RetryVerdict verdict = try_retry(job);
                if (verdict == RetryVerdict::requeued) {
                    job.reset();
                    continue;  // re-dispatched; this slot goes to canary
                }
                res = ForecastResult{};
                res.executed = job->spec;
                if (verdict == RetryVerdict::past_deadline) {
                    res.error = "deadline exceeded after fatal fault: " +
                                fault_what;
                    res.code = ErrorCode::deadline_exceeded;
                } else {
                    res.error =
                        "fatal fault, retries exhausted: " + fault_what;
                    res.code = ErrorCode::internal_fault;
                }
            }
            res.degrade_level = job->degrade_level;
            if (res.ok()) {
                completed_.fetch_add(1, std::memory_order_relaxed);
                observe_service_ms(res.latency_ms);
                if (obs::metrics_enabled()) {
                    obs::MetricsRegistry::global()
                        .histogram("server.latency_us")
                        .observe(res.latency_ms * 1.0e3);
                }
                if (results_ != nullptr) {
                    // Spill the result (compact JSON, no state) so a
                    // restarted server can answer this product from
                    // disk.
                    results_->put(
                        job->key,
                        wire::result_to_json(res).dump_compact());
                }
            } else {
                failed_.fetch_add(1, std::memory_order_relaxed);
                forget(job->key);  // do not cache failures
            }
            job->complete(std::move(res));
            job.reset();
        }
    }

    ServerConfig cfg_;
    RequestQueue<std::shared_ptr<detail::Entry>> queue_;
    std::unique_ptr<CheckpointStore> store_;
    /// Durable RESULT cache (wrapped-blob JSON keyed on canonical_key);
    /// nullptr without store_dir or with keep_state.
    std::unique_ptr<DurableCheckpointStore> results_;
    resilience::FaultInjector injector_;
    std::mutex injector_mutex_;  ///< unlike rank hooks, workers race here
    long long warm_resolutions_ = 0;  ///< guarded by injector_mutex_
    std::unique_ptr<std::atomic<bool>[]> quarantined_;
    std::vector<std::unique_ptr<ThreadPool>> pools_;
    std::vector<std::thread> workers_;

    std::mutex cache_mutex_;
    std::unordered_map<std::string, std::shared_ptr<detail::Entry>> cache_;

    std::atomic<std::uint64_t> submitted_{0};
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> failed_{0};
    std::atomic<std::uint64_t> dedup_hits_{0};
    std::atomic<std::uint64_t> durable_hits_{0};
    std::atomic<std::uint64_t> degraded_{0};
    std::atomic<std::uint64_t> shed_{0};
    std::atomic<std::uint64_t> retried_{0};
    std::atomic<std::uint64_t> quarantined_count_{0};
    std::atomic<std::uint64_t> reinstated_{0};
    std::atomic<std::uint64_t> ewma_bits_{0};  ///< EWMA ms as double bits
    std::uint64_t provider_id_ = 0;  ///< metrics snapshot provider handle
    std::atomic<bool> stopped_{false};
};

}  // namespace asuca::server
