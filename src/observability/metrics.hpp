// Structured metrics: a process-wide registry of named counters,
// gauges and histograms, with per-step snapshots serialized through
// src/io/json.hpp.
//
// Where the trace recorder (trace.hpp) answers "when did it happen",
// the metrics registry answers "how much of it happened": halo bytes
// moved, messages posted, steps taken, faults injected, rollbacks
// replayed. Instrumented code updates metrics through stable pointers
// (one registry lookup, then lock-free atomic updates), and a
// MetricsSnapshotter attached to a StepHooks subscription turns the
// registry into a per-step time series.
//
// Like tracing, metrics are disabled by default and every hot-path
// update is gated on one relaxed atomic load, so the instrumentation
// can stay compiled into production kernels at near-zero cost.
//
// Thread-safety: counter/gauge/histogram updates are atomic and safe
// from any thread. Registration (registry lookup by name) takes a
// mutex; hot paths must cache the returned reference (function-local
// static or member). snapshot()/reset() are driver operations.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/io/json.hpp"

namespace asuca::obs {

namespace detail {
inline std::atomic<bool> g_metrics_enabled{false};
}

inline bool metrics_enabled() {
    return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Monotonic event count. add() is one relaxed fetch_add when metrics
/// are enabled, one relaxed load when not.
class Counter {
  public:
    void add(std::uint64_t n = 1) {
        if (!metrics_enabled()) return;
        v_.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t value() const {
        return v_.load(std::memory_order_relaxed);
    }
    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> v_{0};
};

/// Last-written value (step time, current CFL, queue depth...).
class Gauge {
  public:
    void set(double v) {
        if (!metrics_enabled()) return;
        v_.store(v, std::memory_order_relaxed);
    }
    double value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> v_{0.0};
};

/// Log2-bucketed histogram of non-negative samples (durations, sizes).
/// Bucket b holds samples in [2^(b-1), 2^b) microunits — callers pick
/// the unit; the dycore records seconds scaled by 1e6 (microseconds).
class Histogram {
  public:
    static constexpr std::size_t kBuckets = 40;

    void observe(double sample) {
        if (!metrics_enabled()) return;
        if (sample < 0.0) sample = 0.0;
        std::size_t b = 0;
        double edge = 1.0;
        while (b + 1 < kBuckets && sample >= edge) {
            edge *= 2.0;
            ++b;
        }
        buckets_[b].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        // Relaxed CAS max/sum: per-sample precision is not needed for
        // bucket stats, but sum/min/max make snapshots human-readable.
        add_double(sum_, sample);
        update_max(max_, sample);
    }

    std::uint64_t count() const {
        return count_.load(std::memory_order_relaxed);
    }
    double sum() const { return load_double(sum_); }
    double max() const { return load_double(max_); }
    double mean() const {
        const std::uint64_t n = count();
        return n > 0 ? sum() / static_cast<double>(n) : 0.0;
    }

    void reset() {
        for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
        count_.store(0, std::memory_order_relaxed);
        sum_.store(0, std::memory_order_relaxed);
        max_.store(0, std::memory_order_relaxed);
    }

  private:
    // Doubles stored as bit patterns in uint64 atomics: std::atomic<double>
    // fetch_add is not universally lock-free, and bitwise CAS loops are.
    static double load_double(const std::atomic<std::uint64_t>& a) {
        const std::uint64_t bits = a.load(std::memory_order_relaxed);
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        return d;
    }
    static void add_double(std::atomic<std::uint64_t>& a, double inc) {
        std::uint64_t expected = a.load(std::memory_order_relaxed);
        for (;;) {
            double cur;
            std::memcpy(&cur, &expected, sizeof(cur));
            const double next = cur + inc;
            std::uint64_t bits;
            std::memcpy(&bits, &next, sizeof(bits));
            if (a.compare_exchange_weak(expected, bits,
                                        std::memory_order_relaxed))
                return;
        }
    }
    static void update_max(std::atomic<std::uint64_t>& a, double v) {
        std::uint64_t expected = a.load(std::memory_order_relaxed);
        for (;;) {
            double cur;
            std::memcpy(&cur, &expected, sizeof(cur));
            if (v <= cur) return;
            std::uint64_t bits;
            std::memcpy(&bits, &v, sizeof(bits));
            if (a.compare_exchange_weak(expected, bits,
                                        std::memory_order_relaxed))
                return;
        }
    }

    std::atomic<std::uint64_t> buckets_[kBuckets] = {};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};  ///< double bits
    std::atomic<std::uint64_t> max_{0};  ///< double bits
};

/// Name -> metric registry. Lookup allocates and takes a mutex; the
/// returned references are stable for the registry's lifetime, so hot
/// paths look up once and cache.
class MetricsRegistry {
  public:
    static MetricsRegistry& global() {
        static MetricsRegistry r;
        return r;
    }

    void enable() {
        detail::g_metrics_enabled.store(true, std::memory_order_release);
    }
    void disable() {
        detail::g_metrics_enabled.store(false, std::memory_order_release);
    }

    Counter& counter(const std::string& name) {
        std::lock_guard lock(mutex_);
        auto& slot = counters_[name];
        if (!slot) slot = std::make_unique<Counter>();
        return *slot;
    }
    Gauge& gauge(const std::string& name) {
        std::lock_guard lock(mutex_);
        auto& slot = gauges_[name];
        if (!slot) slot = std::make_unique<Gauge>();
        return *slot;
    }
    Histogram& histogram(const std::string& name) {
        std::lock_guard lock(mutex_);
        auto& slot = histograms_[name];
        if (!slot) slot = std::make_unique<Histogram>();
        return *slot;
    }

    /// Zero every registered metric (names stay registered).
    void reset() {
        std::lock_guard lock(mutex_);
        for (auto& [_, c] : counters_) c->reset();
        for (auto& [_, g] : gauges_) g->reset();
        for (auto& [_, h] : histograms_) h->reset();
    }

    /// Snapshot providers: components that keep their OWN always-on
    /// tallies (e.g. ForecastServer's stats atomics, which must count
    /// even when the global metrics gate is off) register a callback
    /// that exports them into every snapshot(). This is how a stats
    /// struct and the observability layer share one source of truth
    /// instead of double-counting through parallel counters.
    ///
    /// Providers run inside snapshot() under the registry mutex and
    /// regardless of the enable flag; a provider must only read its
    /// component's state and set() members on the passed object — it
    /// must NOT call back into the registry. Components deregister
    /// (by the returned id) before they are destroyed.
    using SnapshotProvider = std::function<void(io::JsonValue&)>;

    std::uint64_t add_provider(SnapshotProvider fn) {
        std::lock_guard lock(mutex_);
        const std::uint64_t id = next_provider_id_++;
        providers_.emplace(id, std::move(fn));
        return id;
    }
    void remove_provider(std::uint64_t id) {
        std::lock_guard lock(mutex_);
        providers_.erase(id);
    }

    /// One JSON object with every metric's current value. Counters and
    /// gauges become numbers; histograms become {count, mean, max}
    /// summaries (bucket detail stays in-process). Registered snapshot
    /// providers append their component's values last.
    io::JsonValue snapshot() const {
        std::lock_guard lock(mutex_);
        io::JsonValue out;
        for (const auto& [name, c] : counters_) {
            out.set(name, static_cast<double>(c->value()));
        }
        for (const auto& [name, g] : gauges_) {
            out.set(name, g->value());
        }
        for (const auto& [name, h] : histograms_) {
            io::JsonValue s;
            s.set("count", static_cast<double>(h->count()));
            s.set("mean", h->mean());
            s.set("max", h->max());
            out.set(name, std::move(s));
        }
        for (const auto& [_, p] : providers_) p(out);
        return out;
    }

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
    std::map<std::uint64_t, SnapshotProvider> providers_;
    std::uint64_t next_provider_id_ = 1;
};

/// Turns the registry into a per-step time series: attach `record` to
/// a StepHooks subscription and write() the collected rows at the end.
/// Rows carry the CHANGE-revealing raw values (counters are monotonic,
/// so consumers diff adjacent rows for per-step rates).
class MetricsSnapshotter {
  public:
    explicit MetricsSnapshotter(MetricsRegistry& reg =
                                    MetricsRegistry::global())
        : reg_(&reg) {}

    void record(long long step) {
        io::JsonValue row;
        row.set("step", static_cast<double>(step));
        row.set("metrics", reg_->snapshot());
        rows_.push_back(std::move(row));
    }

    std::size_t size() const { return rows_.size(); }

    io::JsonValue to_json() const {
        io::JsonValue doc;
        io::JsonArray steps;
        for (const auto& r : rows_) steps.push_back(r);
        doc.set("steps", std::move(steps));
        return doc;
    }

    void write(const std::string& path) const {
        io::json_save(path, to_json());
    }

  private:
    MetricsRegistry* reg_;
    std::vector<io::JsonValue> rows_;
};

}  // namespace asuca::obs
