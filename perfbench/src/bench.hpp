// Shared pieces of the three workloads: run options, the outcome record
// (attempted / failed operations and checks) and the timed-window loop.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "metric_names.hpp"
#include "stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

/// Operations and correctness checks of one run. Every failure counts
/// toward `failed` and clears `correct`.
struct Outcome {
    bool correct = true;
    long long attempted = 0;
    long long failed = 0;

    /// One correctness check (outside the timed window).
    void check(bool ok, const std::string& what) {
        ++attempted;
        std::printf("  check %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
        if (!ok) {
            ++failed;
            correct = false;
        }
    }
};

/// Median-of-repeats set-up time: builds the workload `reps` times (the
/// last build is the one measured) and returns the median seconds.
inline double timed_setup(int reps, const std::function<void()>& build) {
    std::vector<double> secs;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        build();
        secs.push_back(seconds_since(t0));
    }
    return median(secs);
}

/// Per-operation wall times of a window and when each operation ended
/// (seconds since the window opened).
struct Window {
    std::vector<double> op_s;
    std::vector<double> done_s;
    double wall_s = 0;
};

/// Run `op` until `seconds` have passed (at least once).
inline Window run_window(double seconds, const std::function<void()>& op) {
    Window w;
    const auto start = Clock::now();
    do {
        const auto t0 = Clock::now();
        op();
        w.op_s.push_back(seconds_since(t0));
        w.done_s.push_back(seconds_since(start));
    } while (w.done_s.back() < seconds);
    w.wall_s = seconds_since(start);
    return w;
}

inline double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The end-to-end metrics every workload reports from its untraced
/// window: median latency per operation, completed operations per second
/// (chunked_rate over `done_s`), set-up time and peak memory. The p90 and
/// its sample count are printed beside them; they are not a gated metric,
/// because on a shared host the tail moves with every neighbour's burst.
inline void set_end_to_end(MetricSet& m, const std::vector<double>& op_ms,
                           const std::vector<double>& done_s, double setup_s) {
    const double p90 = quantile(op_ms, 0.9);
    std::printf("  %zu operations, %zu beyond p90; ms min %.2f p10 %.2f "
                "p50 %.2f p90 %.2f max %.2f\n",
                op_ms.size(), count_above(op_ms, p90), quantile(op_ms, 0),
                quantile(op_ms, 0.1), median(op_ms), p90,
                quantile(op_ms, 1));
    m.set("latency_ms_p50", median(op_ms));
    m.set("throughput_per_s", chunked_rate(done_s));
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", peak_rss_mb());
}

/// Every per-layer metric a workload does not exercise reads 0.
inline void zero_unset(MetricSet& m) {
    for (const auto& d : per_layer_metrics()) {
        if (!m.has(d.name)) m.set(d.name, 0.0);
    }
}

void run_step_single(const Options& opt, Outcome& out, MetricSet& m);
void run_step_2x2(const Options& opt, Outcome& out, MetricSet& m);
void run_serve_mix(const Options& opt, Outcome& out, MetricSet& m);

}  // namespace perfbench
