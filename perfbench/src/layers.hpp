// Per-layer attribution of a traced run, read from outside the program:
// the KernelRegistry records, the TraceRecorder spans and the
// MetricsRegistry counters the library already emits, plus the host
// roofline measured in the same run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/instrument/calibration.hpp"
#include "src/instrument/kernel_registry.hpp"
#include "src/observability/trace.hpp"

#include "metric_names.hpp"

namespace perfbench {

/// The per-layer metric a kernel's time is booked under. Every kernel
/// lands somewhere: anything not named here goes to core.other_ms.
inline std::string kernel_group(const std::string& k) {
    if (k == "helmholtz_1d") return "core.helmholtz_ms";
    if (k == "theta_update_half") return "core.theta_half_ms";
    if (k == "pgf_x_short" || k == "pgf_y_short") return "core.pgf_short_ms";
    if (k.rfind("advection_", 0) == 0) return "core.advection_ms";
    if (k == "diffusion" || k == "hyperdiffusion" || k == "sponge") {
        return "core.diffusion_ms";
    }
    if (k == "boundary_ops") return "core.bc_ms";
    if (k == "warm_rain" || k == "precipitation") {
        return "physics.warm_rain_ms";
    }
    for (const char* s : {"continuity", "coriolis", "perturbation_fields",
                          "pgf_x_slow", "pgf_y_slow", "pgf_z_buoyancy",
                          "coordinate_transform", "contravariant_w"}) {
        if (k == s) return "core.slow_ms";
    }
    for (const char* a : {"acoustic_prepare", "eos_pressure",
                          "density_theta_fused", "continuity_update",
                          "theta_update", "pressure_update"}) {
        if (k == a) return "core.acoustic_ms";
    }
    return "core.other_ms";
}

inline const std::vector<std::string>& kernel_group_metrics() {
    static const std::vector<std::string> g = {
        "core.slow_ms",      "core.acoustic_ms",  "core.helmholtz_ms",
        "core.theta_half_ms", "core.pgf_short_ms", "core.advection_ms",
        "core.diffusion_ms", "core.bc_ms",        "core.other_ms",
        "physics.warm_rain_ms"};
    return g;
}

/// Kernel time of a window, grouped by layer metric.
struct KernelTotals {
    std::map<std::string, double> group_s;  ///< metric name -> seconds
    double total_s = 0;
    std::uint64_t calls = 0;
    std::vector<asuca::KernelRecord> records;
};

inline KernelTotals kernel_totals() {
    KernelTotals t;
    for (const auto& g : kernel_group_metrics()) t.group_s[g] = 0.0;
    t.records = asuca::KernelRegistry::global().records();
    for (const auto& r : t.records) {
        t.group_s[kernel_group(r.name)] += r.seconds;
        t.total_s += r.seconds;
        t.calls += r.calls;
    }
    return t;
}

/// Span durations of a traced window, keyed by base name (the " r<n>"
/// rank/worker suffix stripped), plus the per-rank sequence of
/// "rank_step" programs (one per step and rank).
struct SpanTotals {
    std::map<std::string, double> total_ms;
    std::vector<std::vector<double>> rank_step_ms;  ///< [rank][step]
};

inline SpanTotals span_totals(const std::vector<asuca::obs::TraceEvent>& evs) {
    SpanTotals s;
    for (const auto& e : evs) {
        if (e.kind != asuca::obs::TraceKind::Span) continue;
        std::string name = e.name;
        long long rank = -1;
        const auto sp = name.rfind(" r");
        if (sp != std::string::npos && sp + 2 < name.size() &&
            name.find_first_not_of("0123456789", sp + 2) ==
                std::string::npos) {
            rank = std::stoll(name.substr(sp + 2));
            name.resize(sp);
        }
        const double ms = static_cast<double>(e.dur_ns) * 1e-6;
        s.total_ms[name] += ms;
        if (name == "rank_step" && rank >= 0) {
            if (s.rank_step_ms.size() <= static_cast<std::size_t>(rank)) {
                s.rank_step_ms.resize(static_cast<std::size_t>(rank) + 1);
            }
            s.rank_step_ms[static_cast<std::size_t>(rank)].push_back(ms);
        }
    }
    return s;
}

inline double span_ms(const SpanTotals& s,
                      std::initializer_list<const char*> names) {
    double ms = 0;
    for (const char* n : names) {
        const auto it = s.total_ms.find(n);
        if (it != s.total_ms.end()) ms += it->second;
    }
    return ms;
}

/// Write a Chrome trace-event file of the recorded spans, streaming (a
/// traced window holds a few hundred thousand events).
inline bool write_chrome_trace(const std::string& path,
                               const std::vector<asuca::obs::TraceEvent>& evs) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    bool first = true;
    for (const auto& e : evs) {
        std::fprintf(f, "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\","
                        "\"ts\":%.3f,",
                     first ? "" : ",", e.name, e.cat,
                     e.kind == asuca::obs::TraceKind::Span ? "X" : "i",
                     static_cast<double>(e.t_begin_ns) * 1e-3);
        if (e.kind == asuca::obs::TraceKind::Span) {
            std::fprintf(f, "\"dur\":%.3f,",
                         static_cast<double>(e.dur_ns) * 1e-3);
        } else {
            std::fputs("\"s\":\"t\",", f);
        }
        std::fprintf(f, "\"pid\":0,\"tid\":%u}", e.tid);
        first = false;
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

/// End a traced run: stop recording and write the Chrome trace of every
/// retained span to `.bench_out/trace-<workload>-seed<n>.json`.
inline void finish_trace(const std::string& workload, std::uint64_t seed) {
    auto& rec = asuca::obs::TraceRecorder::global();
    rec.disable();
    std::filesystem::create_directories(".bench_out");
    const std::string path = ".bench_out/trace-" + workload + "-seed" +
                             std::to_string(seed) + ".json";
    if (write_chrome_trace(path, rec.events())) {
        std::printf("  chrome trace: %s\n", path.c_str());
    }
}

// ---------------------------------------------------------------------
// Host roofline (the paper's Eq. 6 with this host's measured rates).
// ---------------------------------------------------------------------

struct HostRoofline {
    double stream_gbs = 0;    ///< scale kernel a = s*b, 16 B per element
    double peak_gflops = 0;   ///< independent multiply-add chains
    std::size_t array_bytes = 0;  ///< each of the two stream arrays
    long llc_bytes = 0;
    int threads = 0;
};

template <class Fn>
double best_parallel_seconds(int threads, int reps, Fn&& fn) {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        std::vector<std::thread> ts;
        for (int t = 0; t < threads; ++t) ts.emplace_back(fn, t);
        for (auto& t : ts) t.join();
        best = std::min(best, std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
    }
    return best;
}

/// Streaming bandwidth with two arrays of at least 4x the last-level
/// cache each (64 MiB each when the cache size is unknown), and the
/// multiply-add rate, both on `threads` threads.
inline HostRoofline measure_host_roofline(int threads, long llc_bytes) {
    HostRoofline h;
    h.threads = threads;
    h.llc_bytes = llc_bytes;
    const std::size_t min_bytes = std::size_t(64) << 20;
    h.array_bytes = std::max(min_bytes, 4 * static_cast<std::size_t>(
                                                std::max(0L, llc_bytes)));
    const std::size_t n = h.array_bytes / sizeof(double);
    {
        std::vector<double> a(n), b(n, 1.0);
        const std::size_t chunk = (n + threads - 1) / threads;
        const double secs = best_parallel_seconds(threads, 4, [&](int t) {
            const std::size_t lo = std::min(n, chunk * t);
            const std::size_t hi = std::min(n, lo + chunk);
            for (std::size_t i = lo; i < hi; ++i) a[i] = 1.000001 * b[i];
        });
        h.stream_gbs = 2.0 * static_cast<double>(h.array_bytes) / secs / 1e9;
    }
    {
        // Independent multiply-add chains in the build's baseline SIMD
        // width (two doubles, the width the library is compiled for).
        using V2 = double __attribute__((vector_size(16)));
        constexpr int kChains = 12;
        constexpr long kIters = 20'000'000;
        std::vector<double> sink(static_cast<std::size_t>(threads));
        const double secs = best_parallel_seconds(threads, 3, [&](int t) {
            V2 acc[kChains];
            for (int c = 0; c < kChains; ++c) {
                acc[c] = V2{1.0 + 1e-3 * c, 1.0 + t};
            }
            const V2 m = {0.999999, 0.999999}, add = {1e-6, 1e-6};
            for (long i = 0; i < kIters; ++i) {
#pragma GCC unroll 16
                for (int c = 0; c < kChains; ++c) acc[c] = acc[c] * m + add;
            }
            double s = 0;
            for (int c = 0; c < kChains; ++c) s += acc[c][0] + acc[c][1];
            sink[static_cast<std::size_t>(t)] = s;
        });
        double total = 0;
        for (double s : sink) total += s;
        h.peak_gflops = total > 0 ? 4.0 * kChains * kIters * threads /
                                        secs / 1e9
                                  : 0;
    }
    return h;
}

/// Calibrated FLOPs per element of every kernel (the CountingReal run of
/// the instrument layer), keyed by kernel name. Resets the registry.
inline std::map<std::string, double> calibrated_flops_per_element(
    const asuca::ModelConfig<asuca::CountedDouble>& cfg) {
    const asuca::CalibrationResult cal =
        asuca::calibrate_flops(cfg, {16, 12, 12});
    std::map<std::string, double> out;
    for (const auto& r : cal.records) out[r.name] = r.flops_per_element();
    asuca::KernelRegistry::global().reset();
    return out;
}

/// Bytes a kernel moves per element by its KernelTraits signature
/// (computed, not measured: cache misses are not seen).
inline double computed_bytes_per_element(const asuca::KernelTraits& t) {
    return (t.reads + t.writes) * sizeof(double);
}

}  // namespace perfbench
