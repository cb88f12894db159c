// Every metric the benchmark can emit, with its unit: the one list the
// emitter fills and the self-test checks against BENCHMARK.json.
#pragma once

#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/io/json.hpp"

namespace perfbench {

struct MetricDef {
    std::string name;
    std::string unit;
};

/// Kernels whose arithmetic intensity and roofline fraction are reported
/// one by one: the largest shares of the step_single step.
inline const std::vector<std::string>& top_kernels() {
    static const std::vector<std::string> k = {
        "helmholtz_1d", "theta_update_half", "pgf_x_short", "diffusion"};
    return k;
}

/// Emitted by every workload with tracing off.
inline const std::vector<MetricDef>& end_to_end_metrics() {
    static const std::vector<MetricDef> m = {
        {"latency_ms_p50", "ms"},
        {"throughput_per_s", "1/s"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
    };
    return m;
}

/// Emitted by every workload with tracing on. A layer a workload does not
/// exercise reports 0.
inline const std::vector<MetricDef>& per_layer_metrics() {
    static const std::vector<MetricDef> m = [] {
        std::vector<MetricDef> v = {
            {"core.slow_ms", "ms"},
            {"core.acoustic_ms", "ms"},
            {"core.helmholtz_ms", "ms"},
            {"core.theta_half_ms", "ms"},
            {"core.pgf_short_ms", "ms"},
            {"core.advection_ms", "ms"},
            {"core.diffusion_ms", "ms"},
            {"core.bc_ms", "ms"},
            {"core.other_ms", "ms"},
            {"core.kernel_calls", "count"},
            {"core.gflops", "GFLOP/s"},
            {"core.helmholtz_gflops", "GFLOP/s"},
        };
        for (const auto& k : top_kernels()) {
            v.push_back({"core.flop_per_byte." + k, "FLOP/B"});
            v.push_back({"core.roofline_frac." + k, "ratio"});
        }
        const std::vector<MetricDef> rest = {
            {"physics.warm_rain_ms", "ms"},
            {"parallel.unattributed_ms", "ms"},
            {"instrument.coverage", "ratio"},
            {"trace.overhead", "ratio"},
            {"host.stream_gbs", "GB/s"},
            {"host.peak_gflops", "GFLOP/s"},
            {"cluster.halo_wait_ms", "ms"},
            {"cluster.halo_pack_ms", "ms"},
            {"cluster.halo_bytes", "B"},
            {"cluster.halo_messages", "count"},
            {"cluster.rank_step_ms_max", "ms"},
            {"cluster.rank_imbalance", "ratio"},
            {"resilience.snapshot_ms", "ms"},
            {"resilience.snapshot_bytes", "B"},
            {"resilience.watchdog_ms", "ms"},
            {"resilience.integrity_words", "count"},
            {"server.exec_ms_p50", "ms"},
            {"server.overhead_ms_p50", "ms"},
            {"server.cached_rtt_us_p50", "us"},
            {"server.cache_hit_ratio", "ratio"},
            {"server.executed", "count"},
            {"server.retried", "count"},
            {"server.degraded_frac", "ratio"},
            {"server.setup_share", "ratio"},
            {"io.warm_load_ms", "ms"},
            {"wire.codec_us", "us"},
        };
        v.insert(v.end(), rest.begin(), rest.end());
        return v;
    }();
    return m;
}

/// The metrics of one run: exactly the names of one of the two lists,
/// each set once, serialized in list order.
class MetricSet {
  public:
    explicit MetricSet(const std::vector<MetricDef>& defs) : defs_(&defs) {}

    void set(const std::string& name, double value) {
        for (const auto& d : *defs_) {
            if (d.name == name) {
                values_[name] = value;
                return;
            }
        }
        throw std::logic_error("metric '" + name + "' is not declared");
    }

    bool has(const std::string& name) const {
        return values_.count(name) != 0;
    }

    double get(const std::string& name) const { return values_.at(name); }

    /// {"name": {"value": v, "unit": u}, ...}; throws when a declared
    /// metric was never set.
    asuca::io::JsonValue to_json() const {
        asuca::io::JsonValue out = asuca::io::JsonMembers{};
        for (const auto& d : *defs_) {
            const auto it = values_.find(d.name);
            if (it == values_.end()) {
                throw std::logic_error("metric '" + d.name + "' not set");
            }
            asuca::io::JsonValue m;
            m.set("value", it->second);
            m.set("unit", d.unit);
            out.set(d.name, std::move(m));
        }
        return out;
    }

  private:
    const std::vector<MetricDef>* defs_;
    std::map<std::string, double> values_;
};

}  // namespace perfbench
