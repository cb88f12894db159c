// Per-kernel performance accounting.
//
// Every dycore/physics kernel invocation is wrapped in a KernelScope that
// records wall time, processed elements, and the FLOPs retired inside the
// scope (nonzero when the model is instantiated with CountingReal). Each
// kernel also declares its memory-traffic signature — how many distinct
// field reads and writes it performs per element, and how many of the
// reads are stencil-neighbor re-reads that a software-managed cache
// (shared memory, paper Sec. IV-A-2) can serve. The GPU performance model
// consumes these records to evaluate the paper's Eq. (6).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/timer.hpp"
#include "src/instrument/flop_counter.hpp"
#include "src/observability/trace.hpp"

namespace asuca {

/// Static memory-traffic signature of a kernel (per interior element).
struct KernelTraits {
    double reads = 0;   ///< distinct field values loaded per element
    double writes = 0;  ///< field values stored per element
    /// Additional neighbor loads a cache-less execution would perform;
    /// shared-memory tiling (or a CPU cache) serves these without device-
    /// memory traffic. Used by the GPU model's no-shared-memory ablation.
    double stencil_reads = 0;
    /// Fraction of GPU time spent in non-FP, non-memory work (the alpha
    /// term of Eq. 6); zero for all streaming kernels.
    double alpha_seconds_per_element = 0;
};

struct KernelRecord {
    std::string name;
    KernelTraits traits;
    std::uint64_t calls = 0;
    std::uint64_t elements = 0;
    std::uint64_t flops = 0;   ///< counted by CountingReal instrumentation
    double seconds = 0.0;      ///< measured wall time (CPU execution)

    double flops_per_element() const {
        return elements ? static_cast<double>(flops) /
                              static_cast<double>(elements)
                        : 0.0;
    }
};

class KernelRegistry {
  public:
    static KernelRegistry& global() {
        static KernelRegistry r;
        return r;
    }

    /// Add one call of kernel `name`. The name is copied into a string
    /// only on the kernel's first record.
    void record(const char* name, const KernelTraits& traits,
                std::uint64_t elements, std::uint64_t flops, double seconds) {
        std::lock_guard lock(mutex_);
        auto it = records_.find(name);
        if (it == records_.end()) {
            it = records_.emplace(name, KernelRecord{}).first;
            it->second.name = it->first;
        }
        auto& rec = it->second;
        rec.traits = traits;
        rec.calls += 1;
        rec.elements += elements;
        rec.flops += flops;
        rec.seconds += seconds;
    }

    void reset() {
        std::lock_guard lock(mutex_);
        records_.clear();
    }

    std::vector<KernelRecord> records() const {
        std::lock_guard lock(mutex_);
        std::vector<KernelRecord> out;
        out.reserve(records_.size());
        for (const auto& [_, rec] : records_) out.push_back(rec);
        return out;
    }

    KernelRecord find(std::string_view name) const {
        std::lock_guard lock(mutex_);
        auto it = records_.find(name);
        return it == records_.end() ? KernelRecord{} : it->second;
    }

    std::uint64_t total_flops() const {
        std::lock_guard lock(mutex_);
        std::uint64_t total = 0;
        for (const auto& [_, rec] : records_) total += rec.flops;
        return total;
    }

  private:
    mutable std::mutex mutex_;
    std::map<std::string, KernelRecord, std::less<>> records_;
};

/// RAII scope: times a kernel invocation and attributes the FLOPs counted
/// while it was alive. Doubles as a trace span (category "kernel"), so
/// an enabled TraceRecorder shows every kernel invocation on the
/// timeline with the same name the registry aggregates under. `name`
/// must outlive the scope (kernel names are string literals or static
/// tables), so opening a scope allocates nothing.
class KernelScope {
  public:
    KernelScope(const char* name, KernelTraits traits, std::uint64_t elements,
                KernelRegistry* registry = &KernelRegistry::global())
        : name_(name), traits_(traits), elements_(elements),
          registry_(registry), flops_begin_(FlopCounter::value()),
          span_(name, "kernel") {
        timer_.start();
    }

    KernelScope(const KernelScope&) = delete;
    KernelScope& operator=(const KernelScope&) = delete;

    ~KernelScope() {
        timer_.stop();
        if (registry_ != nullptr) {
            registry_->record(name_, traits_, elements_,
                              FlopCounter::value() - flops_begin_,
                              timer_.seconds());
        }
    }

  private:
    const char* name_;
    KernelTraits traits_;
    std::uint64_t elements_;
    KernelRegistry* registry_;
    std::uint64_t flops_begin_;
    obs::TraceSpan span_;  ///< destructs after timer_.stop() records
    Timer timer_;
};

}  // namespace asuca
