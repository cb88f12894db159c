// The two step workloads: the paper's Sec. IV-B mountain wave with warm
// rain at 64x48x32, stepped on one domain by a 4-thread j-slab pool
// (step_single), and the same mesh and initial state stepped by a guarded
// 2x2 MultiDomainRunner with one thread per rank (step_2x2).
#include <cstring>
#include <memory>

#include "src/cluster/multidomain.hpp"
#include "src/core/scenarios.hpp"
#include "src/observability/metrics.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/server/ensemble.hpp"
#include "src/verify/invariants.hpp"

#include "bench.hpp"
#include "envelope.hpp"
#include "layers.hpp"

namespace perfbench {
namespace {

using asuca::AsucaModel;
using asuca::Index;
using asuca::State;
using Runner = asuca::cluster::MultiDomainRunner<double>;

constexpr Index kNx = 64, kNy = 48, kNz = 32;
constexpr int kThreads = 4;       ///< j-slab pool width / rank count
constexpr int kWarmupSteps = 2;   ///< part of set-up, before any timing
constexpr int kSetupReps = 3;     ///< set-up is repeated; median reported
/// Mass may drift by round-off only: the conservation-ledger bound of
/// the verification suite, per step.
constexpr double kMassDriftPerStep = 1e-12;
constexpr std::size_t kTraceCapacity = std::size_t(1) << 19;

asuca::ModelConfig<double> step_config() {
    return asuca::scenarios::mountain_wave_config<double>(kNx, kNy, kNz,
                                                          true);
}

/// The seeded initial state: mountain wave with warm-rain tracers, theta
/// perturbed by 1e-3 K noise drawn from the seed.
std::unique_ptr<AsucaModel<double>> initial_model(std::uint64_t seed) {
    auto model = std::make_unique<AsucaModel<double>>(step_config());
    asuca::scenarios::init_mountain_wave(*model);
    asuca::server::perturb_theta(model->state(), seed, 1.0e-3);
    model->stepper().apply_state_bcs(model->state());
    return model;
}

bool bitwise_equal(const State<double>& a, const State<double>& b) {
    auto same = [](const asuca::Array3<double>& x,
                   const asuca::Array3<double>& y) {
        return x.size() == y.size() &&
               std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) ==
                   0;
    };
    if (a.tracers.size() != b.tracers.size()) return false;
    for (std::size_t n = 0; n < a.tracers.size(); ++n) {
        if (!same(a.tracers[n], b.tracers[n])) return false;
    }
    return same(a.rho, b.rho) && same(a.rhou, b.rhou) &&
           same(a.rhov, b.rhov) && same(a.rhow, b.rhow) &&
           same(a.rhotheta, b.rhotheta) && same(a.p, b.p);
}

double snapshot_value(const asuca::io::JsonValue& snap, const char* name) {
    return snap.has(name) && snap.at(name).is_number()
               ? snap.at(name).as_number()
               : 0.0;
}

/// Traced-window attribution shared by both step workloads. `lanes` is
/// how many kernel issuers run at once: 1 on the j-slab pool (a kernel
/// scope spans its whole parallel region), the rank count on the runner.
void attribute_steps(const Window& untraced, const Window& traced,
                     const std::map<std::string, double>& flops_per_elem,
                     const HostRoofline& roof, int lanes, MetricSet& m) {
    const KernelTotals kt = kernel_totals();
    const auto snap = asuca::obs::MetricsRegistry::global().snapshot();
    const auto events = asuca::obs::TraceRecorder::global().events();
    const SpanTotals spans = span_totals(events);
    const double n = static_cast<double>(traced.op_s.size());
    double wall = 0;
    for (double s : traced.op_s) wall += s;

    for (const auto& [group, s] : kt.group_s) m.set(group, 1e3 * s / n);
    m.set("core.kernel_calls", static_cast<double>(kt.calls) / n);

    double flops = 0;
    std::printf("  %-24s %8s %9s %9s %8s %8s %9s\n", "kernel", "calls",
                "ms/step", "flop/el", "flop/B", "GFLOP/s", "roofline");
    auto sorted = kt.records;
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.seconds > b.seconds; });
    for (const auto& r : sorted) {
        const auto it = flops_per_elem.find(r.name);
        const double fpe = it == flops_per_elem.end() ? 0.0 : it->second;
        const double kflops = fpe * static_cast<double>(r.elements);
        flops += kflops;
        const double bytes = computed_bytes_per_element(r.traits);
        const double fpb = bytes > 0 ? fpe / bytes : 0.0;
        const double gflops =
            r.seconds > 0 ? kflops * lanes / r.seconds / 1e9 : 0.0;
        const double bound =
            std::min(roof.peak_gflops, roof.stream_gbs * fpb);
        const double frac = bound > 0 ? gflops / bound : 0.0;
        std::printf("  %-24s %8.1f %9.3f %9.1f %8.3f %8.2f %9.3f\n",
                    r.name.c_str(), static_cast<double>(r.calls) / n,
                    1e3 * r.seconds / n, fpe, fpb, gflops, frac);
        for (const auto& top : top_kernels()) {
            if (top != r.name) continue;
            m.set("core.flop_per_byte." + top, fpb);
            m.set("core.roofline_frac." + top, frac);
        }
        if (r.name == "helmholtz_1d") m.set("core.helmholtz_gflops", gflops);
    }
    std::printf("  kernel FLOPs are calibrated counts, bytes are computed "
                "from KernelTraits (cache misses unseen)\n");
    m.set("core.gflops", flops / wall / 1e9);
    m.set("parallel.unattributed_ms", 1e3 * (wall - kt.total_s / lanes) / n);
    m.set("instrument.coverage", kt.total_s / (lanes * wall));
    m.set("trace.overhead", median(traced.op_s) / median(untraced.op_s));
    m.set("host.stream_gbs", roof.stream_gbs);
    m.set("host.peak_gflops", roof.peak_gflops);

    if (lanes > 1) {
        m.set("cluster.halo_wait_ms",
              span_ms(spans, {"halo_wait", "halo_post_wait"}) / n);
        m.set("cluster.halo_pack_ms",
              span_ms(spans, {"halo_pack_x", "halo_pack_y", "halo_unpack_x",
                              "halo_unpack_y"}) /
                  n);
        m.set("cluster.halo_bytes", snapshot_value(snap, "halo.bytes") / n);
        m.set("cluster.halo_messages",
              snapshot_value(snap, "halo.messages") / n);
        // Per step: the slowest rank program, and its ratio to the mean.
        std::size_t steps = spans.rank_step_ms.empty()
                                ? 0
                                : spans.rank_step_ms.front().size();
        for (const auto& r : spans.rank_step_ms) {
            steps = std::min(steps, r.size());
        }
        double max_sum = 0, ratio_sum = 0;
        for (std::size_t s = 0; s < steps; ++s) {
            double mx = 0, sum = 0;
            for (const auto& r : spans.rank_step_ms) {
                mx = std::max(mx, r[s]);
                sum += r[s];
            }
            max_sum += mx;
            ratio_sum += mx / (sum / static_cast<double>(
                                         spans.rank_step_ms.size()));
        }
        if (steps > 0) {
            m.set("cluster.rank_step_ms_max", max_sum / steps);
            m.set("cluster.rank_imbalance", ratio_sum / steps);
        }
        m.set("resilience.snapshot_ms",
              span_ms(spans, {"snapshot_copy", "snapshot_sync"}) / n);
        m.set("resilience.snapshot_bytes",
              snapshot_value(snap, "resilience.snapshot_bytes") / n);
        m.set("resilience.watchdog_ms", span_ms(spans, {"watchdog_scan"}) / n);
        m.set("resilience.integrity_words",
              snapshot_value(snap, "resilience.integrity_words") / n);
    }
    std::printf("  traced: %zu steps, %zu spans (%llu dropped), kernel "
                "coverage %.3f\n",
                traced.op_s.size(), events.size(),
                static_cast<unsigned long long>(
                    asuca::obs::TraceRecorder::global().dropped()),
                m.get("instrument.coverage"));
}

/// What both step workloads do after set-up and the warm gate: the timed
/// window (split in two halves, untraced then traced, with --trace 1),
/// then the end-to-end or per-layer metrics. Recording stays on for the
/// caller's final checks; finish_trace() ends it.
void measure_steps(const Options& opt, MetricSet& m, double setup_s,
                   int lanes, bool fused_calibration, const char* span_name,
                   const std::function<void()>& step) {
    if (!opt.trace) {
        const Window w = run_window(opt.seconds, step);
        std::vector<double> ms;
        for (double s : w.op_s) ms.push_back(1e3 * s);
        set_end_to_end(m, ms, w.done_s, setup_s);
        return;
    }
    const Window untraced = run_window(opt.seconds / 2, step);
    auto cal_cfg = asuca::scenarios::mountain_wave_config<asuca::CountedDouble>(
        16, 12, 12, true);
    cal_cfg.stepper.acoustic.fuse_density_theta = fused_calibration;
    const auto fpe = calibrated_flops_per_element(cal_cfg);
    const HostRoofline roof =
        measure_host_roofline(kThreads, last_level_cache_bytes());
    std::printf("  host roofline: %.1f GB/s stream (2 arrays of %.0f MiB, "
                "LLC %.0f MiB), %.1f GFLOP/s multiply-add, %d threads\n",
                roof.stream_gbs, roof.array_bytes / 1048576.0,
                roof.llc_bytes / 1048576.0, roof.peak_gflops, roof.threads);

    asuca::KernelRegistry::global().reset();
    auto& metrics = asuca::obs::MetricsRegistry::global();
    metrics.reset();
    metrics.enable();
    asuca::obs::TraceRecorder::global().enable(kTraceCapacity);
    const Window traced = run_window(opt.seconds / 2, [&] {
        asuca::obs::TraceSpan span(span_name, "bench");
        step();
    });
    metrics.disable();
    attribute_steps(untraced, traced, fpe, roof, lanes, m);
    zero_unset(m);
}

void check_mass(Outcome& out, double before, double after, long long steps) {
    const double drift = std::abs(after - before) / std::abs(before);
    char what[96];
    std::snprintf(what, sizeof(what), "mass drift %.2e over %lld steps",
                  drift, steps);
    out.check(drift <= kMassDriftPerStep * static_cast<double>(steps), what);
}

}  // namespace

void run_step_single(const Options& opt, Outcome& out, MetricSet& m) {
    asuca::ThreadPool::set_global_threads(kThreads);
    std::unique_ptr<AsucaModel<double>> model;
    const double setup_s = timed_setup(kSetupReps, [&] {
        model.reset();
        model = initial_model(opt.seed);
        model->run(kWarmupSteps);
    });

    // Gate: the 4-thread warm-up equals a 1-thread replay bit for bit.
    {
        asuca::ThreadPool::set_global_threads(1);
        auto replay = initial_model(opt.seed);
        replay->run(kWarmupSteps);
        out.check(bitwise_equal(model->state(), replay->state()),
                  "4-thread warm-up == 1-thread replay (bitwise)");
        asuca::ThreadPool::set_global_threads(kThreads);
    }

    const double mass0 = model->total_mass();
    const auto steps0 = model->step_count();
    measure_steps(opt, m, setup_s, 1, false, "model.step",
                  [&] { model->step(); });
    const long long steps = model->step_count() - steps0;
    out.attempted += steps;
    out.check(model->is_finite(), "state finite after the window");
    check_mass(out, mass0, model->total_mass(), steps);
    if (opt.trace) finish_trace(opt.workload, opt.seed);
}

void run_step_2x2(const Options& opt, Outcome& out, MetricSet& m) {
    // Rank workers carry the parallelism; the process pool stays inline.
    asuca::ThreadPool::set_global_threads(1);
    const auto cfg = step_config();
    asuca::cluster::MultiDomainConfig md;
    md.overlap = asuca::cluster::OverlapMode::Split;
    md.threads_per_rank = 1;
    md.resilience.enabled = true;
    md.resilience.checkpoint_interval = 1;

    std::unique_ptr<AsucaModel<double>> init;
    std::unique_ptr<Runner> runner;
    const double setup_s = timed_setup(kSetupReps, [&] {
        runner.reset();
        init = initial_model(opt.seed);
        runner = std::make_unique<Runner>(cfg.grid, 2, 2, cfg.species,
                                          cfg.stepper, md);
        runner->scatter(init->state());
        runner->advance(kWarmupSteps);
    });

    // Gate: the gathered decomposed state equals a single-domain run of
    // the same dycore-with-tracers configuration bit for bit.
    {
        asuca::ThreadPool::set_global_threads(kThreads);
        auto reference = initial_model(opt.seed);
        for (int s = 0; s < kWarmupSteps; ++s) {
            reference->stepper().step(reference->state());
        }
        State<double> gathered = init->state();
        runner->gather(gathered);
        reference->stepper().apply_state_bcs(gathered);
        out.check(bitwise_equal(gathered, reference->state()),
                  "2x2 warm-up == single-domain run (bitwise)");
        out.check(runner->resilience_enabled(), "runner guarded");
        asuca::ThreadPool::set_global_threads(1);
    }

    const double mass0 =
        asuca::verify::compute_rank_sum_invariants(*runner).total_mass;
    const long long steps0 = runner->step_index();
    measure_steps(opt, m, setup_s, kThreads, true, "runner.advance",
                  [&] { runner->advance(1); });
    const long long steps = runner->step_index() - steps0;
    out.attempted += steps;
    State<double> gathered = init->state();
    {
        asuca::obs::TraceSpan span("gather", "bench");
        runner->gather(gathered);
    }
    out.check(asuca::state_is_finite(gathered),
              "gathered state finite after the window");
    check_mass(out, mass0,
               asuca::verify::compute_rank_sum_invariants(*runner).total_mass,
               steps);
    out.check(runner->recovery_log().empty(), "no rollback during the run");
    if (opt.trace) finish_trace(opt.workload, opt.seed);
}

}  // namespace perfbench
