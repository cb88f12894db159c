// Cost of the observability subsystem on the full RK3/HE-VI step.
//
// The trace recorder and the metrics registry stay compiled into every
// kernel and driver (KernelScope is a span, the stepper counts steps),
// so their disabled-mode cost — one relaxed atomic load per would-be
// event — is paid on every production run. This bench quantifies that
// cost and the enabled-mode cost on the same case, in three
// configurations:
//
//   disabled   — tracing and metrics off (the production default);
//   enabled    — both recording: every kernel/stage/substep span lands
//                in the per-thread rings, every counter increments;
//   exporting  — the one-time cost of serializing the recorded rings to
//                Chrome trace-event JSON (paid once per run, reported
//                separately — it is not a per-step cost).
//
// Results go to BENCH_trace_overhead.json. The acceptance bar for the
// subsystem is: `disabled` within noise of a build without
// instrumentation, `enabled` a few percent.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/core/model.hpp"
#include "src/observability/metrics.hpp"
#include "src/observability/trace.hpp"
#include "src/parallel/thread_pool.hpp"

using namespace asuca;
using namespace asuca::bench;

namespace {

double best_seconds_per_step(AsucaModel<double>& model, int steps,
                             int reps) {
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        Timer t;
        t.start();
        model.run(steps);
        t.stop();
        const double s = t.seconds() / steps;
        if (best == 0.0 || s < best) best = s;
    }
    return best;
}

}  // namespace

int main(int argc, char** argv) {
    title("Observability overhead — trace spans + metrics on the full step");

    Int3 mesh{48, 32, 32};
    int steps = 2;
    int reps = 3;
    if (argc > 3) {
        mesh = {std::atoll(argv[1]), std::atoll(argv[2]),
                std::atoll(argv[3])};
    }
    if (argc > 4) steps = std::atoi(argv[4]);
    if (argc > 5) reps = std::atoi(argv[5]);

    std::printf("  mesh %lldx%lldx%lld, best of %d reps x %d steps\n",
                static_cast<long long>(mesh.x),
                static_cast<long long>(mesh.y),
                static_cast<long long>(mesh.z), reps, steps);

    const auto model = make_host_model(mesh);

    // disabled — the production default (instrumentation compiled in,
    // every emission gated on one relaxed load).
    obs::TraceRecorder::global().disable();
    obs::MetricsRegistry::global().disable();
    const double s_disabled = best_seconds_per_step(*model, steps, reps);

    // enabled — spans land in the rings, counters increment.
    obs::TraceRecorder::global().enable();
    obs::MetricsRegistry::global().enable();
    const double s_enabled = best_seconds_per_step(*model, steps, reps);
    obs::TraceRecorder::global().disable();
    obs::MetricsRegistry::global().disable();

    // exporting — one-time serialization of the recorded rings.
    Timer t_export;
    t_export.start();
    const io::JsonValue trace = obs::TraceRecorder::global().chrome_trace();
    t_export.stop();
    const std::size_t n_events = trace.at("traceEvents").as_array().size();

    std::printf("  %-12s %14s %12s\n", "variant", "s/step", "overhead");
    std::printf("  %-12s %14.4f %12s\n", "disabled", s_disabled, "--");
    std::printf("  %-12s %14.4f %+11.1f%%\n", "enabled", s_enabled,
                100.0 * (s_enabled - s_disabled) / s_disabled);
    std::printf("  export: %.1f ms for %zu events (%zu threads, "
                "%llu dropped)\n",
                1e3 * t_export.seconds(), n_events,
                obs::TraceRecorder::global().thread_count(),
                static_cast<unsigned long long>(
                    obs::TraceRecorder::global().dropped()));

    io::JsonValue doc;
    doc.set("config", "mountain_wave_warm_rain");
    doc.set("mesh", io::JsonArray{io::JsonValue(mesh.x),
                                  io::JsonValue(mesh.y),
                                  io::JsonValue(mesh.z)});
    doc.set("timed_steps", steps);
    doc.set("disabled_seconds_per_step", s_disabled);
    doc.set("enabled_seconds_per_step", s_enabled);
    doc.set("enabled_overhead", (s_enabled - s_disabled) / s_disabled);
    doc.set("export_seconds", t_export.seconds());
    doc.set("exported_events", static_cast<long long>(n_events));
    doc.set("trace_threads",
            static_cast<long long>(
                obs::TraceRecorder::global().thread_count()));
    doc.set("dropped_events",
            static_cast<double>(obs::TraceRecorder::global().dropped()));
    return write_json("BENCH_trace_overhead.json", doc) ? 0 : 1;
}
