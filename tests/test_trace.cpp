// Trace recorder + metrics registry: per-thread ring-buffer semantics
// (concurrent emission, wraparound, disabled-mode zero effect), the
// Chrome trace-event export, and — the property the whole subsystem
// hangs on — that turning tracing and metrics ON changes nothing about
// the numerics: a decomposed run stays bitwise identical to its
// untraced twin with spans and hooks firing throughout.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/multidomain.hpp"
#include "src/core/diagnostics.hpp"
#include "src/core/initial.hpp"
#include "src/io/json.hpp"
#include "src/observability/metrics.hpp"
#include "src/observability/trace.hpp"

namespace asuca::obs {
namespace {

/// Every test leaves the global recorder/registry the way it found it:
/// disabled, with no retained events.
struct TraceGuard {
    ~TraceGuard() {
        TraceRecorder::global().disable();
        TraceRecorder::global().clear();
        MetricsRegistry::global().disable();
        MetricsRegistry::global().reset();
    }
};

TEST(Trace, ConcurrentEmissionKeepsThreadsApart) {
    TraceGuard guard;
    auto& rec = TraceRecorder::global();
    rec.enable(1024);

    constexpr int kThreads = 4;
    constexpr int kSpans = 32;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            name_this_thread("emitter " + std::to_string(t));
            for (int n = 0; n < kSpans; ++n) {
                TraceSpan span("work", t, "test");
            }
            trace_instant("done", t, "test");
        });
    }
    for (auto& th : threads) th.join();
    rec.disable();

    const auto events = rec.events();
    std::set<std::uint32_t> tids;
    int spans = 0, instants = 0;
    for (const auto& e : events) {
        if (std::string(e.cat) != "test") continue;
        tids.insert(e.tid);
        if (e.kind == TraceKind::Span) ++spans;
        if (e.kind == TraceKind::Instant) ++instants;
        EXPECT_GE(e.t_begin_ns, 0);
        EXPECT_GE(e.dur_ns, 0);
    }
    EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
    EXPECT_EQ(spans, kThreads * kSpans);
    EXPECT_EQ(instants, kThreads);
    EXPECT_EQ(rec.dropped(), 0u);
}

TEST(Trace, RingWraparoundKeepsNewestEvents) {
    TraceGuard guard;
    auto& rec = TraceRecorder::global();
    rec.enable(/*capacity_per_thread=*/8);
    for (int n = 0; n < 20; ++n) {
        TraceSpan span(("span" + std::to_string(n)).c_str(), "wrap");
    }
    rec.disable();

    std::vector<std::string> names;
    for (const auto& e : rec.events()) {
        if (std::string(e.cat) == "wrap") names.push_back(e.name);
    }
    // The newest 8 of 20, oldest-first; the rest counted as dropped.
    ASSERT_EQ(names.size(), 8u);
    for (int n = 0; n < 8; ++n) {
        EXPECT_EQ(names[static_cast<std::size_t>(n)],
                  "span" + std::to_string(12 + n));
    }
    EXPECT_EQ(rec.dropped(), 12u);
}

TEST(Trace, DisabledModeEmitsAndRegistersNothing) {
    TraceGuard guard;
    auto& rec = TraceRecorder::global();
    ASSERT_FALSE(trace_enabled());
    const std::size_t threads_before = rec.thread_count();
    const std::size_t events_before = rec.events().size();

    // Spans, instants and thread naming from a brand-new thread: with
    // tracing disabled none of it may register a buffer or emit.
    std::thread([&] {
        name_this_thread("ghost");
        for (int n = 0; n < 100; ++n) {
            TraceSpan span("invisible", "off");
            trace_instant("also invisible", "off");
        }
    }).join();

    EXPECT_EQ(rec.thread_count(), threads_before);
    EXPECT_EQ(rec.events().size(), events_before);
}

TEST(Trace, NestedSpansRecordDepth) {
    TraceGuard guard;
    auto& rec = TraceRecorder::global();
    rec.enable(64);
    {
        TraceSpan outer("outer", "nest");
        {
            TraceSpan inner("inner", "nest");
        }
    }
    rec.disable();
    std::uint16_t outer_depth = 99, inner_depth = 99;
    for (const auto& e : rec.events()) {
        if (std::string(e.name) == "outer") outer_depth = e.depth;
        if (std::string(e.name) == "inner") inner_depth = e.depth;
    }
    EXPECT_EQ(outer_depth, 0);
    EXPECT_EQ(inner_depth, 1);
}

TEST(Trace, ChromeTraceExportParsesAndCarriesEvents) {
    TraceGuard guard;
    auto& rec = TraceRecorder::global();
    rec.enable(256);
    name_this_thread("main driver");
    {
        TraceSpan span("exported_span", "export");
    }
    trace_instant("exported_instant", "export");
    rec.disable();

    // Round-trip through the serializer: the export must be valid JSON
    // in the Chrome trace-event envelope.
    const io::JsonValue doc = io::json_parse(rec.chrome_trace().dump());
    const auto& events = doc.at("traceEvents").as_array();
    bool saw_span = false, saw_instant = false, saw_name = false;
    for (const auto& e : events) {
        const std::string ph = e.at("ph").as_string();
        if (ph == "X" && e.at("name").as_string() == "exported_span") {
            saw_span = true;
            EXPECT_EQ(e.at("cat").as_string(), "export");
            EXPECT_GE(e.at("dur").as_number(), 0.0);
            EXPECT_TRUE(e.has("ts"));
            EXPECT_TRUE(e.has("tid"));
        }
        if (ph == "i" && e.at("name").as_string() == "exported_instant") {
            saw_instant = true;
            EXPECT_EQ(e.at("s").as_string(), "t");
        }
        if (ph == "M" && e.at("name").as_string() == "thread_name") {
            saw_name |= e.at("args").at("name").as_string() == "main driver";
        }
    }
    EXPECT_TRUE(saw_span);
    EXPECT_TRUE(saw_instant);
    EXPECT_TRUE(saw_name);
}

TEST(Metrics, CountersGaugesHistogramsRoundTrip) {
    TraceGuard guard;
    auto& reg = MetricsRegistry::global();
    reg.enable();
    auto& c = reg.counter("test.counter");
    auto& g = reg.gauge("test.gauge");
    auto& h = reg.histogram("test.histogram");
    c.add(3);
    c.add();
    g.set(2.5);
    h.observe(1.0);
    h.observe(3.0);
    reg.disable();
    // Disabled updates are dropped.
    c.add(100);
    h.observe(1000.0);

    EXPECT_EQ(c.value(), 4u);
    EXPECT_EQ(g.value(), 2.5);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.mean(), 2.0);
    EXPECT_EQ(h.max(), 3.0);

    const io::JsonValue snap =
        io::json_parse(reg.snapshot().dump());
    EXPECT_EQ(snap.at("test.counter").as_number(), 4.0);
    EXPECT_EQ(snap.at("test.gauge").as_number(), 2.5);
    EXPECT_EQ(snap.at("test.histogram").at("count").as_number(), 2.0);
    EXPECT_EQ(snap.at("test.histogram").at("mean").as_number(), 2.0);
}

// ---------------------------------------------------------------------
// The load-bearing property: observability must be a pure observer.
// ---------------------------------------------------------------------

GridSpec make_global() {
    GridSpec s;
    s.nx = 24;
    s.ny = 12;
    s.nz = 10;
    s.dx = 1000.0;
    s.dy = 1000.0;
    s.ztop = 10000.0;
    s.terrain = bell_mountain(350.0, 3000.0, 12000.0, 6000.0);
    return s;
}

TimeStepperConfig make_stepper_cfg() {
    TimeStepperConfig cfg;
    cfg.dt = 4.0;
    cfg.n_short_steps = 6;
    cfg.diffusion.kh = 10.0;
    cfg.diffusion.kv = 1.0;
    cfg.sponge.z_start = 8000.0;
    return cfg;
}

TEST(TraceBitwise, TracingOnIsBitwiseIdenticalToTracingOff) {
    TraceGuard guard;
    const auto spec = make_global();
    const auto cfg = make_stepper_cfg();
    const auto species = SpeciesSet::warm_rain();
    constexpr int kSteps = 2;

    Grid<double> grid(spec);
    State<double> initial(grid, species);
    initialize_hydrostatic(grid, AtmosphereProfile::constant_n(292.0, 0.011),
                           8.0, 3.0, initial);
    set_relative_humidity(
        grid, [](double z) { return z < 2000.0 ? 0.8 : 0.3; }, initial);

    cluster::MultiDomainConfig md;
    md.threads_per_rank = 2;

    // Reference: instrumentation disabled (the production default).
    State<double> ref(grid, species);
    {
        cluster::MultiDomainRunner<double> runner(spec, 2, 2, species, cfg,
                                                  md);
        runner.scatter(initial);
        for (int n = 0; n < kSteps; ++n) runner.step();
        runner.gather(ref);
    }

    // Same run with tracing + metrics recording and step hooks attached.
    TraceRecorder::global().enable(4096);
    MetricsRegistry::global().enable();
    State<double> got(grid, species);
    int hook_fired = 0;
    {
        cluster::MultiDomainRunner<double> runner(spec, 2, 2, species, cfg,
                                                  md);
        runner.step_hooks().add(
            [&](cluster::MultiDomainRunner<double>&) { ++hook_fired; });
        runner.scatter(initial);
        for (int n = 0; n < kSteps; ++n) runner.step();
        runner.gather(got);
    }
    TraceRecorder::global().disable();
    MetricsRegistry::global().disable();

    EXPECT_EQ(hook_fired, kSteps);
    EXPECT_EQ(max_abs_diff(ref.rho, got.rho), 0.0);
    EXPECT_EQ(max_abs_diff(ref.rhou, got.rhou), 0.0);
    EXPECT_EQ(max_abs_diff(ref.rhov, got.rhov), 0.0);
    EXPECT_EQ(max_abs_diff(ref.rhow, got.rhow), 0.0);
    EXPECT_EQ(max_abs_diff(ref.rhotheta, got.rhotheta), 0.0);
    EXPECT_EQ(max_abs_diff(ref.p, got.p), 0.0);
    for (std::size_t n = 0; n < species.count(); ++n) {
        EXPECT_EQ(max_abs_diff(ref.tracers[n], got.tracers[n]), 0.0);
    }

    // The traced run must actually have traced: rank-worker and halo
    // spans.
    bool saw_phase = false;
    for (const auto& e : TraceRecorder::global().events()) {
        if (std::string(e.cat) == "phase" || std::string(e.cat) == "halo") {
            saw_phase = true;
            break;
        }
    }
    EXPECT_TRUE(saw_phase);
}

}  // namespace
}  // namespace asuca::obs
