// Decomposed execution demo: run the same mountain-wave case on a single
// domain and on a px x py decomposition with real halo exchanges (the
// in-process analog of the paper's multi-GPU MPI runs, Sec. V), then
// verify the two agree to machine precision.
//
//   ./examples/decomposed_run [px py steps] [--inject-fault=KIND]
//                             [--deadline-ms=N]
//                             [--trace=FILE.json] [--metrics=FILE.json]
//
// Every rank runs the step program on its own worker, with halo-consuming
// kernels divided into boundary strips and interior so the halo channels
// overlap compute (paper Sec. V-A methods 2 + 3). --trace writes a Chrome
// trace-event JSON of the run (load it at https://ui.perfetto.dev) with
// per-rank step/halo spans; --metrics writes per-step counter snapshots.
//
// Every run's halo channels bound their waits by a deadline and checksum
// every message. With --inject-fault the runner also executes under the
// resilience policy (rollback snapshots, watchdog, rollback-and-replay),
// --deadline-ms replaces the 5 s default deadline, and a single fault of
// KIND is injected into rank 1 at step 1:
//   nan    — corrupt one prognostic value (transient: recovered, bitwise)
//   halo   — flip a bit of a posted halo strip (transient: recovered)
//   delay  — slow one halo post by deadline/4 (tolerated, no recovery)
//   stall  — hang the rank past the deadline (fatal: every rank exits
//            cleanly with a rank-attributed error; success is the clean,
//            attributed termination, not a bitwise result)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/cluster/multidomain.hpp"
#include "src/core/diagnostics.hpp"
#include "src/core/scenarios.hpp"

using namespace asuca;

int main(int argc, char** argv) {
    std::string fault;
    std::string trace_path;
    std::string metrics_path;
    long long deadline_ms = 2000;
    Index pos[2] = {2, 2};
    int steps = 5;
    int n_pos = 0;
    for (int a = 1; a < argc; ++a) {
        if (std::strncmp(argv[a], "--inject-fault=", 15) == 0) {
            fault = argv[a] + 15;
        } else if (std::strncmp(argv[a], "--deadline-ms=", 14) == 0) {
            deadline_ms = std::atoll(argv[a] + 14);
        } else if (std::strncmp(argv[a], "--trace=", 8) == 0) {
            trace_path = argv[a] + 8;
        } else if (std::strncmp(argv[a], "--metrics=", 10) == 0) {
            metrics_path = argv[a] + 10;
        } else if (std::strncmp(argv[a], "--", 2) == 0) {
            // Not a step count: an unknown (or retired) option.
            std::fprintf(stderr, "unknown option %s\n", argv[a]);
            return 2;
        } else if (n_pos < 2) {
            pos[n_pos++] = std::atoll(argv[a]);
        } else {
            steps = std::atoi(argv[a]);
        }
    }
    const Index px = pos[0], py = pos[1];

    if (!trace_path.empty()) obs::TraceRecorder::global().enable();
    if (!metrics_path.empty()) obs::MetricsRegistry::global().enable();

    auto cfg = scenarios::mountain_wave_config<double>(32, 16, 24);
    ASUCA_REQUIRE(cfg.grid.nx % px == 0 && cfg.grid.ny % py == 0,
                  "decomposition must divide the 32x16 mesh");

    // Reference single-domain run.
    AsucaModel<double> ref(cfg);
    scenarios::init_mountain_wave(ref);
    State<double> initial = ref.state();
    Timer t_single;
    t_single.start();
    for (int n = 0; n < steps; ++n) ref.stepper().step(ref.state());
    t_single.stop();

    // Decomposed run from the same initial state. With a fault requested,
    // run it under the resilience policy.
    cluster::MultiDomainConfig md;
    if (!fault.empty()) {
        using resilience::FaultKind;
        md.resilience.enabled = true;
        md.resilience.checkpoint_interval = 1;
        md.resilience.halo_deadline =
            std::chrono::milliseconds(deadline_ms);
        resilience::Fault f;
        f.rank = px * py > 1 ? 1 : 0;
        f.step = steps > 1 ? 1 : 0;
        if (fault == "nan") {
            f.kind = FaultKind::FieldNaN;
            f.var = VarId::RhoTheta;
            f.i = 2;
            f.j = 2;
            f.k = 2;
        } else if (fault == "halo") {
            f.kind = FaultKind::HaloCorrupt;
        } else if (fault == "delay") {
            f.kind = FaultKind::HaloDelay;
            f.delay = std::chrono::milliseconds(deadline_ms / 4);
        } else if (fault == "stall") {
            f.kind = FaultKind::RankStall;
            f.delay = std::chrono::milliseconds(2 * deadline_ms);
        } else {
            std::fprintf(stderr,
                         "unknown --inject-fault=%s "
                         "(nan|halo|delay|stall)\n",
                         fault.c_str());
            return 2;
        }
        md.resilience.faults.push_back(f);
        std::printf("injecting %s into rank %lld at step %lld "
                    "(halo deadline %lld ms)\n",
                    resilience::fault_kind_name(f.kind), (long long)f.rank,
                    f.step, deadline_ms);
    }
    cluster::MultiDomainRunner<double> runner(cfg.grid, px, py, cfg.species,
                                              cfg.stepper, md);
    obs::MetricsSnapshotter snapshotter;
    if (!metrics_path.empty()) {
        runner.step_hooks().add([&](cluster::MultiDomainRunner<double>& r) {
            snapshotter.record(r.step_index());
        });
    }
    auto write_observability = [&] {
        if (!trace_path.empty()) {
            obs::TraceRecorder::global().disable();
            obs::TraceRecorder::global().write_chrome_trace(trace_path);
            std::printf("trace written to %s (%lld threads)\n",
                        trace_path.c_str(),
                        (long long)obs::TraceRecorder::global()
                            .thread_count());
        }
        if (!metrics_path.empty()) {
            snapshotter.write(metrics_path);
            std::printf("metrics written to %s (%lld step snapshots)\n",
                        metrics_path.c_str(), (long long)snapshotter.size());
        }
    };
    runner.scatter(initial);
    Timer t_multi;
    t_multi.start();
    if (fault == "stall") {
        // A stalled rank is FATAL by design: the deadline fires, every
        // channel is poisoned, and all ranks exit with a rank-attributed
        // error instead of hanging. Demonstrate exactly that.
        try {
            runner.advance(steps);
            std::printf("ERROR: stalled rank was not detected\n");
            return 1;
        } catch (const Error& e) {
            t_multi.stop();
            std::printf("all ranks terminated cleanly:\n  %s\n", e.what());
            write_observability();
            return 0;
        }
    }
    runner.advance(steps);
    t_multi.stop();
    write_observability();
    if (!runner.recovery_log().empty()) {
        std::printf("recovery log: %s\n", runner.recovery_log().c_str());
    }

    Grid<double> grid(cfg.grid);
    State<double> gathered(grid, cfg.species);
    runner.gather(gathered);

    std::printf("mountain wave, %d steps on 32x16x24:\n", steps);
    std::printf("  single domain        : %7.1f ms\n",
                t_single.milliseconds());
    std::printf("  %lldx%lld decomposition     : %7.1f ms (%lld ranks, "
                "halo exchange per phase)\n",
                (long long)px, (long long)py, t_multi.milliseconds(),
                (long long)runner.rank_count());
    const double diff_w = max_abs_diff(ref.state().rhow, gathered.rhow);
    const double diff_th =
        max_abs_diff(ref.state().rhotheta, gathered.rhotheta);
    std::printf("  max |w   difference| : %.3e\n", diff_w);
    std::printf("  max |th  difference| : %.3e\n", diff_th);
    std::printf("  agreement            : %s\n",
                (diff_w == 0.0 && diff_th == 0.0)
                    ? "bitwise (paper: 'within machine round-off')"
                    : "NOT bitwise");
    return (diff_w == 0.0 && diff_th == 0.0) ? 0 : 1;
}
