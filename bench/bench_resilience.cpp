// Cost of the resilience subsystem when nothing goes wrong.
//
// Recovery must be paid for only when armed: this bench measures the
// concurrent multi-domain executor's seconds per long step across a
// per-feature ablation on the same case, so the remaining overhead is
// attributable —
//
//   off        — resilience disabled: plain step(), no snapshots, no
//                watchdog. Its channels still carry the detection every
//                runner has: deadline-bounded waits and a fused FNV-1a
//                integrity word per halo message (hash accumulated
//                inside the pack/unpack copy loops; payload bytes are
//                touched once);
//   watchdog   — + the watchdog's scan of every interior cell after
//                every step, with CFL and global-mass checks;
//   snapshot   — + a double-buffered rollback point after every step:
//                each rank copies its own new state into the staging
//                buffer at the end of its step program, and the round
//                is promoted when the step commits;
//   guarded    — the watchdog + a rollback point every 16 steps;
//   recovering — the watchdog + a rollback point after EVERY step
//                (checkpoint_interval = 1).
//
// All variants produce bitwise-identical states (tests/test_resilience
// .cpp); the delta is pure recovery overhead. Each variant runs warmup
// steps before timing (cold allocation, first snapshot); timed windows
// are interleaved round-robin across the variants and the reported
// overhead is the median of per-rep ratios against the off run of the
// same cycle (see the comments at the measurement loops). Every rep's
// seconds per step is recorded in the JSON next to the medians.
//
// A second section measures snapshot BYTES (resilience.snapshot_bytes)
// on a localized-update workload: j-slab dirty tracking must copy far
// fewer bytes per round than the dynamic fields hold (what a full copy
// would move). Results go to BENCH_resilience.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/cluster/multidomain.hpp"
#include "src/parallel/thread_pool.hpp"

using namespace asuca;
using namespace asuca::bench;
using namespace asuca::cluster;

namespace {

struct Variant {
    const char* name;
    bool enabled;
    bool watchdog;  // finite + CFL + global mass drift
    long long checkpoint_interval;
};

void apply(const Variant& v, MultiDomainConfig& md) {
    md.resilience.enabled = v.enabled;
    md.resilience.checkpoint_interval = v.checkpoint_interval;
    if (v.watchdog) {
        md.resilience.watchdog.cfl_limit = 10.0;
        md.resilience.watchdog.mass_drift_tol = 1.0e-6;
    } else {
        md.resilience.watchdog.check_finite = false;
    }
}

}  // namespace

int main(int argc, char** argv) {
    title("Resilience overhead — watchdog, rank-staged snapshots");

    Int3 mesh{48, 24, 24};
    int steps = 6;   // timed steps per rep
    int warmup = 2;  // untimed: cold memory, first snapshot round
    int reps = 9;
    if (argc > 3) {
        mesh = {std::atoll(argv[1]), std::atoll(argv[2]),
                std::atoll(argv[3])};
    }
    if (argc > 4) steps = std::atoi(argv[4]);
    if (argc > 5) reps = std::atoi(argv[5]);

    const Index px = 2, py = 2;
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    const std::size_t per_rank = std::max<std::size_t>(
        1, hw / static_cast<std::size_t>(px * py));
    const auto spec = bell_mountain_grid(mesh);
    const auto species = SpeciesSet::warm_rain();
    const auto cfg = bell_mountain_stepper();

    Grid<double> grid(spec);
    const State<double> initial = bell_mountain_state(grid, species);

    const long long never = 1ll << 40;
    const Variant variants[] = {
        // name          enabled watchdog interval
        {"off", false, false, never},
        {"watchdog", true, true, never},
        {"snapshot", true, false, 1},
        {"guarded", true, true, 16},
        {"recovering", true, true, 1},
    };

    // Rank workers carry the parallelism; keep the global pool out of
    // their way (as in bench_multidomain_overlap).
    ThreadPool::set_global_threads(1);

    std::printf("  mesh %lldx%lldx%lld, %lldx%lld ranks, median of %d reps "
                "x %d steps (+%d warmup), %zu thread%s/rank\n",
                static_cast<long long>(mesh.x),
                static_cast<long long>(mesh.y),
                static_cast<long long>(mesh.z), static_cast<long long>(px),
                static_cast<long long>(py), reps, steps, warmup, per_rank,
                per_rank == 1 ? "" : "s");
    std::printf("  %-18s %14s %12s\n", "variant", "s/step", "overhead");

    // Reps are interleaved round-robin across the variants (rep 0 of
    // every variant, then rep 1 of every variant, ...): machine-wide
    // drift — frequency scaling, noisy neighbors — hits all variants
    // alike instead of biasing whichever ran during the slow phase, and
    // best-of-reps then compares like with like.
    const std::size_t nv = sizeof(variants) / sizeof(variants[0]);
    std::vector<std::unique_ptr<MultiDomainRunner<double>>> runners;
    runners.reserve(nv);
    for (const auto& v : variants) {
        MultiDomainConfig md;
        md.threads_per_rank = per_rank;
        apply(v, md);
        runners.push_back(std::make_unique<MultiDomainRunner<double>>(
            spec, px, py, species, cfg, md));
        runners.back()->scatter(initial);
        runners.back()->advance(warmup);
    }
    std::vector<std::vector<double>> samples(nv);
    for (int rep = 0; rep < reps; ++rep) {
        for (std::size_t n = 0; n < nv; ++n) {
            Timer t;
            t.start();
            runners[n]->advance(steps);
            t.stop();
            samples[n].push_back(t.seconds() / steps);
        }
    }
    runners.clear();

    // Per-rep PAIRED ratios against the off run of the same rep cycle:
    // each ratio compares times taken seconds apart, so slow phases of
    // the machine divide out; the median rejects the outlier reps that
    // a best-of statistic leaks into single columns.
    const auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        const std::size_t m = v.size() / 2;
        return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
    };
    struct Result {
        const char* name;
        double seconds_per_step;
        double overhead;
    };
    std::vector<Result> results;
    for (std::size_t n = 0; n < nv; ++n) {
        std::vector<double> ratios;
        for (int rep = 0; rep < reps; ++rep) {
            ratios.push_back(samples[n][static_cast<std::size_t>(rep)] /
                             samples[0][static_cast<std::size_t>(rep)]);
        }
        results.push_back(
            {variants[n].name, median(samples[n]), median(ratios) - 1.0});
        std::printf("  %-18s %14.4f %+11.1f%%\n", variants[n].name,
                    results.back().seconds_per_step,
                    100.0 * results.back().overhead);
    }
    ThreadPool::set_global_threads(0);  // restore the default pool

    // Snapshot BYTES (what resilience.snapshot_bytes counts): j-slab
    // dirty tracking on a LOCALIZED update workload — per round only a
    // thin band of rows changes (a data-assimilation nudge, a physics
    // column update), the case the tracking exists for — against the
    // bytes of the dynamic fields, which a capture into a fresh buffer
    // (a full copy) moves. Full dynamics steps dirty nearly every slab
    // and see no byte savings; this isolates the workload where the
    // tracking pays.
    const int snap_rounds = 6;
    const double full_bytes_per_round = static_cast<double>(
        resilience::RankFieldCopy<double>().capture_dynamic(initial));
    State<double> work = initial;
    const auto source = [&](Index) -> const State<double>& { return work; };
    resilience::RollbackSnapshots<double> snap;
    snap.configure(1);
    snap.capture_sync(source, 0, 0.0);  // round 0: fresh, a full copy
    std::size_t total = 0;
    for (int r = 0; r < snap_rounds; ++r) {
        const Index j = 2 + static_cast<Index>(r) % 3;
        for (Index k = 0; k < work.rhotheta.nz(); ++k) {
            for (Index i = 0; i < work.rhotheta.nx(); ++i) {
                work.rhotheta(i, j, k) += 1.0e-8;
            }
        }
        snap.capture_sync(source, r + 1, 0.0);
        total += snap.last_round_bytes();
    }
    const double incremental_bytes_per_round =
        static_cast<double>(total) / snap_rounds;
    std::printf("\n  localized-update snapshot bytes/round: full %.0f, "
                "incremental %.0f (%.1fx less)\n",
                full_bytes_per_round, incremental_bytes_per_round,
                full_bytes_per_round /
                    std::max(1.0, incremental_bytes_per_round));

    note("every variant, off included, fuses the FNV-1a integrity word");
    note("into the halo pack/unpack copy loops; a snapshot is a");
    note("double-buffered raw copy that each rank takes of its own state");
    note("at the end of a due step, on its own worker and not overlapped");
    note("with compute; the watchdog scans every interior cell of every");
    note("rank after every step.");

    io::JsonValue doc;
    doc.set("config", "mountain_wave_warm_rain");
    doc.set("mesh", io::JsonArray{io::JsonValue(mesh.x),
                                  io::JsonValue(mesh.y),
                                  io::JsonValue(mesh.z)});
    doc.set("ranks", io::JsonArray{io::JsonValue(px), io::JsonValue(py)});
    doc.set("timed_steps", steps);
    doc.set("warmup_steps", warmup);
    doc.set("reps", reps);
    doc.set("threads_per_rank", static_cast<long long>(per_rank));
    doc.set("hardware_threads", static_cast<long long>(hw));
    doc.set("compiler", __VERSION__);
    io::JsonArray vs;
    for (std::size_t n = 0; n < nv; ++n) {
        io::JsonValue row;
        row.set("variant", results[n].name);
        row.set("seconds_per_step", results[n].seconds_per_step);
        row.set("overhead_vs_off", results[n].overhead);
        io::JsonArray per_rep;
        for (const double s : samples[n]) per_rep.push_back(io::JsonValue(s));
        row.set("rep_seconds_per_step", std::move(per_rep));
        vs.push_back(std::move(row));
    }
    doc.set("variants", std::move(vs));
    io::JsonValue snap_row;
    snap_row.set("metric", "resilience.snapshot_bytes");
    snap_row.set("workload", "localized_update");
    snap_row.set("rounds", snap_rounds);
    snap_row.set("full_bytes_per_round", full_bytes_per_round);
    snap_row.set("incremental_bytes_per_round", incremental_bytes_per_round);
    snap_row.set("reduction_factor",
                 full_bytes_per_round /
                     std::max(1.0, incremental_bytes_per_round));
    doc.set("snapshot_bytes", std::move(snap_row));
    return write_json("BENCH_resilience.json", doc) ? 0 : 1;
}
