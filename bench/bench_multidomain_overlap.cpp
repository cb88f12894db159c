// Real (host-measured) communication/computation overlap of the
// multi-domain runner, against a fair baseline, next to the step model's
// prediction.
//
// For each decomposition the same mountain-wave + warm-rain case runs
// twice at the same total thread count:
//
//   single    — the single-domain TimeStepper, every kernel a j-slab
//               parallel_for over the whole machine (the production
//               single-domain path, bitwise equal to the runner);
//   split     — MultiDomainRunner: per-rank worker threads, async
//               double-buffered halo channels, halo-consuming kernels
//               divided into boundary frame + interior (paper method 2)
//               and fused density/theta updates (method 3).
//
// The two are timed in interleaved repetitions (the order alternates
// each repetition, so drift and warm caches favor neither) and each
// reports the median s/step with its quartiles. The StepModel columns
// model the paper's GPU cluster for the same rank topology with no
// overlap, methods 2+3, and methods 1+2+3 — method 1 (inter-variable
// pipelining) lives only in the model, which Figs. 9-11 reproduce.
// Results go to BENCH_multidomain_overlap.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/cluster/multidomain.hpp"
#include "src/cluster/step_model.hpp"
#include "src/parallel/thread_pool.hpp"

using namespace asuca;
using namespace asuca::bench;
using namespace asuca::cluster;

namespace {

/// Median and quartiles (linear interpolation between order statistics).
struct Spread {
    double median = 0, q1 = 0, q3 = 0;
};

Spread spread_of(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const auto at = [&](double q) {
        const double pos = q * static_cast<double>(v.size() - 1);
        const auto lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, v.size() - 1);
        return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
    };
    return {at(0.5), at(0.25), at(0.75)};
}

io::JsonValue spread_json(const Spread& s) {
    io::JsonValue j;
    j.set("median", s.median);
    j.set("q1", s.q1);
    j.set("q3", s.q3);
    return j;
}

/// StepModel prediction for the same rank topology with a subset of the
/// paper's three overlap methods enabled. The model keeps its production
/// per-GPU mesh (the bench's size-reduced subdomains would be
/// latency-bound on a GPU, where kernel division always loses): the
/// prediction is about the topology, not the toy size.
double modeled_step_seconds(Index px, Index py, bool m1, bool m23) {
    StepModelConfig cfg;
    cfg.decomp.px = px;
    cfg.decomp.py = py;
    cfg.overlap_tracers = m1;
    cfg.overlap = m23;
    cfg.fuse_density_theta = m23;
    return StepModel(calibration(), cfg).run().total_s;
}

}  // namespace

int main(int argc, char** argv) {
    title("Multi-domain overlap — split runner vs single domain");

    Int3 mesh{64, 48, 32};
    int steps = 2;
    int reps = 7;
    if (argc > 3) {
        mesh = {std::atoll(argv[1]), std::atoll(argv[2]),
                std::atoll(argv[3])};
    }
    if (argc > 4) steps = std::atoi(argv[4]);
    if (argc > 5) reps = std::atoi(argv[5]);
    ASUCA_REQUIRE(steps >= 1 && reps >= 1, "need steps >= 1 and reps >= 1");

    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    const auto spec = bell_mountain_grid(mesh);
    const auto species = SpeciesSet::warm_rain();
    const auto cfg = bell_mountain_stepper();

    Grid<double> grid(spec);
    const State<double> initial = bell_mountain_state(grid, species);

    std::printf("  mesh %lldx%lldx%lld, %d interleaved reps x %d steps, "
                "%zu host thread%s\n",
                static_cast<long long>(mesh.x),
                static_cast<long long>(mesh.y),
                static_cast<long long>(mesh.z), reps, steps, hw,
                hw == 1 ? "" : "s");

    struct Decomp {
        Index px, py;
    };
    std::vector<Decomp> decomps = {{2, 2}, {4, 2}};
    decomps.erase(std::remove_if(decomps.begin(), decomps.end(),
                                 [&](const Decomp& d) {
                                     return mesh.x % d.px != 0 ||
                                            mesh.y % d.py != 0 ||
                                            mesh.x / d.px < 6 ||
                                            mesh.y / d.py < 6;
                                 }),
                  decomps.end());

    io::JsonArray rows;
    for (const auto& d : decomps) {
        const Index ranks = d.px * d.py;
        // One thread per rank minimum, the whole machine when it has
        // more cores than ranks; the single domain gets the same total.
        const std::size_t per_rank = std::max<std::size_t>(
            1, hw / static_cast<std::size_t>(ranks));
        const std::size_t total = per_rank * static_cast<std::size_t>(ranks);

        TimeStepper<double> stepper(grid, species, cfg);
        State<double> single = initial;
        MultiDomainConfig md;
        md.threads_per_rank = per_rank;
        MultiDomainRunner<double> runner(spec, d.px, d.py, species, cfg, md);
        runner.scatter(initial);

        // Each side's first step touches cold memory: run it untimed.
        const auto time_single = [&](int n) {
            ThreadPool::set_global_threads(total);
            Timer t;
            t.start();
            for (int s = 0; s < n; ++s) stepper.step(single);
            t.stop();
            return t.seconds() / n;
        };
        const auto time_split = [&](int n) {
            // Rank workers carry the runner's parallelism; the global
            // pool must not hold idle threads underneath them.
            ThreadPool::set_global_threads(1);
            Timer t;
            t.start();
            for (int s = 0; s < n; ++s) runner.step();
            t.stop();
            return t.seconds() / n;
        };
        time_single(1);
        time_split(1);
        std::vector<double> s_single, s_split;
        for (int rep = 0; rep < reps; ++rep) {
            if (rep % 2 == 0) {
                s_single.push_back(time_single(steps));
                s_split.push_back(time_split(steps));
            } else {
                s_split.push_back(time_split(steps));
                s_single.push_back(time_single(steps));
            }
        }
        ThreadPool::set_global_threads(0);  // restore the default pool
        const Spread single_s = spread_of(s_single);
        const Spread split_s = spread_of(s_split);

        const double m_none = modeled_step_seconds(d.px, d.py, false, false);
        const double m_23 = modeled_step_seconds(d.px, d.py, false, true);
        const double m_123 = modeled_step_seconds(d.px, d.py, true, true);

        std::printf("\n  %lldx%lld ranks (local %lldx%lldx%lld), "
                    "%zu threads total\n",
                    static_cast<long long>(d.px),
                    static_cast<long long>(d.py),
                    static_cast<long long>(mesh.x / d.px),
                    static_cast<long long>(mesh.y / d.py),
                    static_cast<long long>(mesh.z), total);
        std::printf("  %-22s %8s %9s %21s %9s\n", "measured", "threads",
                    "s/step", "[q1, q3]", "speedup");
        std::printf("  %-22s %8zu %9.4f   [%7.4f, %7.4f] %8.2fx\n",
                    "single domain", total, single_s.median, single_s.q1,
                    single_s.q3, 1.0);
        std::printf("  %-22s %5zux%-2zu %9.4f   [%7.4f, %7.4f] %8.2fx\n",
                    "split runner", static_cast<std::size_t>(ranks),
                    per_rank, split_s.median, split_s.q1, split_s.q3,
                    single_s.median / split_s.median);
        std::printf("  %-22s %12s %9s\n", "modeled (GPU cluster)",
                    "ms/step", "gain");
        std::printf("  %-22s %12.2f %8.1f%%\n", "no overlap", 1e3 * m_none,
                    0.0);
        std::printf("  %-22s %12.2f %8.1f%%\n", "methods 2+3", 1e3 * m_23,
                    100.0 * (m_none - m_23) / m_none);
        std::printf("  %-22s %12.2f %8.1f%%\n", "methods 1+2+3",
                    1e3 * m_123, 100.0 * (m_none - m_123) / m_none);

        io::JsonValue row;
        row.set("px", d.px);
        row.set("py", d.py);
        row.set("local", io::JsonArray{io::JsonValue(mesh.x / d.px),
                                       io::JsonValue(mesh.y / d.py),
                                       io::JsonValue(mesh.z)});
        row.set("threads_total", static_cast<long long>(total));
        row.set("threads_per_rank", static_cast<long long>(per_rank));
        row.set("single_domain_seconds_per_step", spread_json(single_s));
        row.set("split_seconds_per_step", spread_json(split_s));
        row.set("split_speedup_vs_single_domain",
                single_s.median / split_s.median);
        io::JsonValue model;
        model.set("none_seconds", m_none);
        model.set("methods_2_3_seconds", m_23);
        model.set("methods_1_2_3_seconds", m_123);
        row.set("modeled", std::move(model));
        rows.push_back(std::move(row));
    }

    note("");
    note("the model columns predict the same rank topology on the paper's");
    note("GPU cluster at its production per-GPU mesh — compare relative");
    note("gains, not absolute seconds, against the host measurement.");

    io::JsonValue doc;
    doc.set("config", "mountain_wave_warm_rain");
    doc.set("mesh", io::JsonArray{io::JsonValue(mesh.x),
                                  io::JsonValue(mesh.y),
                                  io::JsonValue(mesh.z)});
    doc.set("timed_steps", steps);
    doc.set("reps", reps);
    doc.set("hardware_threads", static_cast<long long>(hw));
    doc.set("compiler", __VERSION__);
    doc.set("decompositions", std::move(rows));
    return write_json("BENCH_multidomain_overlap.json", doc) ? 0 : 1;
}
