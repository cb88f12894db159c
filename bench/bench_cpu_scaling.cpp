// CPU thread-scaling of the full RK3/HE-VI step (j-slab decomposition).
//
// The paper's CPU baseline (Sec. IV-B) is a single Opteron core; this
// bench measures how the same numerics scale across host cores with the
// ThreadPool's j-slab parallelization, sweeping 1/2/4/N threads over the
// Sec. IV-B mountain-wave + warm-rain configuration (size-reduced mesh
// for runtime). Per-kernel measured wall time is compared against the
// roofline model on the paper's baseline core, and everything is written
// to BENCH_cpu_scaling.json for the driver.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/core/model.hpp"
#include "src/field/simd.hpp"
#include "src/instrument/kernel_registry.hpp"
#include "src/parallel/thread_pool.hpp"

using namespace asuca;
using namespace asuca::bench;

namespace {

struct RunResult {
    std::size_t threads = 0;
    double seconds_per_step = 0;
    std::vector<KernelRecord> kernels;  ///< per-step registry records
};

/// Time `steps` long steps of the benchmark configuration at `mesh` with
/// the global pool set to `threads` and the acoustic column-batch width
/// forced to `column_batch` (0 = auto, W = W columns per sweep), returning
/// per-step kernel records.
RunResult run_at(Int3 mesh, std::size_t threads, int steps,
                 Index column_batch = 0) {
    ThreadPool::set_global_threads(threads);
    const auto model = make_host_model(mesh, column_batch);

    auto& reg = KernelRegistry::global();
    reg.reset();
    Timer t;
    t.start();
    model->run(steps);
    t.stop();

    RunResult r;
    r.threads = ThreadPool::global().num_threads();
    r.seconds_per_step = t.seconds() / steps;
    r.kernels = reg.records();
    for (auto& k : r.kernels) k.seconds /= steps;
    return r;
}

}  // namespace

int main(int argc, char** argv) {
    title("CPU thread scaling — full RK3/HE-VI step, j-slab decomposition");

    // Size-reduced Sec. IV-B mesh (nz matches the paper's 48 levels).
    Int3 mesh{64, 48, 48};
    int steps = 2;
    if (argc > 3) {
        mesh = {std::atoll(argv[1]), std::atoll(argv[2]),
                std::atoll(argv[3])};
    }
    if (argc > 4) steps = std::atoi(argv[4]);

    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    std::vector<std::size_t> sweep = {1, 2, 4, hw};
    std::sort(sweep.begin(), sweep.end());
    sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());
    sweep.erase(std::remove_if(sweep.begin(), sweep.end(),
                               [&](std::size_t t) { return t > hw; }),
                sweep.end());
    if (sweep.empty() || sweep.back() != hw) sweep.push_back(hw);

    std::printf("  mesh %lldx%lldx%lld, %d timed steps, host has %zu core%s\n",
                static_cast<long long>(mesh.x),
                static_cast<long long>(mesh.y),
                static_cast<long long>(mesh.z), steps, hw,
                hw == 1 ? "" : "s");

    std::vector<RunResult> results;
    for (std::size_t t : sweep) results.push_back(run_at(mesh, t, steps));
    const double base = results.front().seconds_per_step;

    std::printf("\n%10s %14s %10s %12s\n", "threads", "s/step", "speedup",
                "efficiency");
    for (const auto& r : results) {
        const double sp = base / r.seconds_per_step;
        std::printf("%10zu %14.4f %9.2fx %11.0f%%\n", r.threads,
                    r.seconds_per_step, sp,
                    100.0 * sp / static_cast<double>(r.threads));
    }

    // Column-batch A/B at max threads: the same batched sweep at one
    // column per sweep (column_batch = 1, nothing to vectorize across) vs
    // the auto width the sweep above used. The batched numbers are reused
    // from the thread sweep so the A/B and the scaling table describe the
    // same run.
    const Index batch_w = resolve_column_batch<double>(0);
    const RunResult w1_run = run_at(mesh, sweep.back(), steps, 1);
    const auto& best = results.back();
    auto kernel_seconds = [](const RunResult& r, const std::string& name) {
        for (const auto& k : r.kernels)
            if (k.name == name) return k.seconds;
        return 0.0;
    };
    std::printf("\n  column-batch A/B at %zu thread%s (W = %lld):\n",
                best.threads, best.threads == 1 ? "" : "s",
                static_cast<long long>(batch_w));
    std::printf("%-26s %14s %14s %10s\n", "", "W=1 [ms]", "batched [ms]",
                "speedup");
    auto ab_row = [&](const std::string& name, double s, double b) {
        std::printf("%-26s %14.3f %14.3f %9.2fx\n", name.c_str(), 1e3 * s,
                    1e3 * b, b > 0 ? s / b : 0.0);
    };
    ab_row("whole step", w1_run.seconds_per_step, best.seconds_per_step);
    for (const char* name : {"helmholtz_1d", "theta_update_half"})
        ab_row(name, kernel_seconds(w1_run, name),
               kernel_seconds(best, name));

    // Per-kernel measured time at max threads vs the roofline model on
    // the paper's baseline core (Opteron, double precision, kij layout).
    // Per-kernel FLOPs come from the CountingReal calibration run scaled
    // to this mesh (the bench itself runs plain doubles, so its registry
    // records carry no counts).
    const auto cpu_model = make_model(gpusim::DeviceSpec::opteron_core(),
                                      Precision::Double, Layout::ZXY);
    const double scale = static_cast<double>(mesh.volume()) /
                         static_cast<double>(calibration().mesh.volume());
    const auto modeled = estimate_step(calibration().records, cpu_model,
                                       scale);
    auto modeled_seconds = [&](const std::string& name) {
        for (const auto& k : modeled.kernels)
            if (k.name == name) return k.seconds;
        return 0.0;
    };
    auto calibrated_flops = [&](const std::string& name) {
        for (const auto& k : calibration().records)
            if (k.name == name)
                return static_cast<double>(k.flops) * scale;
        return 0.0;
    };

    std::vector<KernelRecord> kernels = best.kernels;
    std::sort(kernels.begin(), kernels.end(),
              [](const KernelRecord& a, const KernelRecord& b) {
                  return a.seconds > b.seconds;
              });
    std::printf("\n%-26s %14s %16s %10s\n", "kernel", "measured [ms]",
                "Opteron model [ms]", "GFlop/s");
    for (const auto& k : kernels) {
        const double fl = calibrated_flops(k.name);
        std::printf("%-26s %14.3f %16.3f %10.2f\n", k.name.c_str(),
                    1e3 * k.seconds, 1e3 * modeled_seconds(k.name),
                    k.seconds > 0 ? fl / k.seconds / 1e9 : 0.0);
    }

    // Machine-readable output for the driver.
    io::JsonValue doc;
    doc.set("config", "mountain_wave_warm_rain");
    doc.set("mesh",
            io::JsonArray{io::JsonValue(static_cast<long long>(mesh.x)),
                          io::JsonValue(static_cast<long long>(mesh.y)),
                          io::JsonValue(static_cast<long long>(mesh.z))});
    doc.set("timed_steps", steps);
    doc.set("hardware_threads", static_cast<long long>(hw));
    io::JsonArray runs;
    for (const auto& r : results) {
        io::JsonValue row;
        row.set("threads", static_cast<long long>(r.threads));
        row.set("seconds_per_step", r.seconds_per_step);
        row.set("speedup", base / r.seconds_per_step);
        runs.push_back(std::move(row));
    }
    doc.set("runs", std::move(runs));
    io::JsonValue ab;
    ab.set("threads", static_cast<long long>(best.threads));
    ab.set("column_batch_width", static_cast<long long>(batch_w));
    ab.set("w1_seconds_per_step", w1_run.seconds_per_step);
    ab.set("batched_seconds_per_step", best.seconds_per_step);
    ab.set("w1_helmholtz_seconds", kernel_seconds(w1_run, "helmholtz_1d"));
    ab.set("batched_helmholtz_seconds", kernel_seconds(best, "helmholtz_1d"));
    ab.set("w1_theta_half_seconds",
           kernel_seconds(w1_run, "theta_update_half"));
    ab.set("batched_theta_half_seconds",
           kernel_seconds(best, "theta_update_half"));
    doc.set("column_batch_ab", std::move(ab));
    io::JsonArray ks;
    for (const auto& k : kernels) {
        io::JsonValue row;
        row.set("name", k.name);
        row.set("measured_seconds", k.seconds);
        row.set("modeled_opteron_seconds", modeled_seconds(k.name));
        row.set("flops", calibrated_flops(k.name));
        ks.push_back(std::move(row));
    }
    doc.set("kernels_at_max_threads", std::move(ks));
    return write_json("BENCH_cpu_scaling.json", doc) ? 0 : 1;
}
