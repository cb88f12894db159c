// CPU thread-scaling of the full RK3/HE-VI step (j-slab decomposition).
//
// The paper's CPU baseline (Sec. IV-B) is a single Opteron core; this
// bench measures how the same numerics scale across host cores with the
// ThreadPool's j-slab parallelization, sweeping 1/2/4/N threads over the
// Sec. IV-B mountain-wave + warm-rain configuration (size-reduced mesh
// for runtime). The thread counts are timed as interleaved repetitions
// (median, min and max per count). Per-kernel measured wall time at the
// widest pool is compared against the roofline model on the paper's
// baseline core, and everything is written to BENCH_cpu_scaling.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
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

    // One model per thread count, built up front. Each cell sets the pool
    // width and runs the steps; the cells are timed interleaved, so a slow
    // host window lands on every thread count alike.
    std::vector<std::unique_ptr<AsucaModel<double>>> models;
    for (std::size_t c = 0; c < sweep.size(); ++c)
        models.push_back(make_host_model(mesh));
    std::vector<std::function<void()>> cells;
    for (std::size_t c = 0; c < sweep.size(); ++c) {
        cells.push_back([&, c] {
            ThreadPool::set_global_threads(sweep[c]);
            models[c]->run(steps);
        });
    }
    const int reps = 5;
    const auto timings = time_interleaved(cells, reps);
    auto per_step = [&](double seconds) { return seconds / steps; };
    const double base = per_step(timings.front().median());

    std::printf("\n%10s %14s %12s %12s %10s %12s\n", "threads",
                "median s/step", "min", "max", "speedup", "efficiency");
    for (std::size_t c = 0; c < sweep.size(); ++c) {
        const double sp = base / per_step(timings[c].median());
        std::printf("%10zu %14.4f %12.4f %12.4f %9.2fx %11.0f%%\n", sweep[c],
                    per_step(timings[c].median()),
                    per_step(timings[c].min()), per_step(timings[c].max()),
                    sp, 100.0 * sp / static_cast<double>(sweep[c]));
    }

    // Per-kernel times: one more window of `steps` steps at the widest
    // pool, with the registry reset.
    ThreadPool::set_global_threads(sweep.back());
    auto& reg = KernelRegistry::global();
    reg.reset();
    models.back()->run(steps);
    std::vector<KernelRecord> kernels = reg.records();
    for (auto& k : kernels) k.seconds /= steps;
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
    doc.set("repetitions", reps);
    doc.set("hardware_threads", static_cast<long long>(hw));
    doc.set("lane_width", static_cast<long long>(simd_lanes<double>()));
    io::JsonArray runs;
    for (std::size_t c = 0; c < sweep.size(); ++c) {
        io::JsonValue row;
        row.set("threads", static_cast<long long>(sweep[c]));
        row.set("seconds_per_step", per_step(timings[c].median()));
        row.set("min_seconds_per_step", per_step(timings[c].min()));
        row.set("max_seconds_per_step", per_step(timings[c].max()));
        row.set("speedup", base / per_step(timings[c].median()));
        runs.push_back(std::move(row));
    }
    doc.set("runs", std::move(runs));
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
