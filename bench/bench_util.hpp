// Shared helpers for the figure/table reproduction benches: one cached
// FLOP calibration (the PAPI substitute), the two scenarios the host
// measurements run (the Sec. IV-B model and the decomposed benches'
// bell-mountain case), small table-printing helpers and the common
// machine-readable output path (structured JSON via src/io/json.hpp —
// benches no longer hand-concatenate JSON strings).
#pragma once

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/timer.hpp"
#include "src/core/model.hpp"
#include "src/gpusim/roofline.hpp"
#include "src/instrument/calibration.hpp"
#include "src/io/json.hpp"

namespace asuca::bench {

/// One-step per-kernel FLOP counts of the benchmark configuration
/// (mountain wave + warm rain, Sec. IV-B), calibrated once per binary.
inline const CalibrationResult& calibration() {
    static const CalibrationResult cal =
        calibrate_flops(benchmark_model_config(), {16, 12, 12});
    return cal;
}

/// Roofline model for a device/precision/layout combination.
inline gpusim::RooflineModel make_model(const gpusim::DeviceSpec& dev,
                                        Precision prec,
                                        Layout layout = Layout::XZY,
                                        bool shared_mem = true) {
    gpusim::ExecutionOptions opt;
    opt.precision = prec;
    opt.layout = layout;
    opt.shared_memory_tiling = shared_mem;
    return gpusim::RooflineModel(dev, opt);
}

/// Modeled whole-step estimate on a mesh.
inline gpusim::StepEstimate model_step_at(const gpusim::RooflineModel& model,
                                          Int3 mesh) {
    const double scale = static_cast<double>(mesh.volume()) /
                         static_cast<double>(calibration().mesh.volume());
    return gpusim::estimate_step(calibration().records, model, scale);
}

/// The Sec. IV-B benchmark model (benchmark_model_config: mountain wave
/// + warm rain) in double precision on `mesh`, with a moist lower
/// troposphere so the Kessler pass has cloud to make, ready to time:
/// initialized, boundary-filled and one untimed step taken (the first
/// step touches cold memory). `layout` picks the array ordering.
inline std::unique_ptr<AsucaModel<double>> make_host_model(
    Int3 mesh, Layout layout = Layout::XZY) {
    ModelConfig<double> cfg;
    const auto ref = benchmark_model_config();
    cfg.grid = ref.grid;
    cfg.grid.nx = mesh.x;
    cfg.grid.ny = mesh.y;
    cfg.grid.nz = mesh.z;
    cfg.grid.layout = layout;
    cfg.stepper = ref.stepper;
    cfg.kessler = ref.kessler;
    cfg.microphysics = ref.microphysics;
    cfg.species = ref.species;
    auto model = std::make_unique<AsucaModel<double>>(cfg);
    model->initialize(AtmosphereProfile::constant_n(300.0, 0.01), 10.0, 0.0);
    set_relative_humidity(
        model->grid(), [](double z) { return z < 2000.0 ? 0.6 : 0.2; },
        model->state());
    model->stepper().apply_state_bcs(model->state());
    model->step();
    return model;
}

/// Run the host model (make_host_model) for `steps` long steps on this
/// host and return measured wall seconds per step.
inline double measure_host_seconds_per_step(Int3 mesh, int steps = 1) {
    const auto model = make_host_model(mesh);
    Timer t;
    t.start();
    model->run(steps);
    t.stop();
    return t.seconds() / steps;
}

/// Wall seconds of every repetition of one timed bench cell.
struct CellTiming {
    std::vector<double> seconds;  ///< one entry per repetition, in run order

    double min() const {
        return *std::min_element(seconds.begin(), seconds.end());
    }
    double max() const {
        return *std::max_element(seconds.begin(), seconds.end());
    }
    double median() const {
        std::vector<double> s = seconds;
        std::sort(s.begin(), s.end());
        const std::size_t n = s.size();
        return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
    }
};

/// Time each of `cells` `reps` times, interleaved (every cell once, then
/// every cell again, ...), after `warmup` untimed calls of each, so a
/// slow host window lands on all cells alike instead of inverting their
/// ratio. Returns one CellTiming per cell, in order.
inline std::vector<CellTiming> time_interleaved(
    const std::vector<std::function<void()>>& cells, int reps = 5,
    int warmup = 1) {
    for (int w = 0; w < warmup; ++w)
        for (const auto& cell : cells) cell();
    std::vector<CellTiming> out(cells.size());
    for (int r = 0; r < reps; ++r) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            Timer t;
            t.start();
            cells[c]();
            t.stop();
            out[c].seconds.push_back(t.seconds());
        }
    }
    return out;
}

/// The decomposed benches' case on a `mesh` global grid: a 350 m bell
/// mountain at its centre, 1 km spacing, a 10 km lid.
inline GridSpec bell_mountain_grid(Int3 mesh) {
    GridSpec s;
    s.nx = mesh.x;
    s.ny = mesh.y;
    s.nz = mesh.z;
    s.dx = 1000.0;
    s.dy = 1000.0;
    s.ztop = 10000.0;
    s.terrain = bell_mountain(350.0, 3000.0,
                              0.5 * static_cast<double>(mesh.x) * s.dx,
                              0.5 * static_cast<double>(mesh.y) * s.dy);
    return s;
}

/// The bell-mountain case's stepper: dt 4 s, 6 acoustic substeps.
inline TimeStepperConfig bell_mountain_stepper() {
    TimeStepperConfig cfg;
    cfg.dt = 4.0;
    cfg.n_short_steps = 6;
    cfg.diffusion.kh = 10.0;
    cfg.diffusion.kv = 1.0;
    cfg.sponge.z_start = 8000.0;
    return cfg;
}

/// The bell-mountain case's initial state: 8/3 m/s flow through a
/// stable atmosphere, humid below 2 km.
inline State<double> bell_mountain_state(const Grid<double>& grid,
                                         const SpeciesSet& species) {
    State<double> state(grid, species);
    initialize_hydrostatic(grid, AtmosphereProfile::constant_n(292.0, 0.011),
                           8.0, 3.0, state);
    set_relative_humidity(
        grid, [](double z) { return z < 2000.0 ? 0.8 : 0.3; }, state);
    return state;
}

/// Measured GFlops of this host's CPU execution at a mesh (FLOPs from the
/// calibration, scaled; time measured).
inline double measure_host_gflops(Int3 mesh, int steps = 1) {
    const double secs = measure_host_seconds_per_step(mesh, steps);
    double flops = 0;
    for (const auto& r : calibration().records) {
        flops += static_cast<double>(r.flops);
    }
    flops *= static_cast<double>(mesh.volume()) /
             static_cast<double>(calibration().mesh.volume());
    return flops / secs / 1e9;
}

inline void title(const std::string& text) {
    std::printf("\n================================================================\n");
    std::printf("%s\n", text.c_str());
    std::printf("================================================================\n");
}

inline void note(const std::string& text) {
    std::printf("  %s\n", text.c_str());
}

/// Write a bench's machine-readable result document (crash-safely, via
/// io::json_save) and announce the path on stdout. Returns false (after
/// a stderr note) when the file cannot be written.
inline bool write_json(const std::string& path, const io::JsonValue& doc) {
    try {
        io::json_save(path, doc);
    } catch (const Error& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return false;
    }
    std::printf("\n  wrote %s\n", path.c_str());
    return true;
}

}  // namespace asuca::bench
