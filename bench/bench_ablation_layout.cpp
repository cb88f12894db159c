// Ablation: memory layout (paper Sec. IV-A-1).
//
// The paper replaces the Fortran kij-ordering (z fastest) by the xzy
// ordering (x fastest) so that xz-plane thread tiles coalesce. This bench
// shows (a) the modeled GPU effect of running the whole step in each
// layout and (b) a REAL measured effect on this host: the same kernels
// executed over both layouts (i-inner loops favor unit-stride x).
#include <cstdio>

#include "bench/bench_util.hpp"

using namespace asuca;
using namespace asuca::bench;

static double host_step_seconds(Layout layout, Index column_batch = 0) {
    ModelConfig<double> cfg;
    const auto ref = benchmark_model_config();
    cfg.grid = ref.grid;
    cfg.grid.nx = 64;
    cfg.grid.ny = 32;
    cfg.grid.nz = 48;
    cfg.grid.layout = layout;
    cfg.stepper = ref.stepper;
    cfg.stepper.acoustic.column_batch = column_batch;
    cfg.microphysics = true;
    cfg.species = SpeciesSet::warm_rain();
    AsucaModel<double> model(cfg);
    model.initialize(AtmosphereProfile::constant_n(300.0, 0.01), 10.0, 0.0);
    model.step();  // warm-up
    Timer t;
    t.start();
    model.run(2);
    t.stop();
    return t.seconds() / 2;
}

int main() {
    title("Ablation — array ordering: kij(z,x,y) vs xzy(x,z,y)");

    const auto dev = gpusim::DeviceSpec::tesla_s1070();
    const Int3 mesh{320, 256, 48};
    const auto xzy = model_step_at(make_model(dev, Precision::Single,
                                              Layout::XZY), mesh);
    const auto zxy = model_step_at(make_model(dev, Precision::Single,
                                              Layout::ZXY), mesh);
    std::printf("  modeled GPU step, xzy (coalesced):    %8.1f ms  %6.1f GFlops\n",
                xzy.seconds * 1e3, xzy.gflops);
    std::printf("  modeled GPU step, kij (uncoalesced):  %8.1f ms  %6.1f GFlops\n",
                zxy.seconds * 1e3, zxy.gflops);
    std::printf("  modeled slowdown of kij on GPU:       %8.1fx  "
                "(GT200 serializes strided warps)\n",
                zxy.seconds / xzy.seconds);

    // Real measured whole-step A/B on the running host: layout x batch
    // width (one column per sweep vs the auto W-column sweep, both with
    // the layout-aware kernels). The batched sweep leans on i-inner
    // unit-stride, so its gain and the layout's interact — hence the
    // full 2x2.
    const double t_xzy = host_step_seconds(Layout::XZY);
    const double t_zxy = host_step_seconds(Layout::ZXY);
    const double t_xzy_w1 = host_step_seconds(Layout::XZY, 1);
    const double t_zxy_w1 = host_step_seconds(Layout::ZXY, 1);
    std::printf("\n  measured host step [ms]     %10s %10s\n", "W=1",
                "batched");
    std::printf("  xzy layout                  %10.1f %10.1f\n",
                t_xzy_w1 * 1e3, t_xzy * 1e3);
    std::printf("  kij layout                  %10.1f %10.1f\n",
                t_zxy_w1 * 1e3, t_zxy * 1e3);
    std::printf("  layout ratio (batched):     %10.2fx\n", t_zxy / t_xzy);
    std::printf("  width ratio (xzy):          %10.2fx\n", t_xzy_w1 / t_xzy);
    note("paper: kij is the CPU-friendly order for z-marching Fortran;");
    note("the GPU port must use xzy or lose close to an order of magnitude.");
    return 0;
}
