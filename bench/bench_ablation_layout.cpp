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
    const Int3 host_mesh{64, 32, 48};
    const double t_xzy = measure_host_seconds_per_step(host_mesh, 2);
    const double t_zxy =
        measure_host_seconds_per_step(host_mesh, 2, 0, Layout::ZXY);
    const double t_xzy_w1 = measure_host_seconds_per_step(host_mesh, 2, 1);
    const double t_zxy_w1 =
        measure_host_seconds_per_step(host_mesh, 2, 1, Layout::ZXY);
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
