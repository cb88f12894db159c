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

    // Real measured whole-step A/B on the running host: the same lane
    // kernels with unit-stride loads (xzy) and strided lane gathers
    // (kij). Each cell is the median of 5 interleaved 2-step windows.
    const Int3 host_mesh{64, 32, 48};
    const int steps = 2;
    const auto xzy_model = make_host_model(host_mesh);
    const auto kij_model = make_host_model(host_mesh, Layout::ZXY);
    const auto cells = time_interleaved(
        {[&] { xzy_model->run(steps); }, [&] { kij_model->run(steps); }});
    std::printf("\n  measured host step [ms]     %10s %10s %10s\n", "median",
                "min", "max");
    const char* labels[] = {"xzy layout", "kij layout"};
    for (std::size_t c = 0; c < cells.size(); ++c) {
        std::printf("  %-27s %10.1f %10.1f %10.1f\n", labels[c],
                    1e3 * cells[c].median() / steps,
                    1e3 * cells[c].min() / steps,
                    1e3 * cells[c].max() / steps);
    }
    std::printf("  layout ratio (kij / xzy):   %10.2fx\n",
                cells[1].median() / cells[0].median());
    note("paper: kij is the CPU-friendly order for z-marching Fortran;");
    note("the GPU port must use xzy or lose close to an order of magnitude.");
    return 0;
}
