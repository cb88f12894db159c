// CUDA-style kernel launch configurations (paper Sec. IV-A, Fig. 2).
//
// The paper configures:
//  * advection-style kernels: (nx/64, nz/4, 1) blocks of (64, 4, 1)
//    threads — each thread owns an (x, z) point and marches along y,
//    holding a (64+3) x (4+3) shared-memory tile per block (Fig. 3);
//  * the 1-D Helmholtz solver: (nx/64, ny/4, 1) blocks of (64, 4, 1)
//    threads — each thread owns an (x, y) column and marches along z
//    (the vertical recurrence is sequential).
//
// These structures determine occupancy and shared-memory footprints in the
// performance model and are validated by unit tests against the paper's
// numbers.
#pragma once

#include <algorithm>
#include <cstddef>

#include "src/common/error.hpp"
#include "src/common/types.hpp"
#include "src/gpusim/device.hpp"

namespace asuca::gpusim {

/// Which plane the threads tile, and along which axis they march.
enum class MarchAxis { Y, Z };

struct LaunchConfig {
    Int3 block{64, 4, 1};  ///< threads per block
    Int3 grid{1, 1, 1};    ///< blocks per grid
    MarchAxis march = MarchAxis::Y;
    /// Shared-memory tile per block [bytes], including stencil halos.
    std::size_t shared_bytes = 0;

    Index threads_per_block() const { return block.volume(); }
};

inline Index div_up(Index a, Index b) { return (a + b - 1) / b; }

/// The paper's advection launch: threads tile the xz plane, march in y,
/// with a (bx+halo) x (bz+halo) shared tile of `tile_arrays` fields.
inline LaunchConfig advection_launch(Int3 mesh, std::size_t elem_bytes,
                                     Index stencil_halo = 3,
                                     int tile_arrays = 1) {
    LaunchConfig lc;
    lc.block = {64, 4, 1};
    lc.grid = {div_up(mesh.x, 64), div_up(mesh.z, 4), 1};
    lc.march = MarchAxis::Y;
    lc.shared_bytes = static_cast<std::size_t>(
                          (64 + stencil_halo) * (4 + stencil_halo)) *
                      elem_bytes * static_cast<std::size_t>(tile_arrays);
    return lc;
}

/// The paper's Helmholtz launch: threads tile the xy plane, march in z.
inline LaunchConfig helmholtz_launch(Int3 mesh) {
    LaunchConfig lc;
    lc.block = {64, 4, 1};
    lc.grid = {div_up(mesh.x, 64), div_up(mesh.y, 4), 1};
    lc.march = MarchAxis::Z;
    lc.shared_bytes = 0;  // per-thread column state lives in registers
    return lc;
}

/// How many blocks can be resident per SM given the shared-memory budget
/// (the GT200 limit that shapes the paper's 16 KB tiles).
inline int resident_blocks_per_sm(const DeviceSpec& dev,
                                  const LaunchConfig& lc,
                                  int max_blocks_per_sm = 8) {
    if (lc.shared_bytes == 0) return max_blocks_per_sm;
    const double budget = dev.shared_mem_kb_per_sm * 1024.0;
    const int by_smem =
        static_cast<int>(budget / static_cast<double>(lc.shared_bytes));
    return std::max(0, std::min(max_blocks_per_sm, by_smem));
}

/// Fraction of the device the launch can keep busy: resident threads over
/// the threads needed to hide memory latency (~768 per SM on GT200).
inline double occupancy(const DeviceSpec& dev, const LaunchConfig& lc,
                        Index latency_threads_per_sm = 768) {
    const int blocks = resident_blocks_per_sm(dev, lc);
    const Index resident =
        std::min<Index>(blocks * lc.threads_per_block(),
                        latency_threads_per_sm);
    const double frac = static_cast<double>(resident) /
                        static_cast<double>(latency_threads_per_sm);
    // A grid smaller than the device also limits occupancy.
    const double fill =
        std::min(1.0, static_cast<double>(lc.grid.volume()) /
                          static_cast<double>(dev.sm_count));
    return std::min(1.0, frac) * fill;
}

}  // namespace asuca::gpusim
