// Lane-width abstraction for the CPU column-batch kernels.
//
// The paper's single-device contribution is a storage-order change
// (kij -> xzy, Sec. IV-A-1) that makes neighboring vertical columns
// adjacent in memory so a warp can march them in lockstep. The CPU
// analogue batches W columns per Thomas sweep with the column index
// innermost and unit-stride, so the compiler's auto-vectorizer turns the
// per-level recurrences into SIMD lanes. This header centralizes the two
// decisions that path needs: the hardware's native lane count and the
// batch width W actually used (the config value, or the default derived
// from the lane count).
//
// No intrinsics are used anywhere: every batched kernel is written as a
// plain inner loop over W contiguous lanes, which GCC/Clang vectorize at
// -O2 without changing per-lane arithmetic (each lane executes exactly
// the one-column op sequence, so every width, W=1 included, gives
// bitwise-identical results on targets without implicit FMA contraction;
// see the -DASUCA_NATIVE_ARCH note in DESIGN.md).
#pragma once

#include "src/common/error.hpp"
#include "src/common/types.hpp"

namespace asuca {

/// Native SIMD lanes of element type T on the build target (compile-time;
/// 128-bit SSE2/NEON baseline when no wider ISA is enabled).
template <class T>
constexpr Index simd_lanes() {
#if defined(__AVX512F__)
    constexpr Index bytes = 64;
#elif defined(__AVX__)
    constexpr Index bytes = 32;
#elif defined(__SSE2__) || defined(__aarch64__) || defined(__ARM_NEON)
    constexpr Index bytes = 16;
#else
    constexpr Index bytes = 8;
#endif
    constexpr Index lanes = bytes / static_cast<Index>(sizeof(T));
    return lanes >= 1 ? lanes : 1;
}

/// Default column-batch width: a few native vectors' worth of columns, so
/// the vectorized sweep also amortizes loop overhead and keeps several
/// division pipelines busy, while one batch workspace (~14 arrays of
/// nz*W doubles) stays inside L1.
template <class T>
constexpr Index default_column_batch() {
    const Index w = 4 * simd_lanes<T>();
    return w < 4 ? 4 : w;
}

/// Resolve the column-batch width actually used by a solver configured
/// with `config_value`:
///   0   — auto: default_column_batch<T>();
///   W>0 — exactly W columns per sweep (W=1: one column at a time).
template <class T>
inline Index resolve_column_batch(Index config_value) {
    const Index w =
        config_value == 0 ? default_column_batch<T>() : config_value;
    ASUCA_REQUIRE(w >= 1, "column batch width must be >= 1, got " << w);
    return w;
}

}  // namespace asuca
