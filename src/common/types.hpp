// Fundamental scalar and index types shared across the library.
//
// The dycore is templated on the floating-point type so the same numerics
// run in single precision (the paper's headline configuration), double
// precision (the CPU reference / validation configuration), and the
// FLOP-counting instrumented scalar used as the PAPI substitute.
#pragma once

#include <cstddef>
#include <cstdint>

namespace asuca {

/// Default real type for examples and tests that do not sweep precision.
using Real = double;

/// Signed index type for grid loops. Signed so that halo indices (i-2, ...)
/// and backward loops never hit unsigned wrap-around.
using Index = std::int64_t;

/// Simple integer triple for grid extents and thread/block shapes.
struct Int3 {
    Index x = 0;
    Index y = 0;
    Index z = 0;

    constexpr Index volume() const { return x * y * z; }
    constexpr bool operator==(const Int3&) const = default;
};

/// Precision tag used by the performance model (element size matters for
/// memory traffic) and by reporting code.
enum class Precision { Single, Double };

constexpr std::size_t bytes_of(Precision p) {
    return p == Precision::Single ? 4 : 8;
}

constexpr const char* name_of(Precision p) {
    return p == Precision::Single ? "single" : "double";
}

}  // namespace asuca
