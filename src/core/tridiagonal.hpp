// Tridiagonal solver (Thomas algorithm) for the 1-D Helmholtz-like elliptic
// equation of the HE-VI scheme (paper Sec. IV-A-3).
//
// Each vertical column yields an independent system  a_k x_{k-1} + b_k x_k
// + c_k x_{k+1} = d_k ; columns are solved sequentially in k (the paper's
// GPU kernel marches threads along z for exactly this reason) and in
// parallel across the xy plane.
#pragma once

#include <cstddef>
#include <span>

#include "src/common/error.hpp"
#include "src/field/simd.hpp"

namespace asuca {

/// Solve one tridiagonal system in place. `lower[0]` and `upper[n-1]` are
/// ignored. `rhs` is overwritten with the solution; `scratch` must have at
/// least n elements. Requires diagonal dominance for stability (satisfied
/// by the HE-VI operator, whose diagonal is 1 + O(dt^2 cs^2 / dz^2)).
template <class T>
inline void solve_tridiagonal(std::span<const T> lower, std::span<const T> diag,
                              std::span<const T> upper, std::span<T> rhs,
                              std::span<T> scratch) {
    const std::size_t n = diag.size();
    ASUCA_ASSERT(n >= 1, "empty tridiagonal system");
    ASUCA_ASSERT(lower.size() == n && upper.size() == n && rhs.size() == n &&
                     scratch.size() >= n,
                 "tridiagonal size mismatch");
    // Forward sweep.
    T beta = diag[0];
    rhs[0] = rhs[0] / beta;
    for (std::size_t k = 1; k < n; ++k) {
        scratch[k] = upper[k - 1] / beta;
        beta = diag[k] - lower[k] * scratch[k];
        rhs[k] = (rhs[k] - lower[k] * rhs[k - 1]) / beta;
    }
    // Back substitution.
    for (std::size_t k = n - 1; k-- > 0;) {
        rhs[k] = rhs[k] - scratch[k + 1] * rhs[k + 1];
    }
}

/// Solve the `m` independent systems of one row of columns together (the
/// paper's Fig. 2b kernel marches one thread per column; this is the CPU
/// analogue with SIMD lanes as the threads). Systems are stored
/// level-major: the level-k coefficient of system l lives at index
/// k*m + l, so each level is one unit-stride row, swept in Lanes<T>
/// chunks and a scalar remainder (for_each_lane_chunk). `beta` must have
/// at least m elements; `lower`/`diag`/`upper`/`rhs`/`scratch` at least
/// n*m.
///
/// Each system runs exactly the operation sequence of solve_tridiagonal,
/// so every column is bitwise identical to the scalar sweep (on targets
/// without implicit FMA contraction — the default build; see
/// -DASUCA_NATIVE_ARCH in DESIGN.md).
template <class T>
inline void solve_tridiagonal_batched(const T* lower, const T* diag,
                                      const T* upper, T* rhs, T* scratch,
                                      T* beta, Index n, Index m) {
    ASUCA_ASSERT(n >= 1 && m >= 1, "empty tridiagonal batch " << n << "x"
                                                              << m);
    // Forward sweep.
    for_each_lane_chunk<T>(0, m, [&](auto io, Index l) {
        io.store(beta + l, io(diag + l));
        io.store(rhs + l, io(rhs + l) / io(beta + l));
    });
    for (Index k = 1; k < n; ++k) {
        const Index row = k * m;
        const Index prev = row - m;
        for_each_lane_chunk<T>(0, m, [&](auto io, Index l) {
            const auto s = io(upper + prev + l) / io(beta + l);
            io.store(scratch + row + l, s);
            const auto b = io(diag + row + l) - io(lower + row + l) * s;
            io.store(beta + l, b);
            io.store(rhs + row + l,
                     (io(rhs + row + l) - io(lower + row + l) *
                                              io(rhs + prev + l)) /
                         b);
        });
    }
    // Back substitution.
    for (Index k = n - 1; k-- > 0;) {
        const Index row = k * m;
        const Index next = row + m;
        for_each_lane_chunk<T>(0, m, [&](auto io, Index l) {
            io.store(rhs + row + l,
                     io(rhs + row + l) -
                         io(scratch + next + l) * io(rhs + next + l));
        });
    }
}

}  // namespace asuca
