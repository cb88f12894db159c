// Lane type for the CPU dycore kernels.
//
// The paper's single-device contribution is a storage-order change
// (kij -> xzy, Sec. IV-A-1) that makes neighboring vertical columns
// adjacent in memory so a warp can march them in lockstep, and xz tiles
// marched in y for advection (Sec. IV-A-2). The CPU analogue runs each
// dycore kernel's per-cell expression — short step and long step alike —
// along unit-stride x rows on SIMD lanes: `Lanes<T>` holds exactly
// simd_lanes<T>() elements of T as a GCC/Clang vector extension, and
// for_each_lane_chunk feeds a kernel body whole lane chunks of a row and
// then a scalar remainder, through the same body. `MultiLane`,
// `lane_splat` and `all_lanes` let a body that needs a select (the
// branch-free Koren limiter of core/limiter.hpp, the tracer clip) name
// the lane type.
//
// The lane type is explicit because the compiler does not vectorize the
// plain loops: GCC 12 at -O2 (the build's flags) uses the `very-cheap`
// vectorizer cost model, which rejects any loop whose trip count is not a
// known multiple of the vector width or that needs an alias or stride
// check. The TimeStepper<double> object code held 0 packed double
// operations (mulpd/addpd/subpd/divpd) against 1114 scalar ones before
// the kernels moved onto Lanes<T> (DESIGN.md §11).
//
// Every lane runs the one-cell operation sequence of the scalar code
// (vector arithmetic is IEEE per lane), so lane chunks, the remainder and
// the kij gather give bitwise-identical results on targets without
// implicit FMA contraction (-mavx2 included; see the -DASUCA_NATIVE_ARCH
// note in DESIGN.md). Any other T (the CountingReal FLOP counter) gets
// width 1, so calibration counts the same per-cell arithmetic.
#pragma once

#include <type_traits>
#include <utility>

#include "src/common/types.hpp"
#include "src/field/array3.hpp"
#include "src/field/layout.hpp"

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

namespace detail {
template <class T, Index N = simd_lanes<T>()>
struct LaneVector {
    using type = T;
};
template <class T, Index N>
    requires((std::is_same_v<T, float> || std::is_same_v<T, double>) &&
             N > 1)
struct LaneVector<T, N> {
    typedef T type __attribute__((vector_size(N * sizeof(T))));
    /// The same vector at element alignment, for unaligned row loads and
    /// stores. Accessed through a typed pointer, not memcpy: a vector of T
    /// aliases T only, so a store does not force every Array3 stride and
    /// data pointer of the kernel body to be reloaded.
    typedef T unaligned
        __attribute__((vector_size(N * sizeof(T)), aligned(alignof(T))));
};
}  // namespace detail

/// simd_lanes<T>() elements of T in one native vector (float, double);
/// T itself for any other element type.
template <class T>
using Lanes = typename detail::LaneVector<T>::type;

/// Elements of T in a value of lane type V (1 when V is T).
template <class V, class T>
constexpr Index lane_count = static_cast<Index>(sizeof(V) / sizeof(T));

/// A Lanes<T> of more than one element (a vector extension); T itself,
/// including the CountingReal counter, is not.
template <class V>
concept MultiLane = requires(V v) { v[0]; };

namespace detail {
template <class V>
struct LaneElement {
    using type = V;
};
template <MultiLane V>
struct LaneElement<V> {
    using type = std::remove_cvref_t<decltype(std::declval<V>()[0])>;
};
}  // namespace detail

/// The element type of lane type V (V itself when V is a scalar).
template <class V>
using lane_element_t = typename detail::LaneElement<V>::type;

/// Every lane of V set to x.
template <class V>
inline V lane_splat(lane_element_t<V> x) {
    if constexpr (MultiLane<V>) {
        V v{};
        for (Index l = 0; l < lane_count<V, lane_element_t<V>>; ++l) v[l] = x;
        return v;
    } else {
        return x;
    }
}

/// Whether every lane of a lane comparison is true (a scalar comparison
/// is its own bool).
template <class M>
inline bool all_lanes(M mask) {
    if constexpr (std::is_same_v<M, bool>) {
        return mask;
    } else {
        for (Index l = 0; l < static_cast<Index>(sizeof(M) / sizeof(mask[0]));
             ++l)
            if (!mask[l]) return false;
        return true;
    }
}

/// The lane width the short-step kernels run at, whatever the argument.
/// Kept only because the benchmark envelope records it under this name.
template <class T>
constexpr Index resolve_column_batch(Index /*unused*/) {
    return lane_count<Lanes<T>, T>;
}

/// Load V from p, p + stride, p + 2 stride, ... (one element when V is T).
template <class V, class T>
inline V load_lanes(const T* p, Index stride) {
    if constexpr (std::is_same_v<V, T>) {
        return *p;
    } else {
        if (stride == 1) {
            using U = typename detail::LaneVector<T>::unaligned;
            return *reinterpret_cast<const U*>(p);
        }
        V v{};
        for (Index l = 0; l < lane_count<V, T>; ++l) v[l] = p[l * stride];
        return v;
    }
}

/// Store V to p, p + stride, p + 2 stride, ...
template <class V, class T>
inline void store_lanes(T* p, Index stride, V v) {
    if constexpr (std::is_same_v<V, T>) {
        *p = v;
    } else if (stride == 1) {
        using U = typename detail::LaneVector<T>::unaligned;
        *reinterpret_cast<U*>(p) = v;
    } else {
        for (Index l = 0; l < lane_count<V, T>; ++l) p[l * stride] = v[l];
    }
}

/// How a kernel body reads and writes one chunk of V at x index i: Array3
/// elements along x (unit stride under xzy, a strided gather/scatter
/// under kij) and row buffers (always unit stride).
template <class V, bool UnitX>
struct LaneAccess {
    template <class T>
    V operator()(const Array3<T>& a, Index i, Index j, Index k) const {
        return load_lanes<V>(at(a, i, j, k), UnitX ? 1 : a.strides().sx);
    }
    template <class T>
    V operator()(const T* row) const {
        return load_lanes<V>(row, 1);
    }
    template <class T>
    void store(Array3<T>& a, Index i, Index j, Index k, V v) const {
        store_lanes(at(a, i, j, k), UnitX ? 1 : a.strides().sx, v);
    }
    template <class T>
    void store(T* row, V v) const {
        store_lanes(row, 1, v);
    }
    /// Every lane set to x.
    V splat(lane_element_t<V> x) const { return lane_splat<V>(x); }

  private:
    /// Address of a(i, j, k). Under xzy the x stride is 1, so the row
    /// start is loop-invariant along a row and i is a plain index.
    template <class A>
    static auto at(A& a, Index i, Index j, Index k) {
        if constexpr (UnitX) {
            return a.data() + a.offset(0, j, k) + i;
        } else {
            return &a(i, j, k);
        }
    }
};

namespace detail {
// flatten: the body, its LaneAccess calls and their Array3 accessors are
// inlined into the chunk loops (GCC's -O2 inliner otherwise leaves the
// accessors of a large kernel body out of line). The body is taken by
// value: a local closure whose address does not escape is split into
// registers, so the scalars it captured by value are loaded once per
// row. Through a reference, a lane store (which may alias any T) would
// force each one to be reloaded and re-broadcast in every chunk.
template <class T, bool UnitX, class Body>
[[gnu::flatten]] inline void lane_chunks(Index i0, Index i1, Body body) {
    using V = Lanes<T>;
    constexpr Index L = lane_count<V, T>;
    Index i = i0;
    for (; i + L <= i1; i += L) body(LaneAccess<V, UnitX>{}, i);
    for (; i < i1; ++i) body(LaneAccess<T, UnitX>{}, i);
}
}  // namespace detail

/// Run `body(io, i)` over the x indices [i0, i1) of one row: whole
/// Lanes<T> chunks starting at i0, then the scalar remainder, so no load
/// reaches outside the row. `io` is a LaneAccess, and the body writes its
/// per-cell expression once in terms of it. Arrays stored in `layout`
/// are read unit-stride (xzy) or gathered (kij). A body captures the
/// per-row T scalars it reads by value (see lane_chunks).
template <class T, class Body>
inline void for_each_lane_chunk(Layout layout, Index i0, Index i1,
                                Body&& body) {
    if (layout == Layout::XZY) {
        detail::lane_chunks<T, true>(i0, i1, body);
    } else {
        detail::lane_chunks<T, false>(i0, i1, body);
    }
}

/// for_each_lane_chunk over a unit-stride row buffer (no Array3 access).
template <class T, class Body>
inline void for_each_lane_chunk(Index i0, Index i1, Body&& body) {
    detail::lane_chunks<T, true>(i0, i1, body);
}

}  // namespace asuca
