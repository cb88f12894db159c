// Array3: the halo-aware 3-D array every field in the model is stored in.
//
// Interior indices run over [0, nx) x [0, ny) x [0, nz); accessors accept
// the halo range [-halo, n + halo) on each axis. The memory layout (kij vs
// xzy, see layout.hpp) is a runtime property so CPU-order and GPU-order
// executions of identical kernels can be compared bit-for-bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/types.hpp"
#include "src/field/layout.hpp"
#include "src/parallel/thread_pool.hpp"

namespace asuca {

template <class T>
class Array3 {
  public:
    Array3() = default;

    Array3(Int3 extents, Index halo, Layout layout, T fill = T(0))
        : extents_(extents),
          halo_(halo),
          layout_(layout),
          padded_{extents.x + 2 * halo, extents.y + 2 * halo,
                  extents.z + 2 * halo},
          strides_(make_strides(layout, padded_)),
          data_(static_cast<std::size_t>(padded_.volume()), fill) {
        ASUCA_REQUIRE(extents.x > 0 && extents.y > 0 && extents.z > 0,
                      "Array3 extents must be positive, got "
                          << extents.x << "x" << extents.y << "x" << extents.z);
        ASUCA_REQUIRE(halo >= 0, "negative halo " << halo);
    }

    Int3 extents() const { return extents_; }
    Index nx() const { return extents_.x; }
    Index ny() const { return extents_.y; }
    Index nz() const { return extents_.z; }
    Index halo() const { return halo_; }
    Layout layout() const { return layout_; }
    Int3 padded_extents() const { return padded_; }
    Strides strides() const { return strides_; }

    /// Number of stored elements including halos.
    std::size_t size() const { return data_.size(); }

    T* data() { return data_.data(); }
    const T* data() const { return data_.data(); }

    /// Flat offset of logical index (i,j,k); accepts halo indices.
    Index offset(Index i, Index j, Index k) const {
#ifdef ASUCA_BOUNDS_CHECK
        ASUCA_ASSERT(i >= -halo_ && i < extents_.x + halo_ &&
                         j >= -halo_ && j < extents_.y + halo_ &&
                         k >= -halo_ && k < extents_.z + halo_,
                     "index (" << i << "," << j << "," << k
                               << ") out of range for " << extents_.x << "x"
                               << extents_.y << "x" << extents_.z << " halo "
                               << halo_);
#endif
        return (i + halo_) * strides_.sx + (j + halo_) * strides_.sy +
               (k + halo_) * strides_.sz;
    }

    T& operator()(Index i, Index j, Index k) {
        return data_[static_cast<std::size_t>(offset(i, j, k))];
    }
    const T& operator()(Index i, Index j, Index k) const {
        return data_[static_cast<std::size_t>(offset(i, j, k))];
    }

    void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

    /// Copy interior + halos from `other`, which may use a different layout
    /// (used to move fields between CPU-order and GPU-order storage, the
    /// analog of the paper's host->device transposition at initialization).
    template <class U>
    void copy_values_from(const Array3<U>& other) {
        ASUCA_REQUIRE(other.extents() == extents_ && other.halo() == halo_,
                      "copy_values_from: shape mismatch");
        for (Index j = -halo_; j < extents_.y + halo_; ++j)
            for (Index k = -halo_; k < extents_.z + halo_; ++k)
                for (Index i = -halo_; i < extents_.x + halo_; ++i)
                    (*this)(i, j, k) = static_cast<T>(other(i, j, k));
    }

    /// Rebuild in a different layout, preserving all values.
    Array3<T> relaid(Layout layout) const {
        Array3<T> out(extents_, halo_, layout);
        out.copy_values_from(*this);
        return out;
    }

    bool same_shape(const Array3& other) const {
        return extents_ == other.extents_ && halo_ == other.halo_;
    }

  private:
    Int3 extents_{};
    Index halo_ = 0;
    Layout layout_ = Layout::XZY;
    Int3 padded_{};
    Strides strides_{};
    std::vector<T> data_;
};

/// Parallel fill over the flat storage (interior + halos). Used by the hot
/// per-step workspace clears; value-identical to Array3::fill for any
/// thread count.
template <class T>
void fill_parallel(Array3<T>& a, T value) {
    T* p = a.data();
    parallel_for(static_cast<Index>(a.size()), [&](Index b, Index e) {
        std::fill(p + b, p + e, value);
    });
}

/// Maximum absolute difference over the interiors of two same-shaped arrays
/// (layouts may differ). The workhorse of the round-off agreement tests.
/// NaN-propagating: any non-finite difference returns infinity immediately
/// instead of being silently dropped by std::max's NaN behavior — a NaN on
/// either side must FAIL an equality test, never pass it vacuously.
template <class T, class U>
double max_abs_diff(const Array3<T>& a, const Array3<U>& b) {
    ASUCA_REQUIRE(a.extents() == b.extents(), "max_abs_diff: shape mismatch");
    double m = 0.0;
    for (Index j = 0; j < a.ny(); ++j)
        for (Index k = 0; k < a.nz(); ++k)
            for (Index i = 0; i < a.nx(); ++i) {
                const double d =
                    std::abs(static_cast<double>(a(i, j, k)) -
                             static_cast<double>(b(i, j, k)));
                if (!(d <= std::numeric_limits<double>::max()))
                    return std::numeric_limits<double>::infinity();
                m = std::max(m, d);
            }
    return m;
}

/// Root-mean-square difference over the interiors of two same-shaped
/// arrays, accumulated in double in a fixed order. The error norm of the
/// grid-convergence (MMS) harness: unlike max_abs_diff it is insensitive
/// to isolated limiter-clipped cells, so smooth-data convergence orders
/// are measured on the bulk of the field.
template <class T, class U>
double rms_diff(const Array3<T>& a, const Array3<U>& b) {
    ASUCA_REQUIRE(a.extents() == b.extents(), "rms_diff: shape mismatch");
    double sum = 0.0;
    for (Index j = 0; j < a.ny(); ++j)
        for (Index k = 0; k < a.nz(); ++k)
            for (Index i = 0; i < a.nx(); ++i) {
                const double d = static_cast<double>(a(i, j, k)) -
                                 static_cast<double>(b(i, j, k));
                sum += d * d;
            }
    const auto n = static_cast<double>(a.nx()) * static_cast<double>(a.ny()) *
                   static_cast<double>(a.nz());
    return std::sqrt(sum / n);
}

}  // namespace asuca
