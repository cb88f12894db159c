// Koren (1993) flux limiter, the monotonicity device ASUCA uses to avoid
// numerical oscillations (paper Sec. II, ref [14]).
//
// The limited face value for an upwind-biased reconstruction with
// smoothness ratio r = (phi_u - phi_uu) / (phi_d - phi_u) is
//
//     phi_face = phi_u + 0.5 * psi(r) * (phi_d - phi_u)
//
// with the Koren limiter function
//
//     psi(r) = max(0, min(2r, min((1 + 2r)/3, 2)))
//
// which is third-order accurate in smooth regions and TVD. The stencil is
// the 4-point {uu, u, d, dd} neighborhood the paper mentions ("a four-point
// stencil in each direction").
//
// limited_face_value_lanes is the same limiter on Lanes<T>, branch-free:
// each lane selects its upwind triple by the velocity sign and runs
// koren_face_value's exact operation sequence, with std::min/std::max
// written as the comparisons they are and the flat-field guard as a
// select, so every lane equals the scalar result bit for bit.
#pragma once

#include <algorithm>

#include "src/field/simd.hpp"

namespace asuca {

/// Koren limiter function psi(r).
template <class T>
inline T koren_psi(T r) {
    using std::max;
    using std::min;
    return max(T(0), min(T(2) * r, min((T(1) + T(2) * r) / T(3), T(2))));
}

/// Limited face value between `phi_u` (upwind cell) and `phi_d` (downwind
/// cell), with `phi_uu` the next cell further upwind:
///
///     r = (phi_d - phi_u) / (phi_u - phi_uu)
///     phi_face = phi_u + 0.5 * psi(r) * (phi_u - phi_uu)
///
/// which reduces to the third-order kappa = 1/3 upwind-biased scheme
/// (phi_u + (phi_d - phi_u)/3 + (phi_u - phi_uu)/6) in smooth regions.
template <class T>
inline T koren_face_value(T phi_uu, T phi_u, T phi_d) {
    const T denom = phi_u - phi_uu;
    const T numer = phi_d - phi_u;
    // Guard the degenerate locally-flat case: psi is bounded, so the
    // correction 0.5*psi*denom vanishes with denom; return upwind.
    const T tiny = T(1e-30);
    if (denom * denom < tiny) return phi_u;
    const T r = numer / denom;
    return phi_u + T(0.5) * koren_psi(r) * denom;
}

/// Upwind-selected limited face value given the transport velocity sign.
/// Cells are ordered by increasing coordinate: m2, m1 | face | p0, p1.
template <class T>
inline T limited_face_value(T vel, T phi_m2, T phi_m1, T phi_p0, T phi_p1) {
    if (vel >= T(0)) {
        return koren_face_value(phi_m2, phi_m1, phi_p0);
    }
    return koren_face_value(phi_p1, phi_p0, phi_m1);
}

/// koren_psi on every lane of V, with std::min(a, b) = (b < a) ? b : a and
/// std::max(a, b) = (a < b) ? b : a spelled out, so each lane takes the
/// scalar function's value (signed zeros included).
template <MultiLane V>
inline V koren_psi_lanes(V r) {
    using T = lane_element_t<V>;
    const V zero = lane_splat<V>(T(0));
    const V two = lane_splat<V>(T(2));
    const V third = (T(1) + T(2) * r) / T(3);
    const V inner = (two < third) ? two : third;
    const V twice = T(2) * r;
    const V mid = (inner < twice) ? inner : twice;
    return (zero < mid) ? mid : zero;
}

/// limited_face_value for every lane of V (a Lanes<T> chunk of faces).
/// The flat-field guard is a select; a chunk whose lanes are all flat
/// returns the upwind values without dividing, which keeps all-zero
/// tracers (cloud and rain outside clouds) as cheap as the scalar
/// branch. Width 1 (remainders, the CountingReal calibration) is the
/// scalar limiter itself.
template <class V>
inline V limited_face_value_lanes(V vel, V phi_m2, V phi_m1, V phi_p0,
                                  V phi_p1) {
    if constexpr (!MultiLane<V>) {
        return limited_face_value(vel, phi_m2, phi_m1, phi_p0, phi_p1);
    } else {
        using T = lane_element_t<V>;
        const auto up = vel >= lane_splat<V>(T(0));
        const V uu = up ? phi_m2 : phi_p1;
        const V u = up ? phi_m1 : phi_p0;
        const V d = up ? phi_p0 : phi_m1;
        const V denom = u - uu;
        const V numer = d - u;
        const auto flat = denom * denom < lane_splat<V>(T(1e-30));
        if (all_lanes(flat)) return u;
        const V r = numer / denom;
        const V face = u + T(0.5) * koren_psi_lanes(r) * denom;
        return flat ? u : face;
    }
}

}  // namespace asuca
