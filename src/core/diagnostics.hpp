// Global diagnostics over the model state: conservation checks, extrema,
// and CFL numbers. Used by tests, examples and the run-loop progress log.
#pragma once

#include <algorithm>
#include <cmath>

#include "src/core/state.hpp"
#include "src/grid/grid.hpp"

namespace asuca {

/// Total (generalized-coordinate) mass:  sum rho * J * dx dy dzeta, in a
/// fixed j-k-i order. Conserved exactly by the FVM flux form under
/// periodic boundaries. Passed a density-weighted tracer rho*q, it gives
/// that tracer's mass.
template <class T>
double total_mass(const Grid<T>& grid, const Array3<T>& rho) {
    double sum = 0.0;
    const auto& jc = grid.jacobian();
    for (Index j = 0; j < grid.ny(); ++j)
        for (Index k = 0; k < grid.nz(); ++k) {
            const double cell = grid.dx() * grid.dy() * grid.dzeta(k);
            for (Index i = 0; i < grid.nx(); ++i)
                sum += static_cast<double>(rho(i, j, k)) *
                       static_cast<double>(jc(i, j, k)) * cell;
        }
    return sum;
}

/// Interior summary statistics of a field: the per-field fingerprint the
/// golden-regression records store (src/verify/golden.hpp). mean and l2
/// are accumulated in double in a fixed order, so they are bitwise
/// reproducible across thread counts and domain decompositions.
struct FieldStats {
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double l2 = 0.0;  ///< sqrt(mean of squares)
};

template <class T>
FieldStats field_stats(const Array3<T>& a) {
    FieldStats st;
    st.min = 1e300;
    st.max = -1e300;
    double sum = 0.0, sum2 = 0.0;
    for (Index j = 0; j < a.ny(); ++j)
        for (Index k = 0; k < a.nz(); ++k)
            for (Index i = 0; i < a.nx(); ++i) {
                const double v = static_cast<double>(a(i, j, k));
                st.min = std::min(st.min, v);
                st.max = std::max(st.max, v);
                sum += v;
                sum2 += v * v;
            }
    const auto n = static_cast<double>(a.nx()) * static_cast<double>(a.ny()) *
                   static_cast<double>(a.nz());
    st.mean = sum / n;
    st.l2 = std::sqrt(sum2 / n);
    return st;
}

/// Maximum absolute value over the interior of any array.
template <class T>
double max_abs(const Array3<T>& a) {
    double m = 0.0;
    for (Index j = 0; j < a.ny(); ++j)
        for (Index k = 0; k < a.nz(); ++k)
            for (Index i = 0; i < a.nx(); ++i)
                m = std::max(m, std::abs(static_cast<double>(a(i, j, k))));
    return m;
}

/// Largest advective Courant number max(|u| dt/dx, |v| dt/dy, |w| dt/dz).
template <class T>
double courant_number(const Grid<T>& grid, const State<T>& s, double dt) {
    double c = 0.0;
    for (Index j = 0; j < grid.ny(); ++j)
        for (Index k = 0; k < grid.nz(); ++k)
            for (Index i = 0; i < grid.nx(); ++i) {
                const double rho = static_cast<double>(s.rho(i, j, k));
                const double u =
                    static_cast<double>(s.rhou(i, j, k)) / rho;
                const double v =
                    static_cast<double>(s.rhov(i, j, k)) / rho;
                const double w =
                    static_cast<double>(s.rhow(i, j, k)) / rho;
                const double dz =
                    static_cast<double>(grid.dz_center()(i, j, k));
                c = std::max({c, std::abs(u) * dt / grid.dx(),
                              std::abs(v) * dt / grid.dy(),
                              std::abs(w) * dt / dz});
            }
    return c;
}

/// True if every interior value of every prognostic field is finite.
template <class T>
bool state_is_finite(const State<T>& s) {
    auto ok = [](const Array3<T>& a) {
        for (Index j = 0; j < a.ny(); ++j)
            for (Index k = 0; k < a.nz(); ++k)
                for (Index i = 0; i < a.nx(); ++i)
                    if (!std::isfinite(static_cast<double>(a(i, j, k))))
                        return false;
        return true;
    };
    if (!ok(s.rho) || !ok(s.rhou) || !ok(s.rhov) || !ok(s.rhow) ||
        !ok(s.rhotheta))
        return false;
    for (const auto& q : s.tracers)
        if (!ok(q)) return false;
    return true;
}

}  // namespace asuca
