// Order statistics of timing samples: every reported timing is a median
// plus the 90th percentile, computed here and nowhere else.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Linearly interpolated quantile of unsorted samples (the "type 7"
/// definition, as numpy's default): q = 0 is the minimum, q = 1 the
/// maximum, and q = 0.5 of an even count is the mean of the middle two.
inline double quantile(std::vector<double> v, double q) {
    if (v.empty()) throw std::invalid_argument("quantile of no samples");
    if (!(q >= 0.0 && q <= 1.0)) {
        throw std::invalid_argument("quantile outside [0, 1]");
    }
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) {
    return quantile(std::move(v), 0.5);
}

/// Samples strictly greater than `threshold`: a percentile is reported
/// only when at least ten samples lie beyond it.
inline std::size_t count_above(const std::vector<double>& v,
                               double threshold) {
    return static_cast<std::size_t>(
        std::count_if(v.begin(), v.end(),
                      [&](double x) { return x > threshold; }));
}

/// Completion rate, robust to a slow spell: split the sorted completion
/// times (seconds since the window opened) into `chunks` runs of equal
/// count, take each run's completions per second of elapsed time, and
/// return the median. A spell covering less than half the window leaves
/// it unchanged.
inline double chunked_rate(std::vector<double> done_s, int chunks = 6) {
    if (done_s.empty()) throw std::invalid_argument("rate of no samples");
    std::sort(done_s.begin(), done_s.end());
    const std::size_t n = done_s.size();
    const std::size_t k = std::min<std::size_t>(static_cast<std::size_t>(chunks), n);
    std::vector<double> rates;
    std::size_t lo = 0;
    double t_lo = 0.0;
    for (std::size_t c = 1; c <= k; ++c) {
        const std::size_t hi = c * n / k;
        const double t_hi = done_s[hi - 1];
        if (t_hi > t_lo) {
            rates.push_back(static_cast<double>(hi - lo) / (t_hi - t_lo));
        }
        lo = hi;
        t_lo = t_hi;
    }
    return median(rates);
}

}  // namespace perfbench
