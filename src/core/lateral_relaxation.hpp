// Davies lateral-boundary relaxation for real-data runs.
//
// The paper's Fig. 12 simulation drives ASUCA with "different boundary
// data ... prepared for every one hour from the forecasted data calculated
// by a global spectral model". This module reproduces that mechanism:
// boundary frames (full states valid at given times) are registered, the
// current target is interpolated linearly in time, and after each long
// step the prognostic fields are nudged toward the target inside a rim of
// `zone_width` cells with the classical quadratic Davies weights
//
//     w(d) = ((W - d) / W)^2 ,   d = distance from the lateral boundary,
//
// at rate w/tau. Halos are filled directly from the target (specified
// inflow). Use together with LateralBc::ZeroGradient on the stepper.
#pragma once

#include <memory>
#include <vector>

#include "src/core/state.hpp"
#include "src/grid/grid.hpp"
#include "src/parallel/thread_pool.hpp"

namespace asuca {

struct LateralRelaxationConfig {
    Index zone_width = 5;      ///< rim depth [cells]
    double time_scale = 600.0; ///< nudging e-folding time at the edge [s]
};

template <class T>
class LateralRelaxation {
  public:
    LateralRelaxation(const Grid<T>& grid, LateralRelaxationConfig config)
        : grid_(grid), cfg_(config) {
        ASUCA_REQUIRE(cfg_.zone_width >= 1 &&
                          2 * cfg_.zone_width <= std::min(grid.nx(), grid.ny()),
                      "relaxation zone " << cfg_.zone_width
                                         << " too wide for the domain");
        ASUCA_REQUIRE(cfg_.time_scale > 0.0, "time scale must be positive");
    }

    /// Register a boundary frame valid at `time` [s]. Frames must arrive
    /// in increasing time order (hourly files, in the paper's case).
    void add_frame(double time, std::shared_ptr<const State<T>> target) {
        ASUCA_REQUIRE(target != nullptr, "null boundary frame");
        ASUCA_REQUIRE(frames_.empty() || time > frames_.back().time,
                      "boundary frames must be strictly time-ordered");
        frames_.push_back(Frame{time, std::move(target)});
    }

    /// Davies weight for the cell at (i, j) (0 outside the rim).
    double weight(Index i, Index j) const {
        const Index w = cfg_.zone_width;
        const Index d = std::min(
            std::min(i, grid_.nx() - 1 - i), std::min(j, grid_.ny() - 1 - j));
        if (d >= w) return 0.0;
        const double s = static_cast<double>(w - d) / static_cast<double>(w);
        return s * s;
    }

    /// Nudge `state` toward the time-interpolated target over `dt` and
    /// fill its halos from the target (call after each long step).
    void apply(double time, double dt, State<T>& state) {
        ASUCA_REQUIRE(!frames_.empty(), "no boundary frames registered");
        const auto [a, b, alpha] = bracket(time);
        auto blend = [&](const Array3<T>& fa, const Array3<T>& fb, Index i,
                         Index j, Index k) {
            return static_cast<double>(fa(i, j, k)) * (1.0 - alpha) +
                   static_cast<double>(fb(i, j, k)) * alpha;
        };

        auto relax_field = [&](Array3<T>& f, const Array3<T>& fa,
                               const Array3<T>& fb) {
            const Index h = f.halo();
            const Index wz = cfg_.zone_width;
            parallel_for(f.ny(), [&](Index jb, Index je) {
                for (Index j = jb; j < je; ++j) {
                    for (Index k = 0; k < f.nz(); ++k) {
                        for (Index i = 0; i < f.nx(); ++i) {
                            // Distance to the nearest lateral edge in this
                            // field's own (possibly staggered) index space.
                            const Index d = std::min(
                                std::min(i, f.nx() - 1 - i),
                                std::min(j, f.ny() - 1 - j));
                            if (d >= wz) continue;
                            const double s = static_cast<double>(wz - d) /
                                             static_cast<double>(wz);
                            const double w = s * s;
                            const double target = blend(fa, fb, i, j, k);
                            const double rate =
                                std::min(1.0, w * dt / cfg_.time_scale);
                            f(i, j, k) = static_cast<T>(
                                static_cast<double>(f(i, j, k)) +
                                rate * (target -
                                        static_cast<double>(f(i, j, k))));
                        }
                    }
                }
            });
            // Specified halos straight from the target.
            parallel_for_range(-h, f.ny() + h, [&](Index jb, Index je) {
                for (Index j = jb; j < je; ++j) {
                    for (Index k = 0; k < f.nz(); ++k) {
                        for (Index i = -h; i < f.nx() + h; ++i) {
                            const bool halo = (i < 0 || i >= f.nx() ||
                                               j < 0 || j >= f.ny());
                            if (!halo) continue;
                            const Index ic =
                                std::clamp<Index>(i, 0, f.nx() - 1);
                            const Index jc =
                                std::clamp<Index>(j, 0, f.ny() - 1);
                            f(i, j, k) =
                                static_cast<T>(blend(fa, fb, ic, jc, k));
                        }
                    }
                }
            });
        };

        relax_field(state.rho, a->rho, b->rho);
        relax_field(state.rhou, a->rhou, b->rhou);
        relax_field(state.rhov, a->rhov, b->rhov);
        relax_field(state.rhow, a->rhow, b->rhow);
        relax_field(state.rhotheta, a->rhotheta, b->rhotheta);
        for (std::size_t n = 0; n < state.tracers.size(); ++n) {
            relax_field(state.tracers[n], a->tracers[n], b->tracers[n]);
        }
    }

  private:
    struct Frame {
        double time;
        std::shared_ptr<const State<T>> state;
    };

    /// Frames bracketing `time` plus the interpolation factor.
    std::tuple<const State<T>*, const State<T>*, double> bracket(
        double time) const {
        if (time <= frames_.front().time) {
            return {frames_.front().state.get(), frames_.front().state.get(),
                    0.0};
        }
        for (std::size_t n = 0; n + 1 < frames_.size(); ++n) {
            if (time <= frames_[n + 1].time) {
                const double alpha = (time - frames_[n].time) /
                                     (frames_[n + 1].time - frames_[n].time);
                return {frames_[n].state.get(), frames_[n + 1].state.get(),
                        alpha};
            }
        }
        return {frames_.back().state.get(), frames_.back().state.get(), 0.0};
    }

    const Grid<T>& grid_;
    LateralRelaxationConfig cfg_;
    std::vector<Frame> frames_;
};

}  // namespace asuca
