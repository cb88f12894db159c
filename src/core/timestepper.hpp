// Long time step driver: Wicker–Skamarock third-order Runge–Kutta with
// acoustic sub-stepping (paper Sec. II; refs [15][16]).
//
// One call to step() advances the state by dt:
//
//   for stage fraction f in {1/3, 1/2, 1}:
//     R    = slow tendencies at the latest stage state   (advection with
//            the Koren limiter, Coriolis, diffusion, sponge, slow PGF and
//            buoyancy against the reference state)
//     Phi  = acoustic integration of (Phi_n , R) over f*dt with the HE-VI
//            short steps (AcousticStepper)
//     q    = q_n + f*dt * R_q  for the water substances
//
// which mirrors the component flow of the paper's Fig. 1. Each component
// runs as a named kernel recorded in the KernelRegistry.
//
// That loop is written once, in step_program(), over a halo policy: the
// single-domain step() fills halos with the lateral BC, and each rank of
// a decomposed run (cluster/multidomain.hpp) with channel exchanges — the
// paper's one time-loop program per GPU with MPI boundary operations.
#pragma once

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/core/acoustic.hpp"
#include "src/core/advection.hpp"
#include "src/core/boundary.hpp"
#include "src/core/coriolis.hpp"
#include "src/core/diffusion.hpp"
#include "src/core/mass_flux.hpp"
#include "src/core/pgf.hpp"
#include "src/core/state.hpp"
#include "src/core/tendencies.hpp"
#include "src/field/simd.hpp"
#include "src/grid/grid.hpp"
#include "src/instrument/kernel_registry.hpp"
#include "src/observability/metrics.hpp"
#include "src/observability/step_hooks.hpp"
#include "src/observability/trace.hpp"
#include "src/parallel/thread_pool.hpp"

namespace asuca {

struct TimeStepperConfig {
    double dt = 1.0;        ///< long step [s]
    int n_short_steps = 6;  ///< acoustic substeps per full dt
    AcousticConfig acoustic;
    DiffusionConfig diffusion;
    SpongeConfig sponge;
    LateralBc bc = LateralBc::Periodic;
    bool clip_negative_tracers = true;
};

template <class T>
class TimeStepper {
  public:
    TimeStepper(const Grid<T>& grid, const SpeciesSet& species,
                const TimeStepperConfig& config)
        : grid_(grid), cfg_(config), acoustic_(grid, config.acoustic),
          slow_(grid, species), fluxes_(grid), work_(grid, species),
          p_pert_({grid.nx(), grid.ny(), grid.nz()}, grid.halo(),
                  grid.layout()),
          rho_pert_({grid.nx(), grid.ny(), grid.nz()}, grid.halo(),
                    grid.layout()) {
        ASUCA_REQUIRE(config.dt > 0.0, "dt must be positive");
        ASUCA_REQUIRE(config.n_short_steps >= 1, "need >= 1 short step");
    }

    const TimeStepperConfig& config() const { return cfg_; }

    /// Per-step hook surface: every subscriber is invoked with the
    /// updated state after each step(), in subscription order. The
    /// conservation ledger, metrics snapshotter and golden harness all
    /// attach here concurrently — see src/observability/step_hooks.hpp.
    using StepHooks = obs::StepHooks<const State<T>&>;
    StepHooks& step_hooks() { return step_hooks_; }

    /// Advance `state` by one long step dt.
    void step(State<T>& state) {
        obs::TraceSpan step_span("long_step", "phase");
        Timer step_timer;
        step_timer.start();
        step_program(state, BcHalos{*this});
        step_timer.stop();
        if (obs::metrics_enabled()) {
            static auto& steps =
                obs::MetricsRegistry::global().counter("stepper.steps");
            static auto& seconds = obs::MetricsRegistry::global().histogram(
                "stepper.step_microseconds");
            steps.add(1);
            seconds.observe(step_timer.seconds() * 1e6);
        }
        step_hooks_.notify(state);
    }

    /// The long step itself, for any executor. `halos` supplies the two
    /// operations that differ between a single domain and a rank of a
    /// decomposed run:
    ///   halos.refresh(s)              fill the lateral halos of a
    ///                                 state's prognostic fields and p;
    ///   halos.substep(ac, slow, dtau) run one acoustic substep of `ac`,
    ///                                 with the dp_half and du/dv halo
    ///                                 fills it needs.
    ///
    /// `state` itself serves as the step-start state: it is only read
    /// until the final RK stage writes the result back into it, so no
    /// per-stage deep copy is taken. Stages 1 and 2 land in the
    /// workspace, which is synced once (reference fields, halo content
    /// no stage writes) and has its reference fields refreshed per step.
    template <class Halos>
    void step_program(State<T>& state, Halos&& halos) {
        halos.refresh(state);
        sync_stage_workspace(state);

        static constexpr const char* kStageName[3] = {
            "rk3_stage_1/3", "rk3_stage_1/2", "rk3_stage_1"};
        static constexpr double kStageFraction[3] = {1.0 / 3.0, 0.5, 1.0};
        const State<T>* bar = &state;
        for (int stage = 0; stage < 3; ++stage) {
            obs::TraceSpan stage_span(kStageName[stage], "phase");
            const double dt_s = cfg_.dt * kStageFraction[stage];
            compute_slow_tendencies(*bar, slow_);
            acoustic_.prepare(*bar);
            acoustic_.init_deviations(state, *bar);
            const int ns = std::max(
                1, static_cast<int>(std::lround(cfg_.n_short_steps *
                                                kStageFraction[stage])));
            const double dtau = dt_s / ns;
            {
                obs::TraceSpan acoustic_span("acoustic_substeps", "phase");
                for (int n = 0; n < ns; ++n) {
                    halos.substep(acoustic_, slow_, dtau);
                }
            }
            // finalize and the tracer update are pointwise, so out == bar
            // (stage 1) and out == state (stage 2) are in-place safe.
            State<T>& out = (stage == 2) ? state : work_;
            acoustic_.finalize(*bar, out);
            update_tracers_into(state, dt_s, out);
            halos.refresh(out);
            bar = &out;
        }
    }

    /// Assemble the slow-mode tendencies at the given (BC-consistent)
    /// state. Public so tests and the FLOP calibration can call it alone.
    void compute_slow_tendencies(const State<T>& bar, Tendencies<T>& slow) {
        const Index nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
        const auto vol = static_cast<std::uint64_t>(nx * ny * nz);
        const Layout layout = grid_.layout();
        slow.clear();

        compute_mass_fluxes_instrumented(bar);

        {
            KernelScope scope("advection_momentum_x",
                              {/*reads=*/6, /*writes=*/1, /*stencil=*/48},
                              vol);
            advect_momentum_x(grid_, fluxes_, bar, slow.rhou);
        }
        {
            KernelScope scope("advection_momentum_y",
                              {/*reads=*/6, /*writes=*/1, 48}, vol);
            advect_momentum_y(grid_, fluxes_, bar, slow.rhov);
        }
        {
            KernelScope scope("advection_momentum_z",
                              {/*reads=*/6, /*writes=*/1, 48}, vol);
            advect_momentum_z(grid_, fluxes_, bar, slow.rhow);
        }
        {
            KernelScope scope("continuity", {/*reads=*/4, /*writes=*/1, 4},
                              vol);
            continuity_tendency(grid_, fluxes_, slow.rho);
        }
        {
            KernelScope scope("advection_theta", {/*reads=*/6, /*writes=*/1, 36},
                              vol);
            advect_scalar(grid_, fluxes_, bar.rho, bar.rhotheta,
                          slow.rhotheta);
        }
        {
            KernelScope scope("coriolis", {/*reads=*/4, /*writes=*/2, 6},
                              vol);
            coriolis(grid_, bar, slow.rhou, slow.rhov);
        }
        if (cfg_.diffusion.kh != 0.0 || cfg_.diffusion.kv != 0.0) {
            KernelScope scope("diffusion", {/*reads=*/8, /*writes=*/4, 28},
                              vol);
            diffusion(grid_, bar, cfg_.diffusion, slow);
        }
        if (cfg_.diffusion.k4h != 0.0) {
            KernelScope scope("hyperdiffusion",
                              {/*reads=*/6, /*writes=*/3, 48}, vol);
            hyperdiffusion(grid_, bar, cfg_.diffusion, slow);
        }
        if (cfg_.sponge.z_start >= 0.0) {
            KernelScope scope("sponge", {/*reads=*/1, /*writes=*/1, 0}, vol);
            sponge_damping(grid_, bar, cfg_.sponge, slow.rhow);
        }

        // Slow pressure-gradient and buoyancy forces from the deviation
        // against the balanced reference state.
        {
            KernelScope scope("perturbation_fields",
                              {/*reads=*/4, /*writes=*/2, 0}, vol);
            const Index h = grid_.halo();
            parallel_for_range(-h, ny + h, [&](Index jb, Index je) {
                for (Index j = jb; j < je; ++j)
                    for (Index k = -h; k < nz + h; ++k)
                        for_each_lane_chunk<T>(layout, -h, nx + h,
                                               [&](auto io, Index i) {
                            io.store(p_pert_, i, j, k,
                                     io(bar.p, i, j, k) -
                                         io(bar.p_ref, i, j, k));
                            io.store(rho_pert_, i, j, k,
                                     io(bar.rho, i, j, k) -
                                         io(bar.rho_ref, i, j, k));
                        });
            });
        }
        {
            KernelScope scope("pgf_x_slow", {/*reads=*/3, /*writes=*/1, 16},
                              vol);
            pgf_x(grid_, p_pert_, slow.rhou);
        }
        {
            KernelScope scope("pgf_y_slow", {/*reads=*/3, /*writes=*/1, 16},
                              vol);
            pgf_y(grid_, p_pert_, slow.rhov);
        }
        {
            KernelScope scope("pgf_z_buoyancy", {/*reads=*/3, /*writes=*/1, 5},
                              vol);
            pgf_z_buoyancy(grid_, p_pert_, rho_pert_, slow.rhow);
        }
        for (std::size_t n = 0; n < bar.tracers.size(); ++n) {
            KernelScope scope(advection_kernel_name(bar.species.at(n)),
                              {/*reads=*/6, /*writes=*/1, 36}, vol);
            advect_scalar(grid_, fluxes_, bar.rho, bar.tracers[n],
                          slow.tracers[n]);
        }
    }

    /// Fill lateral halos of all prognostic fields and the pressure, as
    /// one parallel region.
    void apply_state_bcs(State<T>& s) const {
        const Index nx = grid_.nx(), ny = grid_.ny();
        KernelScope scope("boundary_ops", {/*reads=*/1, /*writes=*/1, 0},
                          static_cast<std::uint64_t>(
                              2 * (nx + ny) * grid_.nz() * grid_.halo()));
        std::vector<Array3<T>*> group{&s.rho,  &s.rhou,     &s.rhov,
                                      &s.rhow, &s.rhotheta, &s.p};
        for (auto& q : s.tracers) group.push_back(&q);
        apply_lateral_bc<T>(group, cfg_.bc, nx, ny);
    }

  private:
    /// The single-domain halo policy: every fill is the lateral BC.
    struct BcHalos {
        TimeStepper& ts;
        void refresh(State<T>& s) const { ts.apply_state_bcs(s); }
        void substep(AcousticStepper<T>& ac, const Tendencies<T>& slow,
                     double dtau) const {
            ac.substep(slow, dtau, ts.cfg_.bc);
        }
    };

    void compute_mass_fluxes_instrumented(const State<T>& bar) {
        // These kernels compute into a one-ring halo extension; count the
        // elements they actually touch so FLOPs/element is mesh-invariant.
        const Index e = grid_.halo() - 1;
        const Index nx = grid_.nx() + 2 * e, ny = grid_.ny() + 2 * e;
        {
            // The paper's kernel (1): two reads, one write, one multiply.
            const auto elems = static_cast<std::uint64_t>(
                (nx + 1) * ny * grid_.nz() + nx * (ny + 1) * grid_.nz());
            KernelScope scope("coordinate_transform",
                              {/*reads=*/2, /*writes=*/1, 0}, elems);
            compute_horizontal_mass_fluxes(grid_, bar, fluxes_);
        }
        {
            const auto elems = static_cast<std::uint64_t>(
                nx * ny * (grid_.nz() + 1));
            KernelScope scope("contravariant_w",
                              {/*reads=*/5, /*writes=*/1, /*stencil=*/8},
                              elems);
            compute_contravariant_flux(grid_, bar, fluxes_);
        }
    }

    /// q = q0 + dt_s * dq per active tracer, negative values clipped to
    /// zero by a select (same-element safe, so out == s0 works for the
    /// in-place final RK stage).
    void update_tracers_into(const State<T>& s0, double dt_s, State<T>& out) {
        const Index nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
        if (out.tracers.empty()) return;
        const Layout layout = grid_.layout();
        const T dt = T(dt_s);
        const bool clip = cfg_.clip_negative_tracers;
        parallel_for(ny, [&](Index jb, Index je) {
            for (std::size_t n = 0; n < out.tracers.size(); ++n) {
                auto& q = out.tracers[n];
                const auto& q0 = s0.tracers[n];
                const auto& dq = slow_.tracers[n];
                for (Index j = jb; j < je; ++j)
                    for (Index k = 0; k < nz; ++k)
                        for_each_lane_chunk<T>(layout, 0, nx, [&, dt](
                                                                  auto io,
                                                                  Index i) {
                            auto v = io(q0, i, j, k) + dt * io(dq, i, j, k);
                            if (clip) {
                                const auto zero = io.splat(T(0));
                                v = v < zero ? zero : v;
                            }
                            io.store(q, i, j, k, v);
                        });
            }
        });
    }

    /// First call: full copy so the workspace carries what no stage
    /// writes (reference fields, z-halo content of p and the tracers).
    /// Later calls only refresh the reference fields, in case the caller
    /// rebalanced them, as one parallel copy of their padded y planes.
    void sync_stage_workspace(const State<T>& state) {
        if (!work_synced_) {
            work_ = state;
            work_synced_ = true;
            return;
        }
        const Index h = grid_.halo();
        parallel_for_range(-h, grid_.ny() + h, [&](Index jb, Index je) {
            auto copy = [&](const Array3<T>& from, Array3<T>& to) {
                const auto [first, last] = plane_range(from, jb, je);
                std::copy(from.data() + first, from.data() + last,
                          to.data() + first);
            };
            copy(state.rho_ref, work_.rho_ref);
            copy(state.p_ref, work_.p_ref);
            copy(state.rhotheta_ref, work_.rhotheta_ref);
            copy(state.cs2, work_.cs2);
        });
    }

    const Grid<T>& grid_;
    TimeStepperConfig cfg_;
    AcousticStepper<T> acoustic_;
    Tendencies<T> slow_;
    MassFluxes<T> fluxes_;
    State<T> work_;
    bool work_synced_ = false;
    Array3<T> p_pert_, rho_pert_;
    StepHooks step_hooks_;
};

}  // namespace asuca
