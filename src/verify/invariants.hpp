// Conservation ledger: integral invariants of the model state and their
// drift over a run.
//
// The flux-form FVM dycore conserves total mass exactly under periodic
// lateral boundaries (the divergence telescopes), and the same argument
// covers every density-weighted tracer as long as the negative-clipping
// guard never fires. Momentum and energy are *budgets*, not invariants:
// terrain pressure drag, the sponge layer, diffusion and the acoustic
// off-centering all exchange or dissipate them legitimately. The ledger
// therefore records everything each step and lets the caller decide which
// drifts are errors (the verification tests pin mass to ~1e-12 relative
// per step and merely report the budgets).
//
// All sums are accumulated in double regardless of the model scalar type,
// in a fixed j-k-i order, so ledger values are bitwise reproducible for
// any thread count (the reductions are outside the parallel kernels).
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/constants.hpp"
#include "src/core/diagnostics.hpp"
#include "src/core/state.hpp"
#include "src/grid/grid.hpp"

namespace asuca::verify {

/// One snapshot of the integral quantities of a State.
struct InvariantSnapshot {
    double time = 0.0;
    double total_mass = 0.0;   ///< integral of rho * J dV  [kg]
    double dry_mass = 0.0;     ///< total minus all water species [kg]
    double water_mass = 0.0;   ///< sum of rho*q_alpha integrals [kg]
    std::vector<double> tracer_mass;  ///< per active species [kg]
    double momentum_x = 0.0;   ///< integral of rho*u * J dV  [kg m/s]
    double momentum_y = 0.0;
    double momentum_z = 0.0;
    double kinetic_energy = 0.0;    ///< 1/2 rho |u|^2 integral [J]
    double internal_energy = 0.0;   ///< p/(gamma-1) integral [J]
    double potential_energy = 0.0;  ///< rho g z integral [J]
};

/// Compute every invariant of `state`. Face-staggered momenta are summed
/// over faces [0, n) on their axis — under a domain decomposition the
/// shared face then belongs to exactly one rank, so per-rank sums add up
/// to the single-domain value.
template <class T>
InvariantSnapshot compute_invariants(const Grid<T>& grid,
                                     const State<T>& s, double time = 0.0) {
    InvariantSnapshot inv;
    inv.time = time;
    const Index nx = grid.nx(), ny = grid.ny(), nz = grid.nz();
    const double dA = grid.dx() * grid.dy();
    const auto& jxf = grid.jacobian_xface();
    const auto& jyf = grid.jacobian_yface();
    const auto& jzf = grid.jacobian_zface();
    const auto& jc = grid.jacobian();

    inv.total_mass = asuca::total_mass(grid, s.rho);
    inv.tracer_mass.reserve(s.tracers.size());
    for (const auto& q : s.tracers) {
        inv.tracer_mass.push_back(asuca::total_mass(grid, q));
        inv.water_mass += inv.tracer_mass.back();
    }
    inv.dry_mass = inv.total_mass - inv.water_mass;

    for (Index j = 0; j < ny; ++j)
        for (Index k = 0; k < nz; ++k) {
            const double cell = dA * grid.dzeta(k);
            for (Index i = 0; i < nx; ++i) {
                inv.momentum_x += static_cast<double>(s.rhou(i, j, k)) *
                                  static_cast<double>(jxf(i, j, k)) * cell;
                inv.momentum_y += static_cast<double>(s.rhov(i, j, k)) *
                                  static_cast<double>(jyf(i, j, k)) * cell;
            }
        }
    for (Index j = 0; j < ny; ++j)
        for (Index k = 1; k < nz; ++k) {  // boundary faces are kinematic
            const double cell =
                dA * 0.5 * (grid.dzeta(k - 1) + grid.dzeta(k));
            for (Index i = 0; i < nx; ++i)
                inv.momentum_z += static_cast<double>(s.rhow(i, j, k)) *
                                  static_cast<double>(jzf(i, j, k)) * cell;
        }

    const double g = constants::g;
    const double rgm1 = 1.0 / (constants::gamma_d - 1.0);
    for (Index j = 0; j < ny; ++j)
        for (Index k = 0; k < nz; ++k) {
            const double cell = dA * grid.dzeta(k);
            for (Index i = 0; i < nx; ++i) {
                const double rho = static_cast<double>(s.rho(i, j, k));
                const double vol =
                    static_cast<double>(jc(i, j, k)) * cell;
                const double u =
                    0.5 * (static_cast<double>(s.rhou(i, j, k)) +
                           static_cast<double>(s.rhou(i + 1, j, k))) / rho;
                const double v =
                    0.5 * (static_cast<double>(s.rhov(i, j, k)) +
                           static_cast<double>(s.rhov(i, j + 1, k))) / rho;
                const double w =
                    0.5 * (static_cast<double>(s.rhow(i, j, k)) +
                           static_cast<double>(s.rhow(i, j, k + 1))) / rho;
                inv.kinetic_energy +=
                    0.5 * rho * (u * u + v * v + w * w) * vol;
                inv.internal_energy +=
                    static_cast<double>(s.p(i, j, k)) * rgm1 * vol;
                inv.potential_energy +=
                    rho * g *
                    static_cast<double>(grid.z_center()(i, j, k)) * vol;
            }
        }
    return inv;
}

/// Invariants of a decomposed run, accumulated rank by rank (templated on
/// the runner so this header does not depend on src/cluster; any type with
/// rank_count() / rank_grid(r) / rank_state(r) works). Because momenta sum
/// faces [0, n) per rank, no face is double-counted across ranks, and the
/// rank-sum must agree with the single-domain invariant up to summation
/// order — the cross-check tests pin that agreement.
template <class Runner>
InvariantSnapshot compute_rank_sum_invariants(Runner& runner,
                                              double time = 0.0) {
    InvariantSnapshot total;
    total.time = time;
    for (Index r = 0; r < runner.rank_count(); ++r) {
        const InvariantSnapshot part = compute_invariants(
            runner.rank_grid(r), runner.rank_state(r), time);
        total.total_mass += part.total_mass;
        total.dry_mass += part.dry_mass;
        total.water_mass += part.water_mass;
        if (total.tracer_mass.empty()) {
            total.tracer_mass = part.tracer_mass;
        } else {
            for (std::size_t n = 0; n < part.tracer_mass.size(); ++n)
                total.tracer_mass[n] += part.tracer_mass[n];
        }
        total.momentum_x += part.momentum_x;
        total.momentum_y += part.momentum_y;
        total.momentum_z += part.momentum_z;
        total.kinetic_energy += part.kinetic_energy;
        total.internal_energy += part.internal_energy;
        total.potential_energy += part.potential_energy;
    }
    return total;
}

/// Drift bookkeeping over a sequence of snapshots.
class ConservationLedger {
  public:
    void record(InvariantSnapshot snap) {
        history_.push_back(std::move(snap));
    }

    bool empty() const { return history_.empty(); }
    std::size_t size() const { return history_.size(); }
    const InvariantSnapshot& first() const { return history_.front(); }
    const InvariantSnapshot& last() const { return history_.back(); }
    const std::vector<InvariantSnapshot>& history() const { return history_; }

    /// Relative change of a quantity between the first and last snapshot.
    /// `member` selects the quantity, e.g. &InvariantSnapshot::total_mass.
    double relative_drift(double InvariantSnapshot::* member) const {
        const double a = history_.front().*member;
        const double b = history_.back().*member;
        return (b - a) / scale(a);
    }

    /// Largest relative change of the quantity between two *consecutive*
    /// snapshots — the "per step" drift the conservation tests pin.
    double max_step_drift(double InvariantSnapshot::* member) const {
        double worst = 0.0;
        for (std::size_t n = 1; n < history_.size(); ++n) {
            const double a = history_[n - 1].*member;
            const double b = history_[n].*member;
            worst = std::max(worst, std::abs(b - a) / scale(a));
        }
        return worst;
    }

    /// Same for a single tracer-mass slot. A tracer that starts at zero is
    /// measured against the dry-mass scale instead (absolute drift in a
    /// field that should stay empty is still an error).
    double max_step_tracer_drift(std::size_t slot) const {
        double worst = 0.0;
        for (std::size_t n = 1; n < history_.size(); ++n) {
            const double a = history_[n - 1].tracer_mass.at(slot);
            const double b = history_[n].tracer_mass.at(slot);
            const double ref = std::abs(a) > 0.0
                                   ? std::abs(a)
                                   : std::abs(history_[n - 1].dry_mass);
            worst = std::max(worst, std::abs(b - a) / scale(ref));
        }
        return worst;
    }

    /// Human-readable drift table (used by examples and failure messages).
    std::string report(const SpeciesSet& species) const {
        if (history_.size() < 2) return "ledger: <2 snapshots>\n";
        char buf[160];
        std::string out =
            "quantity              first -> last        rel. drift   "
            "max step drift\n";
        auto line = [&](const char* name, double InvariantSnapshot::* m) {
            std::snprintf(buf, sizeof(buf),
                          "%-16s %12.6e -> %12.6e  %10.3e  %10.3e\n", name,
                          history_.front().*m, history_.back().*m,
                          relative_drift(m), max_step_drift(m));
            out += buf;
        };
        line("total mass", &InvariantSnapshot::total_mass);
        line("dry mass", &InvariantSnapshot::dry_mass);
        for (std::size_t n = 0;
             n < history_.front().tracer_mass.size() && n < species.count();
             ++n) {
            std::snprintf(
                buf, sizeof(buf),
                "%-16s %12.6e -> %12.6e              %10.3e\n",
                std::string(name_of(species.at(n))).c_str(),
                history_.front().tracer_mass[n],
                history_.back().tracer_mass[n], max_step_tracer_drift(n));
            out += buf;
        }
        line("momentum x", &InvariantSnapshot::momentum_x);
        line("momentum y", &InvariantSnapshot::momentum_y);
        line("momentum z", &InvariantSnapshot::momentum_z);
        line("kinetic E", &InvariantSnapshot::kinetic_energy);
        line("internal E", &InvariantSnapshot::internal_energy);
        line("potential E", &InvariantSnapshot::potential_energy);
        return out;
    }

  private:
    static double scale(double reference) {
        const double a = std::abs(reference);
        return a > 0.0 ? a : 1.0;
    }

    std::vector<InvariantSnapshot> history_;
};

}  // namespace asuca::verify
