// Watchdog: per-step health scanning with structured, rank-attributed
// findings.
//
// The failure-mode tests used to poll `model.is_finite()` — a blanket
// yes/no that says nothing about *which* field went bad, *where*, or
// *why*. The Watchdog replaces that with a structured HealthReport: each
// finding names the rank, step, check, field and cell that tripped, so a
// driver can decide per finding whether to roll back (transient
// corruption), abort (genuine instability), or merely log.
//
// Checks, each independently toggleable via WatchdogConfig:
//   * non-finite scan  — first NaN/Inf per prognostic field (and p);
//   * advective CFL    — |u|dt/dx + |v|dt/dy + |w|dt/dz over the limit
//     (catches the bit-flip faults that stay finite but explode);
//   * mass drift       — relative change of total mass against a caller
//     -held baseline. Per-rank mass is NOT conserved under a domain
//     decomposition (fluxes cross subdomain boundaries), so the runner
//     applies this check to the rank-sum only.
//
// The scans read only interior cells between steps, so they need no
// synchronization with the rank workers. They visit every interior cell
// each time they run; the cell loops are slab-parallel on the calling
// thread's ThreadPool (row-partitioned; the reported cell is the
// traversal-minimum over all rows, so the result is independent of pool
// width).
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/diagnostics.hpp"
#include "src/core/state.hpp"
#include "src/grid/grid.hpp"
#include "src/observability/metrics.hpp"
#include "src/parallel/thread_pool.hpp"

namespace asuca::resilience {

struct WatchdogConfig {
    bool check_finite = true;
    /// Advective CFL threshold; <= 0 disables the check. The RK3 scheme
    /// is stable to ~1.6; anything past ~2 is already blowing up.
    double cfl_limit = 0.0;
    /// Relative total-mass drift threshold; <= 0 disables. Applied by
    /// the driver to the global (rank-summed) mass only.
    double mass_drift_tol = 0.0;
};

/// One tripped check. `check` is a stable machine-readable tag:
/// "nonfinite", "cfl", "mass_drift", "halo", or "deadline".
struct HealthFinding {
    Index rank = 0;
    long long step = 0;
    std::string check;
    std::string field;           ///< offending field, when cell-local
    Index i = 0, j = 0, k = 0;   ///< offending cell, when cell-local
    double value = 0.0;          ///< the bad value / CFL number / drift
    std::string detail;          ///< free-form context

    std::string to_string() const {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "[rank %lld step %lld] %s: %s(%lld,%lld,%lld) = %g %s",
                      static_cast<long long>(rank), step, check.c_str(),
                      field.empty() ? "-" : field.c_str(),
                      static_cast<long long>(i), static_cast<long long>(j),
                      static_cast<long long>(k), value, detail.c_str());
        return std::string(buf);
    }
};

struct HealthReport {
    std::vector<HealthFinding> findings;

    bool healthy() const { return findings.empty(); }
    void clear() { findings.clear(); }

    bool has(const std::string& check) const {
        for (const auto& f : findings)
            if (f.check == check) return true;
        return false;
    }

    const HealthFinding* first(const std::string& check) const {
        for (const auto& f : findings)
            if (f.check == check) return &f;
        return nullptr;
    }

    std::string to_string() const {
        if (findings.empty()) return "healthy";
        std::string out;
        for (const auto& f : findings) {
            out += f.to_string();
            out += '\n';
        }
        return out;
    }
};

template <class T>
class Watchdog {
  public:
    explicit Watchdog(WatchdogConfig cfg = {}) : cfg_(cfg) {}

    const WatchdogConfig& config() const { return cfg_; }

    /// Scan one rank's state, appending findings to `report`. Returns the
    /// number of findings added. Only the first bad cell per field is
    /// reported — "first" in the fixed j,k,i traversal order, chosen
    /// deterministically regardless of how the row-parallel scan was
    /// chunked: a blown-up field has thousands of bad cells and one
    /// location is what a human needs.
    int scan(const Grid<T>& grid, const State<T>& state, double dt,
             Index rank, long long step, HealthReport& report) const {
        long long cells = 0;
        int added = 0;
        if (cfg_.check_finite) {
            added += scan_finite(state, rank, step, report, cells);
        }
        if (cfg_.cfl_limit > 0.0) {
            added += scan_cfl(grid, state, dt, rank, step, report, cells);
        }
        if (obs::metrics_enabled()) {
            static auto& scanned = obs::MetricsRegistry::global().counter(
                "resilience.watchdog_cells");
            static auto& scans = obs::MetricsRegistry::global().counter(
                "resilience.watchdog_scans");
            scanned.add(static_cast<std::uint64_t>(cells));
            scans.add(1);
        }
        return added;
    }

    /// Global mass-drift check against a caller-held baseline; call with
    /// the rank-summed mass under a decomposition.
    int check_mass(double mass, double baseline, Index rank, long long step,
                   HealthReport& report) const {
        if (cfg_.mass_drift_tol <= 0.0) return 0;
        const double scale = std::abs(baseline) > 0.0 ? std::abs(baseline)
                                                      : 1.0;
        const double drift = std::abs(mass - baseline) / scale;
        if (!(drift <= cfg_.mass_drift_tol) || !std::isfinite(mass)) {
            HealthFinding f;
            f.rank = rank;
            f.step = step;
            f.check = "mass_drift";
            f.value = drift;
            f.detail = "mass " + std::to_string(mass) + " vs baseline " +
                       std::to_string(baseline);
            report.findings.push_back(std::move(f));
            return 1;
        }
        return 0;
    }

    /// Total mass of a rank's interior (sum rho * J dV), the quantity the
    /// mass-drift check tracks.
    static double total_mass(const Grid<T>& grid, const State<T>& state) {
        return asuca::total_mass(grid, state.rho);
    }

  private:
    /// Per-row scan record: the row's first bad cell (in k,i traversal
    /// order) and how many cells the row actually visited. Rows are
    /// written only by the chunk that owns them, so the row-parallel
    /// scans need no locking; the merge picks the minimum-(j,k,i) hit.
    struct RowHit {
        bool hit = false;
        Index i = 0, k = 0;
        double value = 0.0;
        long long scanned = 0;
    };

    int scan_finite(const State<T>& state, Index rank, long long step,
                    HealthReport& report, long long& cells) const {
        int added = 0;
        auto ids = state.prognostic_ids();
        for (VarId id : ids) {
            const auto& a = state.field(id);
            if (scan_array(a, name_of(id, state.species), rank, step,
                           report, cells)) {
                ++added;
            }
        }
        if (scan_array(state.p, "p", rank, step, report, cells)) {
            ++added;
        }
        return added;
    }

    bool scan_array(const Array3<T>& a, const std::string& name, Index rank,
                    long long step, HealthReport& report,
                    long long& cells) const {
        const Index ny = a.ny(), nz = a.nz(), nx = a.nx();
        std::vector<RowHit> rows(static_cast<std::size_t>(ny));
        parallel_for(ny, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j) {
                auto& row = rows[static_cast<std::size_t>(j)];
                for (Index k = 0; k < nz && !row.hit; ++k) {
                    for (Index i = 0; i < nx; ++i) {
                        ++row.scanned;
                        const double v = static_cast<double>(a(i, j, k));
                        if (!std::isfinite(v)) {
                            row.hit = true;
                            row.i = i;
                            row.k = k;
                            row.value = v;
                            break;
                        }
                    }
                }
            }
        });
        for (Index j = 0; j < ny; ++j) {
            const auto& row = rows[static_cast<std::size_t>(j)];
            cells += row.scanned;
            if (!row.hit) continue;
            HealthFinding f;
            f.rank = rank;
            f.step = step;
            f.check = "nonfinite";
            f.field = name;
            f.i = row.i;
            f.j = j;
            f.k = row.k;
            f.value = row.value;
            report.findings.push_back(std::move(f));
            // Skip the remaining rows' cell counts: one finding per
            // field, and the counts of rows after the hit still arrive
            // via the loop below.
            for (Index jj = j + 1; jj < ny; ++jj) {
                cells += rows[static_cast<std::size_t>(jj)].scanned;
            }
            return true;
        }
        return false;
    }

    int scan_cfl(const Grid<T>& grid, const State<T>& state, double dt,
                 Index rank, long long step, HealthReport& report,
                 long long& cells) const {
        const auto& dz = grid.dz_center();
        const Index ny = grid.ny(), nz = grid.nz(), nx = grid.nx();
        std::vector<RowHit> rows(static_cast<std::size_t>(ny));
        parallel_for(ny, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j) {
                auto& row = rows[static_cast<std::size_t>(j)];
                for (Index k = 0; k < nz && !row.hit; ++k) {
                    for (Index i = 0; i < nx; ++i) {
                        ++row.scanned;
                        const double rho =
                            static_cast<double>(state.rho(i, j, k));
                        if (!(rho > 0.0)) continue;  // nonfinite scan's job
                        const double u =
                            0.5 *
                            (static_cast<double>(state.rhou(i, j, k)) +
                             static_cast<double>(
                                 state.rhou(i + 1, j, k))) /
                            rho;
                        const double v =
                            0.5 *
                            (static_cast<double>(state.rhov(i, j, k)) +
                             static_cast<double>(
                                 state.rhov(i, j + 1, k))) /
                            rho;
                        const double w =
                            0.5 *
                            (static_cast<double>(state.rhow(i, j, k)) +
                             static_cast<double>(
                                 state.rhow(i, j, k + 1))) /
                            rho;
                        const double cfl =
                            dt * (std::abs(u) / grid.dx() +
                                  std::abs(v) / grid.dy() +
                                  std::abs(w) /
                                      static_cast<double>(dz(i, j, k)));
                        if (!(cfl <= cfg_.cfl_limit)) {
                            row.hit = true;
                            row.i = i;
                            row.k = k;
                            row.value = cfl;
                            break;
                        }
                    }
                }
            }
        });
        for (Index j = 0; j < ny; ++j) {
            const auto& row = rows[static_cast<std::size_t>(j)];
            cells += row.scanned;
            if (!row.hit) continue;
            HealthFinding f;
            f.rank = rank;
            f.step = step;
            f.check = "cfl";
            f.field = "advective_cfl";
            f.i = row.i;
            f.j = j;
            f.k = row.k;
            f.value = row.value;
            f.detail = "limit " + std::to_string(cfg_.cfl_limit);
            report.findings.push_back(std::move(f));
            for (Index jj = j + 1; jj < ny; ++jj) {
                cells += rows[static_cast<std::size_t>(jj)].scanned;
            }
            return 1;
        }
        return 0;
    }

    WatchdogConfig cfg_;
};

}  // namespace asuca::resilience
