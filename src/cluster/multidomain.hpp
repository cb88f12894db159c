// In-process multi-domain execution with REAL halo exchanges — the
// numerical counterpart of the paper's 2-D MPI decomposition (Sec. V).
//
// The global domain is split px x py; each "rank" owns its own Grid,
// State and TimeStepper. Each rank runs the single-domain step program,
// TimeStepper::step_program(), on its own TaskLayer worker (issuing its
// kernels against a private per-rank ThreadPool via
// ThreadPool::ScopedOverride), with a halo policy that turns every
// lateral-BC fill into a neighbor exchange through per-neighbor
// double-buffered HaloChannels. In its acoustic substep the
// halo-consuming kernels split into boundary-strip and interior launches
// so the strips can be posted while the interior computes — the paper's
// Sec. V-A overlap method 2 — and the density/theta updates run
// logically fused (method 3). Method 1 (inter-variable pipelining) is
// modeled in StepModel only: measured on a 4-core host it bought nothing
// over this schedule.
//
// Under the resilience policy each rank also copies its own state into
// the staging side of the rollback snapshots at the end of a step that
// is due one (resilience/snapshot.hpp); advance() promotes the round
// once the step passes its health scan.
//
// Because the per-cell arithmetic is identical, the channel strips carry
// exactly the cells the single-domain periodic fill writes, and every
// kernel split is a disjoint partition of the same writes, a decomposed
// run is bitwise identical to the single-domain run (validated in
// tests/test_multidomain.cpp) — the decomposition analog of the paper's
// "GPU code agrees with the CPU code within round-off".
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/cluster/halo_channel.hpp"
#include "src/core/timestepper.hpp"
#include "src/grid/grid.hpp"
#include "src/io/checkpoint.hpp"
#include "src/io/durable_blob.hpp"
#include "src/observability/metrics.hpp"
#include "src/observability/step_hooks.hpp"
#include "src/observability/trace.hpp"
#include "src/parallel/task_layer.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/resilience/fault_injector.hpp"
#include "src/resilience/snapshot.hpp"
#include "src/resilience/watchdog.hpp"

namespace asuca::cluster {

/// The runner's one schedule: rank-concurrent, kernel division (method
/// 2) + fusion (method 3). Kept, with MultiDomainConfig::overlap, only
/// for source compatibility of callers that still name it; the runner
/// never reads it.
enum class OverlapMode { Split };

/// A step failure the runner cannot repair by rollback-and-replay: an
/// implicated rank died, missed its halo deadline, or a transient fault
/// persisted past max_retries. Carries the suspect-rank attribution so
/// the layer above (the forecast server's retry ladder) can quarantine
/// the implicated worker slot and re-dispatch the request elsewhere.
/// Derives from Error, so callers that treat any runner failure as a
/// plain exception keep working unchanged.
class FatalFaultError : public Error {
  public:
    FatalFaultError(const std::string& what, std::vector<Index> suspects,
                    bool exhausted = false)
        : Error(what), suspect_ranks(std::move(suspects)),
          retries_exhausted(exhausted) {}
    /// Implicated rank indices (deduplicated, ascending; may be empty
    /// when the failure carried no attribution).
    std::vector<Index> suspect_ranks;
    /// True when the fault itself was transient but survived every
    /// rollback-and-replay attempt the policy allowed.
    bool retries_exhausted;
};

/// Fault policy of the runner (the resilience subsystem). Detection is
/// always on: halo waits are bounded by `halo_deadline`, every halo
/// message is checksummed, and a rank that throws poisons every channel
/// so its peers unwind. `enabled` adds recovery — rollback snapshots,
/// the watchdog, rollback-and-replay and fault plans. Off by default
/// (recovery costs two extra state copies per rank); on or off, the
/// answer is bitwise the same.
struct ResilienceConfig {
    bool enabled = false;
    /// Long steps between in-memory rank snapshots (rollback points).
    long long checkpoint_interval = 1;
    /// Consecutive rollbacks tolerated before a fault is declared
    /// persistent (fatal).
    int max_retries = 3;
    /// Deadline of every halo wait, recovery on or off: a peer that
    /// neither posts nor drains within it fails the run with a
    /// rank-attributed error.
    std::chrono::nanoseconds halo_deadline = kDefaultHaloDeadline;
    resilience::WatchdogConfig watchdog;
    /// Injected faults (tests / benchmarks); empty in production.
    resilience::FaultPlan faults;
};

struct MultiDomainConfig {
    OverlapMode overlap = OverlapMode::Split;  ///< unused (see OverlapMode)
    /// Threads in each rank's private ThreadPool. 1 means the rank's
    /// j-slab loops run inline on its task thread.
    std::size_t threads_per_rank = 1;
    ResilienceConfig resilience;
};

template <class T>
class MultiDomainRunner {
  public:
    /// `global` describes the full domain; it is split into px x py equal
    /// subdomains (extents must divide evenly and be at least one halo
    /// wide, so every halo strip comes from one neighbor's interior).
    MultiDomainRunner(const GridSpec& global, Index px, Index py,
                      const SpeciesSet& species,
                      const TimeStepperConfig& config,
                      const MultiDomainConfig& mdconfig = {})
        : global_(global), px_(px), py_(py), cfg_(config), mdcfg_(mdconfig) {
        ASUCA_REQUIRE(px >= 1 && py >= 1, "need at least 1x1 ranks");
        ASUCA_REQUIRE(global.nx % px == 0 && global.ny % py == 0,
                      "global mesh " << global.nx << "x" << global.ny
                                     << " not divisible by " << px << "x"
                                     << py);
        ASUCA_REQUIRE(cfg_.bc == LateralBc::Periodic,
                      "multi-domain runner implements periodic exchange");
        nxl_ = global.nx / px;
        nyl_ = global.ny / py;
        ASUCA_REQUIRE(nxl_ >= global.halo && nyl_ >= global.halo,
                      "local extents " << nxl_ << "x" << nyl_
                                       << " below the halo width "
                                       << global.halo);
        // The paper's method-3 fusion inside the acoustic implicit phase
        // (bitwise identical to the unfused updates).
        TimeStepperConfig rank_cfg = cfg_;
        rank_cfg.acoustic.fuse_density_theta = true;
        ranks_.reserve(static_cast<std::size_t>(px * py));
        for (Index ry = 0; ry < py; ++ry) {
            for (Index rx = 0; rx < px; ++rx) {
                ranks_.push_back(std::make_unique<Rank>(
                    make_local_spec(rx, ry), species, rank_cfg));
            }
        }
        tasks_ = std::make_unique<TaskLayer>(
            static_cast<std::size_t>(rank_count()));
        rebuild_exchanger();
        pools_.reserve(static_cast<std::size_t>(rank_count()));
        for (Index r = 0; r < rank_count(); ++r) {
            pools_.push_back(std::make_unique<ThreadPool>(
                std::max<std::size_t>(1, mdcfg_.threads_per_rank)));
        }
        // ASUCA_FORCE_GUARDED=1 flips recovery on for runners that did
        // not opt in — the CI lever that runs the whole tier-1 matrix
        // with rollback snapshots and the watchdog exercised. A runner that
        // carries a fault plan while disabled still rejects it below
        // (that combination is a caller bug, not a mode choice).
        if (!mdcfg_.resilience.enabled && mdcfg_.resilience.faults.empty() &&
            force_guarded_env()) {
            mdcfg_.resilience.enabled = true;
        }
        const ResilienceConfig& rc = mdcfg_.resilience;
        if (!rc.enabled) {
            ASUCA_REQUIRE(rc.faults.empty(),
                          "fault plan provided but resilience is disabled");
        } else {
            ASUCA_REQUIRE(rc.checkpoint_interval >= 1 && rc.max_retries >= 0,
                          "bad resilience config");
            injector_ = resilience::FaultInjector(rc.faults);
            watchdog_ = resilience::Watchdog<T>(rc.watchdog);
            snap_.configure(rank_count());
        }
    }

    Index rank_count() const { return px_ * py_; }
    State<T>& rank_state(Index r) { return ranks_[size_t(r)]->state; }
    const State<T>& rank_state(Index r) const {
        return ranks_[size_t(r)]->state;
    }
    const Grid<T>& rank_grid(Index r) const {
        return ranks_[size_t(r)]->grid;
    }
    /// Effective resilience state (after the ASUCA_FORCE_GUARDED env
    /// override applied at construction).
    bool resilience_enabled() const { return mdcfg_.resilience.enabled; }
    long long step_index() const { return step_index_; }
    /// Human-readable trace of injections, rollbacks and replays.
    const std::string& recovery_log() const { return recovery_log_; }
    /// Watchdog findings of the most recent advance() health scan.
    const resilience::HealthReport& last_health_report() const {
        return last_report_;
    }
    resilience::FaultInjector& injector() { return injector_; }

    /// Hooks invoked after every committed step, when all rank states
    /// are final and exchanged — the decomposed counterpart of
    /// TimeStepper::step_hooks() (the conservation ledger and the
    /// metrics snapshotter attach here, in subscription order). Always
    /// fired from the step() caller's thread, after the rank tasks have
    /// joined; advance() skips steps that are about to roll back.
    using StepHooks = obs::StepHooks<MultiDomainRunner&>;
    StepHooks& step_hooks() { return step_hooks_; }

    /// Copy the interiors of a global state into the rank states and
    /// perform the initial exchange through the halo channels.
    void scatter(const State<T>& global_state) {
        for (Index r = 0; r < rank_count(); ++r) {
            auto& rk = *ranks_[size_t(r)];
            copy_window(global_state.rho, rk.state.rho, r, 0, 0);
            copy_window(global_state.rhou, rk.state.rhou, r, 1, 0);
            copy_window(global_state.rhov, rk.state.rhov, r, 0, 1);
            copy_window(global_state.rhow, rk.state.rhow, r, 0, 0);
            copy_window(global_state.rhotheta, rk.state.rhotheta, r, 0, 0);
            copy_window(global_state.p, rk.state.p, r, 0, 0);
            copy_window_padded(global_state.rho_ref, rk.state.rho_ref, r);
            copy_window_padded(global_state.p_ref, rk.state.p_ref, r);
            copy_window_padded(global_state.rhotheta_ref,
                               rk.state.rhotheta_ref, r);
            copy_window_padded(global_state.cs2, rk.state.cs2, r);
            for (std::size_t n = 0; n < rk.state.tracers.size(); ++n) {
                copy_window(global_state.tracers[n], rk.state.tracers[n], r,
                            0, 0);
            }
        }
        run_ranks([this](Index r) {
            pipelined_exchange(r,
                               exchange_field_list(ranks_[size_t(r)]->state));
        });
        // The rank states were just replaced wholesale: any existing
        // rollback point (and the once-copied reference fields) is stale,
        // and so is the watchdog's mass baseline.
        snap_.invalidate();
        mass_init_ = false;
    }

    /// Copy the rank interiors back into a global state (halos are left to
    /// the caller's BC application).
    void gather(State<T>& global_state) const {
        for (Index r = 0; r < rank_count(); ++r) {
            const auto& rk = *ranks_[size_t(r)];
            copy_window_back(rk.state.rho, global_state.rho, r, 0, 0);
            copy_window_back(rk.state.rhou, global_state.rhou, r, 1, 0);
            copy_window_back(rk.state.rhov, global_state.rhov, r, 0, 1);
            copy_window_back(rk.state.rhow, global_state.rhow, r, 0, 0);
            copy_window_back(rk.state.rhotheta, global_state.rhotheta, r, 0,
                             0);
            copy_window_back(rk.state.p, global_state.p, r, 0, 0);
            for (std::size_t n = 0; n < rk.state.tracers.size(); ++n) {
                copy_window_back(rk.state.tracers[n],
                                 global_state.tracers[n], r, 0, 0);
            }
        }
    }

    /// One long step on every rank. No fault handling: a detected fault
    /// propagates as an exception. The resilient driver is advance().
    void step() {
        step_impl(/*stage_snapshot=*/false);
        ++step_index_;
        record_step_metrics();
        step_hooks_.notify(*this);
    }

    /// Advance `n_steps` long steps under the resilience policy:
    /// periodic in-memory snapshots, injected-fault hooks, a per-step
    /// watchdog scan, rollback-and-replay on transient faults and a
    /// rank-attributed abort on fatal ones. A step that is due a
    /// rollback point stages it from the ranks' freshly computed states;
    /// the round becomes the rollback point only once the step commits.
    /// The step observer fires only on COMMITTED steps (never on a step
    /// that is about to be rolled back), so observers see exactly the
    /// same sequence of states as a fault-free run. With resilience
    /// disabled this is n plain step()s.
    void advance(long long n_steps) {
        const ResilienceConfig& rc = mdcfg_.resilience;
        if (!rc.enabled) {
            for (long long s = 0; s < n_steps; ++s) step();
            return;
        }
        const bool track_mass = watchdog_.config().mass_drift_tol > 0.0;
        if (track_mass && !mass_init_) {
            mass_baseline_ = global_mass();
            mass_init_ = true;
        }
        if (!snap_.valid()) {
            // First rollback point: the current rank states, copied on
            // this thread.
            snap_.capture_sync(
                [this](Index r) -> const State<T>& { return rank_state(r); },
                step_index_, mass_baseline_);
        }
        const long long target = step_index_ + n_steps;
        int retries = 0;
        while (step_index_ < target) {
            const bool snapshot_due =
                step_index_ + 1 - snap_.step() >= rc.checkpoint_interval;
            try {
                step_impl(snapshot_due);
            } catch (...) {
                FailureVerdict v = classify_failure();
                if (v.fatal) {
                    throw FatalFaultError(
                        "multi-domain step " + std::to_string(step_index_) +
                            " failed: " + v.what,
                        std::move(v.suspects));
                }
                ++retries;
                if (retries > rc.max_retries) {
                    throw FatalFaultError(
                        "transient fault persists after " +
                            std::to_string(retries) + " attempts: " + v.what,
                        std::move(v.suspects), /*exhausted=*/true);
                }
                rollback(v.what);
                continue;
            }
            // Injected field corruption models a bad write DURING the
            // step: it lands before the health scan, so detection and
            // recovery exercise exactly the real-fault path. The ranks
            // staged their snapshot copies before it lands, so a rollback
            // point stays clean even when the fault stays finite and the
            // watchdog only sees it overflow in the next step.
            injector_.apply_field_faults(
                step_index_, rank_count(),
                [&](Index r) -> State<T>& { return rank_state(r); },
                &recovery_log_);
            resilience::HealthReport report;
            scan_all_ranks(report);
            double mass = 0.0;
            if (track_mass) {
                mass = global_mass();
                watchdog_.check_mass(mass, mass_baseline_, 0, step_index_,
                                     report);
            }
            if (!report.healthy()) {
                obs::trace_instant("watchdog_unhealthy",
                                   report.findings.front().rank,
                                   "resilience");
                last_report_ = report;
                ++retries;
                if (retries > rc.max_retries) {
                    std::vector<Index> suspects;
                    for (const auto& f : report.findings) {
                        suspects.push_back(f.rank);
                    }
                    std::sort(suspects.begin(), suspects.end());
                    suspects.erase(
                        std::unique(suspects.begin(), suspects.end()),
                        suspects.end());
                    throw FatalFaultError("watchdog fault persists after " +
                                              std::to_string(retries) +
                                              " attempts:\n" +
                                              report.to_string(),
                                          std::move(suspects),
                                          /*exhausted=*/true);
                }
                rollback("watchdog: " + report.findings.front().check);
                continue;
            }
            last_report_ = std::move(report);
            if (track_mass) mass_baseline_ = mass;
            ++step_index_;
            retries = 0;
            if (snapshot_due) snap_.promote(step_index_, mass_baseline_);
            record_step_metrics();
            step_hooks_.notify(*this);
        }
    }

    /// Roll back to the most recent committed rollback snapshot —
    /// operator-triggered recovery, and the test hook proving snapshot
    /// fidelity (the restored state must be bitwise what was committed
    /// at the snapshot step).
    void restore_last_snapshot() {
        ASUCA_REQUIRE(mdcfg_.resilience.enabled,
                      "resilience disabled: no snapshots");
        rollback("manual restore");
    }

    /// Checkpoint every rank's full padded state (v3 stream sections
    /// behind a small decomposition header) for exact multi-domain
    /// restart: halos included, so a restarted runner replays bitwise.
    /// The whole payload goes out as one wrapped blob (magic, length,
    /// checksum) through an atomic rename, so a crash mid-write never
    /// leaves a torn file under `path`.
    void save_checkpoint(const std::string& path) const {
        std::ostringstream out(std::ios::binary);
        const std::int64_t hdr[3] = {px_, py_, step_index_};
        out.write(reinterpret_cast<const char*>(hdr), sizeof(hdr));
        for (Index r = 0; r < rank_count(); ++r) {
            io::save_state(out, rank_state(r), step_time());
        }
        io::write_file_atomic(path, io::wrap_blob(std::move(out).str()));
    }

    /// Transactional restore: the wrapped blob is verified whole (a
    /// damaged one throws from unwrap_blob), then every rank section
    /// deserializes (and checksum-verifies) into staged copies, so a
    /// truncated or corrupted checkpoint throws without touching any
    /// rank's state.
    void load_checkpoint(const std::string& path) {
        std::istringstream in(io::unwrap_blob(io::read_file(path)),
                              std::ios::binary);
        std::int64_t hdr[3] = {0, 0, 0};
        in.read(reinterpret_cast<char*>(hdr), sizeof(hdr));
        ASUCA_REQUIRE(in.good() && hdr[0] == px_ && hdr[1] == py_,
                      "checkpoint decomposition "
                          << hdr[0] << "x" << hdr[1]
                          << " does not match runner " << px_ << "x" << py_);
        std::vector<State<T>> staged;
        staged.reserve(static_cast<std::size_t>(rank_count()));
        for (Index r = 0; r < rank_count(); ++r) {
            staged.push_back(rank_state(r));
            io::load_state(in, staged.back());
        }
        for (Index r = 0; r < rank_count(); ++r) {
            rank_state(r) = std::move(staged[static_cast<std::size_t>(r)]);
        }
        step_index_ = hdr[2];
        snap_.invalidate();  // stale rollback points
        mass_init_ = false;
    }

  private:
    using size_t = std::size_t;

    struct Rank {
        Rank(const GridSpec& spec, const SpeciesSet& species,
             const TimeStepperConfig& cfg)
            : grid(spec), state(grid, species), stepper(grid, species, cfg) {}
        Grid<T> grid;
        State<T> state;
        TimeStepper<T> stepper;
    };

    /// Exchanged state fields in canonical order: the six dynamic fields
    /// first, then the tracers. Channel message streams rely on every
    /// rank issuing posts/receives in this same order.
    static std::vector<Array3<T>*> exchange_field_list(State<T>& s) {
        std::vector<Array3<T>*> fs = {&s.rho, &s.rhou,     &s.rhov,
                                      &s.rhow, &s.rhotheta, &s.p};
        for (auto& q : s.tracers) fs.push_back(&q);
        return fs;
    }

    /// Run `body(r)` for every rank on its own TaskLayer worker, with the
    /// rank's j-slab kernels routed to its private pool (inline when
    /// single-threaded) — the process pool's run_region supports only
    /// one caller at a time. Any rank failure poisons every channel so no
    /// peer stays blocked on a message that will never come: each rank
    /// unwinds with its own verdict, and advance() classifies them.
    template <class Body>
    void run_ranks(Body&& body) {
        tasks_->run([&](std::size_t ri) {
            ThreadPool::ScopedOverride pool_guard(*pools_[ri]);
            try {
                body(static_cast<Index>(ri));
            } catch (...) {
                exchanger_->poison_all();
                throw;
            }
        });
    }

    /// One long step: every rank runs rank_step_program() concurrently,
    /// after any injected rank/halo faults due this step are armed, and
    /// then, when `stage_snapshot` is set, copies its new state into the
    /// staging side of the rollback snapshots.
    void step_impl(bool stage_snapshot) {
        obs::TraceSpan span("md_long_step", "phase");
        run_ranks([this, stage_snapshot](Index r) {
            if (injector_.enabled()) {
                const auto stall = injector_.stall(r, step_index_);
                if (stall.count() > 0) {
                    obs::trace_instant("fault_stall", r, "resilience");
                    std::this_thread::sleep_for(stall);
                }
                if (injector_.kill(r, step_index_)) {
                    obs::trace_instant("fault_kill", r, "resilience");
                    throw resilience::InjectedFaultError(r, step_index_);
                }
                if (injector_.arm_halo_corrupt(r, step_index_)) {
                    obs::trace_instant("fault_halo_corrupt", r,
                                       "resilience");
                    exchanger_->arm_corrupt(r);
                }
                const auto delay = injector_.halo_delay(r, step_index_);
                if (delay.count() > 0) {
                    obs::trace_instant("fault_halo_delay", r, "resilience");
                    exchanger_->arm_delay(r, delay);
                }
            }
            rank_step_program(r);
            if (stage_snapshot) snap_.stage(r, rank_state(r));
        });
    }

    /// Rank r's halo policy for TimeStepper::step_program(): every
    /// lateral fill is a channel exchange, and the acoustic substep is
    /// the split schedule below.
    struct ChannelHalos {
        MultiDomainRunner& md;
        Index r;
        void refresh(State<T>& s) const {
            md.pipelined_exchange(r, exchange_field_list(s));
        }
        void substep(AcousticStepper<T>& ac, const Tendencies<T>& slow,
                     double dtau) const {
            md.acoustic_substep_split(r, ac, slow, dtau);
        }
    };

    /// The whole long step from one rank's point of view: the
    /// single-domain step program with channel exchanges for halo
    /// fills. Every rank runs this same program, so each SPSC channel
    /// sees an identical message sequence on both ends and the bounded
    /// (<= 2 in flight) post/recv schedules below can never deadlock:
    /// each post waits only on a receive that occurs strictly earlier in
    /// the shared program order.
    void rank_step_program(Index r) {
        if (obs::trace_enabled()) {
            obs::name_this_thread("rank " + std::to_string(r) + " worker");
        }
        obs::TraceSpan program_span("rank_step", r, "phase");
        Rank& rk = *ranks_[size_t(r)];
        rk.stepper.step_program(rk.state, ChannelHalos{*this, r});
    }

    /// Generic pipelined exchange of a field group: x posts run one field
    /// ahead of the x receives, y posts two fields ahead of the y
    /// receives, so every channel holds at most 2 in-flight messages
    /// (its slot count) while pack/unpack of different fields overlap
    /// across ranks.
    void pipelined_exchange(Index r, const std::vector<Array3<T>*>& fs) {
        const std::size_t m = fs.size();
        if (m == 0) return;
        exchanger_->post_x(r, *fs[0]);
        for (std::size_t f = 0; f < m; ++f) {
            if (f + 1 < m) exchanger_->post_x(r, *fs[f + 1]);
            exchanger_->recv_x(r, *fs[f]);
            exchanger_->post_y(r, *fs[f]);
            if (f >= 1) exchanger_->recv_y(r, *fs[f - 1]);
        }
        exchanger_->recv_y(r, *fs[m - 1]);
    }

    /// One acoustic substep with halo-consuming kernels divided into
    /// boundary-strip and interior launches (paper Sec. V-A method 2):
    /// dp_half's strips are computed and posted before its interior, the
    /// x-momentum update (which reads no y halos) and all but one row of
    /// the y-momentum update run while dp_half's y strips are in flight.
    /// It exchanges the same two halos AcousticStepper::substep fills:
    /// the implicit phase's dw/drho/dth/dp halos are never read (DESIGN.md
    /// §8, "Halo liveness").
    void acoustic_substep_split(Index r, AcousticStepper<T>& ac,
                                const Tendencies<T>& slow, double dtau) {
        const Grid<T>& grid = rank_grid(r);
        const Index nx = grid.nx(), ny = grid.ny();
        const Index h = grid.halo();
        // Far edges of the interior. Below two halos of local extent the
        // two bands of an axis meet and the interior is empty, so every
        // cell is still computed exactly once.
        const Index xe = std::max(nx - h, h), ye = std::max(ny - h, h);

        // Phase 1 boundary frame first — every cell the dp_half
        // channels carry.
        ac.phase_theta_half_region(slow, dtau, 0, h, 0, ny);
        ac.phase_theta_half_region(slow, dtau, xe, nx, 0, ny);
        ac.phase_theta_half_region(slow, dtau, h, xe, 0, h);
        ac.phase_theta_half_region(slow, dtau, h, xe, ye, ny);
        exchanger_->post_x(r, ac.dp_half());
        // Interior overlaps the in-flight x strips.
        ac.phase_theta_half_region(slow, dtau, h, xe, h, ye);
        exchanger_->recv_x(r, ac.dp_half());
        exchanger_->post_y(r, ac.dp_half());
        // pgf_x reads no y halos: every row runs during the y exchange.
        ac.phase_momentum_x_rows(slow, dtau, 0, ny);
        // pgf_y face row j reads rows j-1 and j: only row 0 must wait.
        ac.phase_momentum_y_rows(slow, dtau, 1, ny);
        exchanger_->recv_y(r, ac.dp_half());
        ac.phase_momentum_y_rows(slow, dtau, 0, 1);

        // du/dv halos feed the one-ring bottom kinematic condition.
        pipelined_exchange(r, {&ac.du(), &ac.dv()});
        ac.phase_bottom_kinematic();
        ac.phase_vertical_implicit(slow, dtau);
    }

    // ------------------------------------------------------------------
    // Resilience: snapshots, rollback, failure classification.
    // ------------------------------------------------------------------

    double step_time() const {
        return static_cast<double>(step_index_) * cfg_.dt;
    }

    /// Per-committed-step counters, shared by step() and advance().
    void record_step_metrics() {
        if (!obs::metrics_enabled()) return;
        static obs::Counter& steps =
            obs::MetricsRegistry::global().counter("multidomain.steps");
        steps.add();
    }

    double global_mass() const {
        double mass = 0.0;
        for (Index r = 0; r < rank_count(); ++r) {
            mass += resilience::Watchdog<T>::total_mass(rank_grid(r),
                                                        rank_state(r));
        }
        return mass;
    }

    static bool force_guarded_env() {
        const char* e = std::getenv("ASUCA_FORCE_GUARDED");
        return e != nullptr && e[0] != '\0' && std::strcmp(e, "0") != 0;
    }

    /// Watchdog scan of every rank (row-parallel, per watchdog.hpp).
    /// Each rank scans itself on its own task worker (against its private
    /// pool); findings merge in rank order, so the report is
    /// deterministic regardless of scheduling.
    void scan_all_ranks(resilience::HealthReport& report) {
        obs::TraceSpan span("watchdog_scan", "resilience");
        std::vector<resilience::HealthReport> reports(
            static_cast<std::size_t>(rank_count()));
        run_ranks([&](Index r) {
            watchdog_.scan(rank_grid(r), rank_state(r), cfg_.dt, r,
                           step_index_, reports[size_t(r)]);
        });
        for (auto& rr : reports) {
            report.findings.insert(
                report.findings.end(),
                std::make_move_iterator(rr.findings.begin()),
                std::make_move_iterator(rr.findings.end()));
        }
    }

    /// Roll every rank back to the snapshot and reset the exchange
    /// machinery: a fault unwinds rank programs mid-flight, leaving
    /// channels poisoned with undrained messages and mismatched sequence
    /// counters, so the exchanger is rebuilt from scratch (fresh
    /// counters). The replay recomputes the step from a
    /// byte-identical state with the injected fault already consumed, so
    /// a recovered run is bitwise identical to a fault-free one.
    void rollback(const std::string& why) {
        obs::trace_instant("rollback", "resilience");
        if (obs::metrics_enabled()) {
            obs::MetricsRegistry::global()
                .counter("resilience.rollbacks")
                .add();
        }
        // The committed side is the newest clean rollback point; a round
        // staged by the failed step is dropped.
        snap_.restore(
            [this](Index r) -> State<T>& { return rank_state(r); });
        step_index_ = snap_.step();
        mass_baseline_ = snap_.mass();
        rebuild_exchanger();
        recovery_log_ += "rollback to step " + std::to_string(snap_.step()) +
                         " (" + why + "); ";
    }

    void rebuild_exchanger() {
        exchanger_ = std::make_unique<HaloExchanger<T>>(
            px_, py_, nxl_, nyl_, mdcfg_.resilience.halo_deadline);
    }

    struct FailureVerdict {
        bool fatal = true;
        std::string what;
        /// Implicated ranks (dedup'd, ascending): the killed ranks, or
        /// the deadline suspects — the attribution a fatal verdict hands
        /// up to the server's quarantine ladder via FatalFaultError.
        std::vector<Index> suspects;
    };

    /// Decide whether the exception(s) of a failed step are transient
    /// (recoverable by rollback) or fatal, with rank attribution. With
    /// concurrent ranks one root cause typically fails several tasks —
    /// the faulty rank plus peers released by channel poisoning — so all
    /// task errors are inspected together. Priority: an injected kill or
    /// a missed deadline is fatal (the rank is gone / unresponsive);
    /// detected message corruption with no fatal signal is transient;
    /// poisoned-channel errors are follow-on noise; anything
    /// unclassified is fatal.
    FailureVerdict classify_failure() const {
        std::vector<Index> kill_ranks;
        std::vector<Index> timeout_suspects;
        std::string corrupt_detail;
        std::string other_detail;
        auto inspect = [&](std::size_t task, const std::exception_ptr& ep) {
            try {
                std::rethrow_exception(ep);
            } catch (const resilience::InjectedFaultError& e) {
                kill_ranks.push_back(e.rank);
            } catch (const HaloFaultError& e) {
                if (e.fault == HaloFault::Timeout) {
                    timeout_suspects.push_back(e.suspect_rank);
                } else if (e.fault == HaloFault::Corrupt) {
                    corrupt_detail += std::string(e.what()) + "; ";
                }
                // HaloFault::Poisoned: follow-on noise, ignored.
            } catch (const std::exception& e) {
                other_detail += "task " + std::to_string(task) + ": " +
                                e.what() + "; ";
            }
        };
        if (!tasks_->errors().empty()) {
            for (const auto& [task, ep] : tasks_->errors()) {
                inspect(task, ep);
            }
        } else {
            inspect(0, std::current_exception());
        }

        FailureVerdict v;
        auto join_ranks = [](std::vector<Index>& rs) {
            std::sort(rs.begin(), rs.end());
            rs.erase(std::unique(rs.begin(), rs.end()), rs.end());
            std::string out;
            for (Index r : rs) {
                if (!out.empty()) out += ", ";
                out += std::to_string(r);
            }
            return out;
        };
        if (!kill_ranks.empty()) {
            v.fatal = true;
            v.what = "rank(s) " + join_ranks(kill_ranks) +
                     " died (injected kill)";
            v.suspects = std::move(kill_ranks);
        } else if (!timeout_suspects.empty()) {
            v.fatal = true;
            v.what = "halo deadline missed; suspect rank(s) " +
                     join_ranks(timeout_suspects);
            v.suspects = std::move(timeout_suspects);
        } else if (!other_detail.empty()) {
            v.fatal = true;
            v.what = other_detail;
        } else if (!corrupt_detail.empty()) {
            v.fatal = false;
            v.what = "transient halo corruption: " + corrupt_detail;
        } else {
            v.fatal = true;
            v.what = "unclassified failure";
        }
        return v;
    }

    // ------------------------------------------------------------------
    // Shared decomposition helpers.
    // ------------------------------------------------------------------

    GridSpec make_local_spec(Index rx, Index ry) const {
        GridSpec s = global_;
        s.nx = nxl_;
        s.ny = nyl_;
        const double ox = static_cast<double>(rx * nxl_) * global_.dx;
        const double oy = static_cast<double>(ry * nyl_) * global_.dy;
        const TerrainFunction global_terrain = global_.terrain;
        s.terrain = [global_terrain, ox, oy](double x, double y) {
            return global_terrain(x + ox, y + oy);
        };
        return s;
    }

    /// Copy the (stagger-aware) interior window of a global array into a
    /// rank-local array. `sx/sy` are 1 for face-staggered axes.
    void copy_window(const Array3<T>& global, Array3<T>& local, Index r,
                     Index sx, Index sy) const {
        const Index rx = r % px_, ry = r / px_;
        const Index ox = rx * nxl_, oy = ry * nyl_;
        for (Index j = 0; j < nyl_ + sy; ++j)
            for (Index k = 0; k < local.nz(); ++k)
                for (Index i = 0; i < nxl_ + sx; ++i)
                    local(i, j, k) = global(ox + i, oy + j, k);
    }
    /// Copy a rank's FULL padded window (interior + halos) of a global
    /// array. Used for the time-invariant reference fields: they are never
    /// exchanged (they never change), so their halos must be seeded here —
    /// and seeded with the global state's own halo values at the outer
    /// boundaries, where set_reference_state() fills them analytically. A
    /// periodic exchange would instead wrap interior values there, which
    /// differs over non-periodic terrain and breaks bitwise agreement of
    /// halo reads (e.g. the theta-deviation diffusion) with the
    /// single-domain run. Leaving them unseeded is worse still: rank ref
    /// halos stay zero and rhotheta_ref/rho_ref = 0/0 injects NaN at every
    /// subdomain edge.
    void copy_window_padded(const Array3<T>& global, Array3<T>& local,
                            Index r) const {
        const Index rx = r % px_, ry = r / px_;
        const Index ox = rx * nxl_, oy = ry * nyl_;
        const Index h = local.halo();
        for (Index j = -h; j < nyl_ + h; ++j)
            for (Index k = -h; k < local.nz() + h; ++k)
                for (Index i = -h; i < nxl_ + h; ++i)
                    local(i, j, k) = global(ox + i, oy + j, k);
    }

    void copy_window_back(const Array3<T>& local, Array3<T>& global, Index r,
                          Index sx, Index sy) const {
        const Index rx = r % px_, ry = r / px_;
        const Index ox = rx * nxl_, oy = ry * nyl_;
        // Interior cells/faces only (the shared face is owned by the
        // lower-index rank; identical values either way).
        for (Index j = 0; j < nyl_ + (ry == py_ - 1 ? sy : 0); ++j)
            for (Index k = 0; k < local.nz(); ++k)
                for (Index i = 0; i < nxl_ + (rx == px_ - 1 ? sx : 0); ++i)
                    global(ox + i, oy + j, k) = local(i, j, k);
    }

    GridSpec global_;
    Index px_, py_;
    TimeStepperConfig cfg_;
    MultiDomainConfig mdcfg_;
    Index nxl_ = 0, nyl_ = 0;
    std::vector<std::unique_ptr<Rank>> ranks_;
    // One task worker, halo channel set and private pool per rank.
    std::unique_ptr<TaskLayer> tasks_;
    std::unique_ptr<HaloExchanger<T>> exchanger_;
    std::vector<std::unique_ptr<ThreadPool>> pools_;
    StepHooks step_hooks_;
    // Resilience machinery (inert when mdcfg_.resilience.enabled is off).
    resilience::FaultInjector injector_;
    resilience::Watchdog<T> watchdog_;
    long long step_index_ = 0;
    /// Double-buffered rollback snapshots, staged by the rank workers.
    resilience::RollbackSnapshots<T> snap_;
    double mass_baseline_ = 0.0;
    bool mass_init_ = false;
    resilience::HealthReport last_report_;
    std::string recovery_log_;
};

}  // namespace asuca::cluster
