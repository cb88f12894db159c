// Checkpoint-backed warm starts and ensemble forking for the forecast
// service, plus the request executor the server workers run.
//
// The workload shape is the one Kang et al. 2025 describe for ensemble
// NWP: many perturbed members forked from ONE analyzed state. Here the
// analyzed state is a v3 checkpoint blob held in the server's in-memory
// CheckpointStore; forking a member is
//
//   load blob -> perturb theta with the member's seed -> integrate,
//
// and every piece of that is deterministic: the blob restores bitwise
// (exact-restart checkpoints, PR 4), the perturbation is a serial
// mt19937_64 walk from a splitmix64-mixed per-member seed, and the
// dycore is bit-identical for any thread-pool width. A member therefore
// produces the same bits whether it runs alone on an idle machine or
// interleaved with seven siblings on a contended worker pool — the
// property the ServerStress suite proves.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/cluster/multidomain.hpp"
#include "src/common/timer.hpp"
#include "src/io/checkpoint.hpp"
#include "src/server/scenario.hpp"

namespace asuca::server {

/// Named in-memory checkpoint blobs (v3 stream format). Blobs are
/// immutable shared strings, so concurrent member loads read the same
/// bytes without copies or locking beyond the map lookup.
///
/// put/get/contains/size are virtual: DurableCheckpointStore
/// (checkpoint_store.hpp) overrides them to spill blobs to disk with
/// epoch retention while keeping this class's exact in-memory semantics
/// as the default. capture() is a non-virtual template that serializes
/// through the virtual put(), so durable stores persist captures too.
class CheckpointStore {
  public:
    using Blob = std::shared_ptr<const std::string>;

    virtual ~CheckpointStore() = default;

    virtual void put(const std::string& name, std::string blob) {
        auto shared = std::make_shared<const std::string>(std::move(blob));
        std::lock_guard lock(mutex_);
        blobs_[name] = std::move(shared);
    }

    /// nullptr when the name is unknown.
    virtual Blob get(const std::string& name) const {
        std::lock_guard lock(mutex_);
        const auto it = blobs_.find(name);
        return it == blobs_.end() ? nullptr : it->second;
    }

    virtual bool contains(const std::string& name) const {
        return get(name) != nullptr;
    }

    virtual std::size_t size() const {
        std::lock_guard lock(mutex_);
        return blobs_.size();
    }

    /// Serialize a live model (state + clock + precipitation side state)
    /// into the store under `name` — the "analysis" an ensemble forks.
    template <class Model>
    void capture(const std::string& name, Model& model) {
        std::ostringstream out(std::ios::binary);
        double steps = static_cast<double>(model.step_count());
        const io::SideState side = io::model_side_state(model, &steps);
        io::save_state(out, model.state(), model.time(), side);
        put(name, std::move(out).str());
    }

  private:
    mutable std::mutex mutex_;
    std::map<std::string, Blob> blobs_;
};

/// splitmix64 mix of (ensemble seed, member index): well-separated
/// per-member streams from one user-facing seed, reproducibly.
inline std::uint64_t member_seed(std::uint64_t seed, int member) {
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull *
                                 (static_cast<std::uint64_t>(member) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/// Deterministic member perturbation: add rho-weighted theta noise of
/// `amplitude` [K] to every interior rhotheta cell, in a fixed serial
/// order (same seed => same bits, on any thread count). The caller
/// refreshes the lateral BCs afterwards.
inline void perturb_theta(State<double>& state, std::uint64_t seed,
                          double amplitude) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> noise(-amplitude, amplitude);
    auto& th = state.rhotheta;
    for (Index j = 0; j < th.ny(); ++j)
        for (Index k = 0; k < th.nz(); ++k)
            for (Index i = 0; i < th.nx(); ++i)
                th(i, j, k) += state.rho(i, j, k) * noise(rng);
}

/// An N-member ensemble forked from one stored checkpoint. Expansion
/// turns it into N ordinary member specs, so members schedule, dedup and
/// degrade exactly like standalone requests.
struct EnsembleRequest {
    ScenarioSpec base;  ///< warm_start must name a stored checkpoint
    int n_members = 2;
    std::uint64_t seed = 1;
    double amplitude = 1.0e-3;  ///< theta noise [K]
};

inline std::vector<ScenarioSpec> expand_members(const EnsembleRequest& req) {
    ASUCA_REQUIRE(req.n_members >= 1, "ensemble needs >= 1 member");
    ASUCA_REQUIRE(!req.base.warm_start.empty(),
                  "ensemble forks need a warm-start checkpoint");
    ASUCA_REQUIRE(req.amplitude >= 0.0, "negative perturbation amplitude");
    std::vector<ScenarioSpec> members;
    members.reserve(static_cast<std::size_t>(req.n_members));
    for (int m = 0; m < req.n_members; ++m) {
        ScenarioSpec s = req.base;
        s.member = m;
        s.perturb_seed = member_seed(req.seed, m);
        s.perturb_amplitude = req.amplitude;
        members.push_back(std::move(s));
    }
    return members;
}

// ---------------------------------------------------------------------
// The request executor (runs on a server worker, under that worker's
// ThreadPool::ScopedOverride). Also callable standalone — the
// concurrent-vs-serial bitwise tests run EXACTLY this function in
// isolation and compare against the server's answer.
// ---------------------------------------------------------------------

/// Execute one canonical (possibly degraded) spec. `warm_blob` is the
/// resolved checkpoint for spec.warm_start (nullptr when cold);
/// `keep_state` attaches the full final state to the result.
inline ForecastResult run_forecast(const ScenarioSpec& spec,
                                   const CheckpointStore::Blob& warm_blob,
                                   bool keep_state) {
    ForecastResult res;
    res.executed = spec;
    Timer wall;
    wall.start();

    const ModelConfig<double> cfg = build_config(spec);
    if (spec.px * spec.py == 1) {
        AsucaModel<double> model(cfg);
        if (warm_blob != nullptr) {
            std::istringstream in(*warm_blob, std::ios::binary);
            double steps = 0.0;
            const io::SideState side = io::model_side_state(model, &steps);
            const double time = io::load_state(in, model.state(), side);
            model.set_clock(time, static_cast<std::int64_t>(steps));
            if (spec.perturb_amplitude > 0.0) {
                perturb_theta(model.state(), spec.perturb_seed,
                              spec.perturb_amplitude);
                model.stepper().apply_state_bcs(model.state());
            }
        } else {
            ASUCA_REQUIRE(spec.warm_start.empty(),
                          "warm-start checkpoint '" << spec.warm_start
                                                    << "' not in the store");
            init_model(model, spec);
        }
        model.run(spec.steps);
        res.steps_run = spec.steps;
        res.fingerprint = state_fingerprint(model.state());
        res.max_w = model.max_w();
        res.total_mass = model.total_mass();
        if (keep_state) {
            res.state = std::make_shared<const State<double>>(model.state());
        }
    } else {
        // Decomposed dry run: cold-initialize a single-domain state, then
        // integrate it on the px x py runner.
        AsucaModel<double> seed_model(cfg);
        init_model(seed_model, spec);
        cluster::MultiDomainConfig md;
        if (!spec.inject.empty()) {
            // Injection arms the resilience policy with a rollback point
            // after every committed step. "halo" and "nan" are transient
            // (recovered inside advance(), bitwise equal to the clean
            // run); "stall" blows the halo deadline and is FATAL to this
            // attempt — the server's retry ladder owns recovering it.
            md.resilience.enabled = true;
            md.resilience.checkpoint_interval = 1;
            resilience::Fault f;
            f.rank = 1;
            f.step = spec.steps > 1 ? 1 : 0;
            if (spec.inject == "halo") {
                f.kind = resilience::FaultKind::HaloCorrupt;
            } else if (spec.inject == "nan") {
                f.kind = resilience::FaultKind::FieldNaN;
                f.var = VarId::RhoTheta;
                f.i = 1;
                f.j = 1;
                f.k = 1;
            } else {  // stall: unresponsive past the halo deadline
                f.kind = resilience::FaultKind::RankStall;
                f.delay = std::chrono::milliseconds(400);
                md.resilience.halo_deadline = std::chrono::milliseconds(100);
            }
            md.resilience.faults.push_back(f);
        }
        cluster::MultiDomainRunner<double> runner(
            cfg.grid, spec.px, spec.py, cfg.species, cfg.stepper, md);
        runner.scatter(seed_model.state());
        runner.advance(spec.steps);
        auto out = std::make_shared<State<double>>(seed_model.grid(),
                                                   cfg.species);
        *out = seed_model.state();  // halo frame before the interior gather
        runner.gather(*out);
        seed_model.stepper().apply_state_bcs(*out);
        res.steps_run = spec.steps;
        res.fingerprint = state_fingerprint(*out);
        res.max_w = max_abs(out->rhow);
        res.total_mass = total_mass(seed_model.grid(), out->rho);
        if (keep_state) res.state = std::move(out);
    }

    wall.stop();
    res.latency_ms = wall.milliseconds();
    return res;
}

}  // namespace asuca::server
