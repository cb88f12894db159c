// Scenario requests of the forecast service: what a client asks for, in a
// CANONICAL form the server can deduplicate, cache and degrade.
//
// A ScenarioSpec names one of the repo's scenarios (warm_bubble,
// mountain_wave, real_case) plus mesh, horizon, optional px x py
// decomposition, and optional checkpoint-backed warm start / ensemble
// perturbation. Two specs that describe the same forecast product must
// produce the same canonical key — canonicalize() normalizes every field
// that cannot influence the result (a perturbation seed with zero
// amplitude, a physics flag on a scenario that fixes it) so the request
// cache keys on meaning, not on how the client happened to fill the
// struct.
//
// Degradation ladder (admission control under load, coarse before gone):
//   level 0 — as requested;
//   level 1 — horizon halved (shorter forecast, same grid);
//   level 2 — horizon halved AND grid coarsened 2x in the horizontal
//             (dx/dy doubled, so the physical domain is preserved).
// apply_degradation() rewrites a spec to a level; the rewritten spec is a
// DIFFERENT product with its own cache key, which is exactly right — a
// degraded answer must never be served from the full-resolution cache
// slot or vice versa.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "src/common/error.hpp"
#include "src/common/hash.hpp"
#include "src/core/model.hpp"
#include "src/core/scenarios.hpp"
#include "src/grid/terrain.hpp"

namespace asuca::server {

struct ScenarioSpec {
    std::string scenario = "warm_bubble";  ///< warm_bubble|mountain_wave|real_case
    Index nx = 16, ny = 16, nz = 12;
    int steps = 2;          ///< forecast horizon in long steps
    bool physics = false;   ///< warm-rain microphysics (mountain_wave only;
                            ///< real_case forces on, warm_bubble forces off)
    Index px = 1, py = 1;   ///< >1x1: decomposed dycore run (dry only)
    /// Warm start: key of a checkpoint blob in the server's store; empty
    /// runs the scenario's cold initialization.
    std::string warm_start;
    /// Ensemble member perturbation of the warm-start state: theta noise
    /// of the given amplitude [K] from the given seed. Amplitude 0 means
    /// unperturbed (member/seed are then canonically irrelevant).
    int member = 0;
    std::uint64_t perturb_seed = 0;
    double perturb_amplitude = 0.0;
    /// Horizontal coarsening exponent (grid / 2^coarsen, dx * 2^coarsen);
    /// written by the degradation ladder, 0 for full resolution.
    int coarsen = 0;
    /// Deterministic fault injection into the run (tests / chaos gates):
    /// "" none | "halo" (transient halo-bit corruption, recovered by
    /// rollback-and-replay) | "nan" (field NaN, caught by the watchdog
    /// and rolled back) | "stall" (rank stall past the halo deadline —
    /// FATAL to this attempt; the server's retry ladder recovers it).
    /// Decomposed runs only; injection arms resilience on the runner.
    /// A recovered injected run is bitwise identical to its clean run,
    /// but the key still includes the field — detection/recovery work
    /// executed, so it is an honest distinct product (and a fatal
    /// "stall" product must never serve from the clean cache slot).
    std::string inject;
};

inline constexpr int kMaxDegradeLevel = 2;

inline bool known_scenario(const std::string& s) {
    return s == "warm_bubble" || s == "mountain_wave" || s == "real_case";
}

/// Whether the px x py decomposition splits the mesh at coarsening level
/// `coarsen` evenly into subdomains at least one halo wide — the
/// MultiDomainRunner's floor, checked here so a request below it is a
/// bad_request instead of a failure on a worker.
inline bool decomposable(const ScenarioSpec& s, int coarsen) {
    const Index nx = s.nx >> coarsen, ny = s.ny >> coarsen;
    const Index h = GridSpec{}.halo;
    return nx % s.px == 0 && ny % s.py == 0 && nx / s.px >= h &&
           ny / s.py >= h;
}

/// Normalize every semantically-irrelevant field (see header comment).
/// Validates the spec; throws Error on nonsense the server cannot run.
inline ScenarioSpec canonicalize(ScenarioSpec s) {
    ASUCA_REQUIRE(known_scenario(s.scenario),
                  "unknown scenario '" << s.scenario << "'");
    ASUCA_REQUIRE(s.nx >= 8 && s.ny >= 8 && s.nz >= 6,
                  "scenario mesh too small: " << s.nx << "x" << s.ny << "x"
                                              << s.nz);
    ASUCA_REQUIRE(s.steps >= 1, "forecast horizon must be >= 1 step");
    ASUCA_REQUIRE(s.px >= 1 && s.py >= 1, "bad decomposition");
    ASUCA_REQUIRE(s.coarsen >= 0 && s.coarsen <= kMaxDegradeLevel,
                  "bad coarsen level " << s.coarsen);
    if (s.scenario == "warm_bubble") s.physics = false;
    if (s.scenario == "real_case") s.physics = true;
    if (s.px * s.py > 1) {
        ASUCA_REQUIRE(decomposable(s, s.coarsen),
                      "decomposition " << s.px << "x" << s.py
                                       << " does not split the mesh into "
                                          "subdomains of at least "
                                       << GridSpec{}.halo << " cells");
        ASUCA_REQUIRE(!s.physics,
                      "decomposed requests run the dry dycore only");
        ASUCA_REQUIRE(s.warm_start.empty(),
                      "decomposed requests do not support warm starts");
    }
    ASUCA_REQUIRE(s.inject.empty() || s.inject == "halo" ||
                      s.inject == "nan" || s.inject == "stall",
                  "unknown injection '" << s.inject << "'");
    ASUCA_REQUIRE(s.inject.empty() || s.px * s.py > 1,
                  "fault injection needs a decomposed run (px*py > 1)");
    if (s.warm_start.empty() || s.perturb_amplitude == 0.0) {
        // No fork: the perturbation fields cannot influence the result.
        s.member = 0;
        s.perturb_seed = 0;
        s.perturb_amplitude = 0.0;
    }
    return s;
}

/// Canonical cache key. Callers pass a canonicalize()d spec; the key is
/// a readable pipe-joined record (exact double round-trip via %.17g).
inline std::string canonical_key(const ScenarioSpec& s) {
    char amp[40];
    std::snprintf(amp, sizeof(amp), "%.17g", s.perturb_amplitude);
    std::string key = "fc1";
    key += "|sc=" + s.scenario;
    key += "|mesh=" + std::to_string(s.nx) + "x" + std::to_string(s.ny) +
           "x" + std::to_string(s.nz);
    key += "|steps=" + std::to_string(s.steps);
    key += "|phys=" + std::to_string(s.physics ? 1 : 0);
    key += "|decomp=" + std::to_string(s.px) + "x" + std::to_string(s.py);
    key += "|warm=" + s.warm_start;
    key += "|member=" + std::to_string(s.member);
    key += "|seed=" + std::to_string(s.perturb_seed);
    key += std::string("|amp=") + amp;
    key += "|coarsen=" + std::to_string(s.coarsen);
    key += "|inject=" + s.inject;
    return key;
}

/// Whether the grid of `s` can take one more 2x horizontal coarsening
/// (stays even-divisible, above the minimum extent, and decomposable).
inline bool can_coarsen(const ScenarioSpec& s) {
    const Index f = Index(1) << (s.coarsen + 1);
    return s.nx % f == 0 && s.ny % f == 0 && s.nx / f >= 8 &&
           s.ny / f >= 8 && decomposable(s, s.coarsen + 1);
}

/// Highest level of the ladder this spec supports (grid too small or not
/// evenly coarsenable stops at level 1 — horizon shedding always works).
inline int max_degrade_level(const ScenarioSpec& s) {
    return can_coarsen(s) ? 2 : 1;
}

/// Rewrite a canonical spec to degradation `level` (clamped to what the
/// spec supports). Level 0 returns the spec unchanged.
inline ScenarioSpec apply_degradation(ScenarioSpec s, int level) {
    if (level <= 0) return s;
    if (level > max_degrade_level(s)) level = max_degrade_level(s);
    s.steps = std::max(1, s.steps / 2);
    if (level >= 2) s.coarsen += 1;
    return s;
}

/// Model configuration of a (canonical) spec. Coarsening halves nx/ny and
/// doubles dx/dy per level, so the physical domain is unchanged; terrain
/// features tied to the domain are rebuilt against the effective extent.
inline ModelConfig<double> build_config(const ScenarioSpec& s) {
    const Index f = Index(1) << s.coarsen;
    ASUCA_REQUIRE(s.nx % f == 0 && s.ny % f == 0,
                  "mesh " << s.nx << "x" << s.ny
                          << " not divisible by coarsening " << f);
    const Index nx = s.nx / f, ny = s.ny / f;
    ModelConfig<double> cfg;
    if (s.scenario == "mountain_wave") {
        cfg = scenarios::mountain_wave_config<double>(nx, ny, s.nz,
                                                      s.physics);
        cfg.grid.dx *= static_cast<double>(f);
        cfg.grid.dy *= static_cast<double>(f);
        cfg.grid.terrain = bell_ridge(
            400.0, 4000.0, 0.5 * static_cast<double>(nx) * cfg.grid.dx);
    } else if (s.scenario == "real_case") {
        cfg = scenarios::real_case_config<double>(
            nx, ny, s.nz, 2000.0 * static_cast<double>(f));
    } else {
        cfg = scenarios::warm_bubble_config<double>(nx, ny, s.nz);
        cfg.grid.dx *= static_cast<double>(f);
        cfg.grid.dy *= static_cast<double>(f);
    }
    return cfg;
}

/// Cold initialization of a model built from build_config(s).
inline void init_model(AsucaModel<double>& model, const ScenarioSpec& s) {
    if (s.scenario == "mountain_wave") {
        scenarios::init_mountain_wave(model);
    } else if (s.scenario == "real_case") {
        scenarios::init_real_case(model);
    } else {
        scenarios::init_warm_bubble(model);
    }
}

// ---------------------------------------------------------------------
// Results and the server error taxonomy.
// ---------------------------------------------------------------------

/// The typed error taxonomy of the serving API (wire.hpp serializes it).
/// Every failed request carries exactly one code; `degraded` is the one
/// non-failure code — a successful answer produced at reduced resolution
/// by the admission ladder, with the detail explaining what was shed.
enum class ErrorCode {
    none = 0,           ///< success at full requested resolution
    bad_request,        ///< malformed frame / invalid spec — never queued
    over_capacity,      ///< shed by the opt-in shed_when_full policy
    deadline_exceeded,  ///< retry ladder stopped by the deadline budget
    internal_fault,     ///< worker/runner fault, retries exhausted
    degraded,           ///< success, but the ladder shed resolution
};

inline const char* error_code_name(ErrorCode c) {
    switch (c) {
        case ErrorCode::none: return "none";
        case ErrorCode::bad_request: return "bad_request";
        case ErrorCode::over_capacity: return "over_capacity";
        case ErrorCode::deadline_exceeded: return "deadline_exceeded";
        case ErrorCode::internal_fault: return "internal_fault";
        case ErrorCode::degraded: return "degraded";
    }
    return "internal_fault";
}

/// A client-caused failure (unknown warm start, nonsense spec): the
/// request is the problem, not the server — the wire layer answers
/// `bad_request` and the retry ladder must not engage.
class BadRequestError : public Error {
  public:
    explicit BadRequestError(const std::string& what) : Error(what) {}
};

/// FNV-1a over every prognostic field's full padded bytes, in canonical
/// field order — the bitwise identity card of a forecast product. Two
/// runs agree bitwise iff their fingerprints agree (up to hash collision;
/// tests that must PROVE bitwise identity compare full states instead).
template <class T>
std::uint64_t state_fingerprint(const State<T>& s) {
    std::uint64_t h = hash::kFnvOffset;
    auto mix = [&](const Array3<T>& a) {
        h = hash::fnv1a_bytes(a.data(), a.size() * sizeof(T), h);
    };
    mix(s.rho);
    mix(s.rhou);
    mix(s.rhov);
    mix(s.rhow);
    mix(s.rhotheta);
    mix(s.p);
    for (const auto& q : s.tracers) mix(q);
    return h;
}

/// What a completed request returns. `executed` is the spec that actually
/// ran (after any degradation), not the one submitted.
struct ForecastResult {
    ScenarioSpec executed;
    int degrade_level = 0;
    long long steps_run = 0;
    std::uint64_t fingerprint = 0;
    double max_w = 0.0;       ///< max |rho w| — a cheap product diagnostic
    double total_mass = 0.0;
    double latency_ms = 0.0;  ///< execution wall time (queueing excluded)
    bool deduped = false;     ///< served by attaching to another request
    /// Where the answer came from: "executed" (a worker ran it) or
    /// "durable" (reloaded from the on-disk result cache — a restarted
    /// server answering a repeat query without re-integrating).
    std::string served_from = "executed";
    std::string error;        ///< empty on success
    ErrorCode code = ErrorCode::none;  ///< taxonomy slot for `error`
    /// Full final state, kept when the server's keep_state is on (tests
    /// use it to prove bitwise identity; production serves fingerprints).
    std::shared_ptr<const State<double>> state;

    bool ok() const { return error.empty(); }
};

}  // namespace asuca::server
