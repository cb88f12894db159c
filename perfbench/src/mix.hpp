// The seeded request mix of the serve_mix workload.
//
// Requests come in blocks of four: two cold forecasts, one warm-start
// ensemble member and one repeat. The seed shuffles each block, picks
// where in the cold-product enumeration the run starts, which repeat key
// each repeat asks for and every member's perturbation seed. The block
// structure keeps the share of each kind the same on every seed, so the
// seed varies the inputs without varying what the run measures.
//
//  * cold:   warm_bubble / real_case at 24-32 x 24-32 x 12-18 with a
//            2-6 step horizon; every cold product is distinct, so none
//            is served from the result cache;
//  * warm:   a mountain_wave (physics on) member forked from the analysis
//            checkpoint "analysis" with 1e-3 K theta noise;
//  * repeat: one of a small fixed pool of products, so after its first
//            execution the result cache answers it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "src/server/ensemble.hpp"
#include "src/server/scenario.hpp"

namespace perfbench {

enum class RequestKind { cold, warm, repeat };

inline const char* kind_name(RequestKind k) {
    switch (k) {
        case RequestKind::cold: return "cold";
        case RequestKind::warm: return "warm";
        case RequestKind::repeat: return "repeat";
    }
    return "unknown";
}

struct MixRequest {
    RequestKind kind = RequestKind::cold;
    asuca::server::ScenarioSpec spec;
};

/// Name of the analysis checkpoint warm members fork from.
inline const char* const kAnalysisName = "analysis";

/// Distinct cold products: 2 scenarios x 5 horizons x 7 nz x 9 meshes.
inline constexpr std::size_t kColdProducts = 630;

/// The e-th cold product. Each dimension cycles with its own period
/// (2, 5, 7 and 9, pairwise coprime, so e -> product is one-to-one over
/// 630 indices): every dimension takes each of its values within a few
/// consecutive products, and any window of a few dozen holds the same
/// share of every cost class, wherever it starts.
inline asuca::server::ScenarioSpec cold_product(std::size_t e) {
    static constexpr asuca::Index kSizes[3] = {24, 28, 32};
    e %= kColdProducts;
    asuca::server::ScenarioSpec s;
    s.scenario = e % 2 == 0 ? "warm_bubble" : "real_case";
    s.steps = static_cast<int>(2 + e % 5);
    s.nz = static_cast<asuca::Index>(12 + e % 7);
    s.nx = kSizes[(e % 9) % 3];
    s.ny = kSizes[(e % 9) / 3];
    return s;
}

/// The fixed pool the repeats draw from (16x16 meshes: never a cold
/// product).
inline std::vector<asuca::server::ScenarioSpec> repeat_pool() {
    std::vector<asuca::server::ScenarioSpec> pool(4);
    pool[0].scenario = "warm_bubble";
    pool[0].nx = pool[0].ny = 16;
    pool[0].nz = 12;
    pool[0].steps = 2;
    pool[1].scenario = "warm_bubble";
    pool[1].nx = pool[1].ny = 16;
    pool[1].nz = 8;
    pool[1].steps = 3;
    pool[2].scenario = "real_case";
    pool[2].nx = pool[2].ny = 16;
    pool[2].nz = 12;
    pool[2].steps = 1;
    pool[3].scenario = "mountain_wave";
    pool[3].physics = true;
    pool[3].nx = pool[3].ny = 16;
    pool[3].nz = 12;
    pool[3].steps = 2;
    return pool;
}

/// The warm member spec of ensemble member `member` under `seed`.
inline asuca::server::ScenarioSpec warm_member(std::uint64_t seed,
                                               int member) {
    asuca::server::ScenarioSpec s;
    s.scenario = "mountain_wave";
    s.physics = true;
    s.nx = s.ny = 32;
    s.nz = 16;
    s.steps = 3;
    s.warm_start = kAnalysisName;
    s.member = member;
    s.perturb_seed = asuca::server::member_seed(seed, member);
    s.perturb_amplitude = 1.0e-3;
    return s;
}

/// The first `n` requests of the mix for `seed` (n is rounded up to whole
/// blocks). Same seed, same list.
inline std::vector<MixRequest> make_mix(std::uint64_t seed, std::size_t n) {
    std::mt19937_64 rng(seed);
    const auto pool = repeat_pool();
    const std::size_t cold_start = rng() % kColdProducts;
    std::size_t cold = 0;
    int member = 0;
    std::vector<MixRequest> out;
    out.reserve(n + 4);
    while (out.size() < n) {
        RequestKind block[4] = {RequestKind::cold, RequestKind::cold,
                                RequestKind::warm, RequestKind::repeat};
        for (std::size_t i = 3; i > 0; --i) {
            std::swap(block[i], block[rng() % (i + 1)]);
        }
        for (const RequestKind kind : block) {
            MixRequest r;
            r.kind = kind;
            if (kind == RequestKind::cold) {
                r.spec = cold_product(cold_start + cold++);
            } else if (kind == RequestKind::warm) {
                r.spec = warm_member(seed, member++);
            } else {
                r.spec = pool[rng() % pool.size()];
            }
            out.push_back(std::move(r));
        }
    }
    return out;
}

}  // namespace perfbench
