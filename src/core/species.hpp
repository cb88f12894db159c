// Water substance registry.
//
// ASUCA transports the mass ratios q_alpha for alpha in {v, c, r, i, s, g,
// h} (vapor, cloud, rain, cloud ice, snow, graupel, hail). The operational
// configuration benchmarked in the paper runs the Kessler-type warm-rain
// scheme, which activates vapor/cloud/rain; the remaining ice-phase species
// are carried by the same advection/sedimentation code paths (the paper
// lists ice microphysics as future work, so only their transport exists).
#pragma once

#include <array>
#include <cstddef>
#include <string_view>
#include <vector>

#include "src/common/error.hpp"

namespace asuca {

enum class Species : int {
    Vapor = 0,
    Cloud = 1,
    Rain = 2,
    Ice = 3,
    Snow = 4,
    Graupel = 5,
    Hail = 6,
};

inline constexpr int kNumSpecies = 7;

constexpr std::string_view name_of(Species s) {
    constexpr std::array<std::string_view, kNumSpecies> names = {
        "qv", "qc", "qr", "qi", "qs", "qg", "qh"};
    return names[static_cast<std::size_t>(s)];
}

/// Kernel name of species s's advection: "advection_" + name_of(s), as a
/// static string, so a kernel scope takes it without allocating.
constexpr const char* advection_kernel_name(Species s) {
    constexpr std::array<const char*, kNumSpecies> names = {
        "advection_qv", "advection_qc", "advection_qr", "advection_qi",
        "advection_qs", "advection_qg", "advection_qh"};
    return names[static_cast<std::size_t>(s)];
}

/// Does this species sediment (has a terminal fall velocity u_t)?
constexpr bool has_fall_speed(Species s) {
    switch (s) {
        case Species::Rain:
        case Species::Snow:
        case Species::Graupel:
        case Species::Hail:
            return true;
        default:
            return false;
    }
}

/// The set of species a model run transports.
class SpeciesSet {
  public:
    /// Warm rain: vapor + cloud + rain (paper's benchmarked configuration).
    static SpeciesSet warm_rain() {
        return SpeciesSet({Species::Vapor, Species::Cloud, Species::Rain});
    }

    /// All seven categories (transport only for the ice phase).
    static SpeciesSet full() {
        return SpeciesSet({Species::Vapor, Species::Cloud, Species::Rain,
                           Species::Ice, Species::Snow, Species::Graupel,
                           Species::Hail});
    }

    /// Dry dynamics (no water substances at all).
    static SpeciesSet dry() { return SpeciesSet({}); }

    explicit SpeciesSet(std::vector<Species> list) : list_(std::move(list)) {
        index_.fill(-1);
        for (std::size_t n = 0; n < list_.size(); ++n) {
            index_[static_cast<std::size_t>(list_[n])] = static_cast<int>(n);
        }
    }

    std::size_t count() const { return list_.size(); }
    Species at(std::size_t n) const { return list_[n]; }
    const std::vector<Species>& list() const { return list_; }

    bool contains(Species s) const {
        return index_[static_cast<std::size_t>(s)] >= 0;
    }
    /// Slot of species `s` within this set; requires contains(s).
    std::size_t slot(Species s) const {
        const int idx = index_[static_cast<std::size_t>(s)];
        ASUCA_ASSERT(idx >= 0, "species " << name_of(s) << " not in set");
        return static_cast<std::size_t>(idx);
    }

  private:
    std::vector<Species> list_;
    std::array<int, kNumSpecies> index_{};
};

}  // namespace asuca
