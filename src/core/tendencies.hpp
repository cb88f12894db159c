// Tendency container: d/dt of each prognostic variable, accumulated by the
// slow-mode kernels (advection, Coriolis, diffusion, physics forcings) of
// the long time step.
#pragma once

#include <algorithm>
#include <vector>

#include "src/core/state.hpp"

namespace asuca {

template <class T>
struct Tendencies {
    Tendencies(const Grid<T>& grid, const SpeciesSet& species)
        : rho({grid.nx(), grid.ny(), grid.nz()}, grid.halo(), grid.layout()),
          rhou({grid.nx() + 1, grid.ny(), grid.nz()}, grid.halo(),
               grid.layout()),
          rhov({grid.nx(), grid.ny() + 1, grid.nz()}, grid.halo(),
               grid.layout()),
          rhow({grid.nx(), grid.ny(), grid.nz() + 1}, grid.halo(),
               grid.layout()),
          rhotheta({grid.nx(), grid.ny(), grid.nz()}, grid.halo(),
                   grid.layout()) {
        tracers.reserve(species.count());
        for (std::size_t n = 0; n < species.count(); ++n) {
            tracers.emplace_back(Int3{grid.nx(), grid.ny(), grid.nz()},
                                 grid.halo(), grid.layout());
        }
    }

    /// Zero every tendency (halos included) in one region: each j-slab
    /// clears its padded y planes of every array.
    void clear() {
        const Index h = rho.halo();
        // rhov has the one extra face row.
        parallel_for_range(-h, rhov.ny() + h, [&](Index jb, Index je) {
            auto zero = [&](Array3<T>& a) {
                const auto [first, last] = plane_range(a, jb, je);
                std::fill(a.data() + first, a.data() + last, T(0));
            };
            zero(rho);
            zero(rhou);
            zero(rhov);
            zero(rhow);
            zero(rhotheta);
            for (auto& t : tracers) zero(t);
        });
    }

    Array3<T> rho, rhou, rhov, rhow, rhotheta;
    std::vector<Array3<T>> tracers;
};

}  // namespace asuca
