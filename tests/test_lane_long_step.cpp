// The long-step dycore kernels run on SIMD lanes (Lanes<T>,
// field/simd.hpp) as the short-step ones do: the advection plane fills,
// face-flux rows and divergence rows with the branch-free lane Koren
// limiter (core/limiter.hpp), diffusion, the mass-flux kernels,
// continuity and AcousticStepper::prepare. Each lane runs the one-cell
// operation sequence of the scalar loop, so on default builds (no
// implicit FMA contraction) every kernel must be bitwise identical to it.
// These tests pin that claim: the lane limiter against
// limited_face_value on the inputs where a branch-free rewrite could
// differ (signed-zero velocities, flat and near-flat stencils, psi's
// kinks, chunks mixing flat and non-flat lanes), and every kernel against
// a test-local scalar copy of its loop, in both layouts and both
// precisions, on row widths below, at and above a lane chunk.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "src/core/acoustic.hpp"
#include "src/core/advection.hpp"
#include "src/core/diffusion.hpp"
#include "src/core/limiter.hpp"
#include "src/core/mass_flux.hpp"
#include "src/field/simd.hpp"

namespace asuca {
namespace {

template <class T>
void expect_bitwise_equal(const Array3<T>& a, const Array3<T>& b,
                          const char* name) {
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0)
        << name << " differs (max |diff| = " << max_abs_diff(a, b) << ")";
}

// ---------------------------------------------------------------------
// The lane limiter.

/// One face: velocity and the four stencil cells m2, m1 | face | p0, p1.
template <class T>
struct Face {
    T vel, m2, m1, p0, p1;
};

/// Faces whose upwind triple (uu, u, d) has the given denominator
/// u - uu and smoothness ratio r = (d - u) / (u - uu), for each velocity
/// sign (+0 and -0 both count as non-negative). The far-side cell gets
/// an unrelated value, so a wrong upwind selection shows.
template <class T>
std::vector<Face<T>> limiter_faces() {
    const T tiny = T(1e-30);
    const T edge = std::sqrt(tiny);  // denom * denom near the flat guard
    const T below = std::nextafter(edge, T(0));
    const T above = std::nextafter(edge, T(1));
    // Denominators: zero, the guard's neighbourhood from both sides (so
    // denom^2 lands just below and just above 1e-30), and ordinary ones.
    const T denoms[] = {T(0),   below,         above,        -below,
                        -above, edge * T(0.99), edge * T(1.01), T(1),
                        T(-1),  T(1e-20),      T(3.5),       T(-2e5)};
    // Smoothness ratios: psi's kinks (0, 0.25, 2.5), both signs, large |r|.
    const T ratios[] = {T(0),    T(-0.0), T(0.25), T(2.5), T(-1),
                        T(0.1),  T(1),    T(4),    T(1e12), T(-1e12)};
    const T vels[] = {T(0), T(-0.0), T(1), T(-1)};
    std::vector<Face<T>> faces;
    for (const T vel : vels)
        for (const T r : ratios)
            for (const T denom : denoms)
                for (const T u : {T(0), T(0.5)}) {
                    const T uu = u - denom;
                    const T d = u + r * denom;
                    if (vel >= T(0)) {
                        faces.push_back({vel, uu, u, d, T(7)});
                    } else {
                        faces.push_back({vel, T(7), d, u, uu});
                    }
                }
    // Flat stencils whose numerator is not zero, then two chunks' worth
    // of all-flat faces, so every chunk offset meets an all-flat chunk.
    for (const T vel : vels) faces.push_back({vel, T(1), T(1), T(2), T(3)});
    for (int n = 0; n < 16; ++n) {
        const T v = (n % 2 == 0) ? T(2) : T(-2);
        faces.push_back({v, T(n), T(n), T(n), T(n)});
    }
    return faces;
}

template <class T>
void expect_lane_limiter_matches_scalar() {
    using V = Lanes<T>;
    constexpr Index L = lane_count<V, T>;
    const auto faces = limiter_faces<T>();
    const auto n = static_cast<Index>(faces.size());
    std::vector<T> vel(faces.size()), m2(faces.size()), m1(faces.size()),
        p0(faces.size()), p1(faces.size()), expected(faces.size());
    for (std::size_t f = 0; f < faces.size(); ++f) {
        vel[f] = faces[f].vel;
        m2[f] = faces[f].m2;
        m1[f] = faces[f].m1;
        p0[f] = faces[f].p0;
        p1[f] = faces[f].p1;
        expected[f] =
            limited_face_value(vel[f], m2[f], m1[f], p0[f], p1[f]);
    }
    // Every chunk offset, so each face meets every lane position and
    // different neighbours (flat and non-flat lanes mix).
    for (Index offset = 0; offset < L; ++offset) {
        for (Index s = offset; s + L <= n; s += L) {
            const V got = limited_face_value_lanes(
                load_lanes<V>(vel.data() + s, 1),
                load_lanes<V>(m2.data() + s, 1),
                load_lanes<V>(m1.data() + s, 1),
                load_lanes<V>(p0.data() + s, 1),
                load_lanes<V>(p1.data() + s, 1));
            T out[L];
            store_lanes(out, 1, got);
            for (Index l = 0; l < L; ++l) {
                const auto f = static_cast<std::size_t>(s + l);
                EXPECT_EQ(std::memcmp(&out[l], &expected[f], sizeof(T)), 0)
                    << sizeof(T) * 8 << "-bit face " << f << " (vel "
                    << vel[f] << ", " << m2[f] << " " << m1[f] << " | "
                    << p0[f] << " " << p1[f] << "): lane " << out[l]
                    << ", scalar " << expected[f];
            }
        }
    }
    // Width 1 is the scalar limiter.
    for (std::size_t f = 0; f < faces.size(); ++f) {
        const T got =
            limited_face_value_lanes(vel[f], m2[f], m1[f], p0[f], p1[f]);
        EXPECT_EQ(std::memcmp(&got, &expected[f], sizeof(T)), 0);
    }
}

TEST(LaneKernels, LimiterMatchesScalar) {
    expect_lane_limiter_matches_scalar<double>();
    expect_lane_limiter_matches_scalar<float>();
}

// ---------------------------------------------------------------------
// Kernel fixtures.

constexpr Layout kLayouts[] = {Layout::XZY, Layout::ZXY};

/// A rough deterministic pattern over every padded cell of `a`: many
/// sign changes of the differences, so limited and unlimited faces, both
/// flux signs and psi's branches all occur.
template <class T>
void fill_rough(Array3<T>& a, double base, double amplitude, double phase) {
    const Index h = a.halo();
    for (Index j = -h; j < a.ny() + h; ++j)
        for (Index k = -h; k < a.nz() + h; ++k)
            for (Index i = -h; i < a.nx() + h; ++i)
                a(i, j, k) = T(base + amplitude *
                                          std::sin(0.9 * double(i) +
                                                   1.7 * double(j) +
                                                   2.3 * double(k) + phase));
}

GridSpec long_step_spec(Index nx, Index nz, Layout layout) {
    GridSpec s;
    s.nx = nx;
    s.ny = 5;
    s.nz = nz;
    s.dx = 1000.0;
    s.dy = 1200.0;
    s.ztop = 8000.0;
    s.vertical_stretch = 0.5;
    s.layout = layout;
    s.terrain = bell_mountain(300.0, 2500.0, 500.0 * double(nx), 2500.0);
    return s;
}

/// A grid on nx x 5 x nz cells with terrain and stretched levels, a state
/// and mass fluxes of both signs on every padded cell.
template <class T>
struct LongStepSetup {
    Grid<T> grid;
    State<T> state;
    MassFluxes<T> flux;

    LongStepSetup(Index nx, Index nz, Layout layout)
        : grid(long_step_spec(nx, nz, layout)),
          state(grid, SpeciesSet::dry()), flux(grid) {
        fill_rough(state.rho, 1.0, 0.1, 0.1);
        fill_rough(state.rhou, 2.0, 8.0, 0.2);
        fill_rough(state.rhov, -1.0, 6.0, 0.3);
        fill_rough(state.rhow, 0.0, 0.5, 0.4);
        fill_rough(state.rhotheta, 300.0, 3.0, 0.5);
        fill_rough(state.p, 9.0e4, 500.0, 0.6);
        fill_rough(state.rho_ref, 1.0, 0.05, 0.7);
        fill_rough(state.rhotheta_ref, 300.0, 1.0, 0.8);
        fill_rough(flux.fu, 1.0, 10.0, 0.9);
        fill_rough(flux.fv, -2.0, 8.0, 1.0);
        fill_rough(flux.fz, 0.0, 0.4, 1.1);
    }
};

constexpr Index kWidths[] = {1, 3, 13, 64};
/// Levels of the advection and diffusion checks: nz = 2, the smallest
/// mesh the grid accepts, clamps every vertical stencil at both ends and
/// leaves advect_momentum_z a single interior face.
constexpr Index kDepths[] = {2, 8};

// ---------------------------------------------------------------------
// Advection: the scalar stencil form of the four kernels' loops. The
// kernels cache phi in planes and evaluate each face flux once into row
// buffers; per value that is the same arithmetic as these in-place
// stencils.

namespace ref {

inline Index clampk(Index k, Index n) {
    return k < 0 ? 0 : (k >= n ? n - 1 : k);
}

template <class T>
void advect_scalar(const Grid<T>& grid, const MassFluxes<T>& flux,
                   const Array3<T>& rho, const Array3<T>& rhophi,
                   Array3<T>& tend) {
    const Index nx = grid.nx(), ny = grid.ny(), nz = grid.nz();
    const T rdx = T(1.0 / grid.dx());
    const T rdy = T(1.0 / grid.dy());
    const auto& jc = grid.jacobian();
    auto phi = [&](Index i, Index j, Index k) {
        return rhophi(i, j, k) / rho(i, j, k);
    };
    auto xflux = [&](Index i, Index j, Index k) {
        const T f = flux.fu(i, j, k);
        return f * limited_face_value(f, phi(i - 2, j, k), phi(i - 1, j, k),
                                      phi(i, j, k), phi(i + 1, j, k));
    };
    auto yflux = [&](Index i, Index j, Index k) {
        const T f = flux.fv(i, j, k);
        return f * limited_face_value(f, phi(i, j - 2, k), phi(i, j - 1, k),
                                      phi(i, j, k), phi(i, j + 1, k));
    };
    auto zflux = [&](Index i, Index j, Index kf) {
        if (kf == 0 || kf >= nz) return T(0);
        const T f = flux.fz(i, j, kf);
        return f * limited_face_value(f, phi(i, j, clampk(kf - 2, nz)),
                                      phi(i, j, kf - 1), phi(i, j, kf),
                                      phi(i, j, clampk(kf + 1, nz)));
    };
    for (Index j = 0; j < ny; ++j)
        for (Index k = 0; k < nz; ++k) {
            const T rdz = T(1.0 / grid.dzeta(k));
            for (Index i = 0; i < nx; ++i) {
                const T div = (xflux(i + 1, j, k) - xflux(i, j, k)) * rdx +
                              (yflux(i, j + 1, k) - yflux(i, j, k)) * rdy +
                              (zflux(i, j, k + 1) - zflux(i, j, k)) * rdz;
                tend(i, j, k) -= div / jc(i, j, k);
            }
        }
}

template <class T>
void advect_momentum_x(const Grid<T>& grid, const MassFluxes<T>& flux,
                       const State<T>& s, Array3<T>& tend) {
    const Index nx = grid.nx(), ny = grid.ny(), nz = grid.nz();
    const T rdx = T(1.0 / grid.dx());
    const T rdy = T(1.0 / grid.dy());
    const auto& jxf = grid.jacobian_xface();
    auto u = [&](Index i, Index j, Index k) {
        const T rf = T(0.5) * (s.rho(i - 1, j, k) + s.rho(i, j, k));
        return s.rhou(i, j, k) / rf;
    };
    auto xflux = [&](Index c, Index j, Index k) {  // through center c
        const T f = T(0.5) * (flux.fu(c, j, k) + flux.fu(c + 1, j, k));
        return f * limited_face_value(f, u(c - 1, j, k), u(c, j, k),
                                      u(c + 1, j, k), u(c + 2, j, k));
    };
    auto yflux = [&](Index i, Index jf, Index k) {
        const T f = T(0.5) * (flux.fv(i - 1, jf, k) + flux.fv(i, jf, k));
        return f * limited_face_value(f, u(i, jf - 2, k), u(i, jf - 1, k),
                                      u(i, jf, k), u(i, jf + 1, k));
    };
    auto zflux = [&](Index i, Index j, Index kf) {
        if (kf == 0 || kf >= nz) return T(0);
        const T f = T(0.5) * (flux.fz(i - 1, j, kf) + flux.fz(i, j, kf));
        return f * limited_face_value(f, u(i, j, clampk(kf - 2, nz)),
                                      u(i, j, kf - 1), u(i, j, kf),
                                      u(i, j, clampk(kf + 1, nz)));
    };
    for (Index j = 0; j < ny; ++j)
        for (Index k = 0; k < nz; ++k) {
            const T rdz = T(1.0 / grid.dzeta(k));
            for (Index i = 0; i < nx; ++i) {
                const T div = (xflux(i, j, k) - xflux(i - 1, j, k)) * rdx +
                              (yflux(i, j + 1, k) - yflux(i, j, k)) * rdy +
                              (zflux(i, j, k + 1) - zflux(i, j, k)) * rdz;
                tend(i, j, k) -= div / jxf(i, j, k);
            }
        }
}

template <class T>
void advect_momentum_y(const Grid<T>& grid, const MassFluxes<T>& flux,
                       const State<T>& s, Array3<T>& tend) {
    const Index nx = grid.nx(), ny = grid.ny(), nz = grid.nz();
    const T rdx = T(1.0 / grid.dx());
    const T rdy = T(1.0 / grid.dy());
    const auto& jyf = grid.jacobian_yface();
    auto v = [&](Index i, Index j, Index k) {
        const T rf = T(0.5) * (s.rho(i, j - 1, k) + s.rho(i, j, k));
        return s.rhov(i, j, k) / rf;
    };
    auto xflux = [&](Index i, Index j, Index k) {
        const T f = T(0.5) * (flux.fu(i, j - 1, k) + flux.fu(i, j, k));
        return f * limited_face_value(f, v(i - 2, j, k), v(i - 1, j, k),
                                      v(i, j, k), v(i + 1, j, k));
    };
    auto yflux = [&](Index i, Index jc, Index k) {  // through center row jc
        const T f = T(0.5) * (flux.fv(i, jc, k) + flux.fv(i, jc + 1, k));
        return f * limited_face_value(f, v(i, jc - 1, k), v(i, jc, k),
                                      v(i, jc + 1, k), v(i, jc + 2, k));
    };
    auto zflux = [&](Index i, Index j, Index kf) {
        if (kf == 0 || kf >= nz) return T(0);
        const T f = T(0.5) * (flux.fz(i, j - 1, kf) + flux.fz(i, j, kf));
        return f * limited_face_value(f, v(i, j, clampk(kf - 2, nz)),
                                      v(i, j, kf - 1), v(i, j, kf),
                                      v(i, j, clampk(kf + 1, nz)));
    };
    for (Index j = 0; j < ny; ++j)
        for (Index k = 0; k < nz; ++k) {
            const T rdz = T(1.0 / grid.dzeta(k));
            for (Index i = 0; i < nx; ++i) {
                const T div = (xflux(i + 1, j, k) - xflux(i, j, k)) * rdx +
                              (yflux(i, j, k) - yflux(i, j - 1, k)) * rdy +
                              (zflux(i, j, k + 1) - zflux(i, j, k)) * rdz;
                tend(i, j, k) -= div / jyf(i, j, k);
            }
        }
}

template <class T>
void advect_momentum_z(const Grid<T>& grid, const MassFluxes<T>& flux,
                       const State<T>& s, Array3<T>& tend) {
    const Index nx = grid.nx(), ny = grid.ny(), nz = grid.nz();
    const T rdx = T(1.0 / grid.dx());
    const T rdy = T(1.0 / grid.dy());
    const auto& jzf = grid.jacobian_zface();
    auto clampf = [nz](Index k) { return k < 0 ? Index(0) : (k > nz ? nz : k); };
    auto w = [&](Index i, Index j, Index k) {
        const T rf = T(0.5) * (s.rho(i, j, clampk(k - 1, nz)) +
                               s.rho(i, j, clampk(k, nz)));
        return s.rhow(i, j, k) / rf;
    };
    auto xflux = [&](Index i, Index j, Index k) {
        const T f = T(0.5) * (flux.fu(i, j, k - 1) + flux.fu(i, j, k));
        return f * limited_face_value(f, w(i - 2, j, k), w(i - 1, j, k),
                                      w(i, j, k), w(i + 1, j, k));
    };
    auto yflux = [&](Index i, Index jf, Index k) {
        const T f = T(0.5) * (flux.fv(i, jf, k - 1) + flux.fv(i, jf, k));
        return f * limited_face_value(f, w(i, jf - 2, k), w(i, jf - 1, k),
                                      w(i, jf, k), w(i, jf + 1, k));
    };
    auto zflux = [&](Index i, Index j, Index kc) {  // through center kc
        const T f = T(0.5) * (flux.fz(i, j, kc) + flux.fz(i, j, kc + 1));
        return f * limited_face_value(f, w(i, j, clampf(kc - 1)),
                                      w(i, j, kc), w(i, j, kc + 1),
                                      w(i, j, clampf(kc + 2)));
    };
    for (Index j = 0; j < ny; ++j)
        for (Index k = 1; k < nz; ++k) {
            const T rdz = T(2.0 / (grid.dzeta(k - 1) + grid.dzeta(k)));
            for (Index i = 0; i < nx; ++i) {
                const T div = (xflux(i + 1, j, k) - xflux(i, j, k)) * rdx +
                              (yflux(i, j + 1, k) - yflux(i, j, k)) * rdy +
                              (zflux(i, j, k) - zflux(i, j, k - 1)) * rdz;
                tend(i, j, k) -= div / jzf(i, j, k);
            }
        }
}

}  // namespace ref

template <class T>
void expect_advection_matches(Index nx, Index nz, Layout layout) {
    SCOPED_TRACE(testing::Message() << "nx " << nx << ", nz " << nz << ", "
                                    << name_of(layout) << ", "
                                    << sizeof(T) * 8 << "-bit");
    LongStepSetup<T> s(nx, nz, layout);
    const auto& st = s.state;
    auto check = [&](const Array3<T>& like, const char* name, auto&& kernel,
                     auto&& reference) {
        Array3<T> got(like.extents(), like.halo(), layout);
        fill_rough(got, 0.0, 1e-3, 1.2);
        Array3<T> expected = got;
        kernel(got);
        reference(expected);
        expect_bitwise_equal(expected, got, name);
    };
    // Scalars: theta-like, an all-zero tracer (every chunk flat) and one
    // zero on half the domain (chunks that mix flat and non-flat lanes).
    Array3<T> zero(st.rho.extents(), st.rho.halo(), layout);
    Array3<T> half = st.rhotheta;
    const Index h = half.halo();
    for (Index j = -h; j < half.ny() + h; ++j)
        for (Index k = -h; k < half.nz() + h; ++k)
            for (Index i = -h; i < nx / 2; ++i) half(i, j, k) = T(0);
    const std::pair<const Array3<T>*, const char*> scalars[] = {
        {&st.rhotheta, "theta"}, {&zero, "zero tracer"},
        {&half, "half-zero tracer"}};
    for (const auto& [q, name] : scalars) {
        check(st.rho, name,
              [&](Array3<T>& t) { advect_scalar(s.grid, s.flux, st.rho, *q, t); },
              [&](Array3<T>& t) {
                  ref::advect_scalar(s.grid, s.flux, st.rho, *q, t);
              });
    }
    check(st.rhou, "rhou",
          [&](Array3<T>& t) { advect_momentum_x(s.grid, s.flux, st, t); },
          [&](Array3<T>& t) { ref::advect_momentum_x(s.grid, s.flux, st, t); });
    check(st.rhov, "rhov",
          [&](Array3<T>& t) { advect_momentum_y(s.grid, s.flux, st, t); },
          [&](Array3<T>& t) { ref::advect_momentum_y(s.grid, s.flux, st, t); });
    check(st.rhow, "rhow",
          [&](Array3<T>& t) { advect_momentum_z(s.grid, s.flux, st, t); },
          [&](Array3<T>& t) { ref::advect_momentum_z(s.grid, s.flux, st, t); });
}

TEST(LaneKernels, AdvectionMatchesScalarLoopBitwise) {
    for (const Layout layout : kLayouts)
        for (const Index nx : kWidths)
            for (const Index nz : kDepths) {
                expect_advection_matches<double>(nx, nz, layout);
                expect_advection_matches<float>(nx, nz, layout);
            }
}

// ---------------------------------------------------------------------
// Diffusion: the scalar loops of detail::diffuse_generic and the theta
// deviation loop of diffusion().

template <class T, class RhoAt>
void diffuse_reference(const Grid<T>& grid, const Array3<T>& field,
                       RhoAt&& rho_at, const DiffusionConfig& cfg,
                       Index k_begin, Index k_end, Array3<T>& tend) {
    const Index nx = field.nx() == grid.nx() + 1 ? grid.nx() : field.nx();
    const Index ny = field.ny() == grid.ny() + 1 ? grid.ny() : field.ny();
    const T kh = T(cfg.kh), kv = T(cfg.kv);
    const T rdx2 = T(1.0 / (grid.dx() * grid.dx()));
    const T rdy2 = T(1.0 / (grid.dy() * grid.dy()));
    auto phi = [&](Index i, Index j, Index k) {
        return field(i, j, k) / rho_at(i, j, k);
    };
    for (Index j = 0; j < ny; ++j)
        for (Index k = k_begin; k < k_end; ++k) {
            const Index km = k > k_begin ? k - 1 : k;
            const Index kp = k < k_end - 1 ? k + 1 : k;
            const T dz = T(grid.dzeta(std::min<Index>(k, grid.nz() - 1)));
            const T rdz2 = T(1) / (dz * dz);
            for (Index i = 0; i < nx; ++i) {
                const T c = phi(i, j, k);
                const T lap_h =
                    (phi(i + 1, j, k) - T(2) * c + phi(i - 1, j, k)) * rdx2 +
                    (phi(i, j + 1, k) - T(2) * c + phi(i, j - 1, k)) * rdy2;
                const T lap_v =
                    (phi(i, j, kp) - T(2) * c + phi(i, j, km)) * rdz2;
                tend(i, j, k) += rho_at(i, j, k) * (kh * lap_h + kv * lap_v);
            }
        }
}

template <class T>
void diffusion_reference(const Grid<T>& grid, const State<T>& state,
                         const DiffusionConfig& cfg, Tendencies<T>& tend) {
    const auto& rho = state.rho;
    const Index nz = grid.nz();
    diffuse_reference(
        grid, state.rhou,
        [&](Index i, Index j, Index k) {
            return T(0.5) * (rho(i - 1, j, k) + rho(i, j, k));
        },
        cfg, 0, nz, tend.rhou);
    diffuse_reference(
        grid, state.rhov,
        [&](Index i, Index j, Index k) {
            return T(0.5) * (rho(i, j - 1, k) + rho(i, j, k));
        },
        cfg, 0, nz, tend.rhov);
    diffuse_reference(
        grid, state.rhow,
        [&](Index i, Index j, Index k) {
            const Index kc = k > 0 ? k - 1 : 0;
            const Index kd = k < nz ? k : nz - 1;
            return T(0.5) * (rho(i, j, kc) + rho(i, j, kd));
        },
        cfg, 1, nz, tend.rhow);
    const T kh = T(cfg.kh), kv = T(cfg.kv);
    const T rdx2 = T(1.0 / (grid.dx() * grid.dx()));
    const T rdy2 = T(1.0 / (grid.dy() * grid.dy()));
    auto th = [&](Index i, Index j, Index k) {
        return state.rhotheta(i, j, k) / rho(i, j, k) -
               state.rhotheta_ref(i, j, k) / state.rho_ref(i, j, k);
    };
    for (Index j = 0; j < grid.ny(); ++j)
        for (Index k = 0; k < nz; ++k) {
            const Index km = k > 0 ? k - 1 : k;
            const Index kp = k < nz - 1 ? k + 1 : k;
            const T dz = T(grid.dzeta(k));
            const T rdz2 = T(1) / (dz * dz);
            for (Index i = 0; i < grid.nx(); ++i) {
                const T c = th(i, j, k);
                const T lap =
                    kh * ((th(i + 1, j, k) - T(2) * c + th(i - 1, j, k)) *
                              rdx2 +
                          (th(i, j + 1, k) - T(2) * c + th(i, j - 1, k)) *
                              rdy2) +
                    kv * (th(i, j, kp) - T(2) * c + th(i, j, km)) * rdz2;
                tend.rhotheta(i, j, k) += rho(i, j, k) * lap;
            }
        }
}

template <class T>
void expect_diffusion_matches(Index nx, Index nz, Layout layout) {
    SCOPED_TRACE(testing::Message() << "nx " << nx << ", nz " << nz << ", "
                                    << name_of(layout) << ", "
                                    << sizeof(T) * 8 << "-bit");
    LongStepSetup<T> s(nx, nz, layout);
    DiffusionConfig cfg;
    cfg.kh = 20.0;
    cfg.kv = 2.0;
    Tendencies<T> got(s.grid, SpeciesSet::dry());
    fill_rough(got.rhou, 0.0, 1e-3, 1.3);
    fill_rough(got.rhov, 0.0, 1e-3, 1.4);
    fill_rough(got.rhow, 0.0, 1e-3, 1.5);
    fill_rough(got.rhotheta, 0.0, 1e-3, 1.6);
    Tendencies<T> expected = got;
    diffusion(s.grid, s.state, cfg, got);
    diffusion_reference(s.grid, s.state, cfg, expected);
    expect_bitwise_equal(expected.rhou, got.rhou, "rhou");
    expect_bitwise_equal(expected.rhov, got.rhov, "rhov");
    expect_bitwise_equal(expected.rhow, got.rhow, "rhow");
    expect_bitwise_equal(expected.rhotheta, got.rhotheta, "rhotheta");
}

TEST(LaneKernels, DiffusionMatchesScalarLoopBitwise) {
    for (const Layout layout : kLayouts)
        for (const Index nx : kWidths)
            for (const Index nz : kDepths) {
                expect_diffusion_matches<double>(nx, nz, layout);
                expect_diffusion_matches<float>(nx, nz, layout);
            }
}

// ---------------------------------------------------------------------
// Mass fluxes and continuity: the scalar loops of
// compute_horizontal_mass_fluxes, compute_contravariant_flux and
// continuity_tendency.

template <class T>
void mass_fluxes_reference(const Grid<T>& grid, const State<T>& state,
                           MassFluxes<T>& out) {
    const Index nx = grid.nx(), ny = grid.ny(), nz = grid.nz();
    const Index e = grid.halo() - 1;
    const auto& jxf = grid.jacobian_xface();
    const auto& jyf = grid.jacobian_yface();
    const auto& zx = grid.slope_x_zface();
    const auto& zy = grid.slope_y_zface();
    for (Index j = -e; j < ny + e; ++j)
        for (Index k = 0; k < nz; ++k)
            for (Index i = -e; i < nx + 1 + e; ++i)
                out.fu(i, j, k) = jxf(i, j, k) * state.rhou(i, j, k);
    for (Index j = -e; j < ny + 1 + e; ++j)
        for (Index k = 0; k < nz; ++k)
            for (Index i = -e; i < nx + e; ++i)
                out.fv(i, j, k) = jyf(i, j, k) * state.rhov(i, j, k);
    for (Index j = -e; j < ny + e; ++j)
        for (Index k = 0; k <= nz; ++k)
            for (Index i = -e; i < nx + e; ++i) {
                if (k == 0 || k == nz) {
                    out.fz(i, j, k) = T(0);
                    continue;
                }
                const T ru = T(0.25) * (state.rhou(i, j, k - 1) +
                                        state.rhou(i + 1, j, k - 1) +
                                        state.rhou(i, j, k) +
                                        state.rhou(i + 1, j, k));
                const T rv = T(0.25) * (state.rhov(i, j, k - 1) +
                                        state.rhov(i, j + 1, k - 1) +
                                        state.rhov(i, j, k) +
                                        state.rhov(i, j + 1, k));
                out.fz(i, j, k) = state.rhow(i, j, k) - ru * zx(i, j, k) -
                                  rv * zy(i, j, k);
            }
}

template <class T>
void continuity_reference(const Grid<T>& grid, const MassFluxes<T>& flux,
                          Array3<T>& rho_tend) {
    const T rdx = T(1.0 / grid.dx());
    const T rdy = T(1.0 / grid.dy());
    const auto& jc = grid.jacobian();
    for (Index j = 0; j < grid.ny(); ++j)
        for (Index k = 0; k < grid.nz(); ++k) {
            const T rdz = T(1.0 / grid.dzeta(k));
            for (Index i = 0; i < grid.nx(); ++i) {
                const T div =
                    (flux.fu(i + 1, j, k) - flux.fu(i, j, k)) * rdx +
                    (flux.fv(i, j + 1, k) - flux.fv(i, j, k)) * rdy +
                    (flux.fz(i, j, k + 1) - flux.fz(i, j, k)) * rdz;
                rho_tend(i, j, k) -= div / jc(i, j, k);
            }
        }
}

template <class T>
void expect_mass_fluxes_match(Index nx, Layout layout) {
    SCOPED_TRACE(testing::Message() << "nx " << nx << ", " << name_of(layout)
                                    << ", " << sizeof(T) * 8 << "-bit");
    LongStepSetup<T> s(nx, 8, layout);
    // Fluxes over arrays that already hold values, so a cell the kernels
    // should not touch (or should zero) shows.
    MassFluxes<T> expected = s.flux;
    compute_mass_fluxes(s.grid, s.state, s.flux);
    mass_fluxes_reference(s.grid, s.state, expected);
    expect_bitwise_equal(expected.fu, s.flux.fu, "fu");
    expect_bitwise_equal(expected.fv, s.flux.fv, "fv");
    expect_bitwise_equal(expected.fz, s.flux.fz, "fz");
    Array3<T> got(s.state.rho.extents(), s.state.rho.halo(), layout);
    fill_rough(got, 0.0, 1e-3, 1.7);
    Array3<T> want = got;
    continuity_tendency(s.grid, s.flux, got);
    continuity_reference(s.grid, s.flux, want);
    expect_bitwise_equal(want, got, "rho tendency");
}

TEST(LaneKernels, MassFluxesMatchScalarLoopBitwise) {
    for (const Layout layout : kLayouts)
        for (const Index nx : kWidths) {
            expect_mass_fluxes_match<double>(nx, layout);
            expect_mass_fluxes_match<float>(nx, layout);
        }
}

// ---------------------------------------------------------------------
// AcousticStepper::prepare: the scalar loops that freeze the
// linearization coefficients.

template <class T>
void expect_prepare_matches(Index nx, Layout layout) {
    SCOPED_TRACE(testing::Message() << "nx " << nx << ", " << name_of(layout)
                                    << ", " << sizeof(T) * 8 << "-bit");
    LongStepSetup<T> s(nx, 8, layout);
    AcousticStepper<T> stepper(s.grid, AcousticConfig{});
    // Reference arrays start as the stepper's do (zero), so the cells
    // prepare leaves alone compare too.
    Array3<T> cpt = stepper.cpt(), thf_x = stepper.thf_x(),
              thf_y = stepper.thf_y(), thf_z = stepper.thf_z();
    stepper.prepare(s.state);

    const auto& bar = s.state;
    const Index ny = s.grid.ny(), nz = s.grid.nz(), h = s.grid.halo();
    auto theta = [&](Index i, Index j, Index k) {
        return bar.rhotheta(i, j, k) / bar.rho(i, j, k);
    };
    for (Index j = -h + 1; j < ny + h - 1; ++j)
        for (Index k = 0; k < nz; ++k)
            for (Index i = -h + 1; i < nx + h - 1; ++i)
                cpt(i, j, k) =
                    eos_dp_drhotheta(bar.p(i, j, k), bar.rhotheta(i, j, k));
    for (Index j = -h + 1; j < ny + h - 1; ++j)
        for (Index k = 0; k < nz; ++k)
            for (Index i = -h + 2; i < nx + h - 1; ++i)
                thf_x(i, j, k) =
                    T(0.5) * (theta(i - 1, j, k) + theta(i, j, k));
    for (Index j = -h + 2; j < ny + h - 1; ++j)
        for (Index k = 0; k < nz; ++k)
            for (Index i = -h + 1; i < nx + h - 1; ++i)
                thf_y(i, j, k) =
                    T(0.5) * (theta(i, j - 1, k) + theta(i, j, k));
    for (Index j = -h + 1; j < ny + h - 1; ++j)
        for (Index k = 0; k <= nz; ++k) {
            const Index km = k > 0 ? k - 1 : 0;
            const Index kc = k < nz ? k : nz - 1;
            for (Index i = -h + 1; i < nx + h - 1; ++i)
                thf_z(i, j, k) = T(0.5) * (theta(i, j, km) + theta(i, j, kc));
        }
    expect_bitwise_equal(cpt, stepper.cpt(), "cpt");
    expect_bitwise_equal(thf_x, stepper.thf_x(), "thf_x");
    expect_bitwise_equal(thf_y, stepper.thf_y(), "thf_y");
    expect_bitwise_equal(thf_z, stepper.thf_z(), "thf_z");
}

TEST(LaneKernels, AcousticPrepareMatchesScalarLoopBitwise) {
    for (const Layout layout : kLayouts)
        for (const Index nx : kWidths) {
            expect_prepare_matches<double>(nx, layout);
            expect_prepare_matches<float>(nx, layout);
        }
}

}  // namespace
}  // namespace asuca
