// Tests for the lateral boundary-condition halo fills.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/core/boundary.hpp"
#include "src/parallel/thread_pool.hpp"

namespace asuca {
namespace {

/// Reference: the original two-pass fill. The x pass fills the x halos of
/// every row, the y pass then copies whole rows from the x-filled
/// interior rows.
namespace two_pass {

Index wrap(Index i, Index period) {
    Index r = i % period;
    return r < 0 ? r + period : r;
}

void fill_periodic_x(Array3<double>& a, Index period) {
    const Index h = a.halo();
    for (Index j = -h; j < a.ny() + h; ++j) {
        for (Index k = -h; k < a.nz() + h; ++k) {
            for (Index i = -h; i < 0; ++i)
                a(i, j, k) = a(wrap(i, period), j, k);
            for (Index i = period; i < a.nx() + h; ++i)
                a(i, j, k) = a(wrap(i, period), j, k);
        }
    }
}

void fill_periodic_y(Array3<double>& a, Index period) {
    const Index h = a.halo();
    for (Index j = -h; j < 0; ++j) {
        for (Index k = -h; k < a.nz() + h; ++k)
            for (Index i = -h; i < a.nx() + h; ++i)
                a(i, j, k) = a(i, wrap(j, period), k);
    }
    for (Index j = period; j < a.ny() + h; ++j) {
        for (Index k = -h; k < a.nz() + h; ++k)
            for (Index i = -h; i < a.nx() + h; ++i)
                a(i, j, k) = a(i, wrap(j, period), k);
    }
}

void fill_zero_gradient_x(Array3<double>& a) {
    const Index h = a.halo();
    for (Index j = -h; j < a.ny() + h; ++j) {
        for (Index k = -h; k < a.nz() + h; ++k) {
            for (Index i = -h; i < 0; ++i) a(i, j, k) = a(0, j, k);
            for (Index i = a.nx(); i < a.nx() + h; ++i)
                a(i, j, k) = a(a.nx() - 1, j, k);
        }
    }
}

void fill_zero_gradient_y(Array3<double>& a) {
    const Index h = a.halo();
    for (Index j = -h; j < 0; ++j)
        for (Index k = -h; k < a.nz() + h; ++k)
            for (Index i = -h; i < a.nx() + h; ++i)
                a(i, j, k) = a(i, 0, k);
    for (Index j = a.ny(); j < a.ny() + h; ++j)
        for (Index k = -h; k < a.nz() + h; ++k)
            for (Index i = -h; i < a.nx() + h; ++i)
                a(i, j, k) = a(i, a.ny() - 1, k);
}

void fill(Array3<double>& a, LateralBc bc, Index x_period, Index y_period) {
    if (bc == LateralBc::Periodic) {
        fill_periodic_x(a, x_period);
        fill_periodic_y(a, y_period);
    } else {
        fill_zero_gradient_x(a);
        fill_zero_gradient_y(a);
    }
}

}  // namespace two_pass

Array3<double> numbered(Int3 ext, Index halo, Layout layout) {
    Array3<double> a(ext, halo, layout, -999.0);
    for (Index j = 0; j < ext.y; ++j)
        for (Index k = 0; k < ext.z; ++k)
            for (Index i = 0; i < ext.x; ++i)
                a(i, j, k) = 100.0 * static_cast<double>(i) +
                             10.0 * static_cast<double>(j) +
                             static_cast<double>(k);
    return a;
}

class BoundaryLayouts : public ::testing::TestWithParam<Layout> {};

TEST_P(BoundaryLayouts, PeriodicWrapsCenteredArray) {
    auto a = numbered({6, 5, 4}, 2, GetParam());
    apply_lateral_bc(a, LateralBc::Periodic, 6, 5);
    for (Index k = 0; k < 4; ++k) {
        for (Index j = 0; j < 5; ++j) {
            EXPECT_EQ(a(-1, j, k), a(5, j, k));
            EXPECT_EQ(a(-2, j, k), a(4, j, k));
            EXPECT_EQ(a(6, j, k), a(0, j, k));
            EXPECT_EQ(a(7, j, k), a(1, j, k));
        }
        for (Index i = 0; i < 6; ++i) {
            EXPECT_EQ(a(i, -1, k), a(i, 4, k));
            EXPECT_EQ(a(i, 5, k), a(i, 0, k));
        }
    }
}

TEST_P(BoundaryLayouts, PeriodicFillsCornersConsistently) {
    auto a = numbered({6, 5, 3}, 2, GetParam());
    apply_lateral_bc(a, LateralBc::Periodic, 6, 5);
    // Corner halo (-1,-1) must equal the opposite interior corner (5,4).
    EXPECT_EQ(a(-1, -1, 1), a(5, 4, 1));
    EXPECT_EQ(a(7, 6, 2), a(1, 1, 2));
    EXPECT_EQ(a(-2, 5, 0), a(4, 0, 0));
}

TEST_P(BoundaryLayouts, PeriodicStaggeredDuplicatesFacePlane) {
    // x-face array of extent nx+1 with period nx: face nx aliases face 0.
    auto a = numbered({7, 5, 3}, 2, GetParam());  // nx=6 -> extent 7
    apply_lateral_bc(a, LateralBc::Periodic, 6, 5);
    for (Index j = 0; j < 5; ++j)
        for (Index k = 0; k < 3; ++k) {
            EXPECT_EQ(a(6, j, k), a(0, j, k));
            EXPECT_EQ(a(-1, j, k), a(5, j, k));
        }
}

TEST_P(BoundaryLayouts, ZeroGradientCopiesEdge) {
    auto a = numbered({6, 5, 3}, 2, GetParam());
    apply_lateral_bc(a, LateralBc::ZeroGradient, 6, 5);
    for (Index k = 0; k < 3; ++k) {
        for (Index j = 0; j < 5; ++j) {
            EXPECT_EQ(a(-1, j, k), a(0, j, k));
            EXPECT_EQ(a(-2, j, k), a(0, j, k));
            EXPECT_EQ(a(7, j, k), a(5, j, k));
        }
        EXPECT_EQ(a(2, -2, k), a(2, 0, k));
        EXPECT_EQ(a(2, 6, k), a(2, 4, k));
        // Corners: x fill then y fill leaves the edge value.
        EXPECT_EQ(a(-2, -2, k), a(0, 0, k));
    }
}

TEST_P(BoundaryLayouts, GroupFillMatchesTwoPassFillBitwise) {
    struct Mesh {
        Int3 n;  ///< centered extents; the periods are n.x and n.y
        Index halo;
    };
    // An ordinary mesh, and one whose periods are shorter than its halo.
    for (const Mesh m : {Mesh{{6, 5, 4}, 2}, Mesh{{2, 2, 3}, 3}}) {
        for (const LateralBc bc :
             {LateralBc::Periodic, LateralBc::ZeroGradient}) {
            for (const std::size_t threads : {1, 4}) {
                ThreadPool pool(threads);
                ThreadPool::ScopedOverride use(pool);
                // Centered, x-staggered and y-staggered arrays with a
                // distinct value in every padded cell, filled as a group.
                std::vector<Array3<double>> got, want;
                for (const Int3 e : {m.n, Int3{m.n.x + 1, m.n.y, m.n.z},
                                     Int3{m.n.x, m.n.y + 1, m.n.z}}) {
                    Array3<double> a(e, m.halo, GetParam());
                    for (std::size_t c = 0; c < a.size(); ++c)
                        a.data()[c] = static_cast<double>(c) +
                                      0.25 * static_cast<double>(got.size());
                    got.push_back(a);
                    want.push_back(a);
                    two_pass::fill(want.back(), bc, m.n.x, m.n.y);
                }
                std::vector<Array3<double>*> group;
                for (auto& a : got) group.push_back(&a);
                apply_lateral_bc<double>(group, bc, m.n.x, m.n.y);
                for (std::size_t g = 0; g < got.size(); ++g) {
                    EXPECT_EQ(std::memcmp(got[g].data(), want[g].data(),
                                          got[g].size() * sizeof(double)),
                              0)
                        << "array " << g << ", mesh " << m.n.x << "x"
                        << m.n.y << " halo " << m.halo << ", "
                        << (bc == LateralBc::Periodic ? "Periodic"
                                                      : "ZeroGradient")
                        << ", " << threads << " threads";
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(BothLayouts, BoundaryLayouts,
                         ::testing::Values(Layout::ZXY, Layout::XZY),
                         [](const auto& info) {
                             return info.param == Layout::ZXY ? "kij" : "xzy";
                         });

TEST(Boundary, PeriodicIsIdempotent) {
    auto a = numbered({8, 6, 3}, 3, Layout::XZY);
    apply_lateral_bc(a, LateralBc::Periodic, 8, 6);
    auto b = a;
    apply_lateral_bc(a, LateralBc::Periodic, 8, 6);
    EXPECT_EQ(max_abs_diff(a, b), 0.0);
    // Halos too.
    for (Index j = -3; j < 9; ++j)
        for (Index k = 0; k < 3; ++k)
            for (Index i = -3; i < 11; ++i)
                EXPECT_EQ(a(i, j, k), b(i, j, k));
}

TEST(Boundary, RejectsPeriodOutsideExtent) {
    auto a = numbered({6, 5, 3}, 2, Layout::XZY);
    EXPECT_THROW(apply_lateral_bc(a, LateralBc::Periodic, 7, 5), Error);
    EXPECT_THROW(apply_lateral_bc(a, LateralBc::Periodic, 6, 0), Error);
}

}  // namespace
}  // namespace asuca
