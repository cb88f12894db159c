// Tests for the Thomas solver behind the 1-D Helmholtz-like equation.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "src/core/tridiagonal.hpp"

namespace asuca {
namespace {

/// Dense reference: Gaussian elimination with partial pivoting.
std::vector<double> dense_solve(std::vector<std::vector<double>> a,
                                std::vector<double> b) {
    const std::size_t n = b.size();
    for (std::size_t col = 0; col < n; ++col) {
        std::size_t piv = col;
        for (std::size_t r = col + 1; r < n; ++r) {
            if (std::abs(a[r][col]) > std::abs(a[piv][col])) piv = r;
        }
        std::swap(a[col], a[piv]);
        std::swap(b[col], b[piv]);
        for (std::size_t r = col + 1; r < n; ++r) {
            const double f = a[r][col] / a[col][col];
            for (std::size_t c = col; c < n; ++c) a[r][c] -= f * a[col][c];
            b[r] -= f * b[col];
        }
    }
    std::vector<double> x(n);
    for (std::size_t r = n; r-- > 0;) {
        double s = b[r];
        for (std::size_t c = r + 1; c < n; ++c) s -= a[r][c] * x[c];
        x[r] = s / a[r][r];
    }
    return x;
}

class TridiagonalSizes : public ::testing::TestWithParam<int> {};

TEST_P(TridiagonalSizes, MatchesDenseReference) {
    const auto n = static_cast<std::size_t>(GetParam());
    std::mt19937 rng(1234 + GetParam());
    std::uniform_real_distribution<double> dist(-1.0, 1.0);

    std::vector<double> lower(n), diag(n), upper(n), rhs(n), scratch(n);
    std::vector<std::vector<double>> dense(n, std::vector<double>(n, 0.0));
    std::vector<double> b(n);
    for (std::size_t k = 0; k < n; ++k) {
        lower[k] = dist(rng);
        upper[k] = dist(rng);
        // Diagonally dominant (the HE-VI operator always is).
        diag[k] = 3.0 + std::abs(dist(rng));
        rhs[k] = b[k] = dist(rng) * 5.0;
        dense[k][k] = diag[k];
        if (k > 0) dense[k][k - 1] = lower[k];
        if (k + 1 < n) dense[k][k + 1] = upper[k];
    }
    const auto expected = dense_solve(dense, b);
    solve_tridiagonal<double>(lower, diag, upper, rhs, scratch);
    for (std::size_t k = 0; k < n; ++k) {
        EXPECT_NEAR(rhs[k], expected[k], 1e-11) << "row " << k << " n=" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TridiagonalSizes,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 47, 48, 100));

TEST(Tridiagonal, SolvesIdentity) {
    std::vector<double> lower(4, 0.0), diag(4, 1.0), upper(4, 0.0);
    std::vector<double> rhs{1.0, -2.0, 3.0, 0.5}, scratch(4);
    solve_tridiagonal<double>(lower, diag, upper, rhs, scratch);
    EXPECT_DOUBLE_EQ(rhs[0], 1.0);
    EXPECT_DOUBLE_EQ(rhs[1], -2.0);
    EXPECT_DOUBLE_EQ(rhs[2], 3.0);
    EXPECT_DOUBLE_EQ(rhs[3], 0.5);
}

TEST(Tridiagonal, SecondDifferenceOperator) {
    // -x_{k-1} + 2 x_k - x_{k+1} = h^2 f with x=0 ends: discrete Poisson.
    const std::size_t n = 32;
    std::vector<double> lower(n, -1.0), diag(n, 2.0), upper(n, -1.0);
    std::vector<double> rhs(n), scratch(n);
    const double h = 1.0 / (n + 1);
    for (std::size_t k = 0; k < n; ++k) {
        rhs[k] = h * h * 1.0;  // f = 1
    }
    solve_tridiagonal<double>(lower, diag, upper, rhs, scratch);
    // Analytic solution of -u'' = 1, u(0)=u(1)=0: u = x(1-x)/2.
    for (std::size_t k = 0; k < n; ++k) {
        const double x = (k + 1) * h;
        EXPECT_NEAR(rhs[k], 0.5 * x * (1.0 - x), 1e-12);
    }
}

/// Generate `m` independent random diagonally-dominant systems of size
/// `n`, solve each with the scalar sweep, then solve all of them with one
/// batched sweep over a level-major workspace (level k of system l at
/// k*m + l; m that is not a multiple of the lane width runs the scalar
/// remainder) and require the per-system results to match the scalar
/// sweep EXACTLY — each system executes the identical operation sequence,
/// so on the default build (no implicit FMA contraction) the bound is
/// 0 ULP.
void check_batched_matches_scalar(std::size_t n, std::size_t m,
                                  unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);

    std::vector<double> lower(n * m, 0.0), diag(n * m, 0.0),
        upper(n * m, 0.0), rhs(n * m, 0.0), scratch(n * m, 0.0),
        beta(m, 0.0);
    std::vector<std::vector<double>> expected(m);
    for (std::size_t l = 0; l < m; ++l) {
        std::vector<double> lo(n), di(n), up(n), x(n), sc(n);
        for (std::size_t k = 0; k < n; ++k) {
            lo[k] = dist(rng);
            up[k] = dist(rng);
            di[k] = 3.0 + std::abs(dist(rng));
            x[k] = dist(rng) * 5.0;
            lower[k * m + l] = lo[k];
            diag[k * m + l] = di[k];
            upper[k * m + l] = up[k];
            rhs[k * m + l] = x[k];
        }
        solve_tridiagonal<double>(lo, di, up, x, sc);
        expected[l] = std::move(x);
    }

    solve_tridiagonal_batched<double>(lower.data(), diag.data(), upper.data(),
                                      rhs.data(), scratch.data(), beta.data(),
                                      static_cast<Index>(n),
                                      static_cast<Index>(m));
    for (std::size_t l = 0; l < m; ++l) {
        for (std::size_t k = 0; k < n; ++k) {
            EXPECT_EQ(rhs[k * m + l], expected[l][k])
                << "system " << l << " level " << k << " (n=" << n
                << " m=" << m << ")";
        }
    }
}

TEST(TridiagonalBatched, FullWidthFourMatchesScalarExactly) {
    check_batched_matches_scalar(48, 4, 7);
}

TEST(TridiagonalBatched, FullWidthEightMatchesScalarExactly) {
    check_batched_matches_scalar(33, 8, 11);
}

TEST(TridiagonalBatched, OddRemainderWidthMatchesScalarExactly) {
    // Rows whose width leaves a scalar remainder after the lane chunks,
    // as an odd nx does in the Helmholtz sweep.
    check_batched_matches_scalar(48, 3, 13);
    check_batched_matches_scalar(16, 5, 17);
    check_batched_matches_scalar(47, 7, 19);
    check_batched_matches_scalar(31, 13, 21);
}

TEST(TridiagonalBatched, SingleLaneMatchesScalarExactly) {
    check_batched_matches_scalar(48, 1, 23);
    check_batched_matches_scalar(2, 1, 29);
}

TEST(TridiagonalBatched, SingleLevelSystems) {
    check_batched_matches_scalar(1, 4, 31);
    check_batched_matches_scalar(1, 3, 37);
}

TEST(TridiagonalBatched, MatchesDenseReference) {
    // Independent accuracy check (not just scalar-equivalence): every
    // lane of a batched solve agrees with dense Gaussian elimination.
    const std::size_t n = 48, w = 8;
    std::mt19937 rng(101);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> lower(n * w), diag(n * w), upper(n * w), rhs(n * w),
        scratch(n * w), beta(w);
    std::vector<std::vector<std::vector<double>>> dense(
        w, std::vector<std::vector<double>>(n, std::vector<double>(n, 0.0)));
    std::vector<std::vector<double>> b(w, std::vector<double>(n));
    for (std::size_t l = 0; l < w; ++l) {
        for (std::size_t k = 0; k < n; ++k) {
            lower[k * w + l] = dist(rng);
            upper[k * w + l] = dist(rng);
            diag[k * w + l] = 3.0 + std::abs(dist(rng));
            rhs[k * w + l] = b[l][k] = dist(rng) * 5.0;
            dense[l][k][k] = diag[k * w + l];
            if (k > 0) dense[l][k][k - 1] = lower[k * w + l];
            if (k + 1 < n) dense[l][k][k + 1] = upper[k * w + l];
        }
    }
    solve_tridiagonal_batched<double>(lower.data(), diag.data(), upper.data(),
                                      rhs.data(), scratch.data(), beta.data(),
                                      static_cast<Index>(n),
                                      static_cast<Index>(w));
    for (std::size_t l = 0; l < w; ++l) {
        const auto expected = dense_solve(dense[l], b[l]);
        for (std::size_t k = 0; k < n; ++k) {
            EXPECT_NEAR(rhs[k * w + l], expected[k], 1e-11)
                << "lane " << l << " level " << k;
        }
    }
}

TEST(Tridiagonal, SinglePrecisionWorks) {
    std::vector<float> lower{0.f, 1.f, 1.f}, diag{4.f, 4.f, 4.f},
        upper{1.f, 1.f, 0.f}, rhs{5.f, 6.f, 5.f}, scratch(3);
    solve_tridiagonal<float>(lower, diag, upper, rhs, scratch);
    EXPECT_NEAR(rhs[0], 1.0f, 1e-6f);
    EXPECT_NEAR(rhs[1], 1.0f, 1e-6f);
    EXPECT_NEAR(rhs[2], 1.0f, 1e-6f);
}

}  // namespace
}  // namespace asuca
