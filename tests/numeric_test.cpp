#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>

#include "numeric/lu.hpp"
#include "numeric/matrix.hpp"
#include "numeric/metrics.hpp"
#include "numeric/sources.hpp"
#include "numeric/waveform.hpp"

namespace amsvp::numeric {
namespace {

TEST(Matrix, BasicAccessAndFill) {
    Matrix m(2, 3);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    m.at(1, 2) = 4.5;
    EXPECT_DOUBLE_EQ(m.at(1, 2), 4.5);
    m.fill(1.0);
    EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(m(1, 2), 1.0);
}

TEST(Matrix, IdentityMultiply) {
    const Matrix id = Matrix::identity(3);
    const Vector x{1.0, -2.0, 3.0};
    const Vector y = id.multiply(x);
    EXPECT_EQ(y, x);
}

TEST(Matrix, MultiplyKnownValues) {
    Matrix m(2, 2);
    m(0, 0) = 1;
    m(0, 1) = 2;
    m(1, 0) = 3;
    m(1, 1) = 4;
    const Vector y = m.multiply({5, 6});
    EXPECT_DOUBLE_EQ(y[0], 17.0);
    EXPECT_DOUBLE_EQ(y[1], 39.0);
}

TEST(Matrix, DifferenceNorm) {
    Matrix a(1, 2);
    Matrix b(1, 2);
    a(0, 0) = 3.0;
    b(0, 1) = 4.0;
    EXPECT_DOUBLE_EQ(a.difference_norm(b), 5.0);
}

TEST(Lu, SolvesKnownSystem) {
    Matrix a(2, 2);
    a(0, 0) = 2;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 3;
    auto x = solve_linear_system(a, {5, 10});
    ASSERT_TRUE(x.has_value());
    EXPECT_NEAR((*x)[0], 1.0, 1e-12);
    EXPECT_NEAR((*x)[1], 3.0, 1e-12);
}

TEST(Lu, DetectsSingularMatrix) {
    Matrix a(2, 2);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(1, 0) = 2;
    a(1, 1) = 4;  // rank 1
    EXPECT_FALSE(LuFactorization::factorise(a).has_value());
}

TEST(Lu, PivotsOnZeroDiagonal) {
    Matrix a(2, 2);
    a(0, 0) = 0;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 0;
    auto x = solve_linear_system(a, {2, 3});
    ASSERT_TRUE(x.has_value());
    EXPECT_NEAR((*x)[0], 3.0, 1e-12);
    EXPECT_NEAR((*x)[1], 2.0, 1e-12);
}

/// Property: for random well-conditioned systems, A * solve(A, b) == b.
class LuRandomSystems : public ::testing::TestWithParam<int> {};

TEST_P(LuRandomSystems, ResidualIsTiny) {
    const int n = GetParam();
    std::mt19937 rng(static_cast<unsigned>(n) * 7919u + 13u);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);

    Matrix a(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
        for (int c = 0; c < n; ++c) {
            a(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) = dist(rng);
        }
        // Diagonal dominance keeps the condition number sane.
        a(static_cast<std::size_t>(r), static_cast<std::size_t>(r)) += static_cast<double>(n);
    }
    Vector b(static_cast<std::size_t>(n));
    for (double& v : b) {
        v = dist(rng);
    }

    auto x = solve_linear_system(a, b);
    ASSERT_TRUE(x.has_value());
    const Vector ax = a.multiply(*x);
    EXPECT_LT(max_abs_difference(ax, b), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandomSystems,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55));

TEST(Lu, FactorOnceSolveMany) {
    Matrix a(3, 3);
    a(0, 0) = 4;
    a(1, 1) = 5;
    a(2, 2) = 6;
    a(0, 1) = 1;
    a(1, 2) = 1;
    auto lu = LuFactorization::factorise(a);
    ASSERT_TRUE(lu.has_value());
    for (int k = 0; k < 5; ++k) {
        Vector b{static_cast<double>(k), 1.0, 2.0};
        const Vector x = lu->solve(b);
        EXPECT_LT(max_abs_difference(a.multiply(x), b), 1e-10) << "k=" << k;
    }
}

TEST(Waveform, TimeAxis) {
    Waveform w(0.5, 1.0);
    w.append(10);
    w.append(20);
    EXPECT_DOUBLE_EQ(w.time(0), 1.0);
    EXPECT_DOUBLE_EQ(w.time(1), 1.5);
    EXPECT_DOUBLE_EQ(w.min_value(), 10.0);
    EXPECT_DOUBLE_EQ(w.max_value(), 20.0);
}

TEST(Metrics, RmseOfIdenticalSignalsIsZero) {
    const std::vector<double> s{1, 2, 3};
    EXPECT_DOUBLE_EQ(rmse(s, s), 0.0);
}

TEST(Metrics, NrmseNormalisesByRange) {
    Waveform ref(1.0);
    Waveform test(1.0);
    for (int i = 0; i < 4; ++i) {
        ref.append(i % 2 == 0 ? 0.0 : 10.0);          // range 10
        test.append((i % 2 == 0 ? 0.0 : 10.0) + 1.0);  // constant offset 1
    }
    EXPECT_NEAR(nrmse(ref, test), 0.1, 1e-12);
}

TEST(Metrics, MaxError) {
    Waveform ref(1.0);
    Waveform test(1.0);
    ref.append(0);
    ref.append(1);
    test.append(0.25);
    test.append(1);
    EXPECT_DOUBLE_EQ(max_error(ref, test), 0.25);
}

TEST(Sources, SquareWaveStartsHigh) {
    auto sq = square_wave(1e-3, -1.0, 1.0);
    EXPECT_DOUBLE_EQ(sq(0.0), 1.0);
    EXPECT_DOUBLE_EQ(sq(0.49e-3), 1.0);
    EXPECT_DOUBLE_EQ(sq(0.51e-3), -1.0);
    EXPECT_DOUBLE_EQ(sq(1.01e-3), 1.0);
}

TEST(Sources, SineWaveAmplitudeAndOffset) {
    auto s = sine_wave(1000.0, 2.0, 1.0);
    EXPECT_NEAR(s(0.0), 1.0, 1e-12);
    EXPECT_NEAR(s(0.25e-3), 3.0, 1e-9);  // quarter period: offset + amplitude
}

TEST(Sources, StepSwitchesAtThreshold) {
    auto st = step(1e-6, 5.0);
    EXPECT_DOUBLE_EQ(st(0.9e-6), 0.0);
    EXPECT_DOUBLE_EQ(st(1e-6), 5.0);
}

TEST(Sources, PiecewiseLinearInterpolatesAndClamps) {
    auto pwl = piecewise_linear({{0.0, 0.0}, {1.0, 10.0}, {2.0, 10.0}});
    EXPECT_DOUBLE_EQ(pwl(-1.0), 0.0);
    EXPECT_DOUBLE_EQ(pwl(0.5), 5.0);
    EXPECT_DOUBLE_EQ(pwl(1.5), 10.0);
    EXPECT_DOUBLE_EQ(pwl(3.0), 10.0);
}

TEST(Sources, ConstantIsConstant) {
    auto c = constant(42.0);
    EXPECT_DOUBLE_EQ(c(0.0), 42.0);
    EXPECT_DOUBLE_EQ(c(123.0), 42.0);
}

/// Expects `make()` to throw std::invalid_argument mentioning `needle`.
template <typename Make>
void expect_rejected(Make make, const std::string& needle) {
    try {
        (void)make();
        ADD_FAILURE() << "no exception; expected one mentioning: " << needle;
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
}

TEST(Sources, SquareWaveRejectsABadPeriod) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
    expect_rejected([] { return square_wave(0.0); },
                    "numeric::square_wave: period must be positive and finite, got 0");
    expect_rejected([] { return square_wave(-1e-3); }, "got -0.001");
    expect_rejected([] { return square_wave(kInf); }, "got inf");
    expect_rejected([] { return square_wave(kNan); }, "numeric::square_wave: period");
}

TEST(Sources, PiecewiseLinearRejectsMissingUnsortedOrNonFiniteTimes) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
    expect_rejected([] { return piecewise_linear({}); },
                    "numeric::piecewise_linear: needs at least one point");
    expect_rejected([] { return piecewise_linear({{1.0, 0.0}, {0.5, 1.0}}); },
                    "numeric::piecewise_linear: point times must be finite and strictly "
                    "increasing, got 0.5 at point 1");
    expect_rejected([] { return piecewise_linear({{0.0, 0.0}, {0.0, 1.0}}); },
                    "got 0 at point 1");
    expect_rejected([] { return piecewise_linear({{kNan, 0.0}}); }, "at point 0");
    expect_rejected([] { return piecewise_linear({{0.0, 0.0}, {kInf, 1.0}}); },
                    "got inf at point 1");
}

}  // namespace
}  // namespace amsvp::numeric
