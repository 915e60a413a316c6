#include "microphysics/burner.hpp"
#include "microphysics/network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>

using namespace exa;

namespace {

// Nucleon (mass-fraction) conservation check: sum_i A_i dY_i/dt == 0.
Real massFractionDrift(const ReactionNetwork& net, Real rho, Real T,
                       const std::vector<Real>& X) {
    std::vector<Real> Y(net.nspec()), dY(net.nspec());
    net.xToY(X.data(), Y.data());
    Real edot;
    net.ydot(rho, T, Y.data(), dY.data(), edot);
    Real drift = 0.0;
    for (int i = 0; i < net.nspec(); ++i) drift += net.species(i).A * dY[i];
    return drift;
}

} // namespace

TEST(Network, IgnitionSimpleStructure) {
    auto net = makeIgnitionSimple();
    EXPECT_EQ(net.nspec(), 2);
    EXPECT_EQ(net.numReactions(), 1);
    EXPECT_EQ(net.speciesIndex("c12"), 0);
    EXPECT_EQ(net.speciesIndex("mg24"), 1);
    EXPECT_EQ(net.speciesIndex("fe56"), -1);
}

TEST(Network, Aprox13Structure) {
    auto net = makeAprox13();
    EXPECT_EQ(net.nspec(), 13);
    EXPECT_EQ(net.speciesIndex("ni56"), 12);
    EXPECT_EQ(net.numReactions(), 1 + 11 + 3); // 3a + 11 (a,g) + heavy ion
}

TEST(Network, CompositionMeans) {
    auto net = makeIgnitionSimple();
    std::vector<Real> X = {1.0, 0.0};
    EXPECT_NEAR(net.abar(X.data()), 12.0, 1e-12);
    EXPECT_NEAR(net.zbar(X.data()), 6.0, 1e-12);
    EXPECT_NEAR(net.ye(X.data()), 0.5, 1e-12);
    std::vector<Real> Xmix = {0.5, 0.5};
    // abar = 1/(0.5/12 + 0.5/24) = 16
    EXPECT_NEAR(net.abar(Xmix.data()), 16.0, 1e-12);
}

// The network name is a std::string, not a const char*: gtest prints a
// pointer parameter with its address, which ASLR changes from run to run,
// and the printed parameter is part of each ctest case name.
class NetworkConservation
    : public ::testing::TestWithParam<std::tuple<std::string, Real, Real>> {};

TEST_P(NetworkConservation, NucleonNumberConserved) {
    auto [which, rho, T] = GetParam();
    ReactionNetwork net = which == "ignition" ? makeIgnitionSimple()
                          : which == "3alpha" ? makeTripleAlpha()
                                              : makeAprox13();
    std::vector<Real> X(net.nspec(), 0.0);
    // Seed every species a little so all reactions are active.
    for (int i = 0; i < net.nspec(); ++i) X[i] = 1.0;
    Real s = std::accumulate(X.begin(), X.end(), 0.0);
    for (auto& x : X) x /= s;
    const Real drift = massFractionDrift(net, rho, T, X);
    std::vector<Real> Y(net.nspec()), dY(net.nspec());
    net.xToY(X.data(), Y.data());
    Real edot;
    net.ydot(rho, T, Y.data(), dY.data(), edot);
    Real scale = 0.0;
    for (int i = 0; i < net.nspec(); ++i) {
        scale = std::max(scale, std::abs(net.species(i).A * dY[i]));
    }
    EXPECT_LE(std::abs(drift), 1e-12 * std::max(scale, 1e-300));
}

INSTANTIATE_TEST_SUITE_P(
    States, NetworkConservation,
    ::testing::Values(std::tuple{std::string("ignition"), 2.0e9, 8.0e8},
                      std::tuple{std::string("ignition"), 1.0e7, 2.0e9},
                      std::tuple{std::string("3alpha"), 1.0e6, 2.0e8},
                      std::tuple{std::string("aprox13"), 1.0e7, 3.0e9},
                      std::tuple{std::string("aprox13"), 5.0e8, 5.0e9}));

TEST(Network, EnergyGenerationPositiveForFuel) {
    auto net = makeIgnitionSimple();
    std::vector<Real> X = {1.0, 0.0};
    Eos eos{HelmLiteEos{}};
    EXPECT_GT(edotOf(net, eos, 2.0e9, 8.0e8, X.data()), 0.0);
    // No fuel -> no energy.
    std::vector<Real> ash = {0.0, 1.0};
    EXPECT_DOUBLE_EQ(edotOf(net, eos, 2.0e9, 8.0e8, ash.data()), 0.0);
}

TEST(Network, TripleAlphaTemperatureSensitivityNearT40) {
    // Section IV-B: "the energy generation rate ... may have a temperature
    // dependence as sensitive as T^40" for helium burning near 1e8 K.
    auto net = makeTripleAlpha();
    net.screening_enabled = false;
    std::vector<Real> X = {1.0, 0.0, 0.0};
    std::vector<Real> Y(3);
    net.xToY(X.data(), Y.data());
    const Real nu = net.temperatureSensitivity(1.0e5, 1.0e8, Y.data());
    EXPECT_GT(nu, 30.0);
    EXPECT_LT(nu, 55.0);
}

TEST(Network, RatesIncreaseSteeplyWithT) {
    auto net = makeIgnitionSimple();
    std::vector<Real> Y = {1.0 / 12.0, 0.0};
    std::vector<Real> R1(1), R2(1);
    net.rates(2.0e9, 6.0e8, Y.data(), R1.data(), nullptr);
    net.rates(2.0e9, 1.2e9, Y.data(), R2.data(), nullptr);
    EXPECT_GT(R2[0], 1.0e4 * R1[0]); // doubling T9 from 0.6: explosive rise
}

TEST(Network, ScreeningEnhancesRates) {
    auto net = makeIgnitionSimple();
    std::vector<Real> Y = {1.0 / 12.0, 0.0};
    std::vector<Real> on(1), off(1);
    net.rates(2.0e9, 8.0e8, Y.data(), on.data(), nullptr);
    net.screening_enabled = false;
    net.rates(2.0e9, 8.0e8, Y.data(), off.data(), nullptr);
    EXPECT_GT(on[0], off[0]);
    EXPECT_LT(on[0], 10.0 * off[0]); // capped weak screening
}

TEST(Network, AnalyticJacobianMatchesFiniteDifferences) {
    // Screening off: its (small) composition derivative is deliberately
    // omitted from the analytic Jacobian, as in the production aprox13;
    // ScreeningJacobianConsistency below bounds that approximation.
    auto net = makeAprox13();
    net.screening_enabled = false;
    const int n = net.nspec();
    std::vector<Real> X(n, 0.01);
    X[0] = 0.3;
    X[1] = 0.35;
    X[2] = 0.24;
    std::vector<Real> Y(n);
    net.xToY(X.data(), Y.data());
    const Real rho = 1.0e7, T = 3.0e9, cv = 1.0e7;

    DenseMatrix J(n + 1);
    net.jacobian(rho, T, Y.data(), cv, J);

    // Row scales, so tiny entries are not held to a relative standard
    // their finite-difference estimate cannot meet.
    std::vector<Real> row_scale(n + 1, 0.0);
    for (int i = 0; i <= n; ++i) {
        for (int j = 0; j <= n; ++j) {
            row_scale[i] = std::max(row_scale[i], std::abs(J(i, j)));
        }
    }

    // Central-difference columns.
    std::vector<Real> fm(n), fp(n);
    Real em, ep;
    for (int j = 0; j <= n; ++j) {
        std::vector<Real> Ym = Y, Yp = Y;
        Real Tm = T, Tp = T;
        Real dy;
        if (j < n) {
            dy = std::max(std::abs(Y[j]) * 1e-5, 1e-10);
            Ym[j] -= dy;
            Yp[j] += dy;
        } else {
            dy = T * 1e-6;
            Tm -= dy;
            Tp += dy;
        }
        net.ydot(rho, Tm, Ym.data(), fm.data(), em);
        net.ydot(rho, Tp, Yp.data(), fp.data(), ep);
        for (int i = 0; i < n; ++i) {
            const Real fd = (fp[i] - fm[i]) / (2 * dy);
            const Real scale =
                std::abs(fd) + std::abs(J(i, j)) + 1e-5 * row_scale[i] + 1e-20;
            ASSERT_NEAR((J(i, j) - fd) / scale, 0.0, 1e-2)
                << "entry " << i << "," << j;
        }
        const Real fd_T = ((ep - em) / (2 * dy)) / cv;
        const Real scale =
            std::abs(fd_T) + std::abs(J(n, j)) + 1e-5 * row_scale[n] + 1e-20;
        ASSERT_NEAR((J(n, j) - fd_T) / scale, 0.0, 1e-2) << "T row, col " << j;
    }
}

TEST(Network, SparsityCoversJacobian) {
    // Every numerically nonzero Jacobian entry must be structural.
    auto net = makeAprox13();
    const int n = net.nspec();
    std::vector<Real> X(n, 1.0 / n);
    std::vector<Real> Y(n);
    net.xToY(X.data(), Y.data());
    DenseMatrix J(n + 1);
    net.jacobian(1.0e7, 4.0e9, Y.data(), 1.0e7, J);
    auto pat = net.sparsity();
    for (int i = 0; i <= n; ++i) {
        for (int j = 0; j <= n; ++j) {
            if (std::abs(J(i, j)) > 0.0) {
                ASSERT_TRUE(pat[i * (n + 1) + j]) << i << "," << j;
            }
        }
    }
}

TEST(Network, ScreeningJacobianConsistency) {
    // The analytic Jacobian neglects d(screening)/dY; verify the error is
    // small relative to the dominant terms (finite-difference check with
    // screening on).
    auto net = makeIgnitionSimple();
    std::vector<Real> Y = {1.0 / 12.0, 0.0};
    DenseMatrix J(3);
    const Real rho = 2.0e9, T = 8.0e8, cv = 1.0e7;
    net.jacobian(rho, T, Y.data(), cv, J);
    std::vector<Real> f0(2), f1(2);
    Real e0, e1;
    net.ydot(rho, T, Y.data(), f0.data(), e0);
    std::vector<Real> Yp = Y;
    const Real dy = Y[0] * 1e-6;
    Yp[0] += dy;
    net.ydot(rho, T, Yp.data(), f1.data(), e1);
    const Real fd = (f1[0] - f0[0]) / dy;
    EXPECT_NEAR(J(0, 0) / fd, 1.0, 0.05);
}

TEST(Network, ReverseVariantStructure) {
    auto net = makeAprox13WithReverse();
    EXPECT_EQ(net.nspec(), 13);
    // Forward set (15) + one photodisintegration per (a,g) link (11).
    EXPECT_EQ(net.numReactions(), 15 + 11);
    // Reverse Q values are the negated forward ones (from mass excesses).
    const auto& fwd = net.reaction(1);  // c12(a,g)o16
    bool found = false;
    for (int r = 0; r < net.numReactions(); ++r) {
        if (net.reaction(r).label == fwd.label + "_rev") {
            EXPECT_NEAR(net.reaction(r).Q_MeV, -fwd.Q_MeV, 1e-12);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Network, PhotodisintegrationSwitchesOnAtHighT) {
    // Below T9 ~ 2 the reverse flow is negligible; by T9 ~ 6 it competes
    // with the forward capture (the quasi-equilibrium regime).
    auto net = makeAprox13WithReverse();
    net.screening_enabled = false;
    std::vector<Real> X(13, 0.0);
    X[0] = 0.1;  // he4
    X[1] = 0.45; // c12
    X[2] = 0.45; // o16
    std::vector<Real> Y(13);
    net.xToY(X.data(), Y.data());
    std::vector<Real> R(net.numReactions());
    auto ratio = [&](Real T) {
        net.rates(1.0e7, T, Y.data(), R.data(), nullptr);
        // c12(a,g)o16 is reaction 1; find its reverse.
        Real fwd = R[1], rev = 0.0;
        for (int r = 0; r < net.numReactions(); ++r) {
            if (net.reaction(r).label == "c12(a,g)o16_rev") rev = R[r];
        }
        return rev / std::max(fwd, Real(1e-300));
    };
    EXPECT_LT(ratio(2.0e9), 1e-3);
    EXPECT_GT(ratio(6.0e9), 1e-3 * 100);
    EXPECT_GT(ratio(6.0e9), ratio(2.0e9));
}

TEST(Network, ReverseVariantStillConservesNucleons) {
    auto net = makeAprox13WithReverse();
    std::vector<Real> X(13, 1.0 / 13.0);
    std::vector<Real> Y(13), dY(13);
    net.xToY(X.data(), Y.data());
    Real edot;
    net.ydot(1.0e7, 5.0e9, Y.data(), dY.data(), edot);
    Real drift = 0.0, scale = 0.0;
    for (int i = 0; i < 13; ++i) {
        drift += net.species(i).A * dY[i];
        scale = std::max(scale, std::abs(net.species(i).A * dY[i]));
    }
    EXPECT_LE(std::abs(drift), 1e-12 * scale);
}

TEST(Network, ReverseVariantBurnsStably) {
    // The stiff QSE-adjacent regime must still integrate.
    auto net = makeAprox13WithReverse();
    Eos eos{HelmLiteEos{}};
    std::vector<Real> X(13, 0.0);
    X[0] = 0.1;
    X[1] = 0.45;
    X[2] = 0.45;
    auto r = burnZone(net, eos, 1.0e7, 5.0e9, X.data(), 1.0e-9);
    ASSERT_TRUE(r.success);
    Real xsum = 0.0;
    for (Real x : r.X) xsum += x;
    EXPECT_NEAR(xsum, 1.0, 1e-10);
}
