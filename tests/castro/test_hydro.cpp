#include "castro/hydro.hpp"
#include "castro/castro.hpp"
#include "mesh/flux_register.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

using namespace exa;
using namespace exa::castro;

namespace {

// A gamma-law Castro on a periodic unit cube.
std::unique_ptr<Castro> makePeriodic(const ReactionNetwork& net, int n, Real gamma,
                                     const Castro::InitFn& init) {
    Box dom({0, 0, 0}, {n - 1, n - 1, n - 1});
    Geometry geom(dom, {0, 0, 0}, {1, 1, 1}, IntVect{1, 1, 1});
    BoxArray ba(dom);
    ba.maxSize(std::max(8, n / 2));
    DistributionMapping dm(ba, 2);
    CastroOptions opt;
    opt.bc = DomainBC::allPeriodic();
    Eos eos{GammaLawEos{gamma}};
    auto c = std::make_unique<Castro>(geom, ba, dm, net, eos, opt);
    c->initialize(init);
    return c;
}

} // namespace

TEST(HllcFlux, ExactForUniformFlow) {
    // A uniform state moving at u: flux must be the exact advective flux.
    const int nspec = 2;
    PrimLayout Q(nspec);
    std::vector<Real> q(Q.ncomp());
    q[PrimLayout::QRHO] = 2.0;
    q[PrimLayout::QU] = 0.7;
    q[PrimLayout::QV] = -0.2;
    q[PrimLayout::QW] = 0.1;
    q[PrimLayout::QP] = 1.5;
    q[PrimLayout::QREINT] = 1.5 / 0.4; // gamma = 1.4
    q[PrimLayout::QC] = std::sqrt(1.4 * 1.5 / 2.0);
    q[PrimLayout::QFS] = 0.25;
    q[PrimLayout::QFS + 1] = 0.75;

    StateLayout S(nspec);
    std::vector<Real> flux(S.ncomp());
    hllcFlux(q.data(), q.data(), nspec, 0, flux.data());

    const Real rho = 2.0, u = 0.7, v = -0.2, w = 0.1, p = 1.5;
    const Real E = 1.5 / 0.4 + 0.5 * rho * (u * u + v * v + w * w);
    EXPECT_NEAR(flux[StateLayout::URHO], rho * u, 1e-12);
    EXPECT_NEAR(flux[StateLayout::UMX], rho * u * u + p, 1e-12);
    EXPECT_NEAR(flux[StateLayout::UMY], rho * u * v, 1e-12);
    EXPECT_NEAR(flux[StateLayout::UMZ], rho * u * w, 1e-12);
    EXPECT_NEAR(flux[StateLayout::UEDEN], u * (E + p), 1e-12);
    EXPECT_NEAR(flux[StateLayout::UFS], rho * u * 0.25, 1e-12);
    EXPECT_NEAR(flux[StateLayout::UFS + 1], rho * u * 0.75, 1e-12);
}

TEST(HllcFlux, SymmetricStatesGiveZeroMassFlux) {
    // Mirror states (equal rho/p, opposite velocity): the interface is a
    // stagnation point; mass flux vanishes by symmetry.
    const int nspec = 1;
    PrimLayout Q(nspec);
    std::vector<Real> ql(Q.ncomp()), qr(Q.ncomp());
    for (auto* q : {&ql, &qr}) {
        (*q)[PrimLayout::QRHO] = 1.0;
        (*q)[PrimLayout::QP] = 1.0;
        (*q)[PrimLayout::QREINT] = 2.5;
        (*q)[PrimLayout::QC] = std::sqrt(1.4);
        (*q)[PrimLayout::QFS] = 1.0;
        (*q)[PrimLayout::QV] = 0.0;
        (*q)[PrimLayout::QW] = 0.0;
    }
    ql[PrimLayout::QU] = 0.3;
    qr[PrimLayout::QU] = -0.3;
    StateLayout S(nspec);
    std::vector<Real> flux(S.ncomp());
    hllcFlux(ql.data(), qr.data(), nspec, 0, flux.data());
    EXPECT_NEAR(flux[StateLayout::URHO], 0.0, 1e-12);
    EXPECT_NEAR(flux[StateLayout::UEDEN], 0.0, 1e-12);
    EXPECT_GT(flux[StateLayout::UMX], 1.0); // compression: p* > p
}

TEST(McSlope, LimitsAtExtrema) {
    Box b({0, 0, 0}, {4, 0, 0});
    std::vector<Real> data = {1.0, 2.0, 5.0, 2.0, 1.0};
    Array4<const Real> q(data.data(), b, 1);
    EXPECT_DOUBLE_EQ(mcSlope(q, 2, 0, 0, 0, 0), 0.0); // local max
    EXPECT_GT(mcSlope(q, 1, 0, 0, 0, 0), 0.0);        // monotone rise
}

TEST(CastroHydro, UniformStateIsSteady) {
    auto net = makeIgnitionSimple();
    auto c = makePeriodic(net, 8, 1.4, [&](Real, Real, Real) {
        Castro::InitialZone z;
        z.rho = 1.0;
        z.T = 300.0;
        z.X = {1.0, 0.0};
        z.vel = {0.1, -0.2, 0.05};
        return z;
    });
    const Real m0 = c->totalMass();
    const Real e0 = c->totalEnergy();
    for (int s = 0; s < 5; ++s) c->step(c->estimateDt());
    // A uniform moving state must stay exactly uniform (to round-off).
    EXPECT_NEAR(c->totalMass(), m0, 1e-12 * m0);
    EXPECT_NEAR(c->totalEnergy(), e0, 1e-10 * std::abs(e0));
    EXPECT_NEAR(c->state().min(StateLayout::URHO), 1.0, 1e-10);
    EXPECT_NEAR(c->state().max(StateLayout::URHO), 1.0, 1e-10);
}

TEST(CastroHydro, ConservesOnPeriodicDomain) {
    // A smooth density/velocity perturbation: mass, momentum, and energy
    // are conserved to round-off on a periodic domain.
    auto net = makeIgnitionSimple();
    auto c = makePeriodic(net, 16, 1.4, [&](Real x, Real y, Real z) {
        Castro::InitialZone zn;
        zn.rho = 1.0 + 0.2 * std::sin(2 * constants::pi * x) *
                           std::cos(2 * constants::pi * y);
        zn.T = 300.0 * (1.0 + 0.1 * std::sin(2 * constants::pi * z));
        zn.vel = {0.3 * std::sin(2 * constants::pi * y), 0.0,
                  -0.2 * std::cos(2 * constants::pi * x)};
        zn.X = {0.7, 0.3};
        return zn;
    });
    const Real m0 = c->totalMass();
    const auto p0 = c->totalMomentum();
    const Real e0 = c->totalEnergy();
    for (int s = 0; s < 10; ++s) c->step(c->estimateDt());
    EXPECT_NEAR(c->totalMass() / m0, 1.0, 1e-12);
    const auto p1 = c->totalMomentum();
    const Real pscale = std::abs(p0[0]) + std::abs(p0[2]) + m0;
    EXPECT_NEAR((p1[0] - p0[0]) / pscale, 0.0, 1e-11);
    EXPECT_NEAR((p1[1] - p0[1]) / pscale, 0.0, 1e-11);
    EXPECT_NEAR((p1[2] - p0[2]) / pscale, 0.0, 1e-11);
    EXPECT_NEAR(c->totalEnergy() / e0, 1.0, 1e-11);
}

TEST(CastroHydro, SodShockTubeStructure) {
    // Classic Sod problem along x: after a short time the solution has a
    // rightward shock, contact, and leftward rarefaction. Check invariant
    // ordering and plateau values loosely (PLM + HLLC at modest N).
    auto net = makeIgnitionSimple();
    Box dom({0, 0, 0}, {63, 3, 3});
    Geometry geom(dom, {0, 0, 0}, {1.0, 0.0625, 0.0625});
    BoxArray ba(dom);
    ba.maxSize(32);
    DistributionMapping dm(ba, 2);
    CastroOptions opt;
    opt.bc = DomainBC::allOutflow();
    opt.cfl = 0.4;
    Eos eos{GammaLawEos{1.4}};
    Castro c(geom, ba, dm, net, eos, opt);
    c.initialize([&](Real x, Real, Real) {
        Castro::InitialZone z;
        z.rho = x < 0.5 ? 1.0 : 0.125;
        z.p = x < 0.5 ? 1.0 : 0.1;
        z.X = {1.0, 0.0};
        return z;
    });
    while (c.time() < 0.15) c.step(std::min(c.estimateDt(), 0.15 - c.time()));

    auto u = c.state().const_array(0);
    (void)u;
    // Sample the density along the centerline.
    std::vector<Real> rho_line(64);
    for (std::size_t b = 0; b < c.state().size(); ++b) {
        auto a = c.state().const_array(static_cast<int>(b));
        const Box& vb = c.state().box(static_cast<int>(b));
        if (vb.smallEnd(1) > 1 || vb.bigEnd(1) < 1) continue;
        if (vb.smallEnd(2) > 1 || vb.bigEnd(2) < 1) continue;
        for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
            rho_line[i] = a(i, 1, 1, StateLayout::URHO);
        }
    }
    // Left state undisturbed, right state undisturbed.
    EXPECT_NEAR(rho_line[2], 1.0, 1e-6);
    EXPECT_NEAR(rho_line[61], 0.125, 1e-6);
    // Post-shock plateau (exact: 0.2656) lies between the contact
    // (x ~ 0.64 at t = 0.15) and the shock (x ~ 0.76): sample x ~ 0.71.
    EXPECT_NEAR(rho_line[45], 0.2656, 0.05);
    // Contact plateau (exact: 0.4263).
    bool found_contact = false;
    for (int i = 32; i < 56; ++i) {
        if (std::abs(rho_line[i] - 0.4263) < 0.05) found_contact = true;
    }
    EXPECT_TRUE(found_contact);
}

TEST(CastroHydro, EstimateDtScalesWithResolution) {
    auto net = makeIgnitionSimple();
    auto mk = [&](int n) {
        return makePeriodic(net, n, 1.4, [&](Real, Real, Real) {
            Castro::InitialZone z;
            z.rho = 1.0;
            z.T = 300.0;
            z.X = {1.0, 0.0};
            return z;
        });
    };
    auto c8 = mk(8);
    auto c16 = mk(16);
    EXPECT_NEAR(c8->estimateDt() / c16->estimateDt(), 2.0, 1e-6);
}

TEST(CastroHydro, BackendsProduceIdenticalStates) {
    auto net = makeIgnitionSimple();
    auto run = [&](Backend be) {
        ScopedBackend sb(be);
        auto c = makePeriodic(net, 8, 1.4, [&](Real x, Real, Real) {
            Castro::InitialZone z;
            z.rho = 1.0 + 0.3 * std::sin(2 * constants::pi * x);
            z.T = 300.0;
            z.X = {1.0, 0.0};
            return z;
        });
        for (int s = 0; s < 3; ++s) c->step(c->estimateDt());
        return c->state().sum(StateLayout::UEDEN);
    };
    const Real serial = run(Backend::Serial);
    const Real gpu = run(Backend::SimGpu);
    EXPECT_EQ(serial, gpu); // bit identical
}

TEST(PpmEdges, ReproducesSmoothParabolaAndLimitsExtrema) {
    Box b({0, 0, 0}, {8, 0, 0});
    std::vector<Real> data(9);
    // Smooth quadratic: edges should be 4th-order accurate (near exact).
    for (int i = 0; i < 9; ++i) data[i] = 2.0 + 0.5 * i + 0.25 * i * i;
    Array4<const Real> q(data.data(), b, 1);
    Real qm, qp;
    ppmEdges(q, 4, 0, 0, 0, 0, qm, qp);
    // Analytic cell-average of the quadratic gives interface values
    // f(3.5) + O(h^4) correction; just require tight agreement.
    EXPECT_NEAR(qm, 2.0 + 0.5 * 3.5 + 0.25 * (3.5 * 3.5 + 1.0 / 12.0), 0.05);
    EXPECT_NEAR(qp, 2.0 + 0.5 * 4.5 + 0.25 * (4.5 * 4.5 + 1.0 / 12.0), 0.05);

    // A local extremum must flatten to first order (monotonization).
    std::vector<Real> peak = {0, 0, 0, 1, 5, 1, 0, 0, 0};
    Array4<const Real> qpk(peak.data(), b, 1);
    ppmEdges(qpk, 4, 0, 0, 0, 0, qm, qp);
    EXPECT_DOUBLE_EQ(qm, 5.0);
    EXPECT_DOUBLE_EQ(qp, 5.0);

    // Monotone data: edges bounded by the neighbors.
    std::vector<Real> mono = {0, 1, 2, 3, 4, 5, 6, 7, 8};
    Array4<const Real> qm2(mono.data(), b, 1);
    ppmEdges(qm2, 4, 0, 0, 0, 0, qm, qp);
    EXPECT_GE(qm, 3.0);
    EXPECT_LE(qp, 5.0);
    EXPECT_LT(qm, qp);
}

TEST(CastroHydro, PpmSharperThanPlmOnSod) {
    // Both schemes must conserve and converge; PPM should resolve the
    // contact at least as sharply (fewer zones across the jump).
    auto net = makeIgnitionSimple();
    auto run = [&](Reconstruction recon) {
        Box dom({0, 0, 0}, {63, 3, 3});
        Geometry geom(dom, {0, 0, 0}, {1.0, 0.0625, 0.0625});
        BoxArray ba(dom);
        ba.maxSize(32);
        DistributionMapping dm(ba, 2);
        CastroOptions opt;
        opt.bc = DomainBC::allOutflow();
        opt.cfl = 0.4;
        opt.reconstruction = recon;
        Eos eos{GammaLawEos{1.4}};
        Castro c(geom, ba, dm, net, eos, opt);
        c.initialize([&](Real x, Real, Real) {
            Castro::InitialZone z;
            z.rho = x < 0.5 ? 1.0 : 0.125;
            z.p = x < 0.5 ? 1.0 : 0.1;
            z.X = {1.0, 0.0};
            return z;
        });
        while (c.time() < 0.15) c.step(std::min(c.estimateDt(), 0.15 - c.time()));
        std::vector<Real> line(64);
        for (std::size_t b = 0; b < c.state().size(); ++b) {
            auto a = c.state().const_array(static_cast<int>(b));
            const Box& vb = c.state().box(static_cast<int>(b));
            if (vb.smallEnd(1) > 1 || vb.bigEnd(1) < 1) continue;
            if (vb.smallEnd(2) > 1 || vb.bigEnd(2) < 1) continue;
            for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                line[i] = a(i, 1, 1, StateLayout::URHO);
            }
        }
        return line;
    };
    auto plm = run(Reconstruction::PLM);
    auto ppm = run(Reconstruction::PPM);
    // Same plateaus.
    EXPECT_NEAR(plm[45], ppm[45], 0.03);
    // Contact width: zones with 0.30 < rho < 0.40 (between the plateaus).
    auto width = [](const std::vector<Real>& l) {
        int w = 0;
        for (Real v : l) w += (v > 0.30 && v < 0.40) ? 1 : 0;
        return w;
    };
    EXPECT_LE(width(ppm), width(plm));
}

namespace {

// The flux helpers and the generic per-face flux loop as they stood
// before the sweep was specialized: out-of-line helpers, a zero-filled
// HLLC scratch, physical fluxes in one loop, and direction and
// reconstruction chosen at run time per face. They are copied here, not
// called from castro/hydro.hpp, so the test also checks the edits to the
// helpers themselves.
Real refMcSlope(Array4<const Real> q, int i, int j, int k, int n, int dim) {
    const IntVect e = IntVect::basis(dim);
    const Real qm = q(i - e.x, j - e.y, k - e.z, n);
    const Real q0 = q(i, j, k, n);
    const Real qp = q(i + e.x, j + e.y, k + e.z, n);
    const Real dl = q0 - qm;
    const Real dr = qp - q0;
    if (dl * dr <= 0.0) return 0.0;
    const Real dc = 0.5 * (dl + dr);
    const Real lim = 2.0 * std::min(std::abs(dl), std::abs(dr));
    return std::copysign(std::min(std::abs(dc), lim), dc);
}

void refPpmEdges(Array4<const Real> q, int i, int j, int k, int n, int dim, Real& qm,
                 Real& qp) {
    const IntVect e = IntVect::basis(dim);
    auto at = [&](int s) { return q(i + s * e.x, j + s * e.y, k + s * e.z, n); };
    const Real q0 = at(0);
    qm = (7.0 / 12.0) * (at(-1) + q0) - (1.0 / 12.0) * (at(-2) + at(1));
    qp = (7.0 / 12.0) * (q0 + at(1)) - (1.0 / 12.0) * (at(-1) + at(2));
    if ((qp - q0) * (q0 - qm) <= 0.0) {
        qm = q0;
        qp = q0;
        return;
    }
    const Real d = qp - qm;
    const Real t = 6.0 * (q0 - 0.5 * (qp + qm));
    if (d * t > d * d) qm = 3.0 * q0 - 2.0 * qp;
    if (-(d * d) > d * t) qp = 3.0 * q0 - 2.0 * qm;
}

void refHllcFlux(const Real* ql, const Real* qr, int nspec, int dim, Real* flux) {
    const StateLayout S(nspec);
    const int nstate = S.ncomp();
    const int iu = PrimLayout::QU + dim;

    auto buildU = [&](const Real* q, Real* U, Real& un, Real& p, Real& c) {
        const Real rho = q[PrimLayout::QRHO];
        const Real vx = q[PrimLayout::QU];
        const Real vy = q[PrimLayout::QV];
        const Real vz = q[PrimLayout::QW];
        p = q[PrimLayout::QP];
        c = q[PrimLayout::QC];
        un = q[iu];
        U[StateLayout::URHO] = rho;
        U[StateLayout::UMX] = rho * vx;
        U[StateLayout::UMX + 1] = rho * vy;
        U[StateLayout::UMX + 2] = rho * vz;
        U[StateLayout::UEDEN] =
            q[PrimLayout::QREINT] + 0.5 * rho * (vx * vx + vy * vy + vz * vz);
        U[StateLayout::UTEMP] = 0.0;
        for (int n = 0; n < nspec; ++n) {
            U[StateLayout::UFS + n] = rho * q[PrimLayout::QFS + n];
        }
    };
    auto physFlux = [&](const Real* U, const Real* q, Real un, Real p, Real* F) {
        for (int n = 0; n < nstate; ++n) F[n] = un * U[n];
        F[StateLayout::UMX + dim] += p;
        F[StateLayout::UEDEN] += p * un;
        F[StateLayout::UTEMP] = 0.0;
        (void)q;
    };

    Real UL[40] = {}, UR[40] = {}, FL[40] = {}, FR[40] = {};
    Real unl, pl, cl, unr, pr, cr;
    buildU(ql, UL, unl, pl, cl);
    buildU(qr, UR, unr, pr, cr);
    physFlux(UL, ql, unl, pl, FL);
    physFlux(UR, qr, unr, pr, FR);

    const Real rl = ql[PrimLayout::QRHO];
    const Real rr = qr[PrimLayout::QRHO];
    const Real sl = std::min(unl - cl, unr - cr);
    const Real sr = std::max(unl + cl, unr + cr);
    const Real denom = rl * (sl - unl) - rr * (sr - unr);
    const Real sstar =
        std::abs(denom) > 1.0e-30
            ? (pr - pl + rl * unl * (sl - unl) - rr * unr * (sr - unr)) / denom
            : 0.5 * (unl + unr);

    if (sl >= 0.0) {
        for (int n = 0; n < nstate; ++n) flux[n] = FL[n];
        return;
    }
    if (sr <= 0.0) {
        for (int n = 0; n < nstate; ++n) flux[n] = FR[n];
        return;
    }

    auto starFlux = [&](const Real* U, const Real* F, const Real* q, Real un, Real p,
                        Real s) {
        const Real rho = q[PrimLayout::QRHO];
        const Real fac = rho * (s - un) / (s - sstar);
        Real Ustar[40];
        Ustar[StateLayout::URHO] = fac;
        Ustar[StateLayout::UMX] = fac * q[PrimLayout::QU];
        Ustar[StateLayout::UMX + 1] = fac * q[PrimLayout::QV];
        Ustar[StateLayout::UMX + 2] = fac * q[PrimLayout::QW];
        Ustar[StateLayout::UMX + dim] = fac * sstar;
        Ustar[StateLayout::UEDEN] =
            fac * (U[StateLayout::UEDEN] / rho +
                   (sstar - un) * (sstar + p / (rho * (s - un))));
        Ustar[StateLayout::UTEMP] = 0.0;
        for (int n = 0; n < nspec; ++n) {
            Ustar[StateLayout::UFS + n] = fac * q[PrimLayout::QFS + n];
        }
        for (int n = 0; n < nstate; ++n) flux[n] = F[n] + s * (Ustar[n] - U[n]);
        flux[StateLayout::UTEMP] = 0.0;
    };

    if (sstar >= 0.0) {
        starFlux(UL, FL, ql, unl, pl, sl);
    } else {
        starFlux(UR, FR, qr, unr, pr, sr);
    }
}

void referenceFluxSweep(Array4<const Real> q, const Box& fb, int d, bool ppm, int nsp,
                        Array4<Real> fx) {
    for (int k = fb.smallEnd(2); k <= fb.bigEnd(2); ++k)
        for (int j = fb.smallEnd(1); j <= fb.bigEnd(1); ++j)
            for (int i = fb.smallEnd(0); i <= fb.bigEnd(0); ++i) {
                const IntVect e = IntVect::basis(d);
                Real ql[40], qr[40];
                for (int n = 0; n < PrimLayout::QFS + nsp; ++n) {
                    if (ppm) {
                        Real lm, lp, rm, rp;
                        refPpmEdges(q, i - e.x, j - e.y, k - e.z, n, d, lm, lp);
                        refPpmEdges(q, i, j, k, n, d, rm, rp);
                        ql[n] = lp;
                        qr[n] = rm;
                    } else {
                        const Real sll = refMcSlope(q, i - e.x, j - e.y, k - e.z, n, d);
                        const Real slr = refMcSlope(q, i, j, k, n, d);
                        ql[n] = q(i - e.x, j - e.y, k - e.z, n) + 0.5 * sll;
                        qr[n] = q(i, j, k, n) - 0.5 * slr;
                    }
                }
                ql[PrimLayout::QRHO] = std::max(ql[PrimLayout::QRHO], Real(1.0e-30));
                qr[PrimLayout::QRHO] = std::max(qr[PrimLayout::QRHO], Real(1.0e-30));
                ql[PrimLayout::QP] = std::max(ql[PrimLayout::QP], Real(1.0e-30));
                qr[PrimLayout::QP] = std::max(qr[PrimLayout::QP], Real(1.0e-30));
                ql[PrimLayout::QREINT] = std::max(ql[PrimLayout::QREINT], Real(1.0e-30));
                qr[PrimLayout::QREINT] = std::max(qr[PrimLayout::QREINT], Real(1.0e-30));
                Real fl[40];
                refHllcFlux(ql, qr, nsp, d, fl);
                for (int n = 0; n < StateLayout::UFS + nsp; ++n) fx(i, j, k, n) = fl[n];
            }
}

} // namespace

TEST(CastroHydro, SpecializedFluxSweepMatchesGenericLoopBitwise) {
    // Random gamma-law states (every zone independent, so the limiters
    // and both HLLC star branches all fire) on a non-cubic box, so each
    // direction has its own face count.
    auto net = makeIgnitionSimple();
    const Eos eos{GammaLawEos{1.4}};
    const int nspec = net.nspec();
    ASSERT_EQ(nspec, 2);
    const StateLayout S(nspec);
    const Box vb({0, 0, 0}, {9, 7, 6});
    const Geometry geom(vb, {0, 0, 0}, {1, 1, 1});
    const BoxArray ba(vb);
    const DistributionMapping dm(ba, 1);
    MultiFab state(ba, dm, S.ncomp(), 3);
    MultiFab dudt(ba, dm, S.ncomp(), 0);
    std::mt19937_64 rng(20201117);
    std::uniform_real_distribution<Real> uni(0.0, 1.0);
    auto u = state.array(0);
    const Box gb = state.fabbox(0);
    for (int k = gb.smallEnd(2); k <= gb.bigEnd(2); ++k)
        for (int j = gb.smallEnd(1); j <= gb.bigEnd(1); ++j)
            for (int i = gb.smallEnd(0); i <= gb.bigEnd(0); ++i) {
                const Real rho = 0.1 + 3.0 * uni(rng);
                const Real v[3] = {4.0 * uni(rng) - 2.0, 4.0 * uni(rng) - 2.0,
                                   4.0 * uni(rng) - 2.0};
                const Real p = 0.05 + 5.0 * uni(rng);
                const Real x0 = uni(rng);
                u(i, j, k, StateLayout::URHO) = rho;
                for (int d = 0; d < 3; ++d) u(i, j, k, StateLayout::UMX + d) = rho * v[d];
                u(i, j, k, StateLayout::UEDEN) =
                    p / 0.4 + 0.5 * rho * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
                u(i, j, k, StateLayout::UTEMP) = 1.0;
                u(i, j, k, StateLayout::UFS) = rho * x0;
                u(i, j, k, StateLayout::UFS + 1) = rho * (1.0 - x0);
            }
    for (const Reconstruction recon : {Reconstruction::PLM, Reconstruction::PPM}) {
        SCOPED_TRACE(recon == Reconstruction::PPM ? "PPM" : "PLM");
        auto fluxes = makeFluxFabs(ba, dm, S.ncomp());
        molRhsRegion(state, dudt, 0, vb, geom, net, eos, &fluxes, recon);

        const Box primbox = grow(vb, stencilWidth(recon));
        FArrayBox qfab(primbox, PrimLayout(nspec).ncomp());
        conservedToPrimitive(state.const_array(0), qfab.array(), primbox, net, eos);
        for (int d = 0; d < 3; ++d) {
            SCOPED_TRACE(d);
            const Box fb = surroundingFaces(vb, d);
            FArrayBox ref(fb, S.ncomp());
            referenceFluxSweep(qfab.const_array(), fb, d, recon == Reconstruction::PPM,
                               nspec, ref.array());
            auto got = fluxes[d].const_array(0);
            auto want = ref.const_array();
            for (int n = 0; n < S.ncomp(); ++n)
                for (int k = fb.smallEnd(2); k <= fb.bigEnd(2); ++k)
                    for (int j = fb.smallEnd(1); j <= fb.bigEnd(1); ++j)
                        for (int i = fb.smallEnd(0); i <= fb.bigEnd(0); ++i)
                            ASSERT_EQ(got(i, j, k, n), want(i, j, k, n))
                                << "face " << i << ' ' << j << ' ' << k << " comp " << n;
        }
    }
}
