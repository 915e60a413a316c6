// Maestro's burn runs through the zone-parallel host burn loop. A burning
// bubble must step bit-identically on Serial, OpenMP and SimGpu, with the
// projection off and on (its multigrid reductions sum in the same fixed
// pencil order on every backend and thread count), with equal burn
// statistics, one `nuclear_burn` launch per fab on SimGpu, and armed
// fault sites failing the same zones everywhere.
#include "maestro/maestro.hpp"

#include "core/executor.hpp"
#include "core/fault.hpp"

#include "../support/burn_checks.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

using namespace exa;
using namespace exa::maestro;
using exa::test::AtLeastTwoThreads;
using exa::test::expectBitIdentical;
using exa::test::expectStatsEqual;

namespace {

const ReactionNetwork& testNet() {
    static auto net = makeIgnitionSimple();
    return net;
}

// BubbleParams::build's hot bubble (16^3 in eight 8^3 fabs, hot enough to
// burn hard in the first steps). By default proj_interval = 0, so each
// step is advection, buoyancy and the burn only.
std::unique_ptr<Maestro> buildBubble(int proj_interval = 0) {
    BubbleParams p;
    p.ncell = 16;
    p.max_grid_size = 8;
    p.T_bubble = 1.0e9;
    const auto& net = testNet();
    Box dom({0, 0, 0}, {p.ncell - 1, p.ncell - 1, p.ncell - 1});
    Geometry geom(dom, {0, 0, 0}, {p.domain_width, p.domain_width, p.domain_width},
                  IntVect{1, 1, 0});
    BoxArray ba(dom);
    ba.maxSize(p.max_grid_size);
    DistributionMapping dm(ba, p.nranks);
    Eos eos{HelmLiteEos{}};
    std::vector<Real> X(net.nspec(), 0.0);
    X[0] = 1.0;
    BaseState base(eos, net, p.rho_base, p.T_base, X, p.ncell, 0.0,
                   p.domain_width / p.ncell, p.gravity);
    MaestroOptions opt;
    opt.react.T_min = 1.0e8;
    opt.proj_interval = proj_interval;
    auto m = std::make_unique<Maestro>(geom, ba, dm, net, eos, base, opt);
    const Real r_bub = p.bubble_radius_frac * p.domain_width;
    const Real z_bub = p.bubble_height_frac * p.domain_width;
    const Real xc = 0.5 * p.domain_width;
    m->initialize([=](Real x, Real y, Real z, Real& T, std::vector<Real>&) {
        const Real r = std::sqrt((x - xc) * (x - xc) + (y - xc) * (y - xc) +
                                 (z - z_bub) * (z - z_bub));
        if (r < 2.0 * r_bub) {
            T += (p.T_bubble - p.T_base) * std::exp(-(r * r) / (r_bub * r_bub));
        }
    });
    return m;
}

const Real kDt = 1.0e-3;
const int kSteps = 2;

struct BubbleRun {
    std::unique_ptr<Maestro> m;
    std::vector<BurnGridStats> burns;
};

BubbleRun stepBubble(Backend b, int proj_interval = 0) {
    ScopedBackend sb(b);
    BubbleRun r{buildBubble(proj_interval), {}};
    for (int s = 0; s < kSteps; ++s) r.burns.push_back(r.m->step(kDt));
    return r;
}

// Steps the bubble on Serial, OpenMP (at least two threads) and SimGpu and
// expects Serial's bits and burn statistics everywhere; returns the Serial run.
BubbleRun expectBackendsMatchSerial(int proj_interval) {
    AtLeastTwoThreads threads;
    BubbleRun ser = stepBubble(Backend::Serial, proj_interval);
    for (const Backend b : {Backend::OpenMP, Backend::SimGpu}) {
        SCOPED_TRACE(backendName(b));
        const BubbleRun got = stepBubble(b, proj_interval);
        expectBitIdentical(ser.m->state(), got.m->state());
        EXPECT_EQ(got.burns.size(), ser.burns.size());
        for (std::size_t s = 0; s < std::min(ser.burns.size(), got.burns.size()); ++s) {
            expectStatsEqual(ser.burns[s], got.burns[s]);
        }
    }
    return ser;
}

} // namespace

TEST(MaestroReact, BackendsStepBitIdenticallyWithProjectionOff) {
    const BubbleRun ser = expectBackendsMatchSerial(0);
    // The bubble really burned: hot zones took many integrator steps.
    EXPECT_EQ(ser.burns[0].failures, 0);
    EXPECT_GT(ser.burns[0].max_steps, 10);
    EXPECT_GT(ser.burns[0].total_steps, ser.burns[0].zones);
}

TEST(MaestroReact, BackendsStepBitIdenticallyWithProjectionOn) {
    const BubbleRun ser = expectBackendsMatchSerial(1);
    // The projection really ran: it changed the velocity field.
    const BubbleRun noproj = stepBubble(Backend::Serial, 0);
    EXPECT_NE(ser.m->state().norm2(MaestroLayout::QW), noproj.m->state().norm2(MaestroLayout::QW));
}

TEST(MaestroReact, SimGpuEmitsOneBurnLaunchPerFab) {
    auto m = buildBubble();
    std::vector<LaunchRecord> burns;
    ExecConfig::setLaunchHook([&](const LaunchRecord& r) {
        if (std::string(r.info.name) == "nuclear_burn") burns.push_back(r);
    });
    BurnGridStats stats;
    {
        ScopedBackend sb(Backend::SimGpu);
        stats = m->step(kDt);
    }
    ExecConfig::clearLaunchHook();

    const MultiFab& s = m->state();
    ASSERT_EQ(burns.size(), s.size());
    std::int64_t zones = 0;
    for (std::size_t f = 0; f < s.size(); ++f) {
        EXPECT_EQ(burns[f].zones, s.box(static_cast<int>(f)).numPts()) << "fab " << f;
        EXPECT_GE(burns[f].info.work_imbalance, 1.0);
        zones += burns[f].zones;
    }
    EXPECT_EQ(zones, stats.zones);
}

TEST(MaestroReact, ArmedFaultFailsTheSameZonesOnOpenMPAsSerial) {
    AtLeastTwoThreads threads;
    fault::Spec window; // hits 3, 8, 13, 18 fire
    window.start = 3;
    window.count = 20;
    window.stride = 5;
    fault::Spec forever;
    forever.count = 0; // unbounded
    for (const auto& spec : {window, forever}) {
        SCOPED_TRACE(spec.count == 0 ? "forever" : "window");
        BurnGridStats ss, os;
        std::unique_ptr<Maestro> ser, omp;
        {
            ScopedBackend sb(Backend::Serial);
            ser = buildBubble();
            fault::ScopedFault arm(fault::Site::BurnZoneFailure, spec);
            ss = ser->step(kDt);
        }
        {
            ScopedBackend sb(Backend::OpenMP);
            omp = buildBubble();
            fault::ScopedFault arm(fault::Site::BurnZoneFailure, spec);
            os = omp->step(kDt);
        }
        if (spec.count == 0) {
            EXPECT_GT(ss.failures, 4);
        } else {
            EXPECT_EQ(ss.failures, 4);
        }
        ASSERT_TRUE(ss.first_failure.valid);
        expectStatsEqual(ss, os);
        expectBitIdentical(ser->state(), omp->state());
    }
}

TEST(MaestroReact, FailedZonesFollowTheSharedBookkeeping) {
    // Every burn fails: each failed zone is charged steps+1 and none may
    // raise max_steps, so only skipped zones (1 step each) set it.
    fault::Spec forever;
    forever.count = 0;
    auto m = buildBubble();
    BurnGridStats st;
    {
        ScopedBackend sb(Backend::Serial);
        fault::ScopedFault arm(fault::Site::BurnZoneFailure, forever);
        st = m->step(kDt);
    }
    ASSERT_GT(st.failures, 0);
    const std::int64_t skipped = st.zones - st.failures;
    EXPECT_EQ(st.max_steps, skipped > 0 ? 1 : 0);
    // An injected failure reports 1 step, charged 2; a skipped zone 1.
    EXPECT_EQ(st.total_steps, 2 * st.failures + skipped);
}
