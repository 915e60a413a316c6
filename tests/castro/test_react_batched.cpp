// The grid burn drivers. reactState(batched=true) must be bit-identical to
// the per-zone path on every backend — state, stats, skipped zones,
// failure attribution, and the CostMonitor work channel — while routing
// the stiff tail and surviving fault injection with the same
// first-failure semantics. The per-zone path itself, which burns zones in
// parallel on OpenMP, must match the Serial backend bit for bit, armed
// fault sites included. Plus the WD-collision driver defaults that turn
// the batched engine on.
#include "castro/react.hpp"

#include "castro/state.hpp"
#include "castro/wd_collision.hpp"
#include "core/executor.hpp"
#include "core/fault.hpp"
#include "mesh/multifab.hpp"

#include "../support/burn_checks.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

using namespace exa;
using namespace exa::castro;
using exa::test::AtLeastTwoThreads;
using exa::test::expectBitIdentical;
using exa::test::expectStatsEqual;

namespace {

// A small WD-collision-like stiffness distribution: a cold (skipped)
// slab, a warm quiescent bulk, a hot interface plane, and two igniting
// zones in different fabs.
struct Workload {
    BoxArray ba;
    DistributionMapping dm;
    MultiFab state;
    int nspec;

    explicit Workload(const ReactionNetwork& net, int ncell = 16, int max_grid = 8)
        : ba(makeBa(ncell, max_grid)), dm(ba, 1),
          state(ba, dm, StateLayout(net.nspec()).ncomp(), 0), nspec(net.nspec()) {
        std::vector<Real> X(nspec, 0.0);
        X[net.speciesIndex("c12")] = 0.5;
        X[net.speciesIndex("o16")] = 0.5;
        const int mid = ncell / 2;
        for (std::size_t f = 0; f < state.size(); ++f) {
            auto u = state.array(static_cast<int>(f));
            const Box& vb = state.box(static_cast<int>(f));
            for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
                for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                    for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                        const Real rho = 1.0e7;
                        Real T;
                        if (i < ncell / 4) {
                            T = 3.0e7; // below T_min: skipped
                        } else if (i == mid) {
                            const bool hot = (j == 4 && k == 4) ||
                                             (j == ncell - 4 && k == ncell - 4);
                            T = hot ? 2.5e9 : 6.0e8;
                        } else {
                            T = 1.5e8;
                        }
                        u(i, j, k, StateLayout::URHO) = rho;
                        u(i, j, k, StateLayout::UTEMP) = T;
                        for (int n = 0; n < nspec; ++n)
                            u(i, j, k, StateLayout::UFS + n) = rho * X[n];
                        u(i, j, k, StateLayout::UEDEN) = rho * 1.0e17;
                    }
        }
    }

    static BoxArray makeBa(int ncell, int max_grid) {
        BoxArray ba(Box({0, 0, 0}, {ncell - 1, ncell - 1, ncell - 1}));
        ba.maxSize(max_grid);
        return ba;
    }

    MultiFab copy() const {
        MultiFab out(ba, dm, state.nComp(), state.nGrow());
        MultiFab::Copy(out, state, 0, 0, state.nComp(), 0);
        return out;
    }
};

// The traversal-order-first reacting zone (fab, then k/j/i) — what the
// serial path hits first and what both paths must report as the first
// failure when every burn fails.
BurnFailureSite firstReactingZone(const MultiFab& state, const ReactOptions& opt) {
    for (std::size_t f = 0; f < state.size(); ++f) {
        auto u = state.const_array(static_cast<int>(f));
        const Box& vb = state.box(static_cast<int>(f));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    const Real rho = u(i, j, k, StateLayout::URHO);
                    const Real T = u(i, j, k, StateLayout::UTEMP);
                    if (T < opt.T_min || rho < opt.rho_min) continue;
                    return {true, i, j, k, static_cast<int>(f), -1, rho, T};
                }
    }
    return {};
}

const ReactionNetwork& testNet() {
    static auto net = makeNetworkByName("iso7");
    return net;
}

const Real kDt = 1.0e-7;

} // namespace

// --- Bit-identity across backends ---------------------------------------

class ReactBatchedBackends : public ::testing::TestWithParam<Backend> {};

TEST_P(ReactBatchedBackends, BatchedMatchesSerialBitwise) {
    ScopedBackend sb(GetParam());
    const auto& net = testNet();
    Eos eos{HelmLiteEos{}};
    Workload w(net);
    auto serial = w.copy();
    auto batched = w.copy();

    ReactOptions so;
    ReactOptions bo;
    bo.batched = true;
    auto ss = reactState(serial, net, eos, kDt, so);
    auto bs = reactState(batched, net, eos, kDt, bo);

    expectStatsEqual(ss, bs);
    expectBitIdentical(serial, batched);
    EXPECT_EQ(ss.failures, 0);
    EXPECT_GT(ss.total_steps, ss.zones); // something actually burned
}

TEST_P(ReactBatchedBackends, HybridTailMatchesSerialBitwise) {
    ScopedBackend sb(GetParam());
    const auto& net = testNet();
    Eos eos{HelmLiteEos{}};
    Workload w(net);
    auto serial = w.copy();
    auto hybrid = w.copy();

    ReactOptions ho;
    ho.batched = true;
    ho.batch.hybrid_cpu_tail = true;
    ho.batch.tail_factor = 4.0;
    ho.batch.tail_min_stiffness = 0.0;
    auto ss = reactState(serial, net, eos, kDt, ReactOptions{});
    auto hs = reactState(hybrid, net, eos, kDt, ho);

    expectStatsEqual(ss, hs);
    expectBitIdentical(serial, hybrid);

    const auto& rep = lastBatchBurnReport();
    EXPECT_EQ(rep.device_zones + rep.tail_zones, rep.gathered);
    EXPECT_GT(rep.tail_zones, 0) << "tail cut " << rep.stiffness_tail_cut
                                 << " median " << rep.stiffness_median;
    EXPECT_GT(rep.batches, 0);
}

TEST_P(ReactBatchedBackends, PerZonePathMatchesSerialBackendBitwise) {
    // The per-zone path burns zone-parallel on OpenMP; the launch shaping
    // of hybrid_cpu_outliers reads the per-zone steps afterwards. Neither
    // may move a bit of state or a count away from the Serial backend.
    AtLeastTwoThreads threads;
    const auto& net = testNet();
    Eos eos{HelmLiteEos{}};
    Workload w(net);
    for (const bool hybrid : {false, true}) {
        ReactOptions o;
        o.hybrid_cpu_outliers = hybrid;
        auto ref = w.copy();
        auto got = w.copy();
        BurnGridStats rs, gs;
        {
            ScopedBackend sb(Backend::Serial);
            rs = reactState(ref, net, eos, kDt, o);
        }
        {
            ScopedBackend sb(GetParam());
            gs = reactState(got, net, eos, kDt, o);
        }
        SCOPED_TRACE(hybrid ? "hybrid" : "plain");
        expectStatsEqual(rs, gs);
        expectBitIdentical(ref, got);
        EXPECT_GT(gs.total_steps, gs.zones);
    }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ReactBatchedBackends,
                         ::testing::Values(Backend::Serial, Backend::OpenMP,
                                           Backend::SimGpu, Backend::Debug),
                         [](const auto& info) {
                             switch (info.param) {
                                 case Backend::Serial: return "Serial";
                                 case Backend::OpenMP: return "OpenMP";
                                 case Backend::SimGpu: return "SimGpu";
                                 default: return "Debug";
                             }
                         });

// --- Gather/scatter round trip ------------------------------------------

TEST(ReactBatched, ColdZonesAreUntouchedBitwise) {
    const auto& net = testNet();
    Eos eos{HelmLiteEos{}};
    Workload w(net);
    auto burned = w.copy();
    ReactOptions bo;
    bo.batched = true;
    auto bs = reactState(burned, net, eos, kDt, bo);

    // The gather covers exactly the reacting zones...
    const std::int64_t ncold = static_cast<std::int64_t>(16 / 4) * 16 * 16;
    EXPECT_EQ(lastBatchBurnReport().gathered, bs.zones - ncold);

    // ...and every skipped zone round-trips bitwise untouched.
    std::int64_t cold_seen = 0;
    for (std::size_t f = 0; f < burned.size(); ++f) {
        auto ub = burned.const_array(static_cast<int>(f));
        auto u0 = w.state.const_array(static_cast<int>(f));
        const Box& vb = burned.box(static_cast<int>(f));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    if (u0(i, j, k, StateLayout::UTEMP) >= 5.0e7) continue;
                    ++cold_seen;
                    for (int n = 0; n < burned.nComp(); ++n) {
                        ASSERT_EQ(ub(i, j, k, n), u0(i, j, k, n))
                            << "cold zone (" << i << "," << j << "," << k << ")";
                    }
                }
    }
    EXPECT_EQ(cold_seen, ncold);
}

// --- Fault injection through the batched path ---------------------------

TEST(ReactBatched, EveryZoneFailingNamesTraversalFirstZone) {
    // An unbounded fault window fails every burn in both paths. The
    // batched engine integrates in stiffness order, but first-failure
    // attribution is defined in traversal order — both paths must name
    // the same zone, and neither may write anything back.
    const auto& net = testNet();
    Eos eos{HelmLiteEos{}};
    Workload w(net);
    ReactOptions so;
    ReactOptions bo;
    bo.batched = true;

    fault::Spec forever;
    forever.start = 0;
    forever.count = 0; // unbounded
    const auto expected = firstReactingZone(w.state, so);
    ASSERT_TRUE(expected.valid);

    auto serial = w.copy();
    BurnGridStats ss;
    {
        fault::ScopedFault arm(fault::Site::BurnZoneFailure, forever);
        ss = reactState(serial, net, eos, kDt, so);
    }
    auto batched = w.copy();
    BurnGridStats bs;
    {
        fault::ScopedFault arm(fault::Site::BurnZoneFailure, forever);
        bs = reactState(batched, net, eos, kDt, bo);
    }

    for (const auto* st : {&ss, &bs}) {
        EXPECT_GT(st->failures, 0);
        ASSERT_TRUE(st->first_failure.valid);
        EXPECT_EQ(st->first_failure.i, expected.i);
        EXPECT_EQ(st->first_failure.j, expected.j);
        EXPECT_EQ(st->first_failure.k, expected.k);
        EXPECT_EQ(st->first_failure.fab, expected.fab);
        EXPECT_EQ(st->first_failure.level, -1);
        EXPECT_EQ(st->first_failure.rho, expected.rho);
        EXPECT_EQ(st->first_failure.T, expected.T);
    }
    expectStatsEqual(ss, bs);
    // Failed zones are not scattered: the whole state is untouched.
    expectBitIdentical(serial, w.state);
    expectBitIdentical(batched, w.state);
}

TEST(ReactBatched, SingleFaultFailsExactlyOneZoneAndLeavesItUntouched) {
    const auto& net = testNet();
    Eos eos{HelmLiteEos{}};
    Workload w(net);
    ReactOptions bo;
    bo.batched = true;

    auto burned = w.copy();
    BurnGridStats bs;
    {
        fault::ScopedFault arm(fault::Site::BurnZoneFailure, fault::Spec{});
        bs = reactState(burned, net, eos, kDt, bo);
    }
    EXPECT_EQ(bs.failures, 1);
    ASSERT_TRUE(bs.first_failure.valid);
    EXPECT_EQ(bs.first_failure.level, -1);
    ASSERT_GE(bs.first_failure.fab, 0);
    ASSERT_LT(bs.first_failure.fab, static_cast<int>(burned.size()));
    const auto& site = bs.first_failure;
    // The named zone is inside its fab's box, was eligible, and was left
    // exactly as gathered.
    const Box& vb = burned.box(site.fab);
    EXPECT_TRUE(vb.contains(site.i, site.j, site.k));
    auto ub = burned.const_array(site.fab);
    auto u0 = w.state.const_array(site.fab);
    EXPECT_GE(site.T, 5.0e7);
    for (int n = 0; n < burned.nComp(); ++n) {
        EXPECT_EQ(ub(site.i, site.j, site.k, n), u0(site.i, site.j, site.k, n));
    }
}

TEST(ReactPerZone, ArmedFaultFailsTheSameZonesOnOpenMPAsSerial) {
    // An armed site forces the zone-parallel loop into serial order, so
    // a window and an unbounded spec fail the same zones on both
    // backends: same count, same first failure, same state.
    AtLeastTwoThreads threads;
    const auto& net = testNet();
    Eos eos{HelmLiteEos{}};
    Workload w(net);
    fault::Spec window; // hits 40, 45, ..., 60 fire
    window.start = 40;
    window.count = 25;
    window.stride = 5;
    fault::Spec forever;
    forever.count = 0; // unbounded
    for (const auto& spec : {window, forever}) {
        auto ser = w.copy();
        auto omp = w.copy();
        BurnGridStats ss, os;
        {
            ScopedBackend sb(Backend::Serial);
            fault::ScopedFault arm(fault::Site::BurnZoneFailure, spec);
            ss = reactState(ser, net, eos, kDt, ReactOptions{});
        }
        {
            ScopedBackend sb(Backend::OpenMP);
            fault::ScopedFault arm(fault::Site::BurnZoneFailure, spec);
            os = reactState(omp, net, eos, kDt, ReactOptions{});
        }
        SCOPED_TRACE(spec.count == 0 ? "forever" : "window");
        const std::int64_t ncold = 16 / 4 * 16 * 16;
        EXPECT_EQ(ss.failures, spec.count == 0 ? ss.zones - ncold : 5);
        ASSERT_TRUE(os.first_failure.valid);
        expectStatsEqual(ss, os);
        expectBitIdentical(ser, omp);
    }
}

// --- Cost accounting -----------------------------------------------------

TEST(ReactBatched, WorkChannelMatchesSerialPerFab) {
    // The load balancer's work channel (integrator steps per fab) must be
    // the same whichever burn driver ran.
    const auto& net = testNet();
    Eos eos{HelmLiteEos{}};
    Workload w(net);

    CostMonitorOptions co;
    co.metric = CostMetric::Work;
    CostMonitor mon_s(co), mon_b(co);

    auto serial = w.copy();
    auto batched = w.copy();
    ReactOptions bo;
    bo.batched = true;
    reactState(serial, net, eos, kDt, ReactOptions{}, &mon_s, 0);
    reactState(batched, net, eos, kDt, bo, &mon_b, 0);
    mon_s.commitStep(0);
    mon_b.commitStep(0);

    const auto cs = mon_s.costs(0);
    const auto cb = mon_b.costs(0);
    ASSERT_EQ(cs.size(), w.state.size());
    ASSERT_EQ(cb.size(), cs.size());
    for (std::size_t f = 0; f < cs.size(); ++f) {
        EXPECT_DOUBLE_EQ(cs[f], cb[f]) << "fab " << f;
    }
}

// --- WD-collision driver defaults ---------------------------------------

TEST(ReactBatched, WdCollisionDriverEnablesBatchedHybridBurn) {
    WdCollisionParams p;
    p.ncell = 8;
    p.max_grid_size = 8;
    auto wd = p.build();
    ASSERT_TRUE(wd.castro != nullptr);
    ASSERT_TRUE(wd.network != nullptr);
    EXPECT_EQ(wd.network->name(), "aprox13");
    const auto& opt = wd.castro->options();
    EXPECT_TRUE(opt.react.batched);
    EXPECT_TRUE(opt.react.batch.hybrid_cpu_tail);
    EXPECT_EQ(opt.rebalance.cost.metric, CostMetric::Hybrid);
}

TEST(ReactBatched, WdCollisionNetworkSelectableByName) {
    WdCollisionParams p;
    p.ncell = 8;
    p.max_grid_size = 8;
    p.network = "iso7";
    auto wd = p.build();
    ASSERT_TRUE(wd.network != nullptr);
    EXPECT_EQ(wd.network->name(), "iso7");
    EXPECT_EQ(wd.castro->network().nspec(), 7);

    p.network = "no_such_net";
    EXPECT_THROW(p.build(), std::invalid_argument);
}
