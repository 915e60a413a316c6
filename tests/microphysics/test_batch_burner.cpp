// The batched burn engine's core guarantees: BatchedDenseLU slots are
// bit-identical to DenseLU, workspace-reusing burns are bit-identical to
// the allocating path, BatchBurner output matches per-zone burnZone
// exactly (sorted or not, hybrid tail or not), the stiffness sort routes
// the tail as reported, and the network registry resolves every built-in
// by name (with a helpful error for unknown names). Plus the contract of
// the zone-parallel host loop burnZones: serial list order while a fault
// site is armed, and exceptions forwarded out of the OpenMP threads.
#include "microphysics/batch_burner.hpp"

#include "core/executor.hpp"
#include "core/fault.hpp"

#include "../support/burn_checks.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace exa;

namespace {

std::vector<Real> fuelX(const ReactionNetwork& net) {
    std::vector<Real> X(net.nspec(), 0.0);
    const int ihe4 = net.speciesIndex("he4");
    const int ic12 = net.speciesIndex("c12");
    const int io16 = net.speciesIndex("o16");
    X[ihe4 >= 0 ? ihe4 : 0] = 0.1;
    X[ic12 >= 0 ? ic12 : 0] = 0.45;
    X[io16 >= 0 ? io16 : 0] = 0.45;
    return X;
}

// A batch of zones with a wide stiffness spread: cool quiescent bulk up
// to igniting hot spots.
BurnBatch makeBatch(const ReactionNetwork& net, std::int64_t nzones) {
    BurnBatch b;
    b.resize(net.nspec(), nzones);
    auto X = fuelX(net);
    for (std::int64_t z = 0; z < nzones; ++z) {
        b.rho[z] = 1.0e7;
        // 1e8 .. ~2.5e9, deliberately not monotone in z so the sort has
        // real work to do.
        const double f = static_cast<double>((z * 7) % nzones) / nzones;
        b.T[z] = 1.0e8 + 2.4e9 * f * f;
        for (int s = 0; s < net.nspec(); ++s) b.Xin(s)[z] = X[s];
    }
    return b;
}

// Per-zone reference through the plain allocating burnZone path.
void expectMatchesBurnZone(const ReactionNetwork& net, const Eos& eos,
                           const BurnBatch& b, Real dt,
                           const OdeOptions& opt = OdeOptions{}) {
    std::vector<Real> X(net.nspec());
    for (std::int64_t z = 0; z < b.nzones; ++z) {
        for (int s = 0; s < net.nspec(); ++s) X[s] = b.Xin(s)[z];
        auto r = burnZone(net, eos, b.rho[z], b.T[z], X.data(), dt, opt);
        ASSERT_EQ(b.success[z] != 0, r.success) << "zone " << z;
        EXPECT_EQ(b.T_out[z], r.T) << "zone " << z;
        EXPECT_EQ(b.e_nuc[z], r.e_nuc) << "zone " << z;
        EXPECT_EQ(b.steps[z], r.stats.steps) << "zone " << z;
        for (int s = 0; s < net.nspec(); ++s) {
            EXPECT_EQ(b.Xout(s)[z], r.X[s]) << "zone " << z << " spec " << s;
        }
    }
}

} // namespace

// --- BatchedDenseLU ------------------------------------------------------

TEST(BatchedDenseLU, SlotsMatchDenseLUBitwise) {
    auto net = makeAprox13();
    const int n = net.nspec() + 1;
    auto X = fuelX(net);
    std::vector<Real> Y(net.nspec());
    net.xToY(X.data(), Y.data());

    BatchedDenseLU blu;
    blu.resize(n, 4);
    EXPECT_EQ(blu.size(), n);
    EXPECT_EQ(blu.batchCount(), 4);

    // Four different Newton matrices I - h*J, factored into four slots and
    // against four independent DenseLU references; solve bit-compare.
    for (int slot = 0; slot < 4; ++slot) {
        DenseMatrix J(n);
        net.jacobian(1.0e7, 2.0e9 + 3.0e8 * slot, Y.data(), 1.0e7, J);
        J.scaleAndAddIdentity(1.0, -1.0e-8 * (slot + 1));
        DenseLU ref;
        ASSERT_TRUE(ref.factor(J));
        ASSERT_TRUE(blu.factor(slot, J));
        std::vector<Real> b(n), bb(n);
        for (int i = 0; i < n; ++i) b[i] = bb[i] = 1.0 + 0.1 * i;
        ref.solve(b);
        blu.solve(slot, bb);
        for (int i = 0; i < n; ++i) EXPECT_EQ(bb[i], b[i]) << "slot " << slot;
    }
}

// --- Workspace reuse -----------------------------------------------------

TEST(BurnWorkspaceReuse, BurnZoneIntoMatchesBurnZone) {
    auto net = makeIso7();
    Eos eos{HelmLiteEos{}};
    auto X = fuelX(net);
    const Real dt = 1.0e-7;

    BurnOde ode(net, eos, 0.0);
    BurnWorkspace ws;
    BurnResult r;
    // Several different zones through ONE workspace — the reuse must not
    // leak state between burns.
    for (Real T : {1.5e8, 6.0e8, 1.2e9, 2.5e9, 1.5e8}) {
        auto ref = burnZone(net, eos, 1.0e7, T, X.data(), dt);
        burnZoneInto(ode, 1.0e7, T, X.data(), dt, OdeOptions{}, ws, r);
        ASSERT_EQ(r.success, ref.success) << "T=" << T;
        EXPECT_EQ(r.T, ref.T) << "T=" << T;
        EXPECT_EQ(r.e_nuc, ref.e_nuc) << "T=" << T;
        EXPECT_EQ(r.stats.steps, ref.stats.steps) << "T=" << T;
        for (int s = 0; s < net.nspec(); ++s) EXPECT_EQ(r.X[s], ref.X[s]);
    }
}

TEST(BurnWorkspaceReuse, BatchedLUAttachmentIsBitIdentical) {
    // The same burn with the Newton solves routed through a BatchedDenseLU
    // slot instead of the workspace's own DenseLU.
    auto net = makeIso7();
    Eos eos{HelmLiteEos{}};
    auto X = fuelX(net);
    const Real dt = 1.0e-7;

    BurnOde ode(net, eos, 0.0);
    BurnWorkspace ws;
    BurnResult r;
    BatchedDenseLU blu;
    blu.resize(net.nspec() + 1, 3);
    int slot = 0;
    for (Real T : {6.0e8, 1.2e9, 2.5e9}) {
        auto ref = burnZone(net, eos, 1.0e7, T, X.data(), dt);
        ws.bdf.batched_lu = &blu;
        ws.bdf.batched_slot = slot++;
        burnZoneInto(ode, 1.0e7, T, X.data(), dt, OdeOptions{}, ws, r);
        ASSERT_EQ(r.success, ref.success);
        EXPECT_EQ(r.T, ref.T);
        EXPECT_EQ(r.stats.steps, ref.stats.steps);
        for (int s = 0; s < net.nspec(); ++s) EXPECT_EQ(r.X[s], ref.X[s]);
    }
    ws.bdf.batched_lu = nullptr;
}

// --- BatchBurner ---------------------------------------------------------

TEST(BatchBurner, SortedBatchesMatchPerZoneBurnBitwise) {
    auto net = makeIso7();
    Eos eos{HelmLiteEos{}};
    const Real dt = 1.0e-7;
    auto b = makeBatch(net, 48);

    BatchBurnOptions opt;
    opt.batch_size = 16;
    BatchBurner burner(net, eos, opt);
    burner.run(b, dt);

    const auto& rep = burner.report();
    EXPECT_EQ(rep.gathered, 48);
    EXPECT_EQ(rep.device_zones, 48);
    EXPECT_EQ(rep.tail_zones, 0);
    EXPECT_EQ(rep.batches, 3); // balanced: 48 zones / target 16
    EXPECT_GT(rep.device_steps, 48);
    EXPECT_LE(rep.stiffness_median, rep.stiffness_max);

    expectMatchesBurnZone(net, eos, b, dt);
}

TEST(BatchBurner, SortOnOffAndHybridAllAgree) {
    // Processing order must only change *when* a zone burns, never its
    // result: unsorted, sorted, and sorted-with-tail runs are bitwise
    // equal zone for zone.
    auto net = makeIso7();
    Eos eos{HelmLiteEos{}};
    const Real dt = 1.0e-7;
    auto b0 = makeBatch(net, 40);
    auto b1 = b0;
    auto b2 = b0;

    BatchBurnOptions unsorted;
    unsorted.sort_by_stiffness = false;
    BatchBurnOptions sorted;
    BatchBurnOptions hybrid;
    hybrid.hybrid_cpu_tail = true;
    hybrid.tail_factor = 1.0;
    hybrid.tail_min_stiffness = 0.0; // everything past the median tails

    BatchBurner(net, eos, unsorted).run(b0, dt);
    BatchBurner(net, eos, sorted).run(b1, dt);
    BatchBurner bh(net, eos, hybrid);
    bh.run(b2, dt);

    for (std::int64_t z = 0; z < b0.nzones; ++z) {
        EXPECT_EQ(b0.T_out[z], b1.T_out[z]) << "zone " << z;
        EXPECT_EQ(b0.T_out[z], b2.T_out[z]) << "zone " << z;
        EXPECT_EQ(b0.steps[z], b1.steps[z]) << "zone " << z;
        EXPECT_EQ(b0.steps[z], b2.steps[z]) << "zone " << z;
        for (int s = 0; s < net.nspec(); ++s) {
            EXPECT_EQ(b0.Xout(s)[z], b1.Xout(s)[z]);
            EXPECT_EQ(b0.Xout(s)[z], b2.Xout(s)[z]);
        }
    }
    // And the tail really was routed.
    const auto& rep = bh.report();
    EXPECT_GT(rep.tail_zones, 0);
    EXPECT_EQ(rep.device_zones + rep.tail_zones, rep.gathered);
    EXPECT_GT(rep.tail_steps, 0);
    EXPECT_GT(rep.stiffness_tail_cut, 0.0);
}

TEST(BatchBurner, TailRoutesOnlyTheExtremeZones) {
    // Default tail policy on a quiescent batch with two igniting zones:
    // exactly the igniting zones cross the absolute stiffness floor.
    auto net = makeAprox13();
    Eos eos{HelmLiteEos{}};
    const Real dt = 1.0e-6;
    BurnBatch b;
    b.resize(net.nspec(), 32);
    auto X = fuelX(net);
    for (std::int64_t z = 0; z < b.nzones; ++z) {
        b.rho[z] = 1.0e7;
        b.T[z] = (z == 5 || z == 21) ? 3.2e9 : 1.5e8;
        for (int s = 0; s < net.nspec(); ++s) b.Xin(s)[z] = X[s];
    }
    BatchBurnOptions opt;
    opt.hybrid_cpu_tail = true;
    BatchBurner burner(net, eos, opt);
    burner.run(b, dt);
    const auto& rep = burner.report();
    EXPECT_EQ(rep.gathered, 32);
    EXPECT_EQ(rep.tail_zones, 2);
    EXPECT_EQ(rep.device_zones, 30);
    EXPECT_GT(rep.stiffness_max, rep.stiffness_tail_cut);
    // The igniting zones dominate the step totals despite being 2 of 32.
    EXPECT_GT(rep.tail_steps, rep.device_steps);
    expectMatchesBurnZone(net, eos, b, dt);
}

TEST(BatchBurner, EmptyBatchIsANoop) {
    auto net = makeIso7();
    Eos eos{HelmLiteEos{}};
    BurnBatch b;
    b.resize(net.nspec(), 0);
    BatchBurner burner(net, eos);
    burner.run(b, 1.0e-6);
    EXPECT_EQ(burner.report().gathered, 0);
    EXPECT_EQ(burner.report().batches, 0);
}

TEST(BatchBurner, SparseSolverPathMatchesPerZone) {
    // use_sparse bypasses the BatchedDenseLU slab; the batch must still
    // match the per-zone sparse path exactly.
    auto net = makeIso7();
    Eos eos{HelmLiteEos{}};
    const Real dt = 1.0e-7;
    auto b = makeBatch(net, 24);
    OdeOptions ode;
    ode.use_sparse = true;
    BatchBurner burner(net, eos);
    burner.run(b, dt, ode);
    expectMatchesBurnZone(net, eos, b, dt, ode);
}

// --- Network registry ----------------------------------------------------

// --- The zone-parallel host loop -----------------------------------------

TEST(BurnZones, ArmedFaultSiteKeepsSerialListOrder) {
    // The burn fault site counts hits in call order, so while a site is
    // armed the OpenMP loop must load every zone in list order on the
    // calling thread.
    exa::test::AtLeastTwoThreads threads;
    const auto net = makeNetworkByName("iso7");
    Eos eos{HelmLiteEos{}};
    const auto X = fuelX(net);
    std::vector<BurnZoneRef> zones;
    for (int i = 0; i < 64; ++i) zones.push_back({0, i, 0, 0});

    std::mutex mu;
    std::vector<int> order;
    std::vector<std::thread::id> loaders;
    auto load = [&](const BurnZoneRef& z, Real& rho, Real& T, Real* Xz) {
        {
            std::lock_guard<std::mutex> lk(mu);
            order.push_back(z.i);
            loaders.push_back(std::this_thread::get_id());
        }
        rho = 1.0e7;
        T = 1.5e8;
        std::copy(X.begin(), X.end(), Xz);
        return true;
    };
    auto store = [](const BurnZoneRef&, Real, const BurnResult&) {};

    fault::Spec never; // armed, but no hit reaches the window
    never.start = std::int64_t(1) << 40;
    ScopedBackend sb(Backend::OpenMP);
    fault::ScopedFault arm(fault::Site::BurnZoneFailure, never);
    std::vector<BurnZoneOutcome> out;
    burnZones(net, eos, zones, 1.0e-7, OdeOptions{}, load, store, out);

    ASSERT_EQ(order.size(), zones.size());
    for (std::size_t z = 0; z < zones.size(); ++z) {
        EXPECT_EQ(order[z], static_cast<int>(z));
        EXPECT_EQ(loaders[z], std::this_thread::get_id()) << "zone " << z;
        EXPECT_TRUE(out[z].burned && out[z].success) << "zone " << z;
    }
}

TEST(BurnZones, ExceptionsReachTheCallerOnEveryBackend) {
    exa::test::AtLeastTwoThreads threads;
    const auto net = makeNetworkByName("iso7");
    Eos eos{HelmLiteEos{}};
    const auto X = fuelX(net);
    std::vector<BurnZoneRef> zones;
    for (int i = 0; i < 32; ++i) zones.push_back({0, i, 0, 0});
    auto load = [&](const BurnZoneRef& z, Real& rho, Real& T, Real* Xz) {
        if (z.i == 7) throw std::runtime_error("unreadable zone");
        rho = 1.0e7;
        T = 1.5e8;
        std::copy(X.begin(), X.end(), Xz);
        return true;
    };
    auto store = [](const BurnZoneRef&, Real, const BurnResult&) {};
    for (const Backend b : {Backend::Serial, Backend::OpenMP}) {
        ScopedBackend sb(b);
        std::vector<BurnZoneOutcome> out;
        EXPECT_THROW(burnZones(net, eos, zones, 1.0e-7, OdeOptions{}, load, store, out),
                     std::runtime_error)
            << backendName(b);
    }
}

TEST(NetworkRegistry, BuiltInsResolveByName) {
    auto& reg = NetworkRegistry::instance();
    for (const char* name : {"ignition_simple", "triple_alpha", "iso7", "aprox13",
                             "aprox13+rev", "aprox19"}) {
        EXPECT_TRUE(reg.contains(name)) << name;
    }
    auto names = reg.names();
    EXPECT_GE(names.size(), 6u);
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));

    EXPECT_EQ(reg.make("iso7").nspec(), 7);
    EXPECT_EQ(reg.make("aprox19").nspec(), 19);
    EXPECT_EQ(makeNetworkByName("aprox13").nspec(), 13);
    EXPECT_EQ(makeNetworkByName("iso7").name(), "iso7");
}

TEST(NetworkRegistry, UnknownNameThrowsListingRegistered) {
    try {
        makeNetworkByName("nse_table");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("nse_table"), std::string::npos) << msg;
        EXPECT_NE(msg.find("aprox13"), std::string::npos) << msg;
        EXPECT_NE(msg.find("iso7"), std::string::npos) << msg;
    }
}

// --- iso7 / aprox19 physics sanity --------------------------------------

TEST(RegistryNetworks, NucleonConservationInYdot) {
    // The stoichiometry-override links (iso7's si28 + 7 he4 -> ni56, the
    // aprox19 lumped channels) must still conserve nucleons exactly:
    // sum_i A_i dY_i/dt == 0 up to round-off.
    for (const char* name : {"iso7", "aprox19"}) {
        auto net = makeNetworkByName(name);
        auto X = fuelX(net);
        std::vector<Real> Y(net.nspec()), dY(net.nspec());
        net.xToY(X.data(), Y.data());
        Real edot = 0.0;
        net.ydot(1.0e7, 3.0e9, Y.data(), dY.data(), edot);
        Real sum = 0.0, scale = 0.0;
        for (int i = 0; i < net.nspec(); ++i) {
            sum += net.species(i).A * dY[i];
            scale += std::abs(net.species(i).A * dY[i]);
        }
        ASSERT_GT(scale, 0.0) << name << ": nothing reacted";
        EXPECT_LT(std::abs(sum) / scale, 1.0e-12) << name;
        EXPECT_GT(edot, 0.0) << name;
    }
}

TEST(RegistryNetworks, Iso7AndAprox19BurnSmoke) {
    Eos eos{HelmLiteEos{}};
    for (const char* name : {"iso7", "aprox19"}) {
        auto net = makeNetworkByName(name);
        auto X = fuelX(net);
        auto r = burnZone(net, eos, 1.0e7, 3.0e9, X.data(), 1.0e-9);
        ASSERT_TRUE(r.success) << name;
        EXPECT_GT(r.stats.steps, 0) << name;
        const Real sumX = std::accumulate(r.X.begin(), r.X.end(), Real(0));
        EXPECT_NEAR(sumX, 1.0, 1.0e-9) << name;
    }
}
