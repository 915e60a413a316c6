#include "core/arena.hpp"
#include "core/array4.hpp"
#include "core/parallel_for.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#if defined(EXA_USE_OPENMP)
#include <omp.h>
#endif

using namespace exa;

namespace {

std::vector<Real> run_fill(Backend be) {
    ScopedBackend sb(be);
    Box b({0, 0, 0}, {7, 7, 7});
    std::vector<Real> data(b.numPts(), 0.0);
    Array4<Real> a(data.data(), b, 1);
    ParallelFor(b, [=](int i, int j, int k) {
        a(i, j, k) = std::sin(0.1 * i) + std::cos(0.2 * j) * k;
    });
    return data;
}

} // namespace

TEST(ParallelFor, BackendsBitIdentical) {
    auto serial = run_fill(Backend::Serial);
    auto omp = run_fill(Backend::OpenMP);
    auto gpu = run_fill(Backend::SimGpu);
    auto dbg = run_fill(Backend::Debug);
    EXPECT_EQ(serial, omp);
    EXPECT_EQ(serial, gpu);
    EXPECT_EQ(serial, dbg);
}

TEST(ParallelFor, VisitsEveryZoneExactlyOnce) {
    // Arena-backed so the count survives Backend::Debug's replay passes
    // (the checker snapshots and restores arena-resident state only).
    Box b({-2, 0, 3}, {4, 5, 6});
    int* count = static_cast<int*>(The_Arena()->allocate(sizeof(int) * b.numPts()));
    std::fill(count, count + b.numPts(), 0);
    Array4<int> a(count, b, 1);
    ParallelFor(b, [=](int i, int j, int k) { a(i, j, k) += 1; });
    for (std::int64_t idx = 0; idx < b.numPts(); ++idx) EXPECT_EQ(count[idx], 1);
    The_Arena()->deallocate(count);
}

TEST(ParallelFor, ComponentVariantCoversAllComponents) {
    Box b({0, 0, 0}, {3, 3, 3});
    const int nc = 5;
    std::vector<int> data(b.numPts() * nc, 0);
    Array4<int> a(data.data(), b, nc);
    ParallelFor(b, nc, [=](int i, int j, int k, int n) { a(i, j, k, n) = n + 1; });
    for (int n = 0; n < nc; ++n) {
        for (int idx = 0; idx < b.numPts(); ++idx) {
            EXPECT_EQ(data[n * b.numPts() + idx], n + 1);
        }
    }
}

TEST(ParallelFor, EmptyBoxDoesNothing) {
    Box e;
    bool touched = false;
    ParallelFor(e, [&](int, int, int) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(ParallelFor, OneDimensional) {
    std::vector<int> v(100, 0);
    int* p = v.data();
    ParallelFor(static_cast<std::int64_t>(v.size()),
                [=](std::int64_t i) { p[i] = static_cast<int>(2 * i); });
    EXPECT_EQ(v[99], 198);
    EXPECT_EQ(v[0], 0);
}

TEST(ParallelReduce, SumMatchesAnalytic) {
    Box b({0, 0, 0}, {9, 9, 9});
    // sum over i of i for each (j,k): 45 * 100
    Real s = ParallelReduceSum(b, [](int i, int, int) { return static_cast<Real>(i); });
    EXPECT_DOUBLE_EQ(s, 45.0 * 100.0);
}

TEST(ParallelReduce, MaxMin) {
    Box b({0, 0, 0}, {4, 4, 4});
    Real mx = ParallelReduceMax(b, [](int i, int j, int k) {
        return static_cast<Real>(i + 10 * j + 100 * k);
    });
    EXPECT_DOUBLE_EQ(mx, 444.0);
    Real mn = ParallelReduceMin(b, [](int i, int j, int k) {
        return static_cast<Real>(i + 10 * j + 100 * k);
    });
    EXPECT_DOUBLE_EQ(mn, 0.0);
}

TEST(ParallelFor, SimGpuLaunchHookReceivesRecords) {
    ScopedBackend sb(Backend::SimGpu);
    std::vector<LaunchRecord> records;
    ExecConfig::setLaunchHook([&](const LaunchRecord& r) { records.push_back(r); });

    Box b({0, 0, 0}, {15, 15, 15});
    KernelInfo ki{"test_kernel", 10.0, 40.0, 80, 1.0};
    ParallelFor(ki, b, [](int, int, int) {});
    ParallelFor(ki, b, 4, [](int, int, int, int) {});

    ExecConfig::clearLaunchHook();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].zones, 4096);
    EXPECT_EQ(records[0].ncomp, 1);
    EXPECT_EQ(records[1].ncomp, 4);
    EXPECT_STREQ(records[0].info.name, "test_kernel");
    EXPECT_EQ(records[0].info.regs_per_thread, 80);
}

TEST(ParallelFor, SerialBackendDoesNotNotifyHook) {
    ScopedBackend sb(Backend::Serial);
    int launches = 0;
    ExecConfig::setLaunchHook([&](const LaunchRecord&) { ++launches; });
    Box b({0, 0, 0}, {3, 3, 3});
    ParallelFor(b, [](int, int, int) {});
    ExecConfig::clearLaunchHook();
    EXPECT_EQ(launches, 0);
}

TEST(ExecConfig, StreamsRoundTrip) {
    ExecConfig::setNumStreams(4);
    EXPECT_EQ(ExecConfig::numStreams(), 4);
    ExecConfig::setCurrentStream(3);
    EXPECT_EQ(ExecConfig::currentStream(), 3);
    ExecConfig::setCurrentStream(0);
    ExecConfig::setNumStreams(0); // clamps to 1
    EXPECT_EQ(ExecConfig::numStreams(), 1);
    ExecConfig::setNumStreams(4);
}

class ParallelForBoxShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ParallelForBoxShapes, ReduceCountEqualsNumPts) {
    auto [nx, ny, nz] = GetParam();
    Box b({0, 0, 0}, {nx - 1, ny - 1, nz - 1});
    Real n = ParallelReduceSum(b, [](int, int, int) { return 1.0; });
    EXPECT_DOUBLE_EQ(n, static_cast<Real>(b.numPts()));
}

INSTANTIATE_TEST_SUITE_P(Shapes, ParallelForBoxShapes,
                         ::testing::Values(std::tuple{1, 1, 1}, std::tuple{8, 1, 1},
                                           std::tuple{1, 8, 1}, std::tuple{1, 1, 8},
                                           std::tuple{16, 8, 4}, std::tuple{3, 5, 7}));

// --- The OpenMP launch policy ---------------------------------------------
//
// A launch whose declared work (zones x ncomp x flops_per_zone) is below
// kOmpInlineFlops runs inline; a larger one forks a team; any launch from
// inside a parallel region, or with one thread, runs inline on the calling
// thread.

namespace {

// Declares exactly kOmpInlineFlops of work per 16^3 zones, so a 16x16x15
// launch is just below the threshold and a 16x16x17 one just above it.
const KernelInfo kProbe{"policy_probe", kOmpInlineFlops / 4096.0, 8.0, 32, 1.0};
const Box kBelow({0, 0, 0}, {15, 15, 14});
const Box kAbove({0, 0, 0}, {15, 15, 16});

#if defined(EXA_USE_OPENMP)
// Exactly `n` OpenMP threads for the scope.
class ScopedThreads {
public:
    explicit ScopedThreads(int n) : m_saved(omp_get_max_threads()) { omp_set_num_threads(n); }
    ~ScopedThreads() { omp_set_num_threads(m_saved); }
    ScopedThreads(const ScopedThreads&) = delete;
    ScopedThreads& operator=(const ScopedThreads&) = delete;

private:
    int m_saved;
};
#endif

struct PolicyRun {
    // Per zone (x component): times visited, value written, and the
    // omp_get_num_threads() the body saw.
    std::vector<int> visits, team;
    std::vector<Real> values;
};

int teamSize() {
#if defined(EXA_USE_OPENMP)
    return omp_get_num_threads();
#else
    return 1;
#endif
}

PolicyRun runPolicyBox(Backend be, const Box& b, int ncomp) {
    ScopedBackend sb(be);
    const auto n = static_cast<std::size_t>(b.numPts()) * ncomp;
    PolicyRun r{std::vector<int>(n, 0), std::vector<int>(n, 0), std::vector<Real>(n, 0.0)};
    Array4<int> v(r.visits.data(), b, ncomp);
    Array4<int> t(r.team.data(), b, ncomp);
    Array4<Real> a(r.values.data(), b, ncomp);
    auto body = [=](int i, int j, int k, int c) {
        v(i, j, k, c) += 1;
        t(i, j, k, c) = teamSize();
        a(i, j, k, c) = std::sin(0.1 * i + c) + std::cos(0.2 * j) * k;
    };
    if (ncomp == 1) {
        ParallelFor(kProbe, b, [&](int i, int j, int k) { body(i, j, k, 0); });
    } else {
        // The component launch declares ncomp times the work of one zone.
        KernelInfo ki = kProbe;
        ki.flops_per_zone /= ncomp;
        ParallelFor(ki, b, ncomp, body);
    }
    return r;
}

} // namespace

TEST(LaunchPolicy, ShapesAroundTheThresholdMatchSerialAndVisitEachZoneOnce) {
#if defined(EXA_USE_OPENMP)
    ScopedThreads threads(2);
#endif
    for (const int ncomp : {1, 3}) {
        for (const bool below : {true, false}) {
            SCOPED_TRACE(::testing::Message() << "ncomp " << ncomp << (below ? " below" : " above"));
            const Box& b = below ? kBelow : kAbove;
            const PolicyRun ser = runPolicyBox(Backend::Serial, b, ncomp);
            const PolicyRun omp = runPolicyBox(Backend::OpenMP, b, ncomp);
            EXPECT_EQ(ser.values, omp.values);
            EXPECT_TRUE(std::all_of(omp.visits.begin(), omp.visits.end(),
                                    [](int c) { return c == 1; }));
#if defined(EXA_USE_OPENMP)
            // Below the threshold the launch ran inline; above it, threaded.
            EXPECT_EQ(*std::max_element(omp.team.begin(), omp.team.end()), below ? 1 : 2);
#endif
        }
    }
}

TEST(LaunchPolicy, OneDimensionalLaunchFollowsTheThreshold) {
#if !defined(EXA_USE_OPENMP)
    GTEST_SKIP() << "built without OpenMP";
#else
    ScopedThreads threads(2);
    ScopedBackend sb(Backend::OpenMP);
    for (const std::int64_t n : {kBelow.numPts(), kAbove.numPts()}) {
        std::vector<int> visits(static_cast<std::size_t>(n), 0);
        std::vector<int> team(static_cast<std::size_t>(n), 0);
        int* v = visits.data();
        int* t = team.data();
        ParallelFor(kProbe, n, [=](std::int64_t i) {
            v[i] += 1;
            t[i] = omp_get_num_threads();
        });
        EXPECT_TRUE(std::all_of(visits.begin(), visits.end(), [](int c) { return c == 1; }));
        EXPECT_EQ(*std::max_element(team.begin(), team.end()), n == kBelow.numPts() ? 1 : 2);
    }
#endif
}

TEST(LaunchPolicy, LaunchInsideAParallelRegionRunsOnTheCallingThread) {
#if !defined(EXA_USE_OPENMP)
    GTEST_SKIP() << "built without OpenMP";
#else
    ScopedBackend sb(Backend::OpenMP);
    const Box big({0, 0, 0}, {31, 31, 31}); // far above the threshold
    const auto npts = static_cast<std::size_t>(big.numPts());
    constexpr int kOuter = 2;
    std::vector<std::vector<int>> level(kOuter), team(kOuter), tid(kOuter);
#pragma omp parallel num_threads(kOuter)
    {
        const int me = omp_get_thread_num();
        level[me].assign(npts, -1);
        team[me].assign(npts, -1);
        tid[me].assign(npts, -1);
        int* l = level[me].data();
        int* s = team[me].data();
        int* t = tid[me].data();
        ParallelFor(kProbe, big, [=](int i, int j, int k) {
            const auto z = static_cast<std::size_t>((k * 32 + j) * 32 + i);
            l[z] = omp_get_level();
            s[z] = omp_get_num_threads();
            t[z] = omp_get_thread_num();
        });
    }
    const int outer_team = static_cast<int>(
        std::count_if(level.begin(), level.end(), [](const auto& v) { return !v.empty(); }));
    for (int me = 0; me < outer_team; ++me) {
        SCOPED_TRACE(me);
        EXPECT_TRUE(std::all_of(level[me].begin(), level[me].end(), [](int x) { return x == 1; }));
        EXPECT_TRUE(std::all_of(team[me].begin(), team[me].end(),
                                [&](int x) { return x == outer_team; }));
        EXPECT_TRUE(std::all_of(tid[me].begin(), tid[me].end(), [&](int x) { return x == me; }));
    }
    // The same launch outside the region does fork a team.
    std::atomic<int> forked{0};
    ParallelFor(kProbe, big, [&](int, int, int) {
        if (omp_get_level() == 1) forked.store(1);
    });
    EXPECT_EQ(forked.load(), 1);
#endif
}

TEST(LaunchPolicy, OneThreadRunsAboveTheThresholdInline) {
#if !defined(EXA_USE_OPENMP)
    GTEST_SKIP() << "built without OpenMP";
#else
    ScopedThreads threads(1);
    ScopedBackend sb(Backend::OpenMP);
    // One thread, so the body never runs concurrently with itself.
    int max_level = -1;
    ParallelFor(kProbe, kAbove, [&](int, int, int) {
        max_level = std::max(max_level, omp_get_level());
    });
    // A forked one-thread team would report level 1.
    EXPECT_EQ(max_level, 0);
#endif
}

TEST(LaunchPolicy, ReduceSumAndMaxMatchSerialBitwiseAtAnyThreadCount) {
    // Values spanning many magnitudes, so any change of association would
    // show in the last bits of the sum.
    auto f = [](int i, int j, int k) {
        return std::sin(0.37 * i + 1.1 * j) * std::pow(10.0, (i + 2 * j + 3 * k) % 9 - 4);
    };
    const KernelInfo big{"reduce_probe", kOmpInlineFlops / 64.0, 8.0, 32, 1.0};
    const Box b({-3, 0, 2}, {20, 13, 17});
    Real ser_sum = 0, ser_max = 0, ser_sum_inline = 0;
    {
        ScopedBackend sb(Backend::Serial);
        ser_sum = ParallelReduceSum(big, b, f);
        ser_sum_inline = ParallelReduceSum(b, f);
        ser_max = ParallelReduceMax(big, b, f);
    }
    EXPECT_EQ(ser_sum, ser_sum_inline); // the declared work changes nothing
    for (const int nt : {1, 2, 3, 4}) {
        SCOPED_TRACE(nt);
#if defined(EXA_USE_OPENMP)
        ScopedThreads threads(nt);
#endif
        ScopedBackend sb(Backend::OpenMP);
        EXPECT_EQ(ParallelReduceSum(big, b, f), ser_sum);
        EXPECT_EQ(ParallelReduceSum(b, f), ser_sum);
        EXPECT_EQ(ParallelReduceMax(big, b, f), ser_max);
    }
    ScopedBackend sb(Backend::SimGpu);
    EXPECT_EQ(ParallelReduceSum(big, b, f), ser_sum);
    EXPECT_EQ(ParallelReduceMax(big, b, f), ser_max);
}

TEST(LaunchPolicy, SimGpuRecordsOneLaunchPerCallOnEitherSideOfTheThreshold) {
    ScopedBackend sb(Backend::SimGpu);
    std::vector<LaunchRecord> records;
    ExecConfig::setLaunchHook([&](const LaunchRecord& r) { records.push_back(r); });
    for (const Box& b : {kBelow, kAbove}) {
        ParallelFor(kProbe, b, [](int, int, int) {});
        ParallelFor(kProbe, b, 2, [](int, int, int, int) {});
        ParallelFor(kProbe, b.numPts(), [](std::int64_t) {});
        ParallelReduceSum(kProbe, b, [](int, int, int) { return 1.0; });
        ParallelReduceMax(kProbe, b, [](int, int, int) { return 1.0; });
    }
    ExecConfig::clearLaunchHook();
    ASSERT_EQ(records.size(), 10u);
    for (std::size_t r = 0; r < records.size(); ++r) {
        const Box& b = r < 5 ? kBelow : kAbove;
        EXPECT_EQ(records[r].zones, b.numPts()) << r;
        EXPECT_EQ(records[r].ncomp, r % 5 == 1 ? 2 : 1) << r;
        EXPECT_STREQ(records[r].info.name, "policy_probe");
    }
}
