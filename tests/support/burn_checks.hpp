#pragma once

// Shared checks of the burn suites: bitwise state comparison, equality of
// BurnGridStats, and a guard that gives the OpenMP backend at least two
// threads so its runs really burn zones concurrently.

#include "mesh/multifab.hpp"
#include "microphysics/burner.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#if defined(EXA_USE_OPENMP)
#include <omp.h>
#endif

namespace exa::test {

// Bitwise comparison over every fab and component of the valid regions.
inline void expectBitIdentical(const MultiFab& a, const MultiFab& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t f = 0; f < a.size(); ++f) {
        auto ua = a.const_array(static_cast<int>(f));
        auto ub = b.const_array(static_cast<int>(f));
        const Box& vb = a.box(static_cast<int>(f));
        for (int n = 0; n < a.nComp(); ++n)
            for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
                for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                    for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                        ASSERT_EQ(ua(i, j, k, n), ub(i, j, k, n))
                            << "fab " << f << " comp " << n << " zone (" << i
                            << "," << j << "," << k << ")";
                    }
    }
}

inline void expectStatsEqual(const BurnGridStats& a, const BurnGridStats& b) {
    EXPECT_EQ(a.zones, b.zones);
    EXPECT_EQ(a.total_steps, b.total_steps);
    EXPECT_EQ(a.max_steps, b.max_steps);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.first_failure.valid, b.first_failure.valid);
    if (a.first_failure.valid) {
        EXPECT_EQ(a.first_failure.i, b.first_failure.i);
        EXPECT_EQ(a.first_failure.j, b.first_failure.j);
        EXPECT_EQ(a.first_failure.k, b.first_failure.k);
        EXPECT_EQ(a.first_failure.fab, b.first_failure.fab);
        EXPECT_EQ(a.first_failure.level, b.first_failure.level);
        EXPECT_EQ(a.first_failure.rho, b.first_failure.rho);
        EXPECT_EQ(a.first_failure.T, b.first_failure.T);
    }
}

// At least two OpenMP threads for the scope (no-op without OpenMP).
class AtLeastTwoThreads {
public:
    AtLeastTwoThreads() {
#if defined(EXA_USE_OPENMP)
        m_saved = omp_get_max_threads();
        omp_set_num_threads(std::max(2, m_saved));
#endif
    }
    ~AtLeastTwoThreads() {
#if defined(EXA_USE_OPENMP)
        omp_set_num_threads(m_saved);
#endif
    }
    AtLeastTwoThreads(const AtLeastTwoThreads&) = delete;
    AtLeastTwoThreads& operator=(const AtLeastTwoThreads&) = delete;

private:
    [[maybe_unused]] int m_saved = 1;
};

} // namespace exa::test
