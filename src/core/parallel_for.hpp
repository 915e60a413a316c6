#pragma once

// The lambda-based ParallelFor abstraction — the centerpiece of the
// paper's port. Application kernels define only the work at one zone
// (i,j,k); the backend decides how index space maps to execution
// resources:
//
//   * Serial  — triply-nested loop, k outermost (Fortran-friendly order).
//   * OpenMP  — `omp parallel for` over the k (or flattened k*j) range.
//   * SimGpu  — identical arithmetic to Serial (so results are
//               bit-reproducible across backends), plus a LaunchRecord
//               sent to the device model, which charges modeled GPU time.
//
// Correctness contract (same as a real GPU launch): the body must be safe
// to run for all zones concurrently — it may write only to locations
// keyed by its own (i,j,k[,n]).

#include "core/box.hpp"
#include "core/debug.hpp"
#include "core/executor.hpp"
#include "core/real.hpp"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#if defined(EXA_USE_OPENMP)
#include <omp.h>
#endif

namespace exa {

namespace detail {

template <typename F>
inline void serial_for(const Box& box, F&& f) {
    const Dim3 lo = box.loDim3();
    const Dim3 hi = box.hiDim3();
    for (int k = lo.z; k <= hi.z; ++k)
        for (int j = lo.y; j <= hi.y; ++j)
            for (int i = lo.x; i <= hi.x; ++i)
                f(i, j, k);
}

template <typename F>
inline void serial_for(const Box& box, int ncomp, F&& f) {
    const Dim3 lo = box.loDim3();
    const Dim3 hi = box.hiDim3();
    for (int n = 0; n < ncomp; ++n)
        for (int k = lo.z; k <= hi.z; ++k)
            for (int j = lo.y; j <= hi.y; ++j)
                for (int i = lo.x; i <= hi.x; ++i)
                    f(i, j, k, n);
}

template <typename F>
inline void omp_for(const Box& box, F&& f) {
    const Dim3 lo = box.loDim3();
    const Dim3 hi = box.hiDim3();
#if defined(EXA_USE_OPENMP)
#pragma omp parallel for collapse(2) schedule(static)
#endif
    for (int k = lo.z; k <= hi.z; ++k)
        for (int j = lo.y; j <= hi.y; ++j)
            for (int i = lo.x; i <= hi.x; ++i)
                f(i, j, k);
}

template <typename F>
inline void omp_for(const Box& box, int ncomp, F&& f) {
    const Dim3 lo = box.loDim3();
    const Dim3 hi = box.hiDim3();
#if defined(EXA_USE_OPENMP)
#pragma omp parallel for collapse(2) schedule(static)
#endif
    for (int k = lo.z; k <= hi.z; ++k)
        for (int j = lo.y; j <= hi.y; ++j)
            for (int n = 0; n < ncomp; ++n)
                for (int i = lo.x; i <= hi.x; ++i)
                    f(i, j, k, n);
}

inline void record_launch(const KernelInfo& ki, std::int64_t zones, int ncomp) {
    LaunchRecord r;
    r.info = ki;
    r.zones = zones;
    r.ncomp = ncomp;
    r.stream = ExecConfig::currentStream();
    ExecConfig::notifyLaunch(r);
}

} // namespace detail

// --- ParallelFor over the zones of a box -------------------------------

template <typename F>
void ParallelFor(const KernelInfo& ki, const Box& box, F&& f) {
    if (!box.ok()) return;
    switch (ExecConfig::backend()) {
        case Backend::Serial:
            detail::serial_for(box, std::forward<F>(f));
            break;
        case Backend::OpenMP:
            detail::omp_for(box, std::forward<F>(f));
            break;
        case Backend::SimGpu:
            detail::record_launch(ki, box.numPts(), 1);
            detail::serial_for(box, std::forward<F>(f));
            break;
        case Backend::Debug:
            debug::checked_for(ki, box, std::forward<F>(f));
            break;
    }
}

template <typename F>
void ParallelFor(const Box& box, F&& f) {
    ParallelFor(KernelInfo{}, box, std::forward<F>(f));
}

// --- ParallelFor over zones x components --------------------------------

template <typename F>
void ParallelFor(const KernelInfo& ki, const Box& box, int ncomp, F&& f) {
    if (!box.ok() || ncomp <= 0) return;
    switch (ExecConfig::backend()) {
        case Backend::Serial:
            detail::serial_for(box, ncomp, std::forward<F>(f));
            break;
        case Backend::OpenMP:
            detail::omp_for(box, ncomp, std::forward<F>(f));
            break;
        case Backend::SimGpu:
            detail::record_launch(ki, box.numPts(), ncomp);
            detail::serial_for(box, ncomp, std::forward<F>(f));
            break;
        case Backend::Debug:
            debug::checked_for(ki, box, ncomp, std::forward<F>(f));
            break;
    }
}

template <typename F>
void ParallelFor(const Box& box, int ncomp, F&& f) {
    ParallelFor(KernelInfo{}, box, ncomp, std::forward<F>(f));
}

// --- 1-D ParallelFor -----------------------------------------------------
//
// 1-D launches run unchecked (plain serial) under Backend::Debug: their
// targets are frequently host-side lists rather than arena state, so the
// snapshot/replay machinery of the box variants does not apply.

template <typename F>
void ParallelFor(const KernelInfo& ki, std::int64_t n, F&& f) {
    if (n <= 0) return;
    if (ExecConfig::backend() == Backend::SimGpu) {
        detail::record_launch(ki, n, 1);
    }
#if defined(EXA_USE_OPENMP)
    if (ExecConfig::backend() == Backend::OpenMP) {
#pragma omp parallel for schedule(static)
        for (std::int64_t i = 0; i < n; ++i) f(i);
        return;
    }
#endif
    for (std::int64_t i = 0; i < n; ++i) f(i);
}

template <typename F>
void ParallelFor(std::int64_t n, F&& f) {
    ParallelFor(KernelInfo{}, n, std::forward<F>(f));
}

// --- Reductions ----------------------------------------------------------
//
// Reductions are launches too (the device model charges them), but the
// accumulation order is fixed (serial zone order) on every backend except
// OpenMP so results stay deterministic. OpenMP sums are reproducible run
// to run for a given thread count: each thread sums its static share and
// the partials are added in thread order (a reduction clause would add
// them in the order threads finish).

template <typename F>
Real ParallelReduceSum(const KernelInfo& ki, const Box& box, F&& f) {
    if (!box.ok()) return 0.0;
    if (ExecConfig::backend() == Backend::SimGpu) {
        detail::record_launch(ki, box.numPts(), 1);
    }
    Real s = 0.0;
    const Dim3 lo = box.loDim3();
    const Dim3 hi = box.hiDim3();
#if defined(EXA_USE_OPENMP)
    if (ExecConfig::backend() == Backend::OpenMP) {
        std::vector<Real> partial(static_cast<std::size_t>(omp_get_max_threads()), 0.0);
#pragma omp parallel
        {
            Real mine = 0.0;
#pragma omp for collapse(2) schedule(static) nowait
            for (int k = lo.z; k <= hi.z; ++k)
                for (int j = lo.y; j <= hi.y; ++j)
                    for (int i = lo.x; i <= hi.x; ++i)
                        mine += f(i, j, k);
            partial[static_cast<std::size_t>(omp_get_thread_num())] = mine;
        }
        for (const Real p : partial) s += p;
        return s;
    }
#endif
    for (int k = lo.z; k <= hi.z; ++k)
        for (int j = lo.y; j <= hi.y; ++j)
            for (int i = lo.x; i <= hi.x; ++i)
                s += f(i, j, k);
    return s;
}

template <typename F>
Real ParallelReduceSum(const Box& box, F&& f) {
    return ParallelReduceSum(KernelInfo{"reduce_sum", 1, 8, 32, 1.0}, box,
                             std::forward<F>(f));
}

template <typename F>
Real ParallelReduceMax(const KernelInfo& ki, const Box& box, F&& f) {
    // Identity of max: an empty box (or empty MultiFab) reduces to -inf,
    // so that max(empty, x) == x for every finite x.
    if (!box.ok()) return -std::numeric_limits<Real>::infinity();
    if (ExecConfig::backend() == Backend::SimGpu) {
        detail::record_launch(ki, box.numPts(), 1);
    }
    Real m = -std::numeric_limits<Real>::infinity();
    const Dim3 lo = box.loDim3();
    const Dim3 hi = box.hiDim3();
#if defined(EXA_USE_OPENMP)
    if (ExecConfig::backend() == Backend::OpenMP) {
#pragma omp parallel for collapse(2) reduction(max : m) schedule(static)
        for (int k = lo.z; k <= hi.z; ++k)
            for (int j = lo.y; j <= hi.y; ++j)
                for (int i = lo.x; i <= hi.x; ++i)
                    m = std::max(m, f(i, j, k));
        return m;
    }
#endif
    for (int k = lo.z; k <= hi.z; ++k)
        for (int j = lo.y; j <= hi.y; ++j)
            for (int i = lo.x; i <= hi.x; ++i)
                m = std::max(m, f(i, j, k));
    return m;
}

template <typename F>
Real ParallelReduceMax(const Box& box, F&& f) {
    return ParallelReduceMax(KernelInfo{"reduce_max", 1, 8, 32, 1.0}, box,
                             std::forward<F>(f));
}

template <typename F>
Real ParallelReduceMin(const Box& box, F&& f) {
    return -ParallelReduceMax(box, [&](int i, int j, int k) { return -f(i, j, k); });
}

} // namespace exa
