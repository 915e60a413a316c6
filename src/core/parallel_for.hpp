#pragma once

// The lambda-based ParallelFor abstraction — the centerpiece of the
// paper's port. Application kernels define only the work at one zone
// (i,j,k); the backend decides how index space maps to execution
// resources:
//
//   * Serial  — triply-nested loop, k outermost (Fortran-friendly order).
//   * OpenMP  — work-aware: a launch whose declared work (zones x ncomp x
//               KernelInfo::flops_per_zone, the cost the device model
//               prices) is below kOmpInlineFlops runs inline as the Serial
//               loop; a larger one runs `omp parallel for` over the k (or
//               flattened k*j) range. A launch issued from inside an
//               OpenMP parallel region always runs inline on the calling
//               thread — it never starts a nested team.
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

// Declared work (zones x ncomp x KernelInfo::flops_per_zone) below which
// an OpenMP launch runs inline instead of forking a team. Set from the
// crossover sweep of bench/bench_launch_policy (EXPERIMENTS.md E19): on a
// 4-core x86 host a fork/join costs 1-2 us, and threading a launch at 2
// or 4 threads starts to pay at 21k-32k declared flops for the streaming
// and mg_smooth kernels (between 27k and 91k for hydro_flux).
inline constexpr double kOmpInlineFlops = 32768.0;

namespace detail {

// The Backend::OpenMP launch policy: true when a launch of `zones` zones
// x `ncomp` components should run inline on the calling thread.
inline bool omp_inline(const KernelInfo& ki, std::int64_t zones, int ncomp) {
#if defined(EXA_USE_OPENMP)
    // Inside any enclosing parallel region (omp_get_level() also counts a
    // one-thread team, which omp_in_parallel() does not) a nested team
    // would only add fork/join cost to a thread that is already busy.
    if (omp_get_level() > 0) return true;
    return static_cast<double>(zones) * ncomp * ki.flops_per_zone < kOmpInlineFlops;
#else
    (void)ki, (void)zones, (void)ncomp;
    return true;
#endif
}

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

// Reduce `f` over `box` with `combine`, one partial per (k, j) pencil in i
// order, the partials combined in pencil order. The association is the
// same whether the pencils ran on one thread or many, so every backend
// and every thread count gives the same bits.
template <typename C, typename F>
inline Real reduce_pencils(const Box& box, bool threaded, Real init, C&& combine, F&& f) {
    const Dim3 lo = box.loDim3();
    const Dim3 hi = box.hiDim3();
    auto pencil = [&](int j, int k) {
        Real p = init;
        for (int i = lo.x; i <= hi.x; ++i) p = combine(p, f(i, j, k));
        return p;
    };
    Real r = init;
#if defined(EXA_USE_OPENMP)
    if (threaded) {
        const int ny = hi.y - lo.y + 1;
        std::vector<Real> partial(static_cast<std::size_t>(ny) * (hi.z - lo.z + 1));
#pragma omp parallel for collapse(2) schedule(static)
        for (int k = lo.z; k <= hi.z; ++k)
            for (int j = lo.y; j <= hi.y; ++j)
                partial[static_cast<std::size_t>(k - lo.z) * ny + (j - lo.y)] = pencil(j, k);
        for (const Real p : partial) r = combine(r, p);
        return r;
    }
#else
    (void)threaded;
#endif
    for (int k = lo.z; k <= hi.z; ++k)
        for (int j = lo.y; j <= hi.y; ++j)
            r = combine(r, pencil(j, k));
    return r;
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
            if (detail::omp_inline(ki, box.numPts(), 1)) {
                detail::serial_for(box, std::forward<F>(f));
            } else {
                detail::omp_for(box, std::forward<F>(f));
            }
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
            if (detail::omp_inline(ki, box.numPts(), ncomp)) {
                detail::serial_for(box, ncomp, std::forward<F>(f));
            } else {
                detail::omp_for(box, ncomp, std::forward<F>(f));
            }
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
    if (ExecConfig::backend() == Backend::OpenMP && !detail::omp_inline(ki, n, 1)) {
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
// Reductions are launches too (the device model charges them). Every
// backend accumulates in the same fixed order — one partial per (k, j)
// pencil, partials combined in pencil order (detail::reduce_pencils) —
// so OpenMP results equal Serial's bit for bit at any thread count, and
// it does not matter whether the launch policy ran a reduction inline.

template <typename F>
Real ParallelReduceSum(const KernelInfo& ki, const Box& box, F&& f) {
    if (!box.ok()) return 0.0;
    const Backend be = ExecConfig::backend();
    if (be == Backend::SimGpu) {
        detail::record_launch(ki, box.numPts(), 1);
    }
    const bool threaded = be == Backend::OpenMP && !detail::omp_inline(ki, box.numPts(), 1);
    return detail::reduce_pencils(
        box, threaded, 0.0, [](Real a, Real b) { return a + b; }, std::forward<F>(f));
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
    const Backend be = ExecConfig::backend();
    if (be == Backend::SimGpu) {
        detail::record_launch(ki, box.numPts(), 1);
    }
    const bool threaded = be == Backend::OpenMP && !detail::omp_inline(ki, box.numPts(), 1);
    return detail::reduce_pencils(
        box, threaded, -std::numeric_limits<Real>::infinity(),
        [](Real a, Real b) { return std::max(a, b); }, std::forward<F>(f));
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
