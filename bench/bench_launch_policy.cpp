// Experiment E19: where does threading one ParallelFor launch start to
// pay? The crossover behind kOmpInlineFlops (core/parallel_for.hpp).
//
// On Backend::OpenMP a launch either runs inline on the calling thread
// (the Serial loop) or forks a team for `omp parallel for` over its box.
// The fork/join is a fixed cost per launch, so small launches lose to
// inline; the launch policy keys the choice on the work the launch
// declares — zones x ncomp x KernelInfo::flops_per_zone, the cost the
// device model prices — rather than on zones alone, because a zone of
// hydro_flux is hundreds of times the work of a zone of fab_copy.
//
// Sweep: cubic boxes of edge 2..32 x three kernel classes spanning the
// declared-flops range of the tree (a streaming copy as declared by
// fab_copy, 4 flops/zone; a 7-point mg_smooth stencil, 12; a PLM + HLLC
// x-face hydro_flux, 3,360) x 1/2/4 threads. Each cell times the same
// body launched inline and threaded (median of interleaved trials, each
// trial long enough to dwarf the clock), and prints the ratio. The
// summary gives, per kernel and thread count, the smallest declared work
// above which the threaded launch wins at every larger box — the
// crossover the constant is chosen against (EXPERIMENTS.md E19).
//
// Usage: bench_launch_policy [max_threads]   (default 4)

#include "castro/hydro.hpp"
#include "castro/state.hpp"
#include "core/array4.hpp"
#include "core/parallel_for.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <vector>

#if defined(EXA_USE_OPENMP)
#include <omp.h>
#endif

using namespace exa;
using namespace exa::castro;

namespace {

constexpr int kNspec = 1;
constexpr int kMaxEdge = 32;
constexpr int kGhost = 2;

// Input and output fields large enough for the biggest box plus ghosts.
struct Fields {
    Box region{{-kGhost, -kGhost, -kGhost}, {kMaxEdge + kGhost - 1, kMaxEdge + kGhost - 1,
                                             kMaxEdge + kGhost - 1}};
    int nprim = PrimLayout(kNspec).ncomp();
    int ncons = StateLayout(kNspec).ncomp();
    std::vector<Real> q, out;

    Fields()
        : q(static_cast<std::size_t>(region.numPts()) * nprim),
          out(static_cast<std::size_t>(region.numPts()) * ncons, 0.0) {
        Array4<Real> a(q.data(), region, nprim);
        detail::serial_for(region, [&](int i, int j, int k) {
            const Real rho = 1.0 + 0.1 * std::sin(0.3 * i + 0.2 * j + 0.1 * k);
            const Real p = 1.0 + 0.05 * std::cos(0.2 * i - 0.3 * k);
            a(i, j, k, PrimLayout::QRHO) = rho;
            a(i, j, k, PrimLayout::QU) = 0.1 * std::sin(0.1 * j);
            a(i, j, k, PrimLayout::QV) = 0.05;
            a(i, j, k, PrimLayout::QW) = -0.02;
            a(i, j, k, PrimLayout::QP) = p;
            a(i, j, k, PrimLayout::QREINT) = p / (5.0 / 3.0 - 1.0);
            a(i, j, k, PrimLayout::QC) = std::sqrt(5.0 / 3.0 * p / rho);
            a(i, j, k, PrimLayout::QFS) = 1.0;
        });
    }
    Array4<const Real> prim() const { return {q.data(), region, nprim}; }
    Array4<Real> dst(int nc) { return {out.data(), region, nc}; }
};

struct KernelCase {
    const char* label;
    KernelInfo ki;
    // The per-zone body over the given fields.
    std::function<void(const Box&, bool)> launch;
};

// Launch `body` over `box` inline (the Serial loop) or threaded (the
// `omp parallel for` the OpenMP backend forks for a large launch).
template <typename F>
void launchOn(const Box& box, bool threaded, F&& body) {
    if (threaded) {
        detail::omp_for(box, body);
    } else {
        detail::serial_for(box, body);
    }
}

std::vector<KernelCase> kernelCases(Fields& fl) {
    const auto q = fl.prim();
    std::vector<KernelCase> cases;
    cases.push_back({"streaming", KernelInfo::streaming("fab_copy", 16.0),
                     [&fl, q](const Box& b, bool thr) {
                         auto d = fl.dst(1);
                         launchOn(b, thr, [=](int i, int j, int k) { d(i, j, k) = q(i, j, k); });
                     }});
    cases.push_back({"mg_smooth", KernelInfo{"mg_smooth", 12.0, 96.0, 40, 1.0},
                     [&fl, q](const Box& b, bool thr) {
                         auto d = fl.dst(1);
                         const Real h2 = 1.0e-2;
                         launchOn(b, thr, [=](int i, int j, int k) {
                             d(i, j, k) = (q(i - 1, j, k) + q(i + 1, j, k) + q(i, j - 1, k) +
                                           q(i, j + 1, k) + q(i, j, k - 1) + q(i, j, k + 1) -
                                           h2 * q(i, j, k, PrimLayout::QP)) *
                                          (1.0 / 6.0);
                         });
                     }});
    cases.push_back({"hydro_flux",
                     KernelInfo{"hydro_flux", 3300.0 + 60.0 * kNspec, 1250.0 + 32.0 * kNspec,
                                168, 1.0},
                     [&fl, q](const Box& b, bool thr) {
                         auto d = fl.dst(fl.ncons);
                         const int nprim = fl.nprim;
                         const int ncons = fl.ncons;
                         launchOn(b, thr, [=](int i, int j, int k) {
                             Real ql[16], qr[16], f[16];
                             for (int n = 0; n < nprim; ++n) {
                                 ql[n] = q(i - 1, j, k, n) + 0.5 * mcSlope(q, i - 1, j, k, n, 0);
                                 qr[n] = q(i, j, k, n) - 0.5 * mcSlope(q, i, j, k, n, 0);
                             }
                             hllcFlux(ql, qr, kNspec, 0, f);
                             for (int n = 0; n < ncons; ++n) d(i, j, k, n) = f[n];
                         });
                     }});
    return cases;
}

using Clock = std::chrono::steady_clock;

// Seconds per launch: repeat until the trial lasts ~2 ms.
double secondsPerLaunch(const std::function<void()>& launch) {
    int reps = 1;
    for (;;) {
        const auto t0 = Clock::now();
        for (int r = 0; r < reps; ++r) launch();
        const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
        if (dt > 2.0e-3 || reps >= (1 << 20)) return dt / reps;
        reps *= 2;
    }
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

struct Cell {
    int edge;
    double work; // declared flops of the launch
    double inline_us, threaded_us;
};

} // namespace

int main(int argc, char** argv) {
#if !defined(EXA_USE_OPENMP)
    (void)argc, (void)argv;
    std::printf("bench_launch_policy: built without OpenMP, nothing to measure\n");
    return 0;
#else
    const int max_threads = argc > 1 ? std::max(1, std::atoi(argv[1])) : 4;
    const int edges[] = {2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 20, 24, 28, 32};
    constexpr int kTrials = 7;

    Fields fl;
    const auto cases = kernelCases(fl);

    std::printf("E19 launch-policy crossover: inline vs threaded launch of one box\n");
    std::printf("kOmpInlineFlops = %.0f declared flops\n\n", kOmpInlineFlops);
    std::printf("%-10s %3s %5s %12s %10s %10s %8s %s\n", "kernel", "thr", "edge",
                "work_flops", "inline_us", "thread_us", "ratio", "policy");

    for (const auto& kc : cases) {
        for (int nt = 1; nt <= max_threads; nt *= 2) {
            omp_set_num_threads(nt);
            std::vector<Cell> cells;
            for (const int e : edges) {
                const Box b({0, 0, 0}, {e - 1, e - 1, e - 1});
                std::vector<double> tin, tthr;
                for (int t = 0; t < kTrials; ++t) {
                    tin.push_back(secondsPerLaunch([&] { kc.launch(b, false); }));
                    tthr.push_back(secondsPerLaunch([&] { kc.launch(b, true); }));
                }
                const double work = static_cast<double>(b.numPts()) * kc.ki.flops_per_zone;
                cells.push_back({e, work, median(tin) * 1e6, median(tthr) * 1e6});
                const Cell& c = cells.back();
                std::printf("%-10s %3d %5d %12.0f %10.3f %10.3f %8.2f %s\n", kc.label, nt, e,
                            work, c.inline_us, c.threaded_us, c.inline_us / c.threaded_us,
                            work < kOmpInlineFlops ? "inline" : "threaded");
            }
            // Smallest declared work from which threading wins at every
            // larger box of the sweep.
            double crossover = -1.0;
            for (auto it = cells.rbegin(); it != cells.rend(); ++it) {
                if (it->threaded_us >= it->inline_us) break;
                crossover = it->work;
            }
            if (crossover < 0) {
                std::printf("# %-10s %d thr: threading never pays up to %d^3\n\n", kc.label, nt,
                            kMaxEdge);
            } else {
                std::printf("# %-10s %d thr: threading pays from %.0f declared flops\n\n",
                            kc.label, nt, crossover);
            }
        }
    }
    return 0;
#endif
}
