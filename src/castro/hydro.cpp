#include "castro/hydro.hpp"

#include "core/executor.hpp"
#include "core/fault.hpp"
#include "core/parallel_for.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace exa::castro {

namespace {

// The per-zone cost parameters describe the *production* Castro kernels
// the device model is standing in for (PPM reconstruction with
// characteristic tracing, dual-energy bookkeeping, Helmholtz EOS calls),
// which are richer than the PLM+HLLC scheme implemented here. They are
// calibrated so the modeled single-V100 Sedov throughput lands near the
// paper's ~25 zones/usec (Section IV).
KernelInfo primKernel(int nspec) {
    return KernelInfo{"hydro_ctoprim", 1100.0 + 30.0 * nspec, 400.0 + 16.0 * nspec,
                      96, 1.0};
}
KernelInfo fluxKernel(int nspec) {
    return KernelInfo{"hydro_flux", 3300.0 + 60.0 * nspec, 1250.0 + 32.0 * nspec, 168,
                      1.0};
}
KernelInfo updateKernel(int nspec) {
    return KernelInfo{"cons_update", 140.0 + 8.0 * nspec, 360.0 + 24.0 * nspec, 64,
                      1.0};
}

// The per-zone kernels below keep species scratch in fixed stack arrays
// (GPU register idiom: X[32], ql/qr[40]); a network wider than that would
// silently overrun them. Reject it loudly instead.
constexpr int max_kernel_nspec = 32;
void checkKernelSpeciesLimit(int nspec) {
    if (nspec > max_kernel_nspec) {
        throw std::invalid_argument(
            "castro hydro kernels support at most " +
            std::to_string(max_kernel_nspec) + " species, got " +
            std::to_string(nspec));
    }
}

// Face fluxes along D over face box fb: the left state is zone
// (i,j,k)-e reconstructed toward its high face, the right state zone
// (i,j,k) toward its low face. Slopes are recomputed here, per face, per
// zone — the paper's redundant-recompute formulation. The direction and
// the reconstruction are template parameters so each of the six sweeps
// compiles to its own straight-line kernel.
template <int D, bool PPM>
void fluxSweep(const Box& fb, Array4<const Real> q, Array4<Real> fx, int nspec) {
    constexpr int ex = D == 0, ey = D == 1, ez = D == 2;
    KernelInfo fk = fluxKernel(nspec);
    if constexpr (PPM) fk.name = "hydro_flux_ppm";
    ParallelFor(fk, fb, [=](int i, int j, int k) {
        Real ql[40], qr[40];
        for (int n = 0; n < PrimLayout::QFS + nspec; ++n) {
            if constexpr (PPM) {
                Real lm, lp, rm, rp;
                ppmEdges(q, i - ex, j - ey, k - ez, n, D, lm, lp);
                ppmEdges(q, i, j, k, n, D, rm, rp);
                ql[n] = lp; // high edge of the left zone
                qr[n] = rm; // low edge of the right zone
            } else {
                const Real sll = mcSlope(q, i - ex, j - ey, k - ez, n, D);
                const Real slr = mcSlope(q, i, j, k, n, D);
                ql[n] = q(i - ex, j - ey, k - ez, n) + 0.5 * sll;
                qr[n] = q(i, j, k, n) - 0.5 * slr;
            }
        }
        // Guard reconstructed rho/p against undershoot.
        ql[PrimLayout::QRHO] = std::max(ql[PrimLayout::QRHO], Real(1.0e-30));
        qr[PrimLayout::QRHO] = std::max(qr[PrimLayout::QRHO], Real(1.0e-30));
        ql[PrimLayout::QP] = std::max(ql[PrimLayout::QP], Real(1.0e-30));
        qr[PrimLayout::QP] = std::max(qr[PrimLayout::QP], Real(1.0e-30));
        ql[PrimLayout::QREINT] = std::max(ql[PrimLayout::QREINT], Real(1.0e-30));
        qr[PrimLayout::QREINT] = std::max(qr[PrimLayout::QREINT], Real(1.0e-30));
        Real fl[40];
        hllcFlux(ql, qr, nspec, D, fl);
        for (int n = 0; n < StateLayout::UFS + nspec; ++n) fx(i, j, k, n) = fl[n];
    });
}

using FluxSweep = void (*)(const Box&, Array4<const Real>, Array4<Real>, int);
constexpr FluxSweep kFluxSweeps[2][3] = {
    {fluxSweep<0, false>, fluxSweep<1, false>, fluxSweep<2, false>},
    {fluxSweep<0, true>, fluxSweep<1, true>, fluxSweep<2, true>}};

} // namespace

void conservedToPrimitive(Array4<const Real> u, Array4<Real> q, const Box& region,
                          const ReactionNetwork& net, const Eos& eos) {
    const int nspec = net.nspec();
    checkKernelSpeciesLimit(nspec);
    const PrimLayout Q(nspec);
    constexpr int URHO = StateLayout::URHO;
    constexpr int UMX = StateLayout::UMX;
    constexpr int UEDEN = StateLayout::UEDEN;
    constexpr int UFS = StateLayout::UFS;
    const ReactionNetwork* netp = &net;
    const Eos* eosp = &eos;
    ParallelFor(primKernel(nspec), region, [=](int i, int j, int k) {
        const Real rho = std::max(u(i, j, k, URHO), Real(1.0e-30));
        const Real rinv = 1.0 / rho;
        const Real vx = u(i, j, k, UMX) * rinv;
        const Real vy = u(i, j, k, UMX + 1) * rinv;
        const Real vz = u(i, j, k, UMX + 2) * rinv;
        Real X[32];
        for (int n = 0; n < nspec; ++n) {
            X[n] = std::clamp(u(i, j, k, UFS + n) * rinv, Real(0), Real(1));
        }
        const Real ke = 0.5 * (vx * vx + vy * vy + vz * vz);
        const Real e = std::max(u(i, j, k, UEDEN) * rinv - ke, Real(1.0e-30));
        EosState s;
        s.rho = rho;
        s.e = e;
        s.abar = netp->abar(X);
        s.ye = netp->ye(X);
        eosp->rhoE(s);
        q(i, j, k, PrimLayout::QRHO) = rho;
        q(i, j, k, PrimLayout::QU) = vx;
        q(i, j, k, PrimLayout::QV) = vy;
        q(i, j, k, PrimLayout::QW) = vz;
        q(i, j, k, PrimLayout::QP) = s.p;
        q(i, j, k, PrimLayout::QREINT) = rho * e;
        q(i, j, k, PrimLayout::QC) = s.cs;
        for (int n = 0; n < nspec; ++n) q(i, j, k, PrimLayout::QFS + n) = X[n];
    });
}

void molRhsRegion(const MultiFab& state, MultiFab& dudt, int fab, const Box& region,
                  const Geometry& geom, const ReactionNetwork& net, const Eos& eos,
                  std::array<MultiFab, 3>* fluxes, Reconstruction recon) {
    const int nspec = net.nspec();
    checkKernelSpeciesLimit(nspec);
    const PrimLayout Q(nspec);
    const StateLayout S(nspec);
    const int nstate = S.ncomp();
    const bool ppm = recon == Reconstruction::PPM;

    {
        const int fi = fab;
        const Box& vb = state.box(fi);
        const Box primbox = grow(region, ppm ? 3 : 2);

        FArrayBox qfab(primbox, Q.ncomp());
        conservedToPrimitive(state.const_array(fi), qfab.array(), primbox, net, eos);
        auto q = qfab.const_array();

        // Per-dimension face fluxes; stored in temporaries (from the pool
        // arena — the per-step scratch pattern of the allocator ablation).
        std::array<FArrayBox, 3> fxfab;
        for (int d = 0; d < 3; ++d) {
            const Box fb = surroundingFaces(region, d);
            fxfab[d].define(fb, nstate);
            kFluxSweeps[ppm ? 1 : 0][d](fb, q, fxfab[d].array(), nspec);
        }

        // Conservative divergence.
        auto du = dudt.array(fi);
        auto fx = fxfab[0].const_array();
        auto fy = fxfab[1].const_array();
        auto fz = fxfab[2].const_array();
        const Real dxi = 1.0 / geom.cellSize(0);
        const Real dyi = 1.0 / geom.cellSize(1);
        const Real dzi = 1.0 / geom.cellSize(2);
        ParallelFor(updateKernel(nspec), region, nstate,
                    [=](int i, int j, int k, int n) {
            du(i, j, k, n) = -(fx(i + 1, j, k, n) - fx(i, j, k, n)) * dxi -
                             (fy(i, j + 1, k, n) - fy(i, j, k, n)) * dyi -
                             (fz(i, j, k + 1, n) - fz(i, j, k, n)) * dzi;
        });
        // Injection site: a NaN escapes the flux computation into the
        // update of this fab's first valid zone. Plain host write, after
        // the launch, so Backend::Debug order replay is unaffected. Fired
        // only by the region holding the fab's first valid zone, so a
        // region-split sweep consumes exactly one fault-schedule slot per
        // fab — the same as the fused sweep.
        if (region.contains(vb.smallEnd()) &&
            fault::shouldFire(fault::Site::HydroNanFlux)) {
            const IntVect lo = vb.smallEnd();
            dudt.fab(fi).array()(lo.x, lo.y, lo.z, StateLayout::UEDEN) =
                std::numeric_limits<Real>::quiet_NaN();
        }

        if (fluxes != nullptr) {
            for (int d = 0; d < 3; ++d) {
                const Box fb = surroundingFaces(region, d);
                (*fluxes)[d].fab(fi).copyFrom(fxfab[d], fb, 0, fb, 0, nstate);
            }
        }
    }
}

void molRhs(const MultiFab& state, MultiFab& dudt, const Geometry& geom,
            const ReactionNetwork& net, const Eos& eos,
            std::array<MultiFab, 3>* fluxes, Reconstruction recon) {
    StreamScope streams;
    for (std::size_t f = 0; f < state.size(); ++f) {
        streams.useFab(f);
        const int fi = static_cast<int>(f);
        molRhsRegion(state, dudt, fi, state.box(fi), geom, net, eos, fluxes, recon);
    }
}

Real estimateDt(const MultiFab& state, const Geometry& geom,
                const ReactionNetwork& net, const Eos& eos, Real cfl) {
    const int nspec = net.nspec();
    // Identity of the min-reduction: +inf when no zone bounds the step
    // (empty state), so callers see "no CFL constraint" rather than a
    // large-but-finite magic number.
    Real dt = std::numeric_limits<Real>::infinity();
    for (std::size_t f = 0; f < state.size(); ++f) {
        const int fi = static_cast<int>(f);
        const Box& vb = state.box(fi);
        FArrayBox qfab(vb, PrimLayout(nspec).ncomp());
        conservedToPrimitive(state.const_array(fi), qfab.array(), vb, net, eos);
        auto q = qfab.const_array();
        for (int d = 0; d < 3; ++d) {
            const Real dx = geom.cellSize(d);
            const Real wmax = ParallelReduceMax(vb, [=](int i, int j, int k) {
                return std::abs(q(i, j, k, PrimLayout::QU + d)) +
                       q(i, j, k, PrimLayout::QC);
            });
            if (wmax > 0.0) dt = std::min(dt, dx / wmax);
        }
    }
    return cfl * dt;
}

void enforceConsistency(MultiFab& state, const ReactionNetwork& net, const Eos& eos,
                        Real small_dens) {
    const int nspec = net.nspec();
    checkKernelSpeciesLimit(nspec);
    const ReactionNetwork* netp = &net;
    const Eos* eosp = &eos;
    for (std::size_t f = 0; f < state.size(); ++f) {
        auto u = state.array(static_cast<int>(f));
        ParallelFor(KernelInfo{"enforce_consistency", 120.0, 100.0, 72, 1.0},
                    state.box(static_cast<int>(f)), [=](int i, int j, int k) {
                        Real rho = u(i, j, k, StateLayout::URHO);
                        if (rho < small_dens) {
                            rho = small_dens;
                            u(i, j, k, StateLayout::URHO) = rho;
                        }
                        // Renormalize species.
                        Real X[32];
                        Real xsum = 0.0;
                        for (int n = 0; n < nspec; ++n) {
                            X[n] = std::clamp(
                                u(i, j, k, StateLayout::UFS + n) / rho, Real(0),
                                Real(1));
                            xsum += X[n];
                        }
                        if (xsum <= 0.0) {
                            X[0] = 1.0;
                            xsum = 1.0;
                        }
                        for (int n = 0; n < nspec; ++n) {
                            X[n] /= xsum;
                            u(i, j, k, StateLayout::UFS + n) = rho * X[n];
                        }
                        // Temperature from the EOS.
                        const Real rinv = 1.0 / rho;
                        const Real vx = u(i, j, k, StateLayout::UMX) * rinv;
                        const Real vy = u(i, j, k, StateLayout::UMX + 1) * rinv;
                        const Real vz = u(i, j, k, StateLayout::UMX + 2) * rinv;
                        const Real ke = 0.5 * (vx * vx + vy * vy + vz * vz);
                        EosState s;
                        s.rho = rho;
                        s.e = std::max(
                            u(i, j, k, StateLayout::UEDEN) * rinv - ke,
                            Real(1.0e-30));
                        s.abar = netp->abar(X);
                        s.ye = netp->ye(X);
                        eosp->rhoE(s);
                        u(i, j, k, StateLayout::UTEMP) = s.T;
                    });
    }
}

} // namespace exa::castro
