#pragma once

#include "castro/state.hpp"
#include "core/array4.hpp"
#include "mesh/multifab.hpp"
#include "microphysics/eos.hpp"
#include "microphysics/network.hpp"

#include <algorithm>
#include <cmath>

namespace exa::castro {

// The unsplit finite-volume hydrodynamics core: piecewise-linear (MC
// limited) reconstruction + HLLC Riemann solver, evaluated zone-by-zone
// in the per-thread style the paper's GPU port introduced — the slope at
// each face is recomputed redundantly by each zone instead of being
// staged through tile-local scratch arrays ("Converting this to a fully
// thread parallel format required redundantly calculating two slopes for
// each zone ... but exposed massive parallelism", Section III).

// Derive primitive variables q over `region` from conserved state u
// (which must be valid there), using the EOS for p and cs.
void conservedToPrimitive(Array4<const Real> u, Array4<Real> q, const Box& region,
                          const ReactionNetwork& net, const Eos& eos);

// Reconstruction scheme: piecewise linear (MC limiter) or the piecewise
// parabolic method. Production Castro uses PPM; PLM is the cheaper
// default here. Both are written in the per-zone redundant-recompute
// style.
enum class Reconstruction { PLM, PPM };

// The per-face helpers below are defined here, force-inlined: they run
// once per face, component and zone inside the flux kernel, and out of
// line they were most of a Castro stage's host time.

// MC-limited slope of primitive component n along dim at (i,j,k).
EXA_FORCE_INLINE Real mcSlope(Array4<const Real> q, int i, int j, int k, int n,
                              int dim) {
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

// Limited PPM parabola edges (qm at the low face, qp at the high face) of
// zone (i,j,k) for component n along dim (Colella & Woodward 1984
// monotonization). Needs q valid over +-2 zones.
EXA_FORCE_INLINE void ppmEdges(Array4<const Real> q, int i, int j, int k, int n,
                               int dim, Real& qm, Real& qp) {
    const IntVect e = IntVect::basis(dim);
    auto at = [&](int s) { return q(i + s * e.x, j + s * e.y, k + s * e.z, n); };
    // Fourth-order interface values at the low (i-1/2) and high (i+1/2)
    // faces, then CW84 monotonization of the parabola.
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

// HLLC flux for the Euler system + passive species, from left/right
// primitive states (PrimLayout order, including QREINT and QC, so no
// gamma assumption enters — the solver works for any convex EOS). flux
// has StateLayout(nspec).ncomp() entries (the UTEMP slot is set to zero).
EXA_FORCE_INLINE void hllcFlux(const Real* ql, const Real* qr, int nspec, int dim,
                               Real* flux) {
    const StateLayout S(nspec);
    const int nstate = S.ncomp();
    const int iu = PrimLayout::QU + dim; // normal velocity slot

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
    auto physFlux = [&](const Real* U, Real un, Real p, Real* F) {
        // Fixed slots under a constant bound, so the compiler sees the
        // slots updated below written; then the species.
        for (int n = 0; n < StateLayout::UFS; ++n) F[n] = un * U[n];
        for (int n = StateLayout::UFS; n < nstate; ++n) F[n] = un * U[n];
        F[StateLayout::UMX + dim] += p;
        F[StateLayout::UEDEN] += p * un;
        F[StateLayout::UTEMP] = 0.0;
    };

    // Only the first nstate entries are written and read.
    Real UL[40], UR[40], FL[40], FR[40];
    Real unl, pl, cl, unr, pr, cr;
    buildU(ql, UL, unl, pl, cl);
    buildU(qr, UR, unr, pr, cr);
    physFlux(UL, unl, pl, FL);
    physFlux(UR, unr, pr, FR);

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

// Ghost-zone stencil width of the reconstruction: how far molRhs reads
// past a region it updates (PLM: 1 face + 1 slope zone; PPM: +-2 around
// each face). This is the width the interior/boundary partition uses —
// zones deeper than this inside the valid box never see ghost data.
inline int stencilWidth(Reconstruction recon) {
    return recon == Reconstruction::PPM ? 3 : 2;
}

// Compute dU/dt (the method-of-lines RHS) over each fab's valid box from
// state ghosts already filled. Returns fluxes per dimension if `fluxes`
// is non-null (face-indexed MultiFabs, for refluxing/conservation checks).
void molRhs(const MultiFab& state, MultiFab& dudt, const Geometry& geom,
            const ReactionNetwork& net, const Eos& eos,
            std::array<MultiFab, 3>* fluxes = nullptr,
            Reconstruction recon = Reconstruction::PLM);

// Region-restricted RHS: the same kernels, evaluated only over `region`
// (a subset of fab `fab`'s valid box), reading state over
// grow(region, stencilWidth(recon)). Sweeping any disjoint cover of the
// valid box — e.g. a CopierCache interior partition's interior box while
// a halo exchange is in flight, then the boundary shell after finish() —
// reproduces the fused molRhs bit-for-bit, because every zone's update is
// a pure function of the input state.
void molRhsRegion(const MultiFab& state, MultiFab& dudt, int fab, const Box& region,
                  const Geometry& geom, const ReactionNetwork& net, const Eos& eos,
                  std::array<MultiFab, 3>* fluxes = nullptr,
                  Reconstruction recon = Reconstruction::PLM);

// CFL timestep: min over zones of dx_d / (|u_d| + cs).
Real estimateDt(const MultiFab& state, const Geometry& geom,
                const ReactionNetwork& net, const Eos& eos, Real cfl);

// Reset derived quantities after an update: clamp small/negative density,
// renormalize species, recompute temperature from the EOS.
void enforceConsistency(MultiFab& state, const ReactionNetwork& net, const Eos& eos,
                        Real small_dens = 1.0e-12);

} // namespace exa::castro
