#include "maestro/maestro.hpp"

#include "core/executor.hpp"
#include "core/parallel_for.hpp"
#include "core/timer.hpp"
#include "mesh/copier_cache.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace exa::maestro {

namespace {

// MC-limited slope (local copy of the hydro limiter, on maestro state).
EXA_FORCE_INLINE Real mcSlope(Array4<const Real> q, int i, int j, int k, int n,
                              int d) {
    const IntVect e = IntVect::basis(d);
    const Real dl = q(i, j, k, n) - q(i - e.x, j - e.y, k - e.z, n);
    const Real dr = q(i + e.x, j + e.y, k + e.z, n) - q(i, j, k, n);
    if (dl * dr <= 0.0) return 0.0;
    const Real dc = 0.5 * (dl + dr);
    const Real lim = 2.0 * std::min(std::abs(dl), std::abs(dr));
    return std::copysign(std::min(std::abs(dc), lim), dc);
}

} // namespace

Maestro::Maestro(const Geometry& geom, const BoxArray& ba,
                 const DistributionMapping& dm, const ReactionNetwork& net,
                 const Eos& eos, const BaseState& base, const MaestroOptions& opt)
    : m_geom(geom),
      m_net(net),
      m_eos(eos),
      m_base(base),
      m_opt(opt),
      m_layout(net.nspec()),
      m_state(ba, dm, m_layout.ncomp(), opt.ngrow),
      m_guard(opt.guard),
      m_rebalancer(opt.rebalance) {
    m_state.setVal(0.0);
    m_mg = std::make_unique<Multigrid>(geom, MgBC::Neumann, opt.mg);
    m_phi.define(ba, dm, 1, 1);
    m_phi.setVal(0.0);
    m_divu.define(ba, dm, 1, 0);
    m_rebalancer.noteRegrid(0, ba.size());
}

void Maestro::initialize(const InitFn& f) {
    const int nspec = m_net.nspec();
    std::vector<Real> X(nspec);
    for (std::size_t b = 0; b < m_state.size(); ++b) {
        auto q = m_state.array(static_cast<int>(b));
        const Box& vb = m_state.box(static_cast<int>(b));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    Real T = m_base.T0(k);
                    X.assign(m_base.X().begin(), m_base.X().end());
                    f(m_geom.cellCenter(0, i), m_geom.cellCenter(1, j),
                      m_geom.cellCenter(2, k), T, X);
                    q(i, j, k, MaestroLayout::QT) = T;
                    for (int n = 0; n < nspec; ++n) {
                        q(i, j, k, MaestroLayout::QFS + n) = X[n];
                    }
                }
    }
}

Real Maestro::rhoOf(int kzone, Real T, const Real* X) const {
    const Real abar = m_net.abar(X);
    const Real ye = m_net.ye(X);
    return rhoFromPT(m_eos, m_base.p0(kzone), T, abar, ye, m_base.rho0(kzone));
}

void Maestro::applyPhysBC(MultiFab& s) {
    DomainBC bc;
    bc.set(0, 0, m_geom.isPeriodic(0) ? PhysBC::Periodic : PhysBC::Outflow);
    bc.set(0, 1, m_geom.isPeriodic(0) ? PhysBC::Periodic : PhysBC::Outflow);
    bc.set(1, 0, m_geom.isPeriodic(1) ? PhysBC::Periodic : PhysBC::Outflow);
    bc.set(1, 1, m_geom.isPeriodic(1) ? PhysBC::Periodic : PhysBC::Outflow);
    bc.set(2, 0, PhysBC::Reflect); // slip walls top and bottom
    bc.set(2, 1, PhysBC::Reflect);
    std::array<std::vector<int>, 3> odd;
    odd[2] = {MaestroLayout::QW};
    fillPhysicalBoundary(s, m_geom, bc, odd);
}

void Maestro::fillGhosts(MultiFab& s) {
    s.FillBoundary(0, s.nComp(), m_geom.periodicity());
    applyPhysBC(s);
}

Real Maestro::estimateDt() const {
    // Advective CFL (no sound speed — the low Mach advantage) plus a
    // buoyancy limit so the first steps (U = 0) are finite.
    Real umax = 0.0;
    Real amax = 1.0e-30;
    const int nspec = m_net.nspec();
    std::vector<Real> X(nspec);
    for (std::size_t b = 0; b < m_state.size(); ++b) {
        auto q = m_state.const_array(static_cast<int>(b));
        const Box& vb = m_state.box(static_cast<int>(b));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    for (int d = 0; d < 3; ++d) {
                        umax = std::max(umax, std::abs(q(i, j, k, d)));
                    }
                    for (int n = 0; n < nspec; ++n) {
                        X[n] = q(i, j, k, MaestroLayout::QFS + n);
                    }
                    const Real rho =
                        rhoOf(k, q(i, j, k, MaestroLayout::QT), X.data());
                    const Real buoy = std::abs(m_base.gravity()) *
                                      std::abs(rho - m_base.rho0(k)) /
                                      m_base.rho0(k);
                    amax = std::max(amax, buoy);
                }
    }
    const Real dx = m_geom.cellSize(0);
    Real dt = 1.0e30;
    if (umax > 0.0) dt = std::min(dt, m_opt.cfl * dx / umax);
    dt = std::min(dt, std::sqrt(2.0 * m_opt.cfl * dx / amax));
    return dt;
}

void Maestro::advect(Real dt) {
    TimerRegion timer("maestro::advect");
    const int nc = m_layout.ncomp();
    MultiFab snew(m_state.boxArray(), m_state.distributionMap(), nc, m_state.nGrow());

    const Real dxi[3] = {1.0 / m_geom.cellSize(0), 1.0 / m_geom.cellSize(1),
                         1.0 / m_geom.cellSize(2)};
    // One upwind sweep over `region` of fab b (a pure function of m_state,
    // so any disjoint region cover of the valid box matches the fused
    // sweep bit-for-bit). Reads q at +-2 zones: face upwinding one zone
    // out, MC slopes one further.
    auto sweep = [&](std::size_t b, const Box& region) {
        auto q = m_state.const_array(static_cast<int>(b));
        auto qn = snew.array(static_cast<int>(b));
        ParallelFor(KernelInfo{"maestro_advect", 300.0, 200.0, 96, 1.0}, region, nc,
                    [=](int i, int j, int k, int n) {
                        Real dq = 0.0;
                        for (int d = 0; d < 3; ++d) {
                            const IntVect e = IntVect::basis(d);
                            // Face velocities (average of adjacent zones).
                            const Real ulo = 0.5 * (q(i - e.x, j - e.y, k - e.z, d) +
                                                    q(i, j, k, d));
                            const Real uhi = 0.5 * (q(i, j, k, d) +
                                                    q(i + e.x, j + e.y, k + e.z, d));
                            // Upwind MC-reconstructed face states.
                            auto face = [&](int ii, int jj, int kk, Real uf) {
                                // face between (ii,jj,kk)-e and (ii,jj,kk)
                                if (uf >= 0.0) {
                                    return q(ii - e.x, jj - e.y, kk - e.z, n) +
                                           0.5 * mcSlope(q, ii - e.x, jj - e.y,
                                                         kk - e.z, n, d);
                                }
                                return q(ii, jj, kk, n) -
                                       0.5 * mcSlope(q, ii, jj, kk, n, d);
                            };
                            const Real qlo = face(i, j, k, ulo);
                            const Real qhi =
                                face(i + e.x, j + e.y, k + e.z, uhi);
                            // Advective (convective) form: U . grad q,
                            // using flux difference minus q div(U) so a
                            // constant field is exactly preserved.
                            dq += (uhi * qhi - ulo * qlo -
                                   q(i, j, k, n) * (uhi - ulo)) *
                                  dxi[d];
                        }
                        qn(i, j, k, n) = q(i, j, k, n) - dt * dq;
                    });
    };

    if (comm::asyncHalo()) {
        // Split phase: pack the exchange, copy valid zones and sweep every
        // interior while it is in flight, then deliver ghosts + physical
        // BCs and sweep the boundary shells.
        comm::HaloHandle halo =
            m_state.FillBoundary_nowait(0, nc, m_geom.periodicity());
        MultiFab::Copy(snew, m_state, 0, 0, nc, 0);
        const auto part =
            CopierCache::instance().interiorPartition(m_state.boxArray(), 2);
        {
            StreamScope streams;
            for (std::size_t b = 0; b < m_state.size(); ++b) {
                if (!part->fabs[b].interior.ok()) continue;
                streams.useFab(b);
                sweep(b, part->fabs[b].interior);
            }
        }
        halo.finish();
        applyPhysBC(m_state);
        {
            StreamScope streams;
            for (std::size_t b = 0; b < m_state.size(); ++b) {
                streams.useFab(b);
                for (const Box& sb : part->fabs[b].shell) sweep(b, sb);
            }
        }
    } else {
        fillGhosts(m_state);
        MultiFab::Copy(snew, m_state, 0, 0, nc, 0);
        StreamScope streams;
        for (std::size_t b = 0; b < m_state.size(); ++b) {
            streams.useFab(b);
            sweep(b, m_state.box(static_cast<int>(b)));
        }
    }
    m_state = std::move(snew);
}

void Maestro::buoyancy(Real dt) {
    TimerRegion timer("maestro::buoyancy");
    const int nspec = m_net.nspec();
    const Real g = m_base.gravity();
    std::vector<Real> X(nspec);
    for (std::size_t b = 0; b < m_state.size(); ++b) {
        auto q = m_state.array(static_cast<int>(b));
        const Box& vb = m_state.box(static_cast<int>(b));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    for (int n = 0; n < nspec; ++n) {
                        X[n] = q(i, j, k, MaestroLayout::QFS + n);
                    }
                    const Real rho =
                        rhoOf(k, q(i, j, k, MaestroLayout::QT), X.data());
                    q(i, j, k, MaestroLayout::QW) +=
                        dt * g * (rho - m_base.rho0(k)) / m_base.rho0(k);
                }
    }
}

BurnGridStats Maestro::react(Real dt) {
    TimerRegion timer("maestro::react");
    const int nspec = m_net.nspec();
    std::vector<Array4<Real>> q(m_state.size());
    for (std::size_t b = 0; b < m_state.size(); ++b) {
        q[b] = m_state.array(static_cast<int>(b));
    }
    const Real T_min = m_opt.react.T_min;
    // Density is not a state variable: each zone derives it from the EOS
    // at the base-state pressure of its height.
    auto load = [&](const BurnZoneRef& z, Real& rho, Real& T, Real* X) {
        const Array4<Real>& a = q[z.fab];
        T = a(z.i, z.j, z.k, MaestroLayout::QT);
        if (T < T_min) return false;
        for (int n = 0; n < nspec; ++n) {
            X[n] = std::clamp(a(z.i, z.j, z.k, MaestroLayout::QFS + n), Real(0),
                              Real(1));
        }
        rho = rhoOf(z.k, T, X);
        return true;
    };
    auto store = [&](const BurnZoneRef& z, Real /*rho*/, const BurnResult& r) {
        const Array4<Real>& a = q[z.fab];
        a(z.i, z.j, z.k, MaestroLayout::QT) = r.T;
        for (int n = 0; n < nspec; ++n) {
            a(z.i, z.j, z.k, MaestroLayout::QFS + n) = r.X[n];
        }
    };
    CostMonitor* cost =
        m_opt.rebalance.enabled ? &m_rebalancer.monitor() : nullptr;
    return castro::reactZones(m_state, m_net, m_eos, dt, m_opt.react, load,
                              store, cost, 0);
}

void Maestro::project() {
    TimerRegion timer("maestro::projection");
    fillGhosts(m_state);
    const Real dxi[3] = {1.0 / m_geom.cellSize(0), 1.0 / m_geom.cellSize(1),
                         1.0 / m_geom.cellSize(2)};
    // divu = div U (central differences).
    for (std::size_t b = 0; b < m_state.size(); ++b) {
        auto q = m_state.const_array(static_cast<int>(b));
        auto d = m_divu.array(static_cast<int>(b));
        ParallelFor(KernelInfo{"maestro_divu", 20.0, 80.0, 40, 1.0},
                    m_divu.box(static_cast<int>(b)), [=](int i, int j, int k) {
                        d(i, j, k) =
                            0.5 * (q(i + 1, j, k, 0) - q(i - 1, j, k, 0)) * dxi[0] +
                            0.5 * (q(i, j + 1, k, 1) - q(i, j - 1, k, 1)) * dxi[1] +
                            0.5 * (q(i, j, k + 1, 2) - q(i, j, k - 1, 2)) * dxi[2];
                    });
    }
    auto res = m_mg->solve(m_phi, m_divu);
    m_last_vcycles = res.vcycles;

    // U -= grad phi (same central stencil: an approximate projection).
    m_phi.FillBoundary(0, m_phi.nComp(), m_geom.periodicity());
    // Neumann ghosts at the z walls.
    for (std::size_t b = 0; b < m_phi.size(); ++b) {
        auto p = m_phi.array(static_cast<int>(b));
        const Box& vb = m_phi.box(static_cast<int>(b));
        const Box& dom = m_geom.domain();
        if (vb.smallEnd(2) == dom.smallEnd(2)) {
            const int k0 = dom.smallEnd(2);
            ParallelFor(Box({vb.smallEnd(0) - 1, vb.smallEnd(1) - 1, k0 - 1},
                            {vb.bigEnd(0) + 1, vb.bigEnd(1) + 1, k0 - 1}),
                        [=](int i, int j, int k) {
                            if (p.contains(i, j, k)) p(i, j, k) = p(i, j, k0);
                        });
        }
        if (vb.bigEnd(2) == dom.bigEnd(2)) {
            const int k1 = dom.bigEnd(2);
            ParallelFor(Box({vb.smallEnd(0) - 1, vb.smallEnd(1) - 1, k1 + 1},
                            {vb.bigEnd(0) + 1, vb.bigEnd(1) + 1, k1 + 1}),
                        [=](int i, int j, int k) {
                            if (p.contains(i, j, k)) p(i, j, k) = p(i, j, k1);
                        });
        }
    }
    for (std::size_t b = 0; b < m_state.size(); ++b) {
        auto q = m_state.array(static_cast<int>(b));
        auto p = m_phi.const_array(static_cast<int>(b));
        ParallelFor(KernelInfo{"maestro_proj_correct", 30.0, 100.0, 48, 1.0},
                    m_state.box(static_cast<int>(b)), [=](int i, int j, int k) {
                        q(i, j, k, 0) -=
                            0.5 * (p(i + 1, j, k) - p(i - 1, j, k)) * dxi[0];
                        q(i, j, k, 1) -=
                            0.5 * (p(i, j + 1, k) - p(i, j - 1, k)) * dxi[1];
                        q(i, j, k, 2) -=
                            0.5 * (p(i, j, k + 1) - p(i, j, k - 1)) * dxi[2];
                    });
    }
}

Real Maestro::maxAbsDivergence() {
    fillGhosts(m_state);
    const Real dxi[3] = {1.0 / m_geom.cellSize(0), 1.0 / m_geom.cellSize(1),
                         1.0 / m_geom.cellSize(2)};
    Real mx = 0.0;
    for (std::size_t b = 0; b < m_state.size(); ++b) {
        auto q = m_state.const_array(static_cast<int>(b));
        mx = std::max(
            mx, ParallelReduceMax(m_state.box(static_cast<int>(b)),
                                  [=](int i, int j, int k) {
                                      return std::abs(
                                          0.5 * (q(i + 1, j, k, 0) - q(i - 1, j, k, 0)) *
                                              dxi[0] +
                                          0.5 * (q(i, j + 1, k, 1) - q(i, j - 1, k, 1)) *
                                              dxi[1] +
                                          0.5 * (q(i, j, k + 1, 2) - q(i, j, k - 1, 2)) *
                                              dxi[2]);
                                  }));
    }
    return mx;
}

BurnGridStats Maestro::advanceOnce(Real dt) {
    {
        WallTimer advect_timer;
        advect(dt);
        buoyancy(dt);
        if (m_opt.rebalance.enabled) {
            // Zones-proportional attribution of the advection sweep (its
            // loops are MultiFab-wide).
            const BoxArray& ba = m_state.boxArray();
            const double total = static_cast<double>(ba.numPts());
            const double sec = advect_timer.seconds();
            auto& mon = m_rebalancer.monitor();
            for (std::size_t f = 0; f < ba.size() && total > 0; ++f) {
                mon.addTime(0, static_cast<int>(f),
                            sec * static_cast<double>(ba[f].numPts()) / total);
            }
        }
    }
    BurnGridStats burn;
    if (m_opt.do_react) burn = react(dt);
    if (m_opt.proj_interval > 0 && (m_nstep + 1) % m_opt.proj_interval == 0) {
        project();
    }
    return burn;
}

void Maestro::maybeRebalance() {
    if (!m_opt.rebalance.enabled) return;
    auto& mon = m_rebalancer.monitor();
    const BoxArray& ba = m_state.boxArray();
    for (std::size_t f = 0; f < ba.size(); ++f) {
        mon.addWork(0, static_cast<int>(f),
                    m_opt.rebalance.hydro_zone_work *
                        static_cast<double>(ba[f].numPts()));
    }
    m_rebalancer.step(0, m_nstep, {&m_state, &m_phi, &m_divu});
}

ValidationReport Maestro::validate(const BurnGridStats& burn) const {
    const StepGuardOptions& opt = m_opt.guard;
    ValidationReport rep;
    if (opt.check_finite) checkFinite(m_state, rep, "");
    // Low Mach state: density is derived, so positivity means T > 0.
    checkAbove(m_state, MaestroLayout::QT, 0.0, "negative-temperature", rep, "");
    // Species fractions are stored directly (not rho-weighted).
    const int nspec = m_net.nspec();
    for (std::size_t f = 0; f < m_state.size(); ++f) {
        auto q = m_state.const_array(static_cast<int>(f));
        const Box& vb = m_state.box(static_cast<int>(f));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k) {
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j) {
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    Real xsum = 0.0;
                    for (int n = 0; n < nspec; ++n) {
                        xsum += q(i, j, k, MaestroLayout::QFS + n);
                    }
                    if (!(std::abs(xsum - 1.0) <= opt.species_sum_rtol)) {
                        std::ostringstream os;
                        os << "fab " << f << ", zone (" << i << "," << j << ","
                           << k << "), sum X = " << xsum;
                        rep.add("species-sum-drift", os.str());
                        goto next_fab;
                    }
                }
            }
        }
    next_fab:;
    }
    if (burn.failures > 0) {
        const double frac =
            burn.zones > 0 ? static_cast<double>(burn.failures) / burn.zones : 1.0;
        if (frac > opt.burn_failure_tol) {
            std::ostringstream os;
            os << burn.failures << " of " << burn.zones << " zones failed to burn";
            const std::string where = burn.describeFailure();
            if (!where.empty()) os << "; first at " << where;
            rep.add("burn-failures", os.str());
        }
    }
    return rep;
}

BurnGridStats Maestro::step(Real dt) {
    if (!m_opt.guard.enabled) {
        BurnGridStats burn = advanceOnce(dt);
        m_time += dt;
        ++m_nstep;
        maybeRebalance();
        return burn;
    }

    BurnGridStats burn;
    m_guard.advance(
        dt,
        [&](StateSnapshot& snap) { snap.capture(m_state); },
        [&](const StateSnapshot& snap) { snap.restoreTo(0, m_state); },
        [&](Real sub_dt, int nsub) {
            burn = BurnGridStats{};
            for (int s = 0; s < nsub; ++s) burn.merge(advanceOnce(sub_dt));
        },
        [&] { return validate(burn); },
        [&](const StateSnapshot& snap, bool advance_threw) {
            if (advance_threw) return; // engine already restored the snapshot
            // Clamp-and-warn: rewind only the zones that went bad.
            auto bad = [&](Array4<const Real> q, int i, int j, int k) {
                for (int n = 0; n < m_layout.ncomp(); ++n) {
                    if (!std::isfinite(q(i, j, k, n))) return true;
                }
                return !(q(i, j, k, MaestroLayout::QT) > 0.0);
            };
            const MultiFab& s0 = snap.mf(0);
            for (std::size_t f = 0; f < m_state.size(); ++f) {
                auto q = m_state.array(static_cast<int>(f));
                auto s = s0.const_array(static_cast<int>(f));
                const Box& vb = m_state.box(static_cast<int>(f));
                for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
                    for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                        for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                            if (bad(q, i, j, k)) {
                                for (int n = 0; n < m_layout.ncomp(); ++n) {
                                    q(i, j, k, n) = s(i, j, k, n);
                                }
                            }
                        }
            }
        });

    m_time += dt;
    ++m_nstep;
    // Rebalance only after the step is accepted (never mid-retry).
    maybeRebalance();
    return burn;
}

Real Maestro::bubbleHeight() const {
    Real wsum = 0.0, zsum = 0.0;
    for (std::size_t b = 0; b < m_state.size(); ++b) {
        auto q = m_state.const_array(static_cast<int>(b));
        const Box& vb = m_state.box(static_cast<int>(b));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    const Real dT = q(i, j, k, MaestroLayout::QT) - m_base.T0(k);
                    if (dT > 0.0) {
                        wsum += dT;
                        zsum += dT * m_geom.cellCenter(2, k);
                    }
                }
    }
    return wsum > 0 ? zsum / wsum : 0.0;
}

std::unique_ptr<Maestro> BubbleParams::build(const ReactionNetwork& net) const {
    const BubbleParams& p = *this;
    Box dom({0, 0, 0}, {p.ncell - 1, p.ncell - 1, p.ncell - 1});
    Geometry geom(dom, {0, 0, 0}, {p.domain_width, p.domain_width, p.domain_width},
                  IntVect{1, 1, 0});
    BoxArray ba(dom);
    ba.maxSize(p.max_grid_size);
    DistributionMapping dm(ba, p.nranks);

    Eos eos{HelmLiteEos{}};
    std::vector<Real> X(net.nspec(), 0.0);
    X[0] = 1.0; // pure fuel (c12 in ignition_simple)

    BaseState base(eos, net, p.rho_base, p.T_base, X, p.ncell, 0.0,
                   p.domain_width / p.ncell, p.gravity);

    MaestroOptions opt;
    opt.do_react = p.do_react;
    opt.react.T_min = 1.0e8;
    opt.guard = p.guard;
    opt.rebalance = p.rebalance;

    auto m = std::make_unique<Maestro>(geom, ba, dm, net, eos, base, opt);
    const Real r_bub = p.bubble_radius_frac * p.domain_width;
    const Real z_bub = p.bubble_height_frac * p.domain_width;
    const Real xc = 0.5 * p.domain_width;
    m->initialize([=](Real x, Real y, Real z, Real& T, std::vector<Real>& Xz) {
        const Real r = std::sqrt((x - xc) * (x - xc) + (y - xc) * (y - xc) +
                                 (z - z_bub) * (z - z_bub));
        if (r < 2.0 * r_bub) {
            T += (p.T_bubble - p.T_base) * std::exp(-(r * r) / (r_bub * r_bub));
        }
        (void)Xz;
    });
    return m;
}

} // namespace exa::maestro
