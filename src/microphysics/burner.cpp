#include "microphysics/burner.hpp"

#include "core/fault.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <optional>
#include <sstream>

namespace exa {

Real BurnOde::cvAt(Real T, const Real* Y) const {
    std::vector<Real>& X = m_x;
    X.resize(m_net.nspec());
    m_net.yToX(Y, X.data());
    EosState s;
    s.rho = m_rho;
    s.T = std::max(T, Real(1.0e4));
    s.abar = m_net.abar(X.data());
    s.ye = m_net.ye(X.data());
    m_eos.rhoT(s);
    return s.cv;
}

void BurnOde::rhs(Real /*t*/, const std::vector<Real>& y, std::vector<Real>& f) {
    const int n = m_net.nspec();
    f.resize(n + 1);
    const Real T = std::max(y[n], Real(1.0e4));
    Real edot = 0.0;
    m_net.ydot(m_rho, T, y.data(), f.data(), edot);
    f[n] = edot / cvAt(T, y.data());
}

void BurnOde::jacobian(Real /*t*/, const std::vector<Real>& y, DenseMatrix& jac) {
    const int n = m_net.nspec();
    const Real T = std::max(y[n], Real(1.0e4));
    m_net.jacobian(m_rho, T, y.data(), cvAt(T, y.data()), jac);
}

std::string BurnGridStats::describeFailure() const {
    if (!first_failure.valid) return "";
    std::ostringstream os;
    os << "zone (" << first_failure.i << "," << first_failure.j << ","
       << first_failure.k << ") of fab " << first_failure.fab;
    if (first_failure.level >= 0) os << " level " << first_failure.level;
    os << ": rho=" << first_failure.rho << ", T=" << first_failure.T;
    return os.str();
}

std::int64_t BurnGridStats::addSkipped() {
    ++zones;
    ++total_steps;
    max_steps = std::max<std::int64_t>(max_steps, 1);
    return 1;
}

std::int64_t BurnGridStats::addBurned(std::int64_t steps) {
    const std::int64_t charged = std::max<std::int64_t>(steps, 1);
    ++zones;
    total_steps += charged;
    max_steps = std::max(max_steps, charged);
    return charged;
}

std::int64_t BurnGridStats::addFailed(std::int64_t steps,
                                      const BurnFailureSite& site) {
    ++zones;
    ++failures;
    if (!first_failure.valid) first_failure = site;
    total_steps += steps + 1;
    return steps + 1;
}

void burnZoneInto(BurnOde& ode, Real rho, Real T, const Real* X, Real dt,
                  const OdeOptions& opt, BurnWorkspace& ws, BurnResult& out) {
    const ReactionNetwork& net = ode.network();
    const int n = net.nspec();
    out.X.resize(n);
    out.e_nuc = 0.0;
    out.stats = OdeStats{};

    // Injection site: the stiff integrator gives up on this zone. The
    // pre-burn state is returned unchanged with success=false — exactly
    // the shape of a real BDF failure, so every caller's failure path
    // (stats, retry, degradation) is exercised deterministically.
    if (fault::shouldFire(fault::Site::BurnZoneFailure)) {
        out.T = T;
        for (int i = 0; i < n; ++i) out.X[i] = X[i];
        out.stats.steps = 1;
        out.success = false;
        return;
    }

    std::vector<Real>& y = ws.y;
    y.resize(n + 1);
    net.xToY(X, y.data());
    y[n] = T;

    ode.setRho(rho);
    BdfIntegrator bdf;
    out.stats = bdf.integrate(ode, y, 0.0, dt, opt, &ws.bdf);

    out.T = std::max(y[n], Real(1.0e4));
    for (int i = 0; i < n; ++i) y[i] = std::clamp(y[i], Real(0), Real(1.0));
    net.yToX(y.data(), out.X.data());
    // Renormalize mass fractions (conservation guard against integration
    // drift; the network itself conserves nucleon number exactly).
    Real xsum = 0.0;
    for (int i = 0; i < n; ++i) xsum += out.X[i];
    if (xsum > 0.0) {
        for (int i = 0; i < n; ++i) out.X[i] /= xsum;
    }

    // Released specific energy, exactly from the abundance change and the
    // species mass excesses (independent of the thermal path).
    ws.y0.resize(n);
    ws.y1.resize(n);
    net.xToY(X, ws.y0.data());
    net.xToY(out.X.data(), ws.y1.data());
    out.e_nuc = net.energyFromAbundanceChange(ws.y0.data(), ws.y1.data());
    out.success = out.stats.success;
}

BurnResult burnZone(const ReactionNetwork& net, const Eos& eos, Real rho, Real T,
                    const Real* X, Real dt, const OdeOptions& opt) {
    BurnOde ode(net, eos, rho);
    BurnWorkspace ws;
    BurnResult out;
    burnZoneInto(ode, rho, T, X, dt, opt, ws, out);
    return out;
}

namespace {

// One thread's burnZones state: the ODE, integrator workspace, result
// and mass-fraction buffer, reused across all zones the thread burns.
struct ThreadZoneBurner {
    ThreadZoneBurner(const ReactionNetwork& net, const Eos& eos)
        : ode(net, eos, 0.0), X(net.nspec()) {}

    void burn(const BurnZoneRef& zone, Real dt, const OdeOptions& opt,
              const BurnZoneLoader& load, const BurnZoneStorer& store,
              BurnZoneOutcome& out) {
        Real rho = 0.0, T = 0.0;
        if (!load(zone, rho, T, X.data())) return;
        burnZoneInto(ode, rho, T, X.data(), dt, opt, ws, result);
        out = {true, result.success, result.stats.steps, rho, T};
        if (result.success) store(zone, rho, result);
    }

    BurnOde ode;
    BurnWorkspace ws;
    BurnResult result;
    std::vector<Real> X;
};

} // namespace

void burnZones(const ReactionNetwork& net, const Eos& eos,
               const std::vector<BurnZoneRef>& zones, Real dt,
               const OdeOptions& opt, const BurnZoneLoader& load,
               const BurnZoneStorer& store, std::vector<BurnZoneOutcome>& out) {
    const auto n = static_cast<std::int64_t>(zones.size());
    out.assign(zones.size(), BurnZoneOutcome{});
#if defined(EXA_USE_OPENMP)
    // The burn fault site counts hits in call order, so an armed site
    // keeps the serial order below: injections then fire on the same
    // zones on every backend.
    if (ExecConfig::backend() == Backend::OpenMP && !fault::anyArmed()) {
        // An exception must not leave the parallel region (nor skip the
        // loop's barrier): the first one is kept and rethrown after it,
        // as the serial loop would have thrown it.
        std::exception_ptr error;
#pragma omp parallel
        {
            std::optional<ThreadZoneBurner> burner;
#pragma omp for schedule(dynamic, 1) nowait
            for (std::int64_t z = 0; z < n; ++z) {
                try {
                    if (!burner) burner.emplace(net, eos);
                    burner->burn(zones[z], dt, opt, load, store, out[z]);
                } catch (...) {
#pragma omp critical(exa_burn_zones_error)
                    if (!error) error = std::current_exception();
                }
            }
        }
        if (error) std::rethrow_exception(error);
        return;
    }
#endif
    ThreadZoneBurner burner(net, eos);
    for (std::int64_t z = 0; z < n; ++z) {
        burner.burn(zones[z], dt, opt, load, store, out[z]);
    }
}

Real edotOf(const ReactionNetwork& net, const Eos& eos, Real rho, Real T,
            const Real* X) {
    (void)eos;
    const int n = net.nspec();
    std::vector<Real> y(n), dy(n);
    net.xToY(X, y.data());
    Real edot = 0.0;
    net.ydot(rho, T, y.data(), dy.data(), edot);
    return edot;
}

Real burningTimescale(const ReactionNetwork& net, const Eos& eos, Real rho, Real T,
                      const Real* X) {
    const Real edot = edotOf(net, eos, rho, T, X);
    if (edot <= 0.0) return 1.0e99;
    EosState s;
    s.rho = rho;
    s.T = T;
    s.abar = net.abar(X);
    s.ye = net.ye(X);
    eos.rhoT(s);
    // Time to double the thermal energy content: cv*T / edot.
    return s.cv * T / edot;
}

KernelInfo burnKernelInfo(int nspec, double steps_per_zone, double imbalance) {
    const int nsys = nspec + 1;
    KernelInfo ki;
    ki.name = "nuclear_burn";
    // Cost of one *production* VODE step: a few Newton iterations, each
    // with a full Helmholtz-EOS + rate-screening RHS (~thousands of
    // flops), an O(nsys^2) triangular solve, and an amortized O(nsys^3)
    // LU refactorization. Calibrated so the 2-species reacting-bubble
    // burn balances the projection multigrid on one node (Section IV-B).
    ki.flops_per_zone = steps_per_zone * (2000.0 * nsys * nsys + 60000.0);
    ki.bytes_per_zone = steps_per_zone * (120.0 * nsys * nsys + 600.0);
    // Jacobian + LU + Nordsieck history live in registers/local memory:
    // ~1.5 registers per matrix entry plus overhead. aprox13 (nsys = 14)
    // demands ~334 > 255 and spills, ignition_simple (nsys = 3) fits.
    ki.regs_per_thread = 40 + static_cast<int>(1.5 * nsys * nsys);
    ki.work_imbalance = std::max(1.0, imbalance);
    return ki;
}

} // namespace exa
