#pragma once

#include "core/executor.hpp"
#include "microphysics/bdf.hpp"
#include "microphysics/eos.hpp"
#include "microphysics/network.hpp"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace exa {

// The coupled burn ODE for one zone at constant density:
//   dY_i/dt = network RHS,   dT/dt = edot / cv(rho, T, X)
// with cv re-evaluated from the EOS at every RHS call (self-heating).
// This is the system VODE integrates in the production codes.
class BurnOde final : public OdeSystem {
public:
    BurnOde(const ReactionNetwork& net, const Eos& eos, Real rho)
        : m_net(net), m_eos(eos), m_rho(rho), m_x(net.nspec()) {}

    int size() const override { return m_net.nspec() + 1; }
    void rhs(Real t, const std::vector<Real>& y, std::vector<Real>& f) override;
    void jacobian(Real t, const std::vector<Real>& y, DenseMatrix& jac) override;
    std::vector<char> sparsity() const override { return m_net.sparsity(); }

    Real cvAt(Real T, const Real* Y) const;

    // Re-point the ODE at another zone's density, so one BurnOde serves a
    // whole gather of zones (network and EOS are per-grid, rho is per-zone).
    void setRho(Real rho) { m_rho = rho; }
    const ReactionNetwork& network() const { return m_net; }

private:
    const ReactionNetwork& m_net;
    const Eos& m_eos;
    Real m_rho;
    // cvAt mass-fraction scratch; a member so the per-RHS-call EOS
    // evaluation stops allocating (cvAt runs at every Newton iteration of
    // every zone).
    mutable std::vector<Real> m_x;
};

struct BurnResult {
    Real T = 0.0;              // final temperature
    std::vector<Real> X;       // final mass fractions
    Real e_nuc = 0.0;          // specific nuclear energy released [erg/g]
    OdeStats stats;
    bool success = false;
};

// Integrate the burn for one zone over dt. X has net.nspec() entries.
BurnResult burnZone(const ReactionNetwork& net, const Eos& eos, Real rho, Real T,
                    const Real* X, Real dt, const OdeOptions& opt = OdeOptions{});

// Reusable scratch for repeated burns: the ODE state vectors plus the BDF
// integrator workspace (Jacobian, LU, Newton scratch). Hoisting this out
// of the zone loops removes every per-zone heap allocation from the burn
// path — the serial-path churn fix, and the storage substrate of the
// batched engine. Bound to one network shape, like BdfWorkspace.
struct BurnWorkspace {
    std::vector<Real> y, y0, y1;
    BdfWorkspace bdf;
};

// Workspace-reusing burn: identical arithmetic to burnZone (bit-identical
// results), with all scratch drawn from `ode`/`ws` and the result written
// into `out` (whose X buffer is reused). `ode` carries the network and
// EOS; its density is re-pointed at `rho`.
void burnZoneInto(BurnOde& ode, Real rho, Real T, const Real* X, Real dt,
                  const OdeOptions& opt, BurnWorkspace& ws, BurnResult& out);

// Characteristic nuclear timescales of a state, used by the WD-collision
// diagnostics (the paper's burning-vs-heat-transfer stability criterion
// after Kushnir et al. / Katz & Zingale).
Real edotOf(const ReactionNetwork& net, const Eos& eos, Real rho, Real T,
            const Real* X);
Real burningTimescale(const ReactionNetwork& net, const Eos& eos, Real rho, Real T,
                      const Real* X);

// Where (and under what conditions) the integrator first gave up, so
// retry diagnostics and logs can say *where* a burn failed, not just how
// often. Carried inside BurnGridStats and filled by the grid drivers.
struct BurnFailureSite {
    bool valid = false;
    int i = 0, j = 0, k = 0; // zone index in its level's index space
    int fab = -1;            // fab within the MultiFab
    int level = -1;          // AMR level (-1 for single-level drivers)
    Real rho = 0.0;          // pre-burn thermodynamic state of the zone
    Real T = 0.0;
};

// Per-grid burn statistics: the cost nonuniformity across zones that
// motivates the paper's CPU/GPU hybrid strategy (Section VI).
struct BurnGridStats {
    std::int64_t zones = 0;
    std::int64_t total_steps = 0;
    std::int64_t max_steps = 0;
    std::int64_t failures = 0;
    // First failing zone seen (first-wins across merges, so it names the
    // earliest failure of the step, coarsest level first).
    BurnFailureSite first_failure;
    double meanSteps() const {
        return zones > 0 ? static_cast<double>(total_steps) / zones : 0.0;
    }
    // Warp-level work imbalance proxy: the hottest zone stalls its warp.
    double imbalance() const {
        return total_steps > 0 ? static_cast<double>(max_steps) / meanSteps() : 1.0;
    }
    // Serial-order accounting of one zone, shared by every grid driver so
    // the counters mean the same thing everywhere; each returns the steps
    // charged to the zone. A skipped (inert) zone costs 1 step; a burned
    // zone max(steps, 1), which may raise max_steps; a failed zone
    // steps+1, which leaves max_steps alone and becomes first_failure if
    // none was recorded yet.
    std::int64_t addSkipped();
    std::int64_t addBurned(std::int64_t steps);
    std::int64_t addFailed(std::int64_t steps, const BurnFailureSite& site);
    void merge(const BurnGridStats& o) {
        zones += o.zones;
        total_steps += o.total_steps;
        max_steps = max_steps > o.max_steps ? max_steps : o.max_steps;
        failures += o.failures;
        if (!first_failure.valid) first_failure = o.first_failure;
    }
    // "zone (i,j,k) of fab F [level L]: rho=..., T=..." (empty when none).
    std::string describeFailure() const;
};

// --- Zone-parallel host burn loop ------------------------------------------

// One zone of a MultiFab-wide burn list: its fab and its cell.
struct BurnZoneRef {
    int fab = 0;
    int i = 0, j = 0, k = 0;
};

// What burnZones did with one listed zone.
struct BurnZoneOutcome {
    bool burned = false;     // false: the loader skipped the zone
    bool success = false;    // the integrator succeeded (burned zones)
    std::int64_t steps = 0;  // integrator steps (burned zones)
    Real rho = 0.0, T = 0.0; // pre-burn state as loaded (burned zones)
};

// Reads one zone's pre-burn state into rho, T and X[0..nspec) and returns
// true, or returns false to skip the zone (too cold or dilute to burn).
using BurnZoneLoader =
    std::function<bool(const BurnZoneRef&, Real& rho, Real& T, Real* X)>;
// Writes one successful burn back; never called for a failed zone, which
// keeps its pre-burn state.
using BurnZoneStorer =
    std::function<void(const BurnZoneRef&, Real rho, const BurnResult&)>;

// The host burn loop of the per-zone grid drivers: burn every listed zone
// over dt and fill out[z] for zones[z]. On Backend::OpenMP the zones run
// in parallel, one zone per task under a dynamic schedule so threads
// balance the stiff zones among themselves; every thread owns its BurnOde,
// BurnWorkspace and BurnResult. On every other backend — and whenever a
// fault site is armed, so injections fire on the same zones everywhere —
// the loop runs in list order on the calling thread. Each zone's
// arithmetic is that of burnZoneInto, so results are bit-identical on
// every backend.
//
// Thread-safety contract: the network and EOS must be callable
// concurrently through their const interfaces, and `load`/`store` may
// touch only the zone they are given (the ParallelFor contract).
void burnZones(const ReactionNetwork& net, const Eos& eos,
               const std::vector<BurnZoneRef>& zones, Real dt,
               const OdeOptions& opt, const BurnZoneLoader& load,
               const BurnZoneStorer& store, std::vector<BurnZoneOutcome>& out);

// The KernelInfo of a burn launch for an N-species network: per-thread
// register demand grows with the (N+1)^2 Jacobian (the paper's Volta
// 255-register discussion — aprox13 spills, ignition_simple does not).
KernelInfo burnKernelInfo(int nspec, double steps_per_zone, double imbalance);

} // namespace exa
