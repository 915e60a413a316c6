#pragma once

#include "castro/state.hpp"
#include "mesh/multifab.hpp"
#include "mesh/rebalance/cost_monitor.hpp"
#include "microphysics/batch_burner.hpp"
#include "microphysics/burner.hpp"

namespace exa::castro {

// Options for the grid-level burn driver.
struct ReactOptions {
    OdeOptions ode;
    Real T_min = 5.0e7;   // zones cooler than this are skipped (inert)
    Real rho_min = 1.0e2; // zones more dilute than this are skipped
    // When true, the simulated device launch excludes the outlier zones
    // (cost > outlier_factor x median), which are modeled as burned on
    // the host concurrently — the paper's Section VI hybrid strategy.
    // (Per-fab launch shaping for the per-zone path; the batched engine
    // has its own hybrid split in `batch`.)
    bool hybrid_cpu_outliers = false;
    double outlier_factor = 10.0;
    // Batched GPU-resident engine: gather all reacting zones of the
    // MultiFab (across fabs) into one flat SoA buffer, sort by stiffness,
    // and burn in fused device batches (BatchBurner) instead of
    // zone-at-a-time per-fab launches. Bit-identical results; radically
    // fewer, better-shaped launches.
    bool batched = false;
    BatchBurnOptions batch;
};

// What the batched engine did on the last reactState call that used it
// (gather size, batch count, tail split). For benches and tests; not
// meaningful when opt.batched is false.
const BatchBurnReport& lastBatchBurnReport();

// Burn every (eligible) zone of the state for dt at constant volume,
// updating species, energy, and temperature. Reports per-grid cost
// statistics and notifies the simulated device of the launch with a
// KernelInfo reflecting the network size (register pressure) and the
// measured zone-to-zone work imbalance.
//
// When `cost` is non-null, each fab's integrator-step total and wall time
// are credited to (level, fab) — the burn channel of the load balancer's
// CostMonitor.
BurnGridStats reactState(MultiFab& state, const ReactionNetwork& net, const Eos& eos,
                         Real dt, const ReactOptions& opt = ReactOptions{},
                         CostMonitor* cost = nullptr, int level = 0);

// The per-zone grid burn behind reactState's per-zone path and
// Maestro::react. Lists every zone of `state` in serial traversal order
// (fab, then k/j/i) and burns them through burnZones — zone-parallel
// across all fabs on the OpenMP backend. Afterwards, in that serial zone
// order, it reduces the BurnGridStats, reports one `nuclear_burn` launch
// per fab (shaped by opt.hybrid_cpu_outliers) and credits `cost`: each
// fab's steps to the work channel, and the burn's wall time split across
// fabs in proportion to their steps. `load` and `store` map the caller's
// state layout and apply its eligibility test (opt.T_min, opt.rho_min).
BurnGridStats reactZones(MultiFab& state, const ReactionNetwork& net,
                         const Eos& eos, Real dt, const ReactOptions& opt,
                         const BurnZoneLoader& load, const BurnZoneStorer& store,
                         CostMonitor* cost = nullptr, int level = 0);

} // namespace exa::castro
