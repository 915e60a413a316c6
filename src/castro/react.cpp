#include "castro/react.hpp"

#include "core/array4.hpp"
#include "core/executor.hpp"
#include "core/parallel_for.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

namespace exa::castro {

namespace {

BatchBurnReport s_last_batch_report;

// Report one fab's burn launch to the simulated device, priced with the
// fab's charged per-zone steps (sorted in place). Under the hybrid option
// the outlier zones (cost > outlier_factor x median: the Section VI
// candidates for host-side integration) are removed from the device's
// launch first.
void notifyFabBurnLaunch(int nspec, std::vector<std::int64_t>& sorted,
                         const ReactOptions& opt) {
    std::sort(sorted.begin(), sorted.end());
    const std::int64_t median = sorted[sorted.size() / 2];
    double mean = 0.0;
    for (auto s : sorted) mean += static_cast<double>(s);
    mean /= sorted.size();
    std::int64_t device_max = sorted.back();
    std::int64_t device_zones = static_cast<std::int64_t>(sorted.size());
    if (opt.hybrid_cpu_outliers) {
        const std::int64_t cutoff = static_cast<std::int64_t>(
            opt.outlier_factor * std::max<std::int64_t>(median, 1));
        auto firstOut = std::upper_bound(sorted.begin(), sorted.end(), cutoff);
        device_zones = firstOut - sorted.begin();
        device_max = device_zones > 0 ? sorted[device_zones - 1] : 1;
        double dev_mean = 0.0;
        for (auto it = sorted.begin(); it != firstOut; ++it) {
            dev_mean += static_cast<double>(*it);
        }
        mean = device_zones > 0 ? dev_mean / device_zones : 1.0;
    }
    const double imbalance = mean > 0 ? static_cast<double>(device_max) / mean : 1.0;
    LaunchRecord rec;
    rec.info = burnKernelInfo(nspec, std::max(mean, 1.0), imbalance);
    rec.zones = device_zones;
    rec.ncomp = 1;
    rec.stream = ExecConfig::currentStream();
    ExecConfig::notifyLaunch(rec);
}

// Credit a MultiFab-wide burn to the cost monitor: each fab's integrator
// steps to the work channel, and the burn's wall time split across fabs
// in proportion to their steps (no per-fab timer scope exists when the
// zones of all fabs burn in one pass).
void creditBurnCost(CostMonitor& cost, int level,
                    const std::vector<std::int64_t>& fab_steps,
                    std::int64_t total_steps, double wall) {
    for (std::size_t f = 0; f < fab_steps.size(); ++f) {
        const int fi = static_cast<int>(f);
        cost.addWork(level, fi, static_cast<double>(fab_steps[f]));
        if (total_steps > 0) {
            cost.addTime(level, fi,
                         wall * static_cast<double>(fab_steps[f]) /
                             static_cast<double>(total_steps));
        }
    }
}

double secondsSince(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

// The per-zone driver on Castro's conserved state.
BurnGridStats reactPerZone(MultiFab& state, const ReactionNetwork& net,
                          const Eos& eos, Real dt, const ReactOptions& opt,
                          CostMonitor* cost, int level) {
    const int nspec = net.nspec();
    std::vector<Array4<Real>> u(state.size());
    for (std::size_t f = 0; f < state.size(); ++f) {
        u[f] = state.array(static_cast<int>(f));
    }
    auto load = [&](const BurnZoneRef& z, Real& rho, Real& T, Real* X) {
        const Array4<Real>& a = u[z.fab];
        rho = a(z.i, z.j, z.k, StateLayout::URHO);
        T = a(z.i, z.j, z.k, StateLayout::UTEMP);
        if (T < opt.T_min || rho < opt.rho_min) return false;
        for (int n = 0; n < nspec; ++n) {
            X[n] = std::clamp(a(z.i, z.j, z.k, StateLayout::UFS + n) / rho,
                              Real(0), Real(1));
        }
        return true;
    };
    auto store = [&](const BurnZoneRef& z, Real rho, const BurnResult& r) {
        const Array4<Real>& a = u[z.fab];
        for (int n = 0; n < nspec; ++n) {
            a(z.i, z.j, z.k, StateLayout::UFS + n) = rho * r.X[n];
        }
        a(z.i, z.j, z.k, StateLayout::UEDEN) += rho * r.e_nuc;
        a(z.i, z.j, z.k, StateLayout::UTEMP) = r.T;
    };
    return reactZones(state, net, eos, dt, opt, load, store, cost, level);
}

// The batched driver: gather every reacting zone of the MultiFab (across
// all fabs) into one flat SoA buffer, hand it to BatchBurner (stiffness
// sort, fused device batches, optional host tail), and scatter results
// back. Per-zone arithmetic — and therefore every output value and every
// bookkeeping total — is bit-identical to reactPerZone; only the launch
// structure the device model sees differs.
BurnGridStats reactBatched(MultiFab& state, const ReactionNetwork& net,
                           const Eos& eos, Real dt, const ReactOptions& opt,
                           CostMonitor* cost, int level) {
    const int nspec = net.nspec();
    const int nfabs = static_cast<int>(state.size());
    BurnGridStats stats;

    const auto t_begin = std::chrono::steady_clock::now();

    // Pass 1 (host): find the reacting zones, in the serial traversal
    // order (fab, then k/j/i), so gather index order == serial zone order
    // and first-failure semantics carry over exactly.
    struct ZoneRef {
        int i, j, k;
    };
    std::vector<ZoneRef> refs;
    std::vector<std::int64_t> fab_begin(nfabs + 1, 0); // refs range per fab
    std::vector<std::int64_t> fab_skipped(nfabs, 0);
    for (int f = 0; f < nfabs; ++f) {
        fab_begin[f] = static_cast<std::int64_t>(refs.size());
        auto u = state.array(f);
        const Box& vb = state.box(f);
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k) {
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j) {
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    const Real rho = u(i, j, k, StateLayout::URHO);
                    const Real T = u(i, j, k, StateLayout::UTEMP);
                    if (T < opt.T_min || rho < opt.rho_min) {
                        fab_skipped[f] += stats.addSkipped();
                        continue;
                    }
                    refs.push_back({i, j, k});
                }
            }
        }
    }
    fab_begin[nfabs] = static_cast<std::int64_t>(refs.size());

    const std::int64_t nzones = static_cast<std::int64_t>(refs.size());
    BurnBatch batch;
    batch.resize(nspec, nzones);

    // Pass 2: gather fab state into the SoA buffer — per fab one streaming
    // launch on that fab's stream (each gathered zone writes only its own
    // slots, so the kernel is backend-safe).
    const KernelInfo gather_ki =
        KernelInfo::streaming("burn_gather", 8.0 * (nspec + 2) * 2);
    for (int f = 0; f < nfabs; ++f) {
        const std::int64_t lo = fab_begin[f], hi = fab_begin[f + 1];
        if (lo == hi) continue;
        StreamScope stream;
        stream.useFab(static_cast<std::size_t>(f));
        auto u = state.array(f);
        const ZoneRef* rp = refs.data();
        Real* rho_p = batch.rho.data();
        Real* T_p = batch.T.data();
        Real* X_p = batch.X.data();
        ParallelFor(gather_ki, hi - lo, [=](std::int64_t q) {
            const std::int64_t g = lo + q;
            const ZoneRef& zr = rp[g];
            const Real rho = u(zr.i, zr.j, zr.k, StateLayout::URHO);
            rho_p[g] = rho;
            T_p[g] = u(zr.i, zr.j, zr.k, StateLayout::UTEMP);
            for (int n = 0; n < nspec; ++n) {
                X_p[n * nzones + g] = std::clamp(
                    u(zr.i, zr.j, zr.k, StateLayout::UFS + n) / rho, Real(0),
                    Real(1));
            }
        });
    }

    // Burn the gather.
    BatchBurner burner(net, eos, opt.batch);
    burner.run(batch, dt, opt.ode);
    s_last_batch_report = burner.report();

    // Pass 3: scatter — successful zones write their own (i,j,k) back.
    const KernelInfo scatter_ki =
        KernelInfo::streaming("burn_scatter", 8.0 * (nspec + 2) * 2);
    for (int f = 0; f < nfabs; ++f) {
        const std::int64_t lo = fab_begin[f], hi = fab_begin[f + 1];
        if (lo == hi) continue;
        StreamScope stream;
        stream.useFab(static_cast<std::size_t>(f));
        auto u = state.array(f);
        const ZoneRef* rp = refs.data();
        const Real* rho_p = batch.rho.data();
        const Real* To_p = batch.T_out.data();
        const Real* Xo_p = batch.X_out.data();
        const Real* e_p = batch.e_nuc.data();
        const char* ok_p = batch.success.data();
        ParallelFor(scatter_ki, hi - lo, [=](std::int64_t q) {
            const std::int64_t g = lo + q;
            if (!ok_p[g]) return;
            const ZoneRef& zr = rp[g];
            const Real rho = rho_p[g];
            for (int n = 0; n < nspec; ++n) {
                u(zr.i, zr.j, zr.k, StateLayout::UFS + n) =
                    rho * Xo_p[n * nzones + g];
            }
            u(zr.i, zr.j, zr.k, StateLayout::UEDEN) += rho * e_p[g];
            u(zr.i, zr.j, zr.k, StateLayout::UTEMP) = To_p[g];
        });
    }

    // Bookkeeping with the shared per-zone reducer. Gather order is
    // serial order, so the first failing gather index is the serial
    // first_failure.
    std::vector<std::int64_t> fab_steps(nfabs, 0);
    for (int f = 0; f < nfabs; ++f) {
        fab_steps[f] = fab_skipped[f];
        for (std::int64_t g = fab_begin[f]; g < fab_begin[f + 1]; ++g) {
            fab_steps[f] +=
                batch.success[g]
                    ? stats.addBurned(batch.steps[g])
                    : stats.addFailed(batch.steps[g],
                                      {true, refs[g].i, refs[g].j, refs[g].k, f,
                                       -1, batch.rho[g], batch.T[g]});
        }
    }

    if (cost != nullptr) {
        creditBurnCost(*cost, level, fab_steps, stats.total_steps,
                       secondsSince(t_begin));
    }
    return stats;
}

} // namespace

const BatchBurnReport& lastBatchBurnReport() { return s_last_batch_report; }

BurnGridStats reactZones(MultiFab& state, const ReactionNetwork& net,
                         const Eos& eos, Real dt, const ReactOptions& opt,
                         const BurnZoneLoader& load, const BurnZoneStorer& store,
                         CostMonitor* cost, int level) {
    const int nfabs = static_cast<int>(state.size());
    const auto t_begin = std::chrono::steady_clock::now();

    // The flat zone list, in serial traversal order; fab f owns
    // [fab_begin[f], fab_begin[f + 1]).
    std::vector<BurnZoneRef> zones;
    std::vector<std::size_t> fab_begin(nfabs + 1, 0);
    zones.reserve(static_cast<std::size_t>(state.boxArray().numPts()));
    for (int f = 0; f < nfabs; ++f) {
        fab_begin[f] = zones.size();
        const Box& vb = state.box(f);
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i)
                    zones.push_back({f, i, j, k});
    }
    fab_begin[nfabs] = zones.size();

    std::vector<BurnZoneOutcome> outcomes;
    burnZones(net, eos, zones, dt, opt.ode, load, store, outcomes);

    // Bookkeeping in serial zone order, so every backend reports the same
    // totals, first failure, launches and work.
    BurnGridStats stats;
    std::vector<std::int64_t> fab_steps(nfabs, 0);
    std::vector<std::int64_t> zone_steps;
    for (int f = 0; f < nfabs; ++f) {
        zone_steps.clear();
        for (std::size_t z = fab_begin[f]; z < fab_begin[f + 1]; ++z) {
            const BurnZoneOutcome& o = outcomes[z];
            const BurnZoneRef& zr = zones[z];
            const std::int64_t charged =
                !o.burned  ? stats.addSkipped()
                : o.success ? stats.addBurned(o.steps)
                            : stats.addFailed(o.steps, {true, zr.i, zr.j, zr.k,
                                                        f, -1, o.rho, o.T});
            zone_steps.push_back(charged);
            fab_steps[f] += charged;
        }
        if (ExecConfig::accountsLaunches() && !zone_steps.empty()) {
            notifyFabBurnLaunch(net.nspec(), zone_steps, opt);
        }
    }

    if (cost != nullptr) {
        creditBurnCost(*cost, level, fab_steps, stats.total_steps,
                       secondsSince(t_begin));
    }
    return stats;
}

BurnGridStats reactState(MultiFab& state, const ReactionNetwork& net, const Eos& eos,
                         Real dt, const ReactOptions& opt, CostMonitor* cost,
                         int level) {
    if (opt.batched) {
        return reactBatched(state, net, eos, dt, opt, cost, level);
    }
    return reactPerZone(state, net, eos, dt, opt, cost, level);
}

} // namespace exa::castro
