// exabench: runs one benchmark workload from a generated input file and
// prints its metrics. Normally driven by benchsuite/run.py, which builds
// this binary, generates the inputs from a seed and relays the result:
//
//   exabench --workload sedov-hydro --input in.cfg --seconds 8 --trace 0
//            --threads 2 --work-dir DIR
//
// --trace 0 measures the end-to-end metrics (untraced); --trace 1 runs the
// same workload traced and reports the per-layer metrics. The last line of
// stdout is one JSON object {correct, attempted, failed, metrics}.

#include "workloads.hpp"

#include "core/arena.hpp"
#include "core/executor.hpp"
#include "core/timer.hpp"
#include "mesh/copier_cache.hpp"
#include "perf/device_model.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#ifdef EXA_USE_OPENMP
#include <omp.h>
#endif

using namespace exa;
using namespace benchsuite;

namespace {

struct Args {
    std::string workload, input, work_dir = ".";
    double seconds = 8.0;
    bool trace = false;
    int threads = 2;
};

Args parseArgs(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload") a.workload = v;
        else if (k == "--input") a.input = v;
        else if (k == "--work-dir") a.work_dir = v;
        else if (k == "--seconds") a.seconds = std::stod(v);
        else if (k == "--trace") a.trace = v == "1";
        else if (k == "--threads") a.threads = std::stoi(v);
        else throw std::runtime_error("unknown argument " + k);
    }
    if (a.workload.empty() || a.input.empty())
        throw std::runtime_error("--workload and --input are required");
    return a;
}

// Nearest-rank percentile (q in [0,1]) of an unsorted sample.
double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    std::size_t r = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    r = std::clamp<std::size_t>(r, 1, n);
    return v[r - 1];
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peakRssMiB() {
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

// Per-episode rates of a measured loop; their medians are the throughput
// metrics, so one episode disturbed by the host does not move them.
struct Rates {
    std::vector<double> zone_updates_per_s;
    std::vector<double> sims_per_hour;
};

// Run whole episodes until `seconds` of wall time have passed (at least
// one episode).
Rates runFor(Workload& w, EpisodeCtx& ctx, double seconds) {
    Rates r;
    WallTimer t;
    do {
        const std::int64_t z0 = ctx.zone_steps;
        const double s0 = ctx.step_seconds;
        const int n0 = ctx.sims_completed;
        WallTimer ep;
        w.episode(ctx);
        const double wall = ep.seconds();
        if (ctx.step_seconds > s0)
            r.zone_updates_per_s.push_back(double(ctx.zone_steps - z0) /
                                           (ctx.step_seconds - s0));
        r.sims_per_hour.push_back((ctx.sims_completed - n0) * 3600.0 / wall);
        ++ctx.trace_id;
    } while (t.seconds() < seconds);
    return r;
}

struct Metric {
    double value;
    std::string unit;
};

struct ModeledPass {
    EpisodeCtx ctx;
    double device_s = 0.0, serialized_s = 0.0;
    std::int64_t launches = 0, zones = 0;
    std::map<std::string, DeviceModel::KernelStats> kernels;
    CopierCache::Stats copier;
};

// One episode on the SimGpu backend with the device model and a comm
// ledger attached. Everything it counts is deterministic for a seed.
void modeledPass(Workload& w, ModeledPass& mp) {
    CopierCache::instance().clear();
    CopierCache::instance().resetStats();
    DeviceModel dev;
    CommLedger ledger;
    mp.ctx.ledger = &ledger;
    mp.ctx.layout = w.layout();
    {
        ScopedBackend b(Backend::SimGpu);
        dev.attach();
        ledger.attach();
        w.episode(mp.ctx);
        ledger.detach();
        dev.detach();
    }
    mp.ctx.ledger = nullptr;
    mp.device_s = dev.elapsedSeconds();
    mp.serialized_s = dev.serializedSeconds();
    mp.launches = dev.numLaunches();
    mp.zones = dev.numZones();
    mp.kernels = dev.kernelStats();
    mp.copier = CopierCache::instance().stats();
}

double regionOf(const EpisodeCtx& c, const std::string& r) {
    auto it = c.region_s.find(r);
    return it == c.region_s.end() ? 0.0 : it->second;
}

// Solves: composite-FMG gravity solves plus MAESTRO projections.
double solvesOf(const EpisodeCtx& c) {
    double n = 0.0;
    for (const char* r : {"mg/solve", "maestro::projection"}) {
        auto it = c.region_calls.find(r);
        if (it != c.region_calls.end()) n += static_cast<double>(it->second);
    }
    return n;
}

// Kernels reported individually by name (the union of each workload's
// eight most expensive modeled kernels); see benchsuite/README.md.
const std::vector<std::string>& namedKernels() {
    static const std::vector<std::string> k = {
#include "kernels.inc"
    };
    return k;
}

void printJson(bool correct, std::int64_t attempted, std::int64_t failed,
               const std::map<std::string, Metric>& metrics) {
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
                correct ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed));
    bool first = true;
    for (const auto& [name, m] : metrics) {
        double v = m.value;
        if (!std::isfinite(v)) v = 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                    name.c_str(), v, m.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
}

double safeDiv(double a, double b) { return b != 0.0 ? a / b : 0.0; }

} // namespace

int main(int argc, char** argv) {
    try {
        const Args args = parseArgs(argc, argv);
        RunConfig cfg = loadConfig(args.input);
        if (cfg.workload != args.workload)
            throw std::runtime_error("input file is for workload " + cfg.workload);
        cfg.work_dir = args.work_dir;
        cfg.threads = args.threads;
        std::filesystem::create_directories(cfg.work_dir);
#ifdef EXA_USE_OPENMP
        omp_set_num_threads(args.threads);
#endif
        auto w = makeWorkload(cfg);
        const Backend run_backend = w->usesOpenMP() ? Backend::OpenMP : Backend::Serial;
        ExecConfig::setBackend(run_backend);

        // Set-up: registry build, init() and warm-up, from cold caches.
        std::vector<double> setups;
        const int n_setup = cfg.benchInt("setup-repeats", 5);
        for (int i = 0; i < n_setup; ++i) {
            CopierCache::instance().clear();
            The_Arena()->releaseCached();
            WallTimer t;
            w->setup();
            setups.push_back(t.seconds());
        }

        std::map<std::string, Metric> metrics;
        std::vector<std::string> problems;
        std::int64_t attempted = 0, failed = 0;
        std::uint32_t crc = 0;
        auto absorb = [&](const EpisodeCtx& c, const char* pass) {
            attempted += c.attempted;
            failed += c.failed;
            for (const auto& p : c.problems) problems.push_back(std::string(pass) + ": " + p);
        };
        ModeledPass mp;

        if (!args.trace) {
            EpisodeCtx ctx;
            const Rates rates = runFor(*w, ctx, args.seconds);
            absorb(ctx, "measured");
            modeledPass(*w, mp);
            absorb(mp.ctx, "modeled");
            crc = ctx.final_crc;
            if (w->openmpBitwise() && mp.ctx.final_crc != ctx.final_crc)
                problems.push_back("SimGpu final stateCrc differs from the measured run");
            const double steps = static_cast<double>(mp.ctx.attempted);
            metrics["zone_updates_per_s"] = {median(rates.zone_updates_per_s), "1/s"};
            metrics["step_ms_p50"] = {percentile(ctx.step_ms, 0.5), "ms"};
            metrics["step_ms_p90"] = {percentile(ctx.step_ms, 0.9), "ms"};
            metrics["sims_per_hour"] = {median(rates.sims_per_hour), "1/h"};
            metrics["setup_s"] = {median(setups), "s"};
            metrics["peak_rss_mib"] = {peakRssMiB(), "MiB"};
            metrics["modeled_step_ms"] = {
                safeDiv((mp.device_s + mp.ctx.comm_phase_s) * 1e3, steps), "ms"};
            std::printf("%s: %lld steps in %d episodes (%d sims); "
                        "p90 over %zu samples%s\n",
                        args.workload.c_str(), static_cast<long long>(ctx.attempted),
                        ctx.episodes, ctx.sims_completed, ctx.step_ms.size(),
                        ctx.step_ms.size() < 100 ? " (below 100: p90 is the slowest step class)" : "");
            std::printf("setup_s samples:");
            for (double s : setups) std::printf(" %.4f", s);
            std::printf("\n");
        } else {
            // Untraced baseline for the tracing overhead, then the traced run.
            EpisodeCtx base;
            runFor(*w, base, 0.5 * args.seconds);
            absorb(base, "untraced");

            Tracer tracer;
            EpisodeCtx ctx;
            ctx.tracer = &tracer;
            ctx.trace_id = 1;
            const ArenaStats as0 = The_Arena()->stats();
            const CopierCache::Stats cs0 = CopierCache::instance().stats();
            runFor(*w, ctx, 0.5 * args.seconds);
            ArenaStats as = The_Arena()->stats();
            as.allocs -= as0.allocs;
            as.pool_hits -= as0.pool_hits;
            CopierCache::Stats cs = CopierCache::instance().stats();
            cs.hits -= cs0.hits;
            cs.misses -= cs0.misses;
            cs.evictions -= cs0.evictions;
            cs.build_seconds -= cs0.build_seconds;
            absorb(ctx, "traced");
            crc = ctx.final_crc;
            const double steps = static_cast<double>(ctx.attempted);
            auto region = [&](const std::string& r) { return regionOf(ctx, r); };
            auto per_step_ms = [&](double s) { return safeDiv(s * 1e3, steps); };

            // core
            double speedup = 1.0;
            std::uint32_t serial_crc = crc;
            if (w->usesOpenMP()) {
                EpisodeCtx serial;
                {
                    ScopedBackend b(Backend::Serial);
                    w->episode(serial);
                }
                absorb(serial, "serial");
                serial_crc = serial.final_crc;
                if (w->openmpBitwise() && serial.final_crc != crc)
                    problems.push_back("Serial final stateCrc differs from OpenMP");
                speedup = safeDiv(median(serial.step_ms), median(base.step_ms));
            }
            metrics["core.openmp_speedup"] = {speedup, "x"};
            metrics["core.arena.allocs_per_step"] = {safeDiv(double(as.allocs), steps), "count"};
            metrics["core.arena.pool_hit_ratio"] = {safeDiv(double(as.pool_hits), double(as.allocs)), "ratio"};
            metrics["core.arena.hwm_mib"] = {double(as.hwm_bytes) / (1024.0 * 1024.0), "MiB"};

            // mesh
            metrics["mesh.fill_boundary_ms"] = {0.0, "ms"};
            metrics["castro.mol_rhs_ms"] = {0.0, "ms"};
            std::map<std::string, double> probe;
            {
                ScopedSpan sp(&tracer, "layer-probes", "bench", 0, 0);
                w->probes(probe);
            }
            for (const auto& [k, v] : probe) metrics[k] = {v, "ms"};
            metrics["mesh.copier.hit_ratio"] = {
                safeDiv(double(cs.hits), double(cs.hits + cs.misses)), "ratio"};
            metrics["mesh.copier.build_ms_per_step"] = {per_step_ms(cs.build_seconds), "ms"};
            metrics["mesh.copier.evictions"] = {double(cs.evictions), "count"};
            {
                std::vector<double> rg, other;
                for (std::size_t i = 0; i < ctx.step_ms.size(); ++i)
                    (ctx.step_regrid[i] ? rg : other).push_back(ctx.step_ms[i]);
                metrics["mesh.regrid_step_extra_ms"] = {
                    rg.empty() || other.empty() ? 0.0 : median(rg) - median(other), "ms"};
            }

            // castro / maestro / solvers (wall time from TimerRegistry regions)
            metrics["castro.hydro_ms_per_step"] = {per_step_ms(region("castro::hydro")), "ms"};
            metrics["castro.gravity_ms_per_step"] = {per_step_ms(region("castro::gravity")), "ms"};
            metrics["maestro.react_ms_per_step"] = {per_step_ms(region("maestro::react")), "ms"};
            metrics["maestro.projection_ms_per_step"] = {per_step_ms(region("maestro::projection")), "ms"};
            metrics["maestro.advect_ms_per_step"] = {per_step_ms(region("maestro::advect")), "ms"};
            const double solves = solvesOf(ctx);
            metrics["solvers.mg.solve_ms"] = {
                safeDiv((region("mg/solve") + region("maestro::projection")) * 1e3, solves), "ms"};

            // microphysics
            metrics["micro.burn.steps_per_zone"] = {
                safeDiv(double(ctx.burn_steps), double(ctx.burn_zones)), "count"};
            const double mean_steps = safeDiv(double(ctx.burn_steps), double(ctx.burn_zones));
            metrics["micro.burn.imbalance"] = {
                mean_steps > 0 ? double(ctx.burn_max_steps) / mean_steps : 0.0, "ratio"};
            metrics["micro.burn.failures"] = {double(ctx.burn_failures), "count"};

            // resilience
            metrics["resilience.stage_ms"] = {
                safeDiv(ctx.ckpt_stage_s * 1e3, double(ctx.ckpt_stages)), "ms"};
            metrics["resilience.ckpts_written"] = {double(ctx.ckpts_written), "count"};
            metrics["resilience.ckpts_skipped"] = {double(ctx.ckpts_skipped), "count"};

            // ensemble
            metrics["ensemble.worker_busy_frac"] = {safeDiv(ctx.worker_busy_s, ctx.worker_wall_s), "ratio"};
            metrics["ensemble.steals"] = {double(ctx.steals), "count"};
            metrics["ensemble.init_ms_p50"] = {median(ctx.init_ms), "ms"};

            // Modeled pass: perf, comm, MG counts (deterministic).
            modeledPass(*w, mp);
            absorb(mp.ctx, "modeled");
            if (mp.ctx.final_crc != serial_crc)
                problems.push_back("SimGpu final stateCrc differs from Serial");
            const double msteps = static_cast<double>(mp.ctx.attempted);
            metrics["perf.device_ms_per_step"] = {safeDiv(mp.device_s * 1e3, msteps), "ms"};
            metrics["perf.launches_per_step"] = {safeDiv(double(mp.launches), msteps), "count"};
            metrics["perf.zones_per_launch"] = {safeDiv(double(mp.zones), double(mp.launches)), "count"};
            metrics["perf.stream_overlap"] = {safeDiv(mp.serialized_s, mp.device_s), "ratio"};
            for (const auto& k : namedKernels()) {
                auto it = mp.kernels.find(k);
                metrics["perf.kernel." + k + ".ms_per_step"] = {
                    it == mp.kernels.end() ? 0.0 : safeDiv(it->second.seconds * 1e3, msteps), "ms"};
            }
            metrics["comm.bytes_per_step"] = {safeDiv(double(mp.ctx.comm_bytes), msteps), "B"};
            metrics["comm.messages_per_step"] = {safeDiv(double(mp.ctx.comm_msgs), msteps), "count"};
            metrics["comm.split_phase_frac"] = {
                safeDiv(double(mp.ctx.comm_split_msgs), double(mp.ctx.comm_msgs)), "ratio"};
            metrics["comm.modeled_ms_per_step"] = {safeDiv(mp.ctx.comm_phase_s * 1e3, msteps), "ms"};
            const double msolves = solvesOf(mp.ctx);
            metrics["solvers.mg.vcycles_per_solve"] = {safeDiv(double(mp.ctx.mg_vcycles), msolves), "count"};
            metrics["solvers.mg.sweeps_per_solve"] = {safeDiv(double(mp.ctx.mg_sweeps), msolves), "count"};
            metrics["solvers.mg.agg_bytes_per_solve"] = {safeDiv(double(mp.ctx.mg_agg_bytes), msolves), "B"};

            // Trace: self time per layer and the tracing overhead.
            const auto self = tracer.selfTimeByLayer();
            for (const char* layer : {"bench", "castro", "maestro", "microphysics", "solvers",
                                      "mesh", "ensemble"}) {
                auto it = self.find(layer);
                metrics[std::string("trace.") + layer + ".self_ms_per_step"] = {
                    it == self.end() ? 0.0 : per_step_ms(it->second), "ms"};
            }
            metrics["trace.overhead_frac"] = {
                safeDiv(median(ctx.step_ms), median(base.step_ms)) - 1.0, "ratio"};
            const std::string trace_path =
                cfg.work_dir + "/trace-" + args.workload + ".json";
            tracer.writeJson(trace_path);

            std::printf("%s traced: %lld steps (%zu spans -> %s)\n", args.workload.c_str(),
                        static_cast<long long>(ctx.attempted), tracer.spans().size(),
                        trace_path.c_str());
            std::vector<std::pair<double, std::string>> top;
            for (const auto& [k, s] : mp.kernels) top.push_back({s.seconds, k});
            std::sort(top.rbegin(), top.rend());
            std::printf("top modeled kernels (ms/step):");
            for (std::size_t i = 0; i < top.size() && i < 8; ++i)
                std::printf(" %s=%.4g", top[i].second.c_str(), safeDiv(top[i].first * 1e3, msteps));
            std::printf("\n");
        }

        // Deterministic counts of the modeled episode (repeat exactly for a seed).
        std::printf("counts: {\"launches\": %lld, \"comm_bytes\": %lld, \"mg_vcycles\": %lld, "
                    "\"copier_misses\": %llu, \"ckpts\": %lld, \"steps\": %lld, "
                    "\"state_crc\": %u}\n",
                    static_cast<long long>(mp.launches),
                    static_cast<long long>(mp.ctx.comm_bytes),
                    static_cast<long long>(mp.ctx.mg_vcycles),
                    static_cast<unsigned long long>(mp.copier.misses),
                    static_cast<long long>(mp.ctx.ckpts_written),
                    static_cast<long long>(mp.ctx.attempted), mp.ctx.final_crc);
        for (const auto& p : problems) std::printf("check failed: %s\n", p.c_str());
        printJson(problems.empty() && failed == 0, attempted, failed, metrics);
        std::fflush(stdout);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "exabench: %s\n", e.what());
        return 2;
    }
}
