#pragma once

// The benchmark's workloads. Each one is built from the ScenarioRegistry
// through generated key=value configs (see gen_inputs.py) and run as a
// sequence of identical episodes, so every episode does the same work and
// produces the same final state:
//
//   sedov-hydro   restart episodes: restore a post-warm-up snapshot of a
//                 multi-box Castro Sedov run, then step it.
//   bubble-burn   restart episodes from a snapshot taken at the start of
//                 the MAESTRO reacting bubble's ignition ramp.
//   amr-gravity   fresh episodes: build, init and step a subcycled AMR
//                 blast with composite-FMG gravity under the resilience
//                 supervisor (regrids and checkpoints inside every one).
//   ensemble-mixed one closed batch of mixed tenants through the
//                 EnsembleRunner per episode.

#include "trace.hpp"

#include "comm/ledger.hpp"
#include "comm/layout.hpp"
#include "comm/network.hpp"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace benchsuite {

// One `sim` / `tenant` line of the generated input file.
struct SimLine {
    std::string label;    // tenant group label (duplicates share it)
    std::string scenario; // registry name
    std::vector<std::string> kv;
};

struct RunConfig {
    std::string workload;
    std::map<std::string, std::string> bench; // `bench key=value` settings
    std::vector<SimLine> sims;
    std::vector<SimLine> tenants;
    std::string work_dir; // where checkpoints and traces are written
    int threads = 1;

    int benchInt(const std::string& key, int fallback) const;
};

RunConfig loadConfig(const std::string& path);

// Per-step samples and counters gathered over a set of episodes.
struct EpisodeCtx {
    Tracer* tracer = nullptr; // null: untraced
    std::int64_t trace_id = 0;

    // Modeled pass: per-step bulk-synchronous comm phase pricing.
    exa::CommLedger* ledger = nullptr;
    exa::RankLayout layout;
    exa::NetworkModel net;

    std::mutex mutex; // ensemble workers report concurrently
    std::vector<double> step_ms;
    std::vector<bool> step_regrid; // step rebuilt the AMR hierarchy
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::int64_t zone_steps = 0;
    double step_seconds = 0.0;
    int episodes = 0;
    int sims_completed = 0;

    // Counters (summed over steps). TimerRegistry regions are read from
    // the registry current on the stepping thread, so ensemble tenants'
    // private registries count too.
    std::map<std::string, double> region_s;
    std::map<std::string, std::int64_t> region_calls;
    std::int64_t burn_zones = 0, burn_steps = 0, burn_max_steps = 0,
                 burn_failures = 0;
    double comm_phase_s = 0.0;
    std::int64_t comm_bytes = 0, comm_msgs = 0, comm_split_msgs = 0;
    std::int64_t mg_vcycles = 0, mg_sweeps = 0, mg_agg_bytes = 0;
    std::int64_t ckpts_written = 0, ckpts_skipped = 0;
    double ckpt_stage_s = 0.0;
    std::int64_t ckpt_stages = 0;

    // Ensemble accounting.
    std::vector<double> init_ms;
    double worker_busy_s = 0.0;
    double worker_wall_s = 0.0; // workers x batch wall
    std::int64_t steals = 0;

    // Output checks.
    std::vector<std::string> problems;
    std::uint32_t final_crc = 0;
    bool have_crc = false;

    // Record a finished step (thread-safe).
    void addStep(double ms, std::int64_t zones, bool step_failed,
                 bool regrid = false);
    // Fold the attached ledger's traffic into the counters and price it as
    // one phase, then reset the ledger (modeled pass only).
    void drainLedger();
    // Record an output-check failure; `steps` operations count as failed.
    void fail(const std::string& what, std::int64_t steps);
    // Every episode must end in the same state.
    void noteCrc(std::uint32_t crc);
};

class Workload {
public:
    virtual ~Workload() = default;

    // Registry build, init() and the warm-up step(s); leaves the workload
    // ready for episode().
    virtual void setup() = 0;
    // One episode; samples and checks go to ctx.
    virtual void episode(EpisodeCtx& ctx) = 0;
    // Modeled rank layout for the comm pricing.
    virtual exa::RankLayout layout() const;
    // Layer probes of the traced run (timed calls into one layer).
    virtual void probes(std::map<std::string, double>& /*metrics*/) {}
    // True: the measured run uses the OpenMP backend (false: Serial, with
    // ensemble workers as the parallelism).
    virtual bool usesOpenMP() const { return true; }
    // True when the measured run's final state must equal the Serial /
    // SimGpu state bit for bit.
    virtual bool openmpBitwise() const { return true; }
};

std::unique_ptr<Workload> makeWorkload(const RunConfig& cfg);

} // namespace benchsuite
