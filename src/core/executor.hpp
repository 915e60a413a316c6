#pragma once

#include "core/box.hpp"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace exa {

// Which implementation a ParallelFor launch runs on. This mirrors the
// paper's single-source design: the loop body (a lambda over (i,j,k)) is
// written once and the backend decides how index space maps onto hardware.
//
//   Serial : plain triply-nested loop (the "CPU build" of the paper).
//   OpenMP : coarse-grained threading; with tiling this reproduces the
//            one-OpenMP-thread-per-tile model of Figure 1 (center).
//   SimGpu : per-zone threading semantics of Figure 1 (right). Results are
//            bit-identical to Serial; in addition every launch is reported
//            to the registered device-model hook, which charges modeled
//            V100 time (launch latency, occupancy, bandwidth).
//   Debug  : verification mode (core/debug.hpp). Each launch runs in
//            forward, reversed, and shuffled zone order against a snapshot
//            of all arena-resident state; order-dependent results and
//            same-address writes from different zones are reported as GPU
//            contract violations, naming the KernelInfo. Results remain
//            bit-identical to Serial.
enum class Backend { Serial, OpenMP, SimGpu, Debug };

const char* backendName(Backend b);
// Parse a backend name ("serial", "openmp", "simgpu", "debug"); unknown or
// null names yield Backend::Serial. The EXA_BACKEND environment variable
// is fed through this at startup to pick the initial backend.
Backend backendFromName(const char* name);

// Static per-kernel traits used by the simulated GPU device model to price
// a launch. They are the quantities the paper identifies as the real
// performance levers: arithmetic per zone, streamed bytes per zone
// (DRAM-bandwidth-bound kernels), and register pressure (occupancy and
// spilling; see the discussion of the 255-register Volta budget and
// N-isotope Jacobians).
struct KernelInfo {
    const char* name = "anonymous";
    double flops_per_zone = 50.0;
    double bytes_per_zone = 80.0;
    int regs_per_thread = 64;
    // Multiplier for data-dependent cost imbalance across zones (1 =
    // uniform). The burn driver sets this for igniting zones.
    double work_imbalance = 1.0;

    // `bytes` is per zone *and per component*: the device model multiplies
    // a launch's zone count by its ncomp, so callers that pass ncomp to
    // ParallelFor must not fold it into the byte count as well.
    static KernelInfo streaming(const char* nm, double bytes) {
        return KernelInfo{nm, bytes / 4.0, bytes, 48, 1.0};
    }
};

// A record of one ParallelFor launch, delivered to the device-model hook.
struct LaunchRecord {
    KernelInfo info;
    std::int64_t zones = 0;
    int ncomp = 1;
    int stream = 0;
};

using LaunchHook = std::function<void(const LaunchRecord&)>;

// Global execution configuration. Not thread-safe by design: the backend
// is chosen at startup (or per benchmark section), exactly like choosing
// the build/runtime configuration of the production codes.
class ExecConfig {
public:
    static Backend backend() { return s_backend; }
    static void setBackend(Backend b) { s_backend = b; }

    // True when the device model is accounting launches (drivers consult
    // this before assembling LaunchRecords for e.g. burn imbalance).
    static bool accountsLaunches() { return s_backend == Backend::SimGpu; }

    // Tile size for the OpenMP tiled backend (zones per dim; z unsplit).
    static IntVect tileSize() { return s_tile_size; }
    static void setTileSize(const IntVect& ts) { s_tile_size = ts; }

    // Device-model hook; invoked for every launch under Backend::SimGpu.
    static void setLaunchHook(LaunchHook h);
    static void clearLaunchHook();
    static void notifyLaunch(const LaunchRecord& r);

    // The CUDA-stream analogue: kernels launched from different boxes of
    // an MFIter round-robin over streams, letting the device model overlap
    // small launches (the paper's partial mitigation for small boxes).
    static int numStreams() { return s_num_streams; }
    static void setNumStreams(int n) { s_num_streams = n > 0 ? n : 1; }
    static int currentStream() { return s_current_stream; }
    static void setCurrentStream(int s) { s_current_stream = s; }

private:
    static Backend s_backend;
    static IntVect s_tile_size;
    static LaunchHook s_hook;
    static int s_num_streams;
    // Thread-local: ensemble workers each select a stream for their tenant
    // (StreamScope) and must not race on — or clobber — each other's slot.
    // Defined inline with a constant initializer, so every access is a
    // plain TLS load/store. Out of line, other translation units reach it
    // through a TLS wrapper function, and GCC's UBSan null check misfires
    // on that path ("store to null pointer" on worker threads).
    static inline thread_local int s_current_stream = 0;
};

// Exception-safe stream selection: captures the current stream on entry
// and restores it on scope exit, replacing the manual
// setCurrentStream(...) / restore call pairs that used to bracket
// MultiFab-wide ops and driver loops (and leaked the stream on early
// return or throw). `setCurrentStream` remains the primitive underneath;
// this guard is the supported way to change streams for a region of code.
class StreamScope {
public:
    StreamScope() : m_saved(ExecConfig::currentStream()) {}
    // Convenience: enter the scope already on stream `s`.
    explicit StreamScope(int s) : StreamScope() { use(s); }
    ~StreamScope() { ExecConfig::setCurrentStream(m_saved); }
    StreamScope(const StreamScope&) = delete;
    StreamScope& operator=(const StreamScope&) = delete;

    // Select an explicit stream.
    void use(int s) { ExecConfig::setCurrentStream(s); }
    // Round-robin the stream over fab indices — the MFIter::syncStream
    // policy — so per-box launches of MultiFab-wide ops can overlap in
    // the device model.
    void useFab(std::size_t fab) {
        ExecConfig::setCurrentStream(
            static_cast<int>(fab % static_cast<std::size_t>(ExecConfig::numStreams())));
    }

private:
    int m_saved;
};

// RAII helper: set a backend for a scope, restore on exit.
class ScopedBackend {
public:
    explicit ScopedBackend(Backend b) : m_saved(ExecConfig::backend()) {
        ExecConfig::setBackend(b);
    }
    ~ScopedBackend() { ExecConfig::setBackend(m_saved); }
    ScopedBackend(const ScopedBackend&) = delete;
    ScopedBackend& operator=(const ScopedBackend&) = delete;

private:
    Backend m_saved;
};

} // namespace exa
