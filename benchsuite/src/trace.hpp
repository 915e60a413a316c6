#pragma once

// In-memory span tracer for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code only: around the calls
// it makes into the library's public functions (a scenario step, a halo
// exchange, a checkpoint verify, ...), plus child spans reconstructed from
// counters the library already exposes (TimerRegistry regions, the
// CopierCache plan-build clock). A reconstructed span's duration is the
// counter's exact delta over its parent; its placement inside the parent
// is nominal (back to back from the parent's start), because the counters
// carry durations, not timestamps.
//
// Every span names its layer (a src/ module: castro, maestro,
// microphysics, solvers, mesh, resilience, ensemble, or "bench" for the
// benchmark's own glue). Self time of a span is its duration minus the
// part its children cover; summing self time per layer attributes every
// traced nanosecond to exactly one layer.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace benchsuite {

struct Span {
    std::int64_t id = 0;
    std::int64_t parent = 0;   // 0 = root
    std::int64_t trace_id = 0; // spans of one episode / batch share this
    std::string name;
    std::string layer;
    double t0 = 0.0, t1 = 0.0; // seconds since the tracer's epoch
    bool derived = false;      // reconstructed from a counter delta
};

class Tracer {
public:
    Tracer();

    // Seconds since the tracer's epoch (monotonic clock).
    double now() const;

    // Open a span; returns its id. Thread-safe.
    std::int64_t begin(const std::string& name, const std::string& layer,
                       std::int64_t parent, std::int64_t trace_id);
    void end(std::int64_t id);
    // Record a finished span in one call (used for derived spans).
    std::int64_t add(const std::string& name, const std::string& layer,
                     std::int64_t parent, std::int64_t trace_id, double t0,
                     double t1, bool derived);

    std::vector<Span> spans() const;

    // Self time summed per layer, seconds.
    std::map<std::string, double> selfTimeByLayer() const;

    // Chrome trace-event JSON ("X" events; args carry id/parent/trace).
    bool writeJson(const std::string& path) const;

private:
    using clock = std::chrono::steady_clock;
    clock::time_point m_epoch;
    mutable std::mutex m_mutex;
    std::vector<Span> m_spans;
    std::map<std::int64_t, std::size_t> m_open; // id -> index
    std::int64_t m_next = 1;
};

// RAII span; a null tracer makes it a no-op, so untraced code paths share
// the traced ones.
class ScopedSpan {
public:
    ScopedSpan(Tracer* tr, const std::string& name, const std::string& layer,
               std::int64_t parent, std::int64_t trace_id)
        : m_tr(tr), m_id(tr ? tr->begin(name, layer, parent, trace_id) : 0) {}
    ~ScopedSpan() {
        if (m_tr) m_tr->end(m_id);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;
    std::int64_t id() const { return m_id; }

private:
    Tracer* m_tr;
    std::int64_t m_id;
};

// Reconstruct child spans of `parent` (which ran over [t0, t1]) from
// TimerRegistry region deltas. `before` / `after` are region -> seconds
// snapshots; regions unknown to the layer map are ignored. Known nesting
// (mg/solve inside gravity/amr-solve inside castro::gravity) is honored.
void addRegionSpans(Tracer& tr, std::int64_t parent, std::int64_t trace_id,
                    double t0, const std::map<std::string, double>& before,
                    const std::map<std::string, double>& after);

// The TimerRegistry regions the benchmark reads, with the layer each one
// is charged to.
const std::vector<std::pair<std::string, std::string>>& regionLayers();

} // namespace benchsuite
