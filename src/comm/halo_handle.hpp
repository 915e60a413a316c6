#pragma once

// Split-phase halo exchange handle. A blocking MultiFab::FillBoundary is
//
//     auto h = mf.FillBoundary_nowait(scomp, ncomp, period);  // post
//     ... interior kernels, independent of ghost data ...
//     h.finish();                                             // deliver
//
// The post phase executes the cached CopyPlan's *pack* work — every
// source region is staged into exchange buffers on per-fab streams, so
// the destination fabs are untouched while the exchange is "on the
// wire". finish() unpacks the staged payloads in exact plan-item order
// and runs the CommHooks/fault-injection accounting precisely as the
// fused path does, so byte/message counts and deterministic fault
// schedules are identical between the two paths. Results are
// bit-identical to the blocking call on every backend.
//
// Lifecycle contract: finish() exactly once. The destructor completes a
// still-pending exchange (RAII safety net) and, under Backend::Debug,
// reports a "halo-unfinished" violation; a second finish() is a no-op
// that reports "halo-double-finish" under Backend::Debug.
//
// Declared in src/comm (it is the comm layer's public handle type) but
// defined in src/mesh/halo_exchange.cpp: exastro_comm links against
// exastro_mesh, so the implementation lives below MultiFab, not above.

#include <memory>

namespace exa {

class MultiFab;

namespace comm {

class HaloHandle {
public:
    // An empty handle: nothing pending, finish() is a no-op.
    HaloHandle();
    ~HaloHandle();

    HaloHandle(HaloHandle&&) noexcept;
    HaloHandle& operator=(HaloHandle&&) noexcept;
    HaloHandle(const HaloHandle&) = delete;
    HaloHandle& operator=(const HaloHandle&) = delete;

    // Deliver the staged exchange into the destination's ghost zones and
    // run the CommHooks accounting. Idempotent only in the sense that a
    // second call does nothing — under Backend::Debug it is diagnosed.
    void finish();

    // True between post and finish.
    bool pending() const;

private:
    friend class ::exa::MultiFab;
    struct Impl;
    explicit HaloHandle(std::unique_ptr<Impl> impl);
    std::unique_ptr<Impl> m_impl;
};

// Process-wide switch for the split-phase machinery (default off). When
// off, the _nowait entry points execute the fused path immediately and
// return an already-finished handle, and the drivers take their original
// fused branches — the knob the bit-identity tests and bench_async_halo
// flip to compare overlap on/off. Splitting stages a copy of every
// payload at post time and adds thin-shell launches after finish(), and
// hides network time only behind the interior sweep: on the modeled clock
// the Castro stages win from 64^3 boxes and the multigrid smoother from
// 128^3, and all of them lose on the 32^3-or-smaller boxes every benchmark
// workload runs (EXPERIMENTS.md E11, E20). fillPatchTwoLevels, which wins
// at every size, follows the same switch.
void setAsyncHalo(bool enabled);
bool asyncHalo();

// RAII toggle (mirrors the comm-cache tests' ScopedCacheDisabled idiom).
class ScopedAsyncHalo {
public:
    explicit ScopedAsyncHalo(bool enabled) : m_saved(asyncHalo()) {
        setAsyncHalo(enabled);
    }
    ~ScopedAsyncHalo() { setAsyncHalo(m_saved); }
    ScopedAsyncHalo(const ScopedAsyncHalo&) = delete;
    ScopedAsyncHalo& operator=(const ScopedAsyncHalo&) = delete;

private:
    bool m_saved;
};

} // namespace comm
} // namespace exa
