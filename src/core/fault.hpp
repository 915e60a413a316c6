#pragma once

// Deterministic, seeded fault injection for the robustness test harness.
//
// Production runs of the codes this repo reproduces fail in a handful of
// recurring ways: the stiff burn integrator gives up in a hot zone, a
// hydro update produces a NaN, a device allocation fails mid-step, a halo
// payload arrives corrupted, a checkpoint hits bad disk. The retry /
// degradation / integrity machinery that handles those paths is worthless
// if it is only exercised by luck, so this registry lets tests (and the
// EXA_FAULTS environment variable) arm *named injection sites* that fire
// on a deterministic subset of their hits.
//
// Companion to the Backend::Debug / GuardArena verification stack from
// the bugfix PR: those make latent bugs fail loudly; this makes recovery
// paths run on demand.
//
// Determinism: every site keeps a hit counter. A window spec fires hits
// [start, start+count) (strided); a probability spec runs a seeded
// per-hit hash, so the firing pattern is a pure function of (spec, hit
// index) — identical across runs and backends. Sites are consulted only
// from plain host code (never inside ParallelFor bodies), so the debug
// backend's replay passes see the same state as the forward pass.

#include <cstdint>
#include <string>

namespace exa::fault {

// The injection-site registry. Each enumerator marks one code location
// (documented at the call site) where a hit is counted and a fault can
// fire. Keep siteName() in sync when extending.
enum class Site : int {
    BurnZoneFailure = 0, // burnZoneInto(): integrator reports failure for the
                         // zone. While any site is armed, burnZones runs its
                         // zones in serial order on every backend.
    HydroNanFlux,        // molRhs(): one zone of dU/dt is poisoned with NaN
    ArenaAllocFailure,   // Pool/MallocArena::allocate() throws std::bad_alloc
    HaloPayloadCorrupt,  // MultiFab copy plan: one copied value becomes NaN
    CheckpointBitFlip,   // writePlotfile(): one bit of a fab payload flips on disk
    MigrationPayloadCorrupt, // MultiFab::Redistribute(): one migrated fab poisoned
    RankFailure,         // ResilienceSupervisor heartbeat: a modeled rank dies
    CommMessageDrop,     // MultiFab copy plan: one off-rank message is dropped
    count_
};
inline constexpr int nsites = static_cast<int>(Site::count_);

const char* siteName(Site s);
// Parse a site name ("burn-zone-failure", ...); false if unknown.
bool siteFromName(const std::string& name, Site& out);

// Which hits of an armed site fire. With probability < 0 (default) the
// window rule applies: hit h fires iff h >= start, h < start + count
// (count <= 0 = unbounded), and (h - start) % stride == 0. With
// probability in [0, 1] each hit fires via a seeded hash of (seed, h).
struct Spec {
    std::int64_t start = 0;
    std::int64_t count = 1;
    std::int64_t stride = 1;
    double probability = -1.0;
    std::uint64_t seed = 0x9e3779b97f4a7c15ull;
};

struct SiteStats {
    bool armed = false;
    Spec spec;
    std::int64_t hits = 0;  // shouldFire() calls since arming (or reset)
    std::int64_t fires = 0; // hits that fired
};

// Arm a site (resets its counters). disarm() leaves the counters readable
// until the next arm(). disarmAll() also clears counters.
void arm(Site s, const Spec& spec = Spec{});
void disarm(Site s);
void disarmAll();
void resetCounters();

bool armed(Site s);
SiteStats stats(Site s);

// True when at least one site is armed — the cheap fast-path check; the
// instrumented hot paths call shouldFire() only through this.
bool anyArmed();

// Count one hit at site s and decide whether the fault fires. Thread-safe;
// no-op (false) when the site is not armed.
bool shouldFire(Site s);

// Apply an "site:key=val,key=val;site..." configuration string (the
// EXA_FAULTS format). Keys: start, count, stride, prob, seed. Returns
// false and fills *error on a malformed spec. Example:
//   EXA_FAULTS="burn-zone-failure:start=40,count=2;halo-payload-corrupt:prob=0.01,seed=7"
bool configureFromString(const std::string& cfg, std::string* error = nullptr);

// configureFromString, but a malformed spec is fatal: print the parse
// error to stderr and exit non-zero. EXA_FAULTS goes through this — a
// fault campaign whose config is silently dropped would report a 100%
// survival rate for runs that never saw a fault, so rejecting loudly is
// the only safe behavior.
void configureFromStringOrDie(const std::string& cfg);

// RAII arming for tests: arms on construction, disarms on destruction.
class ScopedFault {
public:
    explicit ScopedFault(Site s, const Spec& spec = Spec{}) : m_site(s) {
        arm(m_site, spec);
    }
    ~ScopedFault() { disarm(m_site); }
    ScopedFault(const ScopedFault&) = delete;
    ScopedFault& operator=(const ScopedFault&) = delete;

private:
    Site m_site;
};

} // namespace exa::fault
