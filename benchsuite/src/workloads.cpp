#include "workloads.hpp"

#include "castro/sedov.hpp"
#include "core/crc32.hpp"
#include "core/timer.hpp"
#include "ensemble/runner.hpp"
#include "ensemble/scenarios.hpp"
#include "maestro/maestro.hpp"
#include "mesh/plotfile.hpp"
#include "resilience/adapters.hpp"
#include "resilience/supervisor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace benchsuite {

using namespace exa;
using exa::ensemble::ScenarioConfig;
using exa::ensemble::Scenario;
namespace fs = std::filesystem;

// --- config --------------------------------------------------------------

int RunConfig::benchInt(const std::string& key, int fallback) const {
    auto it = bench.find(key);
    return it == bench.end() ? fallback : std::stoi(it->second);
}

RunConfig loadConfig(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read input file " + path);
    RunConfig cfg;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string kind;
        if (!(ls >> kind) || kind[0] == '#') continue;
        std::vector<std::string> tok;
        for (std::string t; ls >> t;) tok.push_back(t);
        if (kind == "workload" && !tok.empty()) {
            cfg.workload = tok[0];
        } else if (kind == "bench") {
            for (const auto& t : tok) {
                const auto eq = t.find('=');
                if (eq == std::string::npos)
                    throw std::runtime_error("bad bench setting: " + t);
                cfg.bench[t.substr(0, eq)] = t.substr(eq + 1);
            }
        } else if (kind == "sim" && !tok.empty()) {
            cfg.sims.push_back({tok[0], tok[0], {tok.begin() + 1, tok.end()}});
        } else if (kind == "tenant" && tok.size() >= 2) {
            cfg.tenants.push_back({tok[0], tok[1], {tok.begin() + 2, tok.end()}});
        } else {
            throw std::runtime_error("bad input line: " + line);
        }
    }
    return cfg;
}

namespace {

ScenarioConfig toScenarioConfig(const SimLine& s) {
    ScenarioConfig c;
    for (const auto& t : s.kv) {
        const auto eq = t.find('=');
        if (eq == std::string::npos || eq == 0)
            throw std::runtime_error("bad scenario setting: " + t);
        c.set(t.substr(0, eq), t.substr(eq + 1));
    }
    return c;
}

std::map<std::string, double> regionSeconds(const TimerRegistry& reg) {
    std::map<std::string, double> out;
    for (const auto& [region, layer] : regionLayers()) {
        out[region] = reg.seconds(region);
        out[region + "#calls"] = static_cast<double>(reg.calls(region));
    }
    return out;
}

bool finite(Real v) { return std::isfinite(static_cast<double>(v)); }

std::string fmtG(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3g", v);
    return buf;
}

// Copy of a MultiFab (valid + ghost zones), for restart snapshots.
std::unique_ptr<MultiFab> cloneOf(const MultiFab& mf) {
    auto c = std::make_unique<MultiFab>(mf.boxArray(), mf.distributionMap(),
                                        mf.nComp(), mf.nGrow());
    MultiFab::Copy(*c, mf, 0, 0, mf.nComp(), mf.nGrow());
    return c;
}

// One driver step. Region deltas of the stepping thread's TimerRegistry
// are summed into ctx; when traced, the step is a span in the driver's
// layer with children reconstructed from those regions.
template <class F>
void runStep(EpisodeCtx& ctx, std::int64_t parent, const char* layer, F&& f) {
    const TimerRegistry& reg = TimerRegistry::current();
    const auto before = regionSeconds(reg);
    if (!ctx.tracer) {
        f();
    } else {
        const double t0 = ctx.tracer->now();
        ScopedSpan sp(ctx.tracer, "step", layer, parent, ctx.trace_id);
        f();
        addRegionSpans(*ctx.tracer, sp.id(), ctx.trace_id, t0, before,
                       regionSeconds(reg));
    }
    const auto after = regionSeconds(reg);
    std::lock_guard<std::mutex> lk(ctx.mutex);
    for (const auto& [region, l] : regionLayers()) {
        ctx.region_s[region] += after.at(region) - before.at(region);
        ctx.region_calls[region] += static_cast<std::int64_t>(
            after.at(region + "#calls") - before.at(region + "#calls"));
    }
}

int nranksOf(const SimLine& s) {
    for (const auto& t : s.kv)
        if (t.rfind("nranks=", 0) == 0) return std::stoi(t.substr(7));
    return 1;
}

} // namespace

// --- EpisodeCtx ----------------------------------------------------------

void EpisodeCtx::addStep(double ms, std::int64_t zones, bool step_failed,
                         bool regrid) {
    std::lock_guard<std::mutex> lk(mutex);
    step_ms.push_back(ms);
    step_regrid.push_back(regrid);
    step_seconds += ms * 1e-3;
    zone_steps += zones;
    ++attempted;
    if (step_failed) ++failed;
}

void EpisodeCtx::drainLedger() {
    if (!ledger) return;
    std::lock_guard<std::mutex> lk(mutex);
    comm_phase_s += ledger->phaseTime(layout, net);
    comm_bytes += ledger->totalBytes();
    comm_msgs += ledger->totalMessages();
    comm_split_msgs += ledger->splitPhaseMessages();
    mg_vcycles += ledger->mgVcycles();
    mg_sweeps += ledger->mgSweeps();
    mg_agg_bytes += ledger->mgAggBytes();
    ledger->reset();
}

void EpisodeCtx::fail(const std::string& what, std::int64_t steps) {
    std::lock_guard<std::mutex> lk(mutex);
    if (problems.size() < 16) problems.push_back(what);
    failed = std::min(attempted, failed + std::max<std::int64_t>(steps, 0));
}

void EpisodeCtx::noteCrc(std::uint32_t crc) {
    std::lock_guard<std::mutex> lk(mutex);
    if (have_crc && crc != final_crc) {
        if (problems.size() < 16)
            problems.push_back("episode final stateCrc differs between episodes");
    }
    final_crc = crc;
    have_crc = true;
}

RankLayout Workload::layout() const { return RankLayout{1, 1}; }

namespace {

// --- restart workloads (sedov-hydro, bubble-burn) -------------------------

// Setup builds the scenario, inits it and takes `warmup-steps` steps; the
// resulting state is the snapshot every episode restarts from, so all
// episodes repeat the same `episode-steps` steps bit for bit.
class RestartWorkload : public Workload {
public:
    explicit RestartWorkload(const RunConfig& cfg)
        : m_line(cfg.sims.at(0)), m_warmup(cfg.benchInt("warmup-steps", 1)),
          m_steps(cfg.benchInt("episode-steps", 8)),
          m_nranks(nranksOf(cfg.sims.at(0))) {}

    void setup() override {
        m_snap.clear();
        m_s.reset();
        m_s = ensemble::makeScenarioByName(m_line.scenario,
                                           toScenarioConfig(m_line));
        m_s->init();
        for (int i = 0; i < m_warmup; ++i) driverStep(m_s->maxDt());
        for (MultiFab* f : fields()) m_snap.push_back(cloneOf(*f));
        m_t0 = m_s->time();
        m_n0 = m_s->stepCount();
        onSnapshot();
    }

    void episode(EpisodeCtx& ctx) override {
        ScopedSpan ep(ctx.tracer, "episode", "bench", 0, ctx.trace_id);
        {
            ScopedSpan sp(ctx.tracer, "restore", "mesh", ep.id(), ctx.trace_id);
            auto flds = fields();
            for (std::size_t i = 0; i < flds.size(); ++i)
                MultiFab::Copy(*flds[i], *m_snap[i], 0, 0, flds[i]->nComp(),
                               flds[i]->nGrow());
            resetTime(m_t0, m_n0);
        }
        for (int i = 0; i < m_steps; ++i) {
            BurnGridStats b;
            WallTimer t;
            bool threw = false;
            runStep(ctx, ep.id(), driverLayer(), [&] {
                try {
                    b = driverStep(m_s->maxDt());
                } catch (const std::exception& e) {
                    threw = true;
                    ctx.fail(std::string("step threw: ") + e.what(), 0);
                }
            });
            const double ms = t.seconds() * 1e3;
            {
                std::lock_guard<std::mutex> lk(ctx.mutex);
                ctx.burn_zones += b.zones;
                ctx.burn_steps += b.total_steps;
                ctx.burn_max_steps = std::max(ctx.burn_max_steps, b.max_steps);
                ctx.burn_failures += b.failures;
            }
            ctx.addStep(ms, m_s->zones(), threw || b.failures > 0);
            ctx.drainLedger();
            if (threw) break;
        }
        ScopedSpan sp(ctx.tracer, "check", "bench", ep.id(), ctx.trace_id);
        check(ctx);
        ctx.noteCrc(m_s->stateCrc());
        ++ctx.episodes;
        ++ctx.sims_completed;
    }

    RankLayout layout() const override {
        // Two ranks per modeled node, so halo traffic crosses the network.
        return RankLayout{(m_nranks + 1) / 2, 2};
    }

protected:
    virtual std::vector<MultiFab*> fields() = 0;
    virtual BurnGridStats driverStep(Real dt) = 0;
    virtual void resetTime(Real t, int n) = 0;
    virtual const char* driverLayer() const = 0;
    virtual void onSnapshot() {}
    virtual void check(EpisodeCtx& ctx) = 0;

    SimLine m_line;
    int m_warmup, m_steps, m_nranks;
    std::unique_ptr<Scenario> m_s;
    std::vector<std::unique_ptr<MultiFab>> m_snap;
    Real m_t0 = 0.0;
    int m_n0 = 0;
};

class SedovWorkload final : public RestartWorkload {
public:
    using RestartWorkload::RestartWorkload;

    void probes(std::map<std::string, double>& m) override {
        castro::Castro& c = driver();
        MultiFab& s = c.state();
        // Halo exchange on the live state from its cached plan.
        std::vector<double> fb;
        for (int r = 0; r < 20; ++r) {
            WallTimer t;
            s.FillBoundary(0, s.nComp(), c.geom().periodicity());
            fb.push_back(t.seconds() * 1e3);
        }
        std::sort(fb.begin(), fb.end());
        m["mesh.fill_boundary_ms"] = fb[fb.size() / 2];
        // One method-of-lines RHS evaluation over every fab.
        MultiFab dudt(s.boxArray(), s.distributionMap(), s.nComp(), 0);
        c.fillGhosts(s);
        std::vector<double> mr;
        for (int r = 0; r < 5; ++r) {
            WallTimer t;
            castro::molRhs(s, dudt, c.geom(), c.network(), c.eos(), nullptr,
                           c.options().reconstruction);
            mr.push_back(t.seconds() * 1e3);
        }
        std::sort(mr.begin(), mr.end());
        m["castro.mol_rhs_ms"] = mr[mr.size() / 2];
    }

protected:
    castro::Castro& driver() {
        return dynamic_cast<ensemble::SedovScenario&>(*m_s).driver();
    }
    std::vector<MultiFab*> fields() override { return {&driver().state()}; }
    BurnGridStats driverStep(Real dt) override { return driver().step(dt); }
    void resetTime(Real t, int n) override { driver().resetTime(t, n); }
    const char* driverLayer() const override { return "castro"; }
    void onSnapshot() override { m_mass0 = driver().totalMass(); }

    void check(EpisodeCtx& ctx) override {
        const castro::Castro& c = driver();
        const auto& p = dynamic_cast<ensemble::SedovScenario&>(*m_s).params();
        const Real mass = c.totalMass();
        const Real rho_max = c.maxDensity();
        if (!finite(mass) || !finite(rho_max)) {
            ctx.fail("sedov: non-finite state", m_steps);
            return;
        }
        const Real drift = std::abs(mass - m_mass0) / m_mass0;
        if (drift > 1.0e-12) {
            ctx.fail("sedov: mass drift " + fmtG(drift), m_steps);
        }
        const Real r_meas = castro::measureShockRadius(c, p.rho0);
        const Real r_exact = castro::sedovShockRadius(c.time(), p.E, p.rho0, p.gamma);
        const Real dx = c.geom().cellSize(0);
        if (!(std::abs(r_meas - r_exact) <= 2.0 * dx)) {
            ctx.fail("sedov: shock radius " + std::to_string(r_meas) +
                         " vs analytic " + std::to_string(r_exact),
                     m_steps);
        }
    }

    Real m_mass0 = 0.0;
};

class BubbleWorkload final : public RestartWorkload {
public:
    using RestartWorkload::RestartWorkload;

    void probes(std::map<std::string, double>& m) override {
        maestro::Maestro& mm = driver();
        MultiFab& s = mm.state();
        std::vector<double> fb;
        for (int r = 0; r < 20; ++r) {
            WallTimer t;
            s.FillBoundary(0, s.nComp(), mm.geom().periodicity());
            fb.push_back(t.seconds() * 1e3);
        }
        std::sort(fb.begin(), fb.end());
        m["mesh.fill_boundary_ms"] = fb[fb.size() / 2];
    }

protected:
    maestro::Maestro& driver() {
        return dynamic_cast<ensemble::BubbleScenario&>(*m_s).driver();
    }
    std::vector<MultiFab*> fields() override {
        maestro::Maestro& m = driver();
        return {&m.state(), &m.phi(), &m.divu()};
    }
    BurnGridStats driverStep(Real dt) override { return driver().step(dt); }
    void resetTime(Real t, int n) override { driver().resetTime(t, n); }
    const char* driverLayer() const override { return "maestro"; }
    // The projection's reductions sum in thread order under OpenMP, so
    // OpenMP states match each other but not Serial/SimGpu bit for bit.
    bool openmpBitwise() const override { return false; }

    void check(EpisodeCtx& ctx) override {
        const MultiFab& s = driver().state();
        using L = maestro::MaestroLayout;
        const Real tmin = s.min(L::QT), tmax = s.max(L::QT);
        if (!finite(tmin) || !finite(tmax) || !(tmin > 0.0)) {
            ctx.fail("bubble: temperature not finite and positive", m_steps);
            return;
        }
        const int nspec = s.nComp() - L::QFS;
        Real worst = 0.0;
        for (std::size_t f = 0; f < s.size(); ++f) {
            const auto a = s.const_array(static_cast<int>(f));
            const Box& vb = s.box(static_cast<int>(f));
            for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
                for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                    for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                        Real sum = 0.0;
                        for (int n = 0; n < nspec; ++n) sum += a(i, j, k, L::QFS + n);
                        const Real e = std::abs(sum - 1.0);
                        if (!(e <= worst)) worst = e; // NaN-sticky
                    }
        }
        if (!(worst <= 1.0e-10))
            ctx.fail("bubble: species sum off by " + fmtG(worst), m_steps);
    }
};

// --- amr-gravity ---------------------------------------------------------

// Fresh episodes: every episode builds the hierarchy from the registry,
// inits it and runs `episode-steps` supervised steps with a fixed-interval
// synchronous checkpoint, so regrids rebuild CopierCache plans and the
// checkpointer writes state inside every episode.
class AmrWorkload final : public Workload {
public:
    explicit AmrWorkload(const RunConfig& cfg)
        : m_line(cfg.sims.at(0)), m_steps(cfg.benchInt("episode-steps", 8)),
          m_ckpt_interval(cfg.benchInt("checkpoint-interval", 3)),
          m_nranks(nranksOf(cfg.sims.at(0))),
          m_ckpt_dir(cfg.work_dir + "/ckpt") {}

    void setup() override {
        m_s.reset();
        m_s = make();
        m_s->init();
        m_s->advanceOnce();
    }

    void episode(EpisodeCtx& ctx) override {
        ScopedSpan ep(ctx.tracer, "episode", "bench", 0, ctx.trace_id);
        {
            ScopedSpan sp(ctx.tracer, "init", "castro", ep.id(), ctx.trace_id);
            m_s.reset();
            m_s = make();
            m_s->init();
        }
        castro::CastroAmr& amr = driver();
        const Real mass0 = amr.totalMass();
        std::error_code ec;
        fs::remove_all(m_ckpt_dir, ec);
        fs::create_directories(m_ckpt_dir, ec);
        resilience::SupervisorOptions so;
        so.checkpoint.dir = m_ckpt_dir;
        so.checkpoint.async = false; // write-through: exact checkpoint counts
        so.checkpoint.interval_hint = m_ckpt_interval;
        so.nranks = m_nranks;
        resilience::ResilienceSupervisor sup(resilience::makeSupervisedDriver(amr),
                                             so);
        std::int64_t written = 0;
        bool threw = false;
        for (int i = 0; i < m_steps && !threw; ++i) {
            const auto ids0 = layoutIds();
            WallTimer t;
            runStep(ctx, ep.id(), "castro", [&] {
                try {
                    sup.runSteps(1);
                } catch (const std::exception& e) {
                    threw = true;
                    ctx.fail(std::string("amr step threw: ") + e.what(), 0);
                }
            });
            const double ms = t.seconds() * 1e3;
            const auto& rep = sup.report();
            if (rep.checkpoints_written > written) {
                std::lock_guard<std::mutex> lk(ctx.mutex);
                ctx.ckpt_stage_s += sup.checkpointer().lastStagingSeconds();
                ++ctx.ckpt_stages;
                written = rep.checkpoints_written;
            }
            ctx.addStep(ms, m_s->zones(), threw, layoutIds() != ids0);
            ctx.drainLedger();
        }
        sup.checkpointer().flush();
        {
            std::lock_guard<std::mutex> lk(ctx.mutex);
            ctx.ckpts_written += sup.report().checkpoints_written;
            ctx.ckpts_skipped += sup.report().checkpoints_skipped;
        }
        ScopedSpan sp(ctx.tracer, "check", "bench", ep.id(), ctx.trace_id);
        // Refluxing keeps the hierarchy conservative: at the sync point the
        // masked composite sum and the level-0 sum agree to round-off. The
        // total itself may move by the self-gravity-driven inflow through
        // the outflow boundary (~1e-11 over an episode; exactly round-off
        // with gravity off), so it gets a budget well above that and far
        // below any real leak.
        const Real mass = amr.totalMass();
        const Real drift = std::abs(mass - mass0) / mass0;
        if (!finite(mass) || drift > 1.0e-9)
            ctx.fail("amr: total mass drift " + fmtG(drift), m_steps);
        if (!amr.syncPointSumsAgree(1.0e-11))
            ctx.fail("amr: composite and level-0 sums disagree after reflux", m_steps);
        {
            ScopedSpan vs(ctx.tracer, "verify-checkpoints", "mesh", sp.id(),
                          ctx.trace_id);
            int slots = 0;
            for (const auto& slot : fs::directory_iterator(m_ckpt_dir, ec)) {
                if (!slot.is_directory() ||
                    slot.path().string().find(".staging") != std::string::npos)
                    continue;
                ++slots;
                for (const auto& field : fs::directory_iterator(slot.path(), ec)) {
                    if (!field.is_directory()) continue;
                    try {
                        const auto issues = verifyPlotfile(field.path().string());
                        if (!issues.empty())
                            ctx.fail("amr: checkpoint " + field.path().string() +
                                         " has " + std::to_string(issues.size()) +
                                         " damaged fabs",
                                     m_steps);
                    } catch (const std::exception& e) {
                        ctx.fail(std::string("amr: checkpoint unreadable: ") + e.what(),
                                 m_steps);
                    }
                }
            }
            if (slots == 0) ctx.fail("amr: no checkpoint committed", m_steps);
        }
        ctx.noteCrc(m_s->stateCrc());
        ++ctx.episodes;
        ++ctx.sims_completed;
    }

    RankLayout layout() const override { return RankLayout{(m_nranks + 1) / 2, 2}; }

    void probes(std::map<std::string, double>& m) override {
        castro::CastroAmr& amr = driver();
        MultiFab& s = amr.state(0);
        std::vector<double> fb;
        for (int r = 0; r < 20; ++r) {
            WallTimer t;
            s.FillBoundary(0, s.nComp(), amr.geom(0).periodicity());
            fb.push_back(t.seconds() * 1e3);
        }
        std::sort(fb.begin(), fb.end());
        m["mesh.fill_boundary_ms"] = fb[fb.size() / 2];
    }

private:
    std::unique_ptr<Scenario> make() const {
        return ensemble::makeScenarioByName(m_line.scenario, toScenarioConfig(m_line));
    }
    castro::CastroAmr& driver() {
        return dynamic_cast<ensemble::AmrBlastScenario&>(*m_s).driver();
    }
    std::vector<std::uint64_t> layoutIds() {
        castro::CastroAmr& amr = driver();
        std::vector<std::uint64_t> ids;
        for (int lev = 0; lev <= amr.finestLevel(); ++lev)
            ids.push_back(amr.boxArray(lev).id());
        return ids;
    }

    SimLine m_line;
    int m_steps, m_ckpt_interval, m_nranks;
    std::string m_ckpt_dir;
    std::unique_ptr<Scenario> m_s;
};

// --- ensemble-mixed ------------------------------------------------------

// Forwarding tenant: times init() and every advanceOnce() of the wrapped
// scenario and reports them (plus traced spans) to the episode context.
class TimedScenario final : public Scenario {
public:
    TimedScenario(std::unique_ptr<Scenario> inner, EpisodeCtx& ctx,
                  std::int64_t parent)
        : Scenario(inner->name(), inner->limits()), m_in(std::move(inner)),
          m_ctx(ctx), m_parent(parent) {}

    void init() override {
        ScopedSpan sp(m_ctx.tracer, "tenant-init", "ensemble", m_parent,
                      m_ctx.trace_id);
        WallTimer t;
        m_in->init();
        const double s = t.seconds();
        std::lock_guard<std::mutex> lk(m_ctx.mutex);
        m_ctx.init_ms.push_back(s * 1e3);
        m_ctx.worker_busy_s += s;
    }
    bool initialized() const override { return m_in->initialized(); }
    Real time() const override { return m_in->time(); }
    int stepCount() const override { return m_in->stepCount(); }
    Real estimateDt() const override { return m_in->estimateDt(); }
    using Scenario::advanceOnce;
    void advanceOnce(Real dt) override {
        WallTimer t;
        runStep(m_ctx, m_parent, layerOf(name()), [&] { m_in->advanceOnce(dt); });
        const double s = t.seconds();
        m_ctx.addStep(s * 1e3, m_in->zones(), false);
        {
            std::lock_guard<std::mutex> lk(m_ctx.mutex);
            m_ctx.worker_busy_s += s;
        }
        m_ctx.drainLedger();
    }
    bool finished() const override { return m_in->finished(); }
    std::int64_t zones() const override { return m_in->zones(); }
    std::uint64_t stateBytes() const override { return m_in->stateBytes(); }
    std::uint32_t stateCrc() const override { return m_in->stateCrc(); }
    std::string summary() const override { return m_in->summary(); }

private:
    static const char* layerOf(const std::string& n) {
        return n == "bubble" ? "maestro" : "castro";
    }
    std::unique_ptr<Scenario> m_in;
    EpisodeCtx& m_ctx;
    std::int64_t m_parent;
};

class EnsembleWorkload final : public Workload {
public:
    explicit EnsembleWorkload(const RunConfig& cfg)
        : m_tenants(cfg.tenants), m_workers(cfg.threads) {
        if (m_tenants.empty()) throw std::runtime_error("ensemble: no tenants");
    }

    // Stand the fleet up once from the registry: build, init and one
    // warm-up step per tenant (fills the CopierCache and arena pools).
    void setup() override {
        std::vector<std::unique_ptr<Scenario>> fleet;
        for (const auto& t : m_tenants) {
            fleet.push_back(
                ensemble::makeScenarioByName(t.scenario, toScenarioConfig(t)));
            fleet.back()->init();
            fleet.back()->advanceOnce();
        }
    }

    void episode(EpisodeCtx& ctx) override {
        ScopedSpan ep(ctx.tracer, "batch", "ensemble", 0, ctx.trace_id);
        ensemble::EnsembleOptions opt;
        opt.workers = m_workers;
        ensemble::EnsembleRunner runner(opt);
        for (const auto& t : m_tenants) {
            auto s = ensemble::makeScenarioByName(t.scenario, toScenarioConfig(t));
            runner.add(std::make_unique<TimedScenario>(std::move(s), ctx, ep.id()),
                       t.label + "#" + std::to_string(runner.numTenants()));
        }
        WallTimer wall;
        const ensemble::EnsembleReport rep = runner.run();
        const double w = wall.seconds();
        {
            std::lock_guard<std::mutex> lk(ctx.mutex);
            ctx.worker_wall_s += w * rep.workers;
            ctx.steals += rep.steals;
        }
        // Duplicate-config tenants must end bit-identical.
        ScopedSpan sp(ctx.tracer, "check", "bench", ep.id(), ctx.trace_id);
        std::map<std::string, std::vector<const ensemble::TenantReport*>> groups;
        for (std::size_t i = 0; i < rep.tenants.size(); ++i)
            groups[m_tenants[i].label].push_back(&rep.tenants[i]);
        std::uint32_t crc = 0;
        for (const auto& [label, members] : groups) {
            for (const auto* r : members) {
                if (r->crc != members.front()->crc) {
                    std::int64_t steps = 0;
                    for (const auto* q : members) steps += q->steps;
                    ctx.fail("ensemble: duplicate tenants of " + label +
                                 " differ in stateCrc",
                             steps);
                    break;
                }
            }
            for (const auto* r : members) crc = crc32(&r->crc, sizeof(r->crc), crc);
        }
        ctx.noteCrc(crc);
        std::lock_guard<std::mutex> lk(ctx.mutex);
        ++ctx.episodes;
        ctx.sims_completed += static_cast<int>(rep.tenants.size());
    }

    RankLayout layout() const override { return RankLayout{2, 2}; }
    bool usesOpenMP() const override { return false; }

private:
    std::vector<SimLine> m_tenants;
    int m_workers;
};

} // namespace

std::unique_ptr<Workload> makeWorkload(const RunConfig& cfg) {
    if (cfg.workload == "sedov-hydro") return std::make_unique<SedovWorkload>(cfg);
    if (cfg.workload == "bubble-burn") return std::make_unique<BubbleWorkload>(cfg);
    if (cfg.workload == "amr-gravity") return std::make_unique<AmrWorkload>(cfg);
    if (cfg.workload == "ensemble-mixed")
        return std::make_unique<EnsembleWorkload>(cfg);
    throw std::runtime_error("unknown workload " + cfg.workload);
}

} // namespace benchsuite
