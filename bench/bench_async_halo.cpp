// Split-phase halo crossover sweep (E11, E20): at which box size does
// interior/boundary overlap start to pay, for each site that can post its
// exchange split-phase? The paper's GPU port leaves the halo exchange as
// the step's only blocking phase; posting it with a _nowait call and
// sweeping every box interior while the messages are in flight hides the
// network time behind compute that was going to run anyway, at the price
// of a staged copy of every payload and thin boundary-shell launches.
//
// Methodology (measured compute / modeled network, as in DESIGN.md):
// each site's kernels run for real under the SimGpu backend and are
// priced by the DeviceModel (V100 params); the exchange's messages are
// recorded by a CommLedger and priced by the Summit-like NetworkModel as
// one bulk-synchronous phase. The layout is E11's: 2 x 2 x 2 periodic
// boxes of edge^3 on eight ranks, one per node, so every face of a box is
// off-rank; the device clock, which times all eight boxes, is scaled by
// f = 1/8 to one rank's share (in general f = the busiest rank's box
// count / total boxes; the boxes are identical). Per-rank time:
//
//   fused : T = (t_copies + t_kernels)*f + T_net          (exchange blocks)
//   split : T = (t_pack + t_unpack + t_shell)*f + max(T_net, t_interior*f)
//
// Sites: the Castro RK-stage RHS with PLM (stencil 2) and PPM (stencil 3)
// reconstruction, one red-black multigrid smoother half-sweep (stencil
// 1), and fillPatchTwoLevels at dst_ng 4 (Castro AMR's ghost width; the
// interpolation from the coarse level is the overlapped work). For each,
// the sweep prints the layout's interior fraction (interior zones / valid
// zones) and the modeled gain of splitting, then the fraction interval in
// which split starts to win, and whether one threshold on the fraction
// separates wins from losses at every site.
//
// The Castro stages stop at 64^3 boxes (about 0.6 GB); 96^3 would need
// about 1.5 GB. The one-component sites go to 128^3.
//
// With --decompositions the program also prints E11's table: the PLM
// stage on several boxes per rank, 4 to 16 ranks and 64^3 to 256^3
// domains, where a rank's share of the device clock is its box count
// over the total. Its 256^3 rows need about 3 GB.

#include "bench_util.hpp"
#include "castro/hydro.hpp"
#include "comm/halo_handle.hpp"
#include "comm/ledger.hpp"
#include "core/parallel_for.hpp"
#include "mesh/copier_cache.hpp"
#include "mesh/interp.hpp"
#include "mesh/multifab.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <vector>

using namespace exa;
using namespace exa::castro;

namespace {

constexpr int kEdges[] = {8, 12, 16, 24, 32, 48, 64, 96, 128};
constexpr int kRanks = 8;

// A periodic [0, ncell)^3 domain chopped into max_grid^3 boxes on
// `nranks` ranks spread over `nodes` nodes.
struct Layout {
    Geometry geom;
    BoxArray ba;
    DistributionMapping dm;
    RankLayout ranks;
    double share = 1.0; // the busiest rank's share of the device clock

    Layout(int ncell, int max_grid, int nranks, int nodes)
        : ranks{nodes, nranks / nodes} {
        const Box dom({0, 0, 0}, {ncell - 1, ncell - 1, ncell - 1});
        geom = Geometry(dom, {0, 0, 0}, {1, 1, 1}, IntVect{1, 1, 1});
        ba = BoxArray(dom);
        ba.maxSize(max_grid);
        dm = DistributionMapping(ba, nranks, DistributionMapping::Strategy::Sfc);
        std::vector<int> count(static_cast<std::size_t>(nranks), 0);
        for (const int r : dm.ranks()) ++count[static_cast<std::size_t>(r)];
        share = static_cast<double>(*std::max_element(count.begin(), count.end())) /
                static_cast<double>(ba.size());
    }
};

// The crossover layout: 2 x 2 x 2 boxes of edge^3, one per rank and node.
Layout crossoverLayout(int edge) { return Layout(2 * edge, edge, kRanks, kRanks); }

// Interior zones (those whose stencil reads no ghost zone) / valid zones.
double interiorFraction(const BoxArray& ba, int stencil) {
    double interior = 0.0;
    for (std::size_t i = 0; i < ba.size(); ++i) {
        const Box in = grow(ba[static_cast<int>(i)], -stencil);
        if (in.ok()) interior += static_cast<double>(in.numPts());
    }
    return interior / static_cast<double>(ba.numPts());
}

// Modeled clocks of one site on one layout.
struct Clocks {
    DeviceModel dev;
    CommLedger ledger;
    RankLayout ranks;
    NetworkModel net; // Summit-like fabric (src/comm/network.hpp)

    explicit Clocks(const RankLayout& r) : ranks(r) {
        dev.attach();
        ledger.attach();
    }
    ~Clocks() {
        ledger.detach();
        dev.detach();
    }
    // Zero both clocks.
    void restart() {
        dev.reset();
        ledger.reset();
        m_mark = 0.0;
    }
    // Device seconds since the last lap() or restart().
    double lap() {
        const double t = dev.elapsedSeconds() - m_mark;
        m_mark = dev.elapsedSeconds();
        return t;
    }
    double netTime() const { return ledger.phaseTime(ranks, net); }

private:
    double m_mark = 0.0;
};

struct Row {
    double frac = 0.0;
    double t_fused = 0.0, t_split = 0.0;
    double hidden = 0.0; // min(network, interior): comm time paid behind compute
    double gain() const { return 1.0 - t_split / t_fused; }
};

// A stencil site's two paths: `fused_exchange` is its blocking exchange,
// `post` the same exchange posted split-phase, and `sweep(f, region)` its
// kernels on `region` of fab f.
Row timeStencilSite(const Layout& L, MultiFab& mf, int stencil,
                    const std::function<void()>& fused_exchange,
                    const std::function<comm::HaloHandle()>& post,
                    const std::function<void(std::size_t, const Box&)>& sweep) {
    Clocks c(L.ranks);
    const auto part = CopierCache::instance().interiorPartition(mf.boxArray(), stencil);
    Row row;
    row.frac = interiorFraction(mf.boxArray(), stencil);
    {
        comm::ScopedAsyncHalo off(false);
        c.restart();
        fused_exchange();
        const double t_copies = c.lap();
        const double t_net = c.netTime();
        {
            StreamScope streams;
            for (std::size_t f = 0; f < mf.size(); ++f) {
                streams.useFab(f);
                sweep(f, mf.box(static_cast<int>(f)));
            }
        }
        row.t_fused = (t_copies + c.lap()) * L.share + t_net;
    }
    {
        comm::ScopedAsyncHalo on(true);
        c.restart();
        comm::HaloHandle halo = post();
        const double t_pack = c.lap();
        {
            StreamScope streams;
            for (std::size_t f = 0; f < mf.size(); ++f) {
                if (!part->fabs[f].interior.ok()) continue;
                streams.useFab(f);
                sweep(f, part->fabs[f].interior);
            }
        }
        const double t_interior = c.lap() * L.share;
        halo.finish();
        const double t_unpack = c.lap();
        const double t_net = c.netTime();
        {
            StreamScope streams;
            for (std::size_t f = 0; f < mf.size(); ++f) {
                streams.useFab(f);
                for (const Box& sb : part->fabs[f].shell) sweep(f, sb);
            }
        }
        const double t_shell = c.lap();
        row.t_split = (t_pack + t_unpack + t_shell) * L.share +
                      std::max(t_net, t_interior);
        row.hidden = std::min(t_net, t_interior);
    }
    return row;
}

// Castro RK-stage RHS on a Sedov-like blast.
Row castroStage(const Layout& L, Reconstruction recon, const ReactionNetwork& net) {
    const Eos eos(GammaLawEos{1.4});
    const StateLayout layout(net.nspec());
    MultiFab state(L.ba, L.dm, layout.ncomp(), 4);
    MultiFab dudt(L.ba, L.dm, layout.ncomp(), 0);
    state.setVal(0.0);
    for (std::size_t b = 0; b < state.size(); ++b) {
        auto u = state.array(static_cast<int>(b));
        const Box& vb = state.box(static_cast<int>(b));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    const Real x = L.geom.cellCenter(0, i) - 0.5;
                    const Real y = L.geom.cellCenter(1, j) - 0.5;
                    const Real z = L.geom.cellCenter(2, k) - 0.5;
                    const Real p = 1.0e-5 + std::exp(-(x * x + y * y + z * z) / 0.01);
                    u(i, j, k, StateLayout::URHO) = 1.0;
                    u(i, j, k, StateLayout::UEDEN) = p / 0.4;
                    u(i, j, k, StateLayout::UTEMP) = 1.0;
                    u(i, j, k, StateLayout::UFS) = 1.0;
                }
    }
    const Periodicity per = L.geom.periodicity();
    const int nc = state.nComp();
    return timeStencilSite(
        L, state, stencilWidth(recon), [&] { state.FillBoundary(0, nc, per); },
        [&] { return state.FillBoundary_nowait(0, nc, per); },
        [&](std::size_t f, const Box& region) {
            molRhsRegion(state, dudt, static_cast<int>(f), region, L.geom, net, eos,
                         nullptr, recon);
        });
}

// One red-black Gauss-Seidel half-sweep (the multigrid smoother's kernel
// and KernelInfo).
Row mgSmoother(int edge) {
    const Layout L = crossoverLayout(edge);
    MultiFab phi(L.ba, L.dm, 1, 1);
    MultiFab rhs(L.ba, L.dm, 1, 0);
    phi.setVal(0.0);
    rhs.setVal(1.0);
    const Periodicity per = L.geom.periodicity();
    const Real h2 = 1.0 / (L.geom.cellSize(0) * L.geom.cellSize(0));
    const KernelInfo smooth{"mg_smooth", 12.0, 96.0, 40, 1.0};
    return timeStencilSite(
        L, phi, 1, [&] { phi.FillBoundary(0, 1, per); },
        [&] { return phi.FillBoundary_nowait(0, 1, per); },
        [&](std::size_t f, const Box& region) {
            auto p = phi.array(static_cast<int>(f));
            auto r = rhs.const_array(static_cast<int>(f));
            ParallelFor(smooth, region, [=](int i, int j, int k) {
                if (((i + j + k) & 1) != 0) return;
                const Real sum = h2 * (p(i + 1, j, k) + p(i - 1, j, k) + p(i, j + 1, k) +
                                       p(i, j - 1, k) + p(i, j, k + 1) + p(i, j, k - 1));
                p(i, j, k) = (sum - r(i, j, k)) / (6.0 * h2);
            });
        });
}

// fillPatchTwoLevels onto the fine layout from a coarse level that
// covers it with a margin; the interpolation is the overlapped work.
Row fillPatch(int edge, int dst_ng) {
    const Layout fine = crossoverLayout(edge);
    // The fine boxes cover coarse zones [0, edge)^3; four coarse zones of
    // margin hold the ghosts' interpolation stencils.
    const int m = 4;
    const Box cdom({-m, -m, -m}, {edge + m - 1, edge + m - 1, edge + m - 1});
    const Geometry cgeom(cdom, {-m, -m, -m}, {Real(edge + m), Real(edge + m), Real(edge + m)});
    const Geometry fgeom = cgeom.refined(2);
    BoxArray cba(cdom);
    cba.maxSize(edge);
    const DistributionMapping cdm(cba, kRanks);
    MultiFab crse(cba, cdm, 1, 1);
    crse.setVal(1.0);
    MultiFab fine_src(fine.ba, fine.dm, 1, 0);
    fine_src.setVal(2.0);
    MultiFab dst(fine.ba, fine.dm, 1, dst_ng);
    dst.setVal(0.0);

    Clocks c(fine.ranks);
    Row row;
    row.frac = interiorFraction(fine.ba, dst_ng);
    const Periodicity per = fgeom.periodicity();
    comm::ScopedAsyncHalo off(false);
    c.restart();
    fillPatchTwoLevels(dst, fine_src, crse, cgeom, fgeom, 2, 0, 0, 1, dst_ng);
    const double t_fused_dev = c.lap();
    const double t_net = c.netTime();
    dst.ParallelCopy(fine_src, 0, 0, 1, dst_ng, per);
    const double t_interp = t_fused_dev - c.lap();
    row.t_fused = t_fused_dev * fine.share + t_net;

    comm::ScopedAsyncHalo on(true);
    c.restart();
    comm::HaloHandle halo = dst.ParallelCopy_nowait(fine_src, 0, 0, 1, dst_ng, per);
    const double t_pack = c.lap();
    halo.finish();
    const double t_unpack = c.lap();
    row.t_split = (t_pack + t_unpack) * fine.share + std::max(t_net, t_interp * fine.share);
    return row;
}

// Where split starts to win over `rows`: the largest interior fraction
// that lost and the smallest that won.
void printCrossover(const std::vector<Row>& rows) {
    double last_loss = -1.0, first_win = 2.0;
    for (const Row& r : rows) {
        if (r.gain() > 0.0) {
            first_win = std::min(first_win, r.frac);
        } else {
            last_loss = std::max(last_loss, r.frac);
        }
    }
    if (last_loss < 0.0) {
        std::printf("split wins at every interior fraction\n");
    } else if (first_win > 1.0) {
        std::printf("split loses at every interior fraction\n");
    } else if (first_win > last_loss) {
        std::printf("split starts to win in interior fraction (%.3f, %.3f]\n", last_loss,
                    first_win);
    } else {
        std::printf("no threshold separates: a loss at %.3f, a win at %.3f\n", last_loss,
                    first_win);
    }
}

void printSite(const char* name, int max_edge, const std::function<Row(int)>& run,
               std::vector<Row>& all) {
    std::printf("\n%s\n", name);
    std::printf("%8s %9s %10s %10s %9s\n", "box", "interior", "fused ms", "split ms",
                "gain");
    std::vector<Row> rows;
    for (const int edge : kEdges) {
        if (edge > max_edge) break;
        const Row r = run(edge);
        rows.push_back(r);
        all.push_back(r);
        std::printf("%5d^3 %9.3f %10.3f %10.3f %8.1f%%\n", edge, r.frac,
                    r.t_fused * 1e3, r.t_split * 1e3, 100.0 * r.gain());
    }
    printCrossover(rows);
}

// E11's table: the PLM stage on several decompositions of one domain.
void printDecompositions(const ReactionNetwork& net) {
    std::printf("\nE11: Castro RK stage (PLM, stencil 2) by decomposition\n");
    std::printf("%-22s %-14s %10s %10s %10s %9s\n", "decomposition", "layout",
                "fused ms", "split ms", "hidden ms", "gain");
    struct Case {
        int ncell, max_grid, nranks, nodes;
    };
    const Case cases[] = {
        {64, 16, 8, 8},    // 64 boxes of 16^3: shells dominate, copies x2
        {128, 32, 8, 8},   // 64 boxes of 32^3
        {128, 64, 8, 8},   // 1 box of 64^3 per rank
        {128, 64, 4, 4},   // 2 boxes of 64^3 per rank
        {192, 64, 4, 4},   // 27 boxes of 64^3, ~7 per rank
        {256, 64, 8, 8},   // 64 boxes of 64^3, 8 per rank
        {256, 64, 16, 16}, // 4 boxes of 64^3 per rank
        {256, 128, 8, 8},  // 1 box of 128^3 per rank
    };
    for (const Case& c : cases) {
        const Row r = castroStage(Layout(c.ncell, c.max_grid, c.nranks, c.nodes),
                                  Reconstruction::PLM, net);
        char decomp[64], lay[32];
        std::snprintf(decomp, sizeof decomp, "%d^3 / %d^3 boxes", c.ncell, c.max_grid);
        std::snprintf(lay, sizeof lay, "%dr x %dn", c.nranks, c.nodes);
        std::printf("%-22s %-14s %10.2f %10.2f %10.2f %8.1f%%\n", decomp, lay,
                    r.t_fused * 1e3, r.t_split * 1e3, r.hidden * 1e3, 100.0 * r.gain());
    }
    std::printf("hidden = min(network, interior): comm time paid behind compute\n");
}

} // namespace

int main(int argc, char** argv) {
    const bool decompositions = argc > 1 && std::strcmp(argv[1], "--decompositions") == 0;
    benchutil::printHeader(
        "Split-phase halo crossover: interior fraction vs modeled gain per site");
    std::printf("2 x 2 x 2 periodic edge^3 boxes on 8 ranks (1 per node), modeled V100\n"
                "+ EDR fabric; gain = 1 - split / fused\n");

    ScopedBackend backend(Backend::SimGpu);
    auto net = makeIgnitionSimple();
    std::vector<Row> all;
    printSite("Castro RK stage, PLM (stencil 2)", 64,
              [&](int e) { return castroStage(crossoverLayout(e), Reconstruction::PLM, net); },
              all);
    printSite("Castro RK stage, PPM (stencil 3)", 64,
              [&](int e) { return castroStage(crossoverLayout(e), Reconstruction::PPM, net); },
              all);
    printSite("multigrid smoother half-sweep (stencil 1)", 128, mgSmoother, all);
    printSite("fillPatchTwoLevels, dst_ng 4", 128,
              [](int e) { return fillPatch(e, 4); }, all);

    std::printf("\nall sites: ");
    printCrossover(all);
    if (decompositions) printDecompositions(net);
    return 0;
}
