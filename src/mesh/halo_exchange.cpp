// Split-phase halo exchange: the implementation behind
// comm::HaloHandle and the MultiFab _nowait entry points.
//
// Post stages every plan item's source region into a pack buffer on the
// destination fab's stream (the payload is captured before the caller
// overwrites anything, exactly as an MPI_Isend would have serialized
// it); finish() unpacks the buffers in exact plan-item order and runs
// the per-item delivery tail (fault injection + CommHooks message
// records) through the same MultiFab helper the fused path uses, so the
// two paths are bit-identical in data, accounting, and fault-schedule
// consumption.
//
// This file lives in exastro_mesh (not exastro_comm) because the comm
// library links against the mesh library, not the other way round; the
// handle's declaration stays in src/comm/halo_handle.hpp.

#include "comm/halo_handle.hpp"

#include "core/debug.hpp"
#include "core/executor.hpp"
#include "core/fault.hpp"
#include "mesh/comm_hooks.hpp"
#include "mesh/copier_cache.hpp"
#include "mesh/multifab.hpp"

#include <cassert>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace exa {
namespace comm {

namespace {
bool g_async_halo = false;
}

void setAsyncHalo(bool enabled) { g_async_halo = enabled; }
bool asyncHalo() { return g_async_halo; }

struct HaloHandle::Impl {
    std::shared_ptr<const CopyPlan> plan;
    MultiFab* dst = nullptr;
    int dcomp = 0;
    int ncomp = 0;
    const char* tag = "";
    // One pack buffer per plan item, filled at post time.
    std::vector<FArrayBox> staged;
    bool finished = false;

    std::int64_t offrankBytes() const {
        return plan->offrank_zones * ncomp * static_cast<std::int64_t>(sizeof(Real));
    }
};

HaloHandle::HaloHandle() = default;

HaloHandle::HaloHandle(std::unique_ptr<Impl> impl) : m_impl(std::move(impl)) {}

HaloHandle::HaloHandle(HaloHandle&&) noexcept = default;
HaloHandle& HaloHandle::operator=(HaloHandle&&) noexcept = default;

bool HaloHandle::pending() const { return m_impl && !m_impl->finished; }

void HaloHandle::finish() {
    if (!m_impl) return; // empty or eagerly-completed handle: nothing staged
    Impl& im = *m_impl;
    if (im.finished) {
        if (ExecConfig::backend() == Backend::Debug) {
            debug::reportViolation("HaloHandle", "halo-double-finish",
                                   std::string("finish() called twice for tag '") +
                                       im.tag + "'");
        }
        return;
    }
    const bool account = CommHooks::active();
    {
        StreamScope streams;
        for (std::size_t i = 0; i < im.plan->items.size(); ++i) {
            const CopyItem& item = im.plan->items[i];
            // Injection site: same dropped-message semantics as the fused
            // copyFromPlan path — an off-rank payload never arrives.
            if (!item.local() &&
                fault::shouldFire(fault::Site::CommMessageDrop)) {
                continue;
            }
            streams.useFab(static_cast<std::size_t>(item.dst_fab));
            im.dst->fab(item.dst_fab).copyFrom(im.staged[i], item.src_box, 0,
                                               item.dst_box, im.dcomp, im.ncomp);
            im.dst->deliverItemTail(item, im.dcomp, im.ncomp, account, im.tag);
        }
    }
    im.staged.clear();
    im.finished = true;
    if (CommHooks::haloActive()) {
        CommHooks::notifyHalo({HaloPhase::Finished, im.tag,
                               static_cast<std::int64_t>(im.plan->items.size()),
                               im.offrankBytes()});
    }
}

HaloHandle::~HaloHandle() {
    if (m_impl && !m_impl->finished) {
        // RAII safety net: the exchange still completes, but letting a
        // handle die pending forfeits the overlap the caller posted it
        // for — under the verification backend that is a diagnosed
        // contract violation, like a forgotten cudaStreamSynchronize.
        // A handle unwound by an in-flight exception is the safety net
        // doing its job (the step will be rolled back or rethrown), not
        // a forgotten finish, so only the normal path is flagged.
        if (ExecConfig::backend() == Backend::Debug &&
            std::uncaught_exceptions() == 0) {
            debug::reportViolation("HaloHandle", "halo-unfinished",
                                   std::string("handle destroyed before finish() "
                                               "for tag '") +
                                       m_impl->tag + "'");
        }
        finish();
    }
}

} // namespace comm

namespace {

// Stage every plan item's source region into its own pack buffer, on the
// destination fab's stream (matching the stream the fused path would use
// for the delivery copy).
void packItems(std::vector<FArrayBox>& staged, const CopyPlan& plan,
               const MultiFab& src, int scomp, int ncomp) {
    staged.reserve(plan.items.size());
    StreamScope streams;
    for (const CopyItem& item : plan.items) {
        streams.useFab(static_cast<std::size_t>(item.dst_fab));
        FArrayBox buf(item.src_box, ncomp);
        buf.copyFrom(src.fab(item.src_fab), item.src_box, scomp, item.src_box, 0,
                     ncomp);
        staged.push_back(std::move(buf));
    }
}

} // namespace

comm::HaloHandle MultiFab::FillBoundary_nowait(int scomp, int ncomp,
                                               const Periodicity& period) {
    assert(scomp + ncomp <= m_ncomp);
    if (!comm::asyncHalo() || m_fabs.empty()) {
        FillBoundary(scomp, ncomp, period);
        return comm::HaloHandle{};
    }
    auto impl = std::make_unique<comm::HaloHandle::Impl>();
    impl->plan = CopierCache::instance().fillBoundary(m_ba, m_dm, m_ngrow, period);
    impl->dst = this;
    impl->dcomp = scomp; // FillBoundary exchanges in place: dcomp == scomp
    impl->ncomp = ncomp;
    impl->tag = "fillboundary";
    packItems(impl->staged, *impl->plan, *this, scomp, ncomp);
    if (CommHooks::haloActive()) {
        CommHooks::notifyHalo({HaloPhase::Posted, impl->tag,
                               static_cast<std::int64_t>(impl->plan->items.size()),
                               impl->offrankBytes()});
    }
    return comm::HaloHandle(std::move(impl));
}

comm::HaloHandle MultiFab::ParallelCopy_nowait(const MultiFab& src, int scomp,
                                               int dcomp, int ncomp, int dst_ng,
                                               const Periodicity& period) {
    assert(dst_ng <= m_ngrow);
    if (!comm::asyncHalo() || m_fabs.empty() || src.m_fabs.empty()) {
        ParallelCopy(src, scomp, dcomp, ncomp, dst_ng, period);
        return comm::HaloHandle{};
    }
    auto impl = std::make_unique<comm::HaloHandle::Impl>();
    impl->plan = CopierCache::instance().parallelCopy(m_ba, m_dm, src.m_ba,
                                                      src.m_dm, dst_ng, period);
    impl->dst = this;
    impl->dcomp = dcomp;
    impl->ncomp = ncomp;
    impl->tag = "parallelcopy";
    packItems(impl->staged, *impl->plan, src, scomp, ncomp);
    if (CommHooks::haloActive()) {
        CommHooks::notifyHalo({HaloPhase::Posted, impl->tag,
                               static_cast<std::int64_t>(impl->plan->items.size()),
                               impl->offrankBytes()});
    }
    return comm::HaloHandle(std::move(impl));
}

} // namespace exa
