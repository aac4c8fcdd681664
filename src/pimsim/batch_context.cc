#include "pimsim/batch_context.hh"

#include "common/logging.hh"

namespace swiftrl::pimsim {

BatchKernelContext::BatchKernelContext(std::span<Dpu *const> dpus,
                                       const DpuCostModel &model,
                                       std::size_t wram_capacity,
                                       KernelScratch *scratch)
    : _dpus(dpus.begin(), dpus.end()), _scratch(scratch)
{
    SWIFTRL_ASSERT(!_dpus.empty(),
                   "a batch cohort needs at least one lane");
    for (Dpu *dpu : _dpus)
        _contexts.emplace_back(*dpu, model, wram_capacity);
}

KernelScratch &
BatchKernelContext::scratch()
{
    if (!_scratch) {
        _owned = std::make_unique<KernelScratch>();
        _scratch = _owned.get();
    }
    return *_scratch;
}

void
BatchKernelContext::flushAll()
{
    for (auto &ctx : _contexts)
        ctx.flush();
}

} // namespace swiftrl::pimsim
