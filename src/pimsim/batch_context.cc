#include "pimsim/batch_context.hh"

#include "common/logging.hh"

namespace swiftrl::pimsim {

BatchKernelContext::BatchKernelContext(std::span<Dpu *const> dpus,
                                       const DpuCostModel &model,
                                       std::size_t wram_capacity)
    : _dpus(dpus.begin(), dpus.end())
{
    SWIFTRL_ASSERT(!_dpus.empty(),
                   "a batch cohort needs at least one lane");
    for (Dpu *dpu : _dpus)
        _contexts.emplace_back(*dpu, model, wram_capacity);
}

void
BatchKernelContext::flushAll()
{
    for (auto &ctx : _contexts)
        ctx.flush();
}

} // namespace swiftrl::pimsim
