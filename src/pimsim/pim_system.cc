#include "pimsim/pim_system.hh"

#include <algorithm>
#include <thread>

#include "common/logging.hh"
#include "pimsim/command_stream.hh"
#include "pimsim/host_pool.hh"

namespace swiftrl::pimsim {

namespace {

/** Resolve PimConfig::hostThreads to a concrete pool size. */
unsigned
resolveHostThreads(unsigned requested, std::size_t num_dpus)
{
    unsigned threads = requested;
    if (threads == 0) {
        threads = std::max(1u, std::thread::hardware_concurrency());
    }
    // More threads than cores would only idle.
    threads = static_cast<unsigned>(std::min<std::size_t>(
        threads, num_dpus));
    return std::max(1u, threads);
}

} // namespace

PimSystem::PimSystem(PimConfig config) : _config(std::move(config))
{
    if (_config.numDpus == 0)
        SWIFTRL_FATAL("a PIM system needs at least one core");
    if (_config.mramBytesPerDpu == 0 || _config.wramBytesPerDpu == 0)
        SWIFTRL_FATAL("per-core memories must be non-empty");
    validate(_config.costModel);
    validate(_config.transferModel);
    validate(_config.faultPlan);

    _dpus.reserve(_config.numDpus);
    for (std::size_t i = 0; i < _config.numDpus; ++i)
        _dpus.emplace_back(i, _config.mramBytesPerDpu);

    _pool = std::make_unique<HostPool>(
        resolveHostThreads(_config.hostThreads, _config.numDpus));
}

PimSystem::~PimSystem() = default;

const Dpu &
PimSystem::dpu(std::size_t id) const
{
    SWIFTRL_ASSERT(id < _dpus.size(), "DPU id ", id, " out of range");
    return _dpus[id];
}

unsigned
PimSystem::hostThreadCount() const
{
    return _pool->threadCount();
}

CommandStream &
PimSystem::defaultStream()
{
    if (!_defaultStream)
        _defaultStream = std::make_unique<CommandStream>(*this);
    return *_defaultStream;
}

double
PimSystem::pushChunks(std::size_t offset,
                      const std::vector<std::span<const std::uint8_t>>
                          &per_dpu)
{
    return defaultStream().pushChunks(offset, per_dpu);
}

double
PimSystem::pushBroadcast(std::size_t offset,
                         std::span<const std::uint8_t> payload)
{
    return defaultStream().pushBroadcast(offset, payload);
}

double
PimSystem::gather(std::size_t offset, std::size_t bytes,
                  std::vector<std::vector<std::uint8_t>> &out)
{
    std::vector<std::span<const std::uint8_t>> views;
    const CommandStatus status =
        defaultStream().gather(offset, bytes, views);
    if (!status.ok())
        SWIFTRL_FATAL("gather failed (", faultKindName(
                          status.error->kind),
                      " at fault site ", status.error->site,
                      ") and the blocking API has no recovery path; "
                      "drive a CommandStream with a RetryPolicy");
    // Copy out of the bank views; dropped cores stay zero-filled.
    out.assign(views.size(), std::vector<std::uint8_t>(bytes));
    for (std::size_t i = 0; i < views.size(); ++i)
        std::copy(views[i].begin(), views[i].end(), out[i].begin());
    return status.seconds;
}

double
PimSystem::launch(const KernelFn &kernel, unsigned tasklets)
{
    const CommandStatus status =
        defaultStream().launch(kernel, tasklets);
    if (!status.ok())
        SWIFTRL_FATAL("kernel launch failed (", faultKindName(
                          status.error->kind),
                      " at fault site ", status.error->site,
                      ") and the blocking API has no recovery path; "
                      "drive a CommandStream with a RetryPolicy");
    return status.seconds;
}

Cycles
PimSystem::maxCycles() const
{
    Cycles m = 0;
    for (const auto &dpu : _dpus)
        m = std::max(m, dpu.cycles());
    return m;
}

Cycles
PimSystem::totalCycles() const
{
    Cycles t = 0;
    for (const auto &dpu : _dpus)
        t += dpu.cycles();
    return t;
}

void
PimSystem::resetStats()
{
    for (auto &dpu : _dpus)
        dpu.resetStats();
}

} // namespace swiftrl::pimsim
