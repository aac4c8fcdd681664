#include "pimsim/transfer_model.hh"

#include <algorithm>

#include "common/logging.hh"

namespace swiftrl::pimsim {

std::size_t
TransferModel::fullestRank(std::size_t num_dpus) const
{
    SWIFTRL_ASSERT(num_dpus > 0, "transfer to zero DPUs");
    return std::min(num_dpus, dpusPerRank);
}

double
TransferModel::cpuToPimSeconds(std::size_t bytes_per_dpu,
                               std::size_t num_dpus) const
{
    if (bytes_per_dpu == 0)
        return 0.0;
    const double rank_bytes = static_cast<double>(bytes_per_dpu) *
                              static_cast<double>(fullestRank(num_dpus));
    return fixedLatencySec + rank_bytes / cpuToPimBytesPerSec;
}

double
TransferModel::scatterSeconds(std::size_t bytes_per_dpu,
                              std::size_t num_dpus) const
{
    if (bytes_per_dpu == 0)
        return 0.0;
    return cpuToPimSeconds(bytes_per_dpu, num_dpus) +
           scatterPerDpuSec * static_cast<double>(num_dpus);
}

double
TransferModel::pimToCpuSeconds(std::size_t bytes_per_dpu,
                               std::size_t num_dpus) const
{
    if (bytes_per_dpu == 0)
        return 0.0;
    const double rank_bytes = static_cast<double>(bytes_per_dpu) *
                              static_cast<double>(fullestRank(num_dpus));
    return fixedLatencySec + rank_bytes / pimToCpuBytesPerSec;
}

double
TransferModel::broadcastSeconds(std::size_t bytes,
                                std::size_t num_dpus) const
{
    if (bytes == 0)
        return 0.0;
    // Same layout as a distinct-payload push: every DPU's bank must
    // receive its own copy, so the fullest rank still serialises one
    // copy per resident DPU.
    return cpuToPimSeconds(bytes, num_dpus);
}

double
TransferModel::aggregationTreeSeconds(std::size_t slice_entries,
                                      std::size_t replicas) const
{
    if (slice_entries == 0 || replicas == 0)
        return 0.0;
    // ceil(log2(replicas)) pairwise-sum levels; at least one pass
    // (the final averaging division over the reduced slice).
    std::size_t levels = 0;
    for (std::size_t span = 1; span < replicas; span *= 2)
        ++levels;
    levels = std::max<std::size_t>(levels, 1);
    return treeReduceSecPerEntry *
           static_cast<double>(slice_entries) *
           static_cast<double>(levels);
}

double
TransferModel::haloPackSeconds(std::size_t halo_entries) const
{
    return haloPackSecPerEntry * static_cast<double>(halo_entries);
}

void
validate(const TransferModel &model)
{
    if (model.dpusPerRank == 0)
        SWIFTRL_FATAL("dpusPerRank must be positive");
    if (model.cpuToPimBytesPerSec <= 0.0 ||
        model.pimToCpuBytesPerSec <= 0.0) {
        SWIFTRL_FATAL("transfer bandwidths must be positive");
    }
    if (model.fixedLatencySec < 0.0)
        SWIFTRL_FATAL("fixed transfer latency cannot be negative");
    if (model.scatterPerDpuSec < 0.0 || model.hostReduceSecPerEntry < 0.0)
        SWIFTRL_FATAL("per-DPU and host-reduce overheads cannot be "
                      "negative");
    if (model.treeReduceSecPerEntry < 0.0 ||
        model.haloPackSecPerEntry < 0.0) {
        SWIFTRL_FATAL("sharded aggregation overheads cannot be "
                      "negative");
    }
}

} // namespace swiftrl::pimsim
