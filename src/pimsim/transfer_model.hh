/**
 * @file
 * Host<->PIM data transfer timing model.
 *
 * UPMEM DPUs have no direct channel to each other; all data enters and
 * leaves a DPU's MRAM bank through the host CPU over the memory
 * channel. Transfers to DPUs in *different ranks* proceed in parallel,
 * while DPUs within one rank share the rank's link. The model is
 *
 *   time = fixedLatency + max_over_ranks(bytes_in_rank) / rankBandwidth
 *
 * with separate CPU->PIM and PIM->CPU bandwidths (the UPMEM
 * characterisation work measures the read-back direction slower).
 * Inter-PIM-core "communication" (SwiftRL's tau-periodic Q-table
 * synchronisation) is composed from one gather plus one broadcast.
 */

#ifndef SWIFTRL_PIMSIM_TRANSFER_MODEL_HH
#define SWIFTRL_PIMSIM_TRANSFER_MODEL_HH

#include <cstddef>
#include <cstdint>

namespace swiftrl::pimsim {

/** Timing parameters for host<->PIM transfers. */
struct TransferModel
{
    /** DPUs that share one rank (8 chips x 8 banks in UPMEM DIMMs). */
    std::size_t dpusPerRank = 64;

    /** Sustained CPU->PIM bandwidth per rank, bytes/second. */
    double cpuToPimBytesPerSec = 300.0e6;

    /** Sustained PIM->CPU bandwidth per rank, bytes/second (the
     *  read-back direction is measured markedly slower on UPMEM). */
    double pimToCpuBytesPerSec = 60.0e6;

    /** Fixed software/driver latency per parallel transfer call. */
    double fixedLatencySec = 20.0e-6;

    /**
     * Host-side software overhead per DPU when scattering *distinct*
     * payloads (the initial dataset-chunk distribution). Uniform-size
     * pushes and gathers use the driver's fast batched path and do
     * not pay this.
     */
    double scatterPerDpuSec = 100.0e-6;

    /**
     * Host-side reduction cost per Q-table entry per core during a
     * synchronisation round (the averaging in Figure 4 (4)).
     */
    double hostReduceSecPerEntry = 1.2e-9;

    /**
     * Host-side cost per slice entry per *level* of the hierarchical
     * aggregation tree used by sharded sessions: replica tables of
     * one shard are summed pairwise, level by level, so a shard
     * group of R replicas costs ceil(log2(R)) passes over its slice
     * instead of the flat reduction's R passes. Same per-entry work
     * as one flat-reduce pass (one add per entry), hence the same
     * constant value as hostReduceSecPerEntry.
     */
    double treeReduceSecPerEntry = 1.2e-9;

    /**
     * Host-side cost per halo entry when assembling the per-core
     * remote-row (halo) payloads of a sharded sync round: one
     * gather-indexed row lookup plus a copy into the scatter
     * staging buffer per entry — roughly two flat-reduce passes,
     * hence 2x hostReduceSecPerEntry. For INT32 formats this also
     * covers the halo's requantisation (the slice's own conversion
     * is charged separately, mirroring the unsharded path).
     */
    double haloPackSecPerEntry = 2.4e-9;

    /**
     * Time for a parallel CPU->PIM copy of @p bytes_per_dpu to each of
     * @p num_dpus DPUs (uniform-size payloads, fast batched path).
     */
    double cpuToPimSeconds(std::size_t bytes_per_dpu,
                           std::size_t num_dpus) const;

    /**
     * Time for scattering *distinct* chunks of up to @p bytes_per_dpu
     * to @p num_dpus DPUs: the batched-copy time plus the per-DPU
     * software overhead of assembling the scatter list.
     */
    double scatterSeconds(std::size_t bytes_per_dpu,
                          std::size_t num_dpus) const;

    /**
     * Time for a parallel PIM->CPU gather of @p bytes_per_dpu from
     * each of @p num_dpus DPUs (e.g. partial Q-tables).
     */
    double pimToCpuSeconds(std::size_t bytes_per_dpu,
                           std::size_t num_dpus) const;

    /**
     * Time for broadcasting one identical payload of @p bytes to
     * @p num_dpus DPUs. Ranks receive in parallel; within a rank the
     * payload is replicated to every DPU's MRAM bank.
     */
    double broadcastSeconds(std::size_t bytes, std::size_t num_dpus) const;

    /**
     * Host time for reducing one shard group of @p replicas replica
     * slices of @p slice_entries entries each through the pairwise
     * aggregation tree: ceil(log2(replicas)) levels, each one pass
     * over the slice (minimum one pass — the averaging division is
     * a pass of its own even for a single replica). Shard groups
     * reduce independently; the caller charges the deepest group.
     */
    double aggregationTreeSeconds(std::size_t slice_entries,
                                  std::size_t replicas) const;

    /**
     * Host time for assembling @p halo_entries remote-row entries
     * into per-core halo payloads (sharded sync rounds only).
     */
    double haloPackSeconds(std::size_t halo_entries) const;

  private:
    /** DPUs resident in the fullest rank. */
    std::size_t fullestRank(std::size_t num_dpus) const;
};

/** Validate transfer model parameters; fatal on nonsense. */
void validate(const TransferModel &model);

} // namespace swiftrl::pimsim

#endif // SWIFTRL_PIMSIM_TRANSFER_MODEL_HH
