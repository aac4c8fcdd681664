/**
 * @file
 * The PIM-side training kernels: the code that would be compiled for
 * the DPUs on real hardware. One launch trains a batch of whole
 * episodes over the core's chunk of experiences.
 *
 * Kernel structure (per core, per launch):
 *   1. DMA the Q-table from the MRAM bank into WRAM.
 *   2. Restore the persistent LCG state.
 *   3. For each episode: walk the chunk in the workload's sampling
 *      order; for each experience, fetch it (block-cached DMA for
 *      SEQ/STR, single-record DMA for RAN) and apply the update rule,
 *      each priced op charged to the core.
 *   4. DMA the Q-table back to MRAM, persist the LCG state.
 *
 * Functional results are bit-identical to rlcore::trainCpuReference by
 * construction — both instantiate the same templates from
 * rlcore/update_rules.hh.
 *
 * The simulator charges steps 1 and 4 as the DPU program's DMA but
 * moves no bytes for them: each lane trains on its Q region in place
 * in the MRAM bank (see runTrainingKernelBatch).
 */

#ifndef SWIFTRL_SWIFTRL_PIM_KERNELS_HH
#define SWIFTRL_SWIFTRL_PIM_KERNELS_HH

#include <cstdint>
#include <vector>

#include "pimsim/batch_context.hh"
#include "rlcore/trainers.hh"
#include "rlcore/types.hh"
#include "swiftrl/workload.hh"

namespace swiftrl {

/** MRAM layout and launch parameters shared by every core. */
struct KernelParams
{
    /** Workload variant to run. */
    Workload workload;

    /** Hyper-parameters (alpha, gamma, epsilon, stride, scale). */
    rlcore::Hyper hyper;

    /** Q-table shape. */
    rlcore::StateId numStates = 0;
    rlcore::ActionId numActions = 0;

    /** MRAM byte offset of the Q-table region. */
    std::size_t qOffset = 0;

    /** MRAM byte offset of the packed transition chunk. */
    std::size_t dataOffset = 0;

    /**
     * When true, the kernel counts per-(s,a) update visits in WRAM
     * and writes them to MRAM at visitsOffset after training —
     * enabling the host's visit-weighted aggregation (an extension
     * beyond the paper; see SessionConfig::weightedAggregation).
     */
    bool trackVisits = false;

    /** MRAM byte offset of the visit-count region. */
    std::size_t visitsOffset = 0;

    /** Whole episodes to run in this launch. */
    int episodes = 0;

    /** Per-core chunk lengths (in transitions). */
    const std::vector<std::size_t> *chunkCounts = nullptr;

    /**
     * Persistent LCG states, one stream per (core, tasklet):
     * lcgStates[core * tasklets + tasklet]. Read at launch entry,
     * written back at exit.
     */
    std::vector<std::uint32_t> *lcgStates = nullptr;

    /**
     * Hardware threads per core (paper: 1; its future work). With
     * t > 1 the chunk is split into t near-equal sub-chunks, each
     * walked by its own tasklet in the workload's sampling order,
     * updating the core's *shared* WRAM Q-table with round-robin
     * interleaving (the pipeline's fine-grained multithreading).
     */
    unsigned tasklets = 1;

    /** Transitions per SEQ/STR staging block (DMA limit / 16). */
    std::size_t blockTransitions = 128;

    /**
     * Sharded mode: rows of the Q-table slice each core owns (the
     * shard map's padded rowsPerShard). 0 = unsharded, the core
     * holds the whole table. In sharded mode the host pre-localises
     * every record's state ids — an owned state becomes its slice
     * row, a remote next state becomes sliceRows + its halo index —
     * so the update rules run unchanged against the table
     * [slice rows | halo rows]. Incompatible with trackVisits.
     */
    std::size_t sliceRows = 0;

    /**
     * MRAM byte offset of the read-only halo region (sharded). Must
     * directly follow the slice (qOffset + the slice's bytes): lanes
     * train on [slice | halo] in place.
     */
    std::size_t haloOffset = 0;

    /** Per-core halo row counts (sharded mode only). */
    const std::vector<std::size_t> *haloRows = nullptr;
};

/**
 * Training-kernel entry point, executed once per cohort chunk by
 * CommandStream::launchBatch. Dispatches on the workload's algorithm,
 * numeric format and action count, then trains every lane of the
 * cohort — one lane at a time — instead of interpreting the kernel
 * once per core (see docs/PERFORMANCE.md, "Batch interpretation").
 *
 * Each lane trains on its own bank in place (Dpu::mramLane): no
 * WRAM image is copied in or out, while the DMA the DPU program would
 * do is charged piece for piece.
 *
 * Functionally and in every modelled quantity — per-core cycles, op
 * counts, DMA bytes, Q-tables, visit counts, LCG streams — the result
 * is bit-identical to interpreting the DPU program once per core:
 * the lanes execute the real update-rule templates record by record,
 * while op-class charges are retired as per-lane *shape tallies*
 * multiplied by probe-calibrated per-shape charge profiles (exact,
 * because every update's charge sequence is fully determined by its
 * control-flow shape). tests/test_batch_context.cc enforces the
 * invariant against a scalar per-core oracle over every kernel
 * variant, tasklet count, visit tracking and sharded layouts.
 */
void runTrainingKernelBatch(pimsim::BatchKernelContext &batch,
                            const KernelParams &params);

/** Bytes of one packed transition record. */
inline constexpr std::size_t kTransitionBytes = 16;

/**
 * WRAM footprint of one kernel lane, which the lane reserves in one
 * KernelContext::wramAlloc before it trains: its @p q_entries-word
 * Q-table, the visit counters when p.trackVisits, and one staging
 * buffer for each of the min(p.tasklets, @p records) tasklets that
 * get records — a block of p.blockTransitions records for SEQ/STR,
 * one record for RAN. runSpecInvalidReason bounds a run with the same
 * function before any machine exists.
 */
std::size_t laneWramBytes(const KernelParams &p, std::size_t q_entries,
                          std::size_t records);

} // namespace swiftrl

#endif // SWIFTRL_SWIFTRL_PIM_KERNELS_HH
