/**
 * @file
 * Host-side runtime for the simulated PIM system. The API mirrors the
 * shape of the UPMEM SDK host library: allocate a set of cores, push
 * data to their MRAM banks, launch a kernel on all cores in parallel,
 * and gather results — with every call returning the modelled time it
 * would take on the real machine.
 *
 * Since the command-stream refactor, the blocking calls below are
 * thin wrappers over a one-command CommandStream per call: each
 * delegates to the system's default stream, which executes the
 * operation through the engine (kernel launches fan out across the
 * host thread pool), records it on the default stream's timeline,
 * and returns the command's modelled duration. Code that wants an
 * explicit execution plan — command sequences, sync intervals, a
 * trace of its own — constructs its own CommandStream on the system.
 */

#ifndef SWIFTRL_PIMSIM_PIM_SYSTEM_HH
#define SWIFTRL_PIMSIM_PIM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "pimsim/cost_model.hh"
#include "pimsim/dpu.hh"
#include "pimsim/fault_plan.hh"
#include "pimsim/kernel_context.hh"
#include "pimsim/transfer_model.hh"

namespace swiftrl::pimsim {

class CommandStream;
class HostPool;

/** Static configuration of a simulated PIM system. */
struct PimConfig
{
    /** Number of PIM cores (SwiftRL sweeps 125..2000 of 2,524). */
    std::size_t numDpus = 125;

    /** MRAM bank capacity per core (UPMEM: 64 MB). */
    std::size_t mramBytesPerDpu = 64ull * 1024 * 1024;

    /** WRAM scratchpad per core (UPMEM: 64 KB). */
    std::size_t wramBytesPerDpu = 64ull * 1024;

    /** Fixed host-side overhead per kernel launch, seconds. */
    double launchOverheadSec = 15.0e-6;

    /**
     * Host threads executing the *functional* per-core kernel work of
     * one launch (purely a simulation-speed knob: modelled time,
     * cycle counts, and training results are bit-identical for every
     * value). 0 = one per available hardware thread; both settings
     * are capped at numDpus.
     */
    unsigned hostThreads = 0;

    /** TDP of the full PIM server (Table 1: 280 W for 2,524 DPUs). */
    double systemTdpWatts = 280.0;

    /** DPU count the TDP figure refers to. */
    std::size_t tdpReferenceDpus = 2524;

    /** Power draw attributable to the cores actually in use. */
    double
    wattsInUse(std::size_t dpus_in_use) const
    {
        return systemTdpWatts * static_cast<double>(dpus_in_use) /
               static_cast<double>(tdpReferenceDpus);
    }

    /** Instruction/DMA cost model. */
    DpuCostModel costModel;

    /** Host<->PIM transfer timing model. */
    TransferModel transferModel;

    /**
     * Seeded fault-injection schedule. Inert by default (no rates,
     * nothing scheduled): zero-fault runs are byte-identical in time
     * and results to a build without fault injection.
     */
    FaultPlan faultPlan;
};

/**
 * The simulated PIM machine. Functionally, kernels execute on the
 * host; temporally, every operation advances integer cycle clocks per
 * the cost model, and every host API call returns modelled seconds.
 */
class PimSystem
{
  public:
    /** Build a system; fatal on invalid configuration. */
    explicit PimSystem(PimConfig config);

    ~PimSystem();

    // Streams and the pool hold references back to the system; pin it.
    PimSystem(const PimSystem &) = delete;
    PimSystem &operator=(const PimSystem &) = delete;
    PimSystem(PimSystem &&) = delete;
    PimSystem &operator=(PimSystem &&) = delete;

    /** Number of cores in the system. */
    std::size_t numDpus() const { return _dpus.size(); }

    /** Static configuration. */
    const PimConfig &config() const { return _config; }

    /** Access one core (tests and diagnostics). */
    const Dpu &dpu(std::size_t id) const;

    /** Host threads the engine uses for functional kernel work. */
    unsigned hostThreadCount() const;

    /**
     * The stream behind the blocking wrappers below. Its timeline
     * records every wrapper call in order.
     */
    CommandStream &defaultStream();

    // --- host<->PIM data movement ------------------------------------

    /**
     * Push a distinct payload to each core's MRAM at @p offset
     * (the dataset-chunk distribution step).
     *
     * @param offset destination MRAM byte offset, same on every core.
     * @param per_dpu one payload per core; sizes may differ (the last
     *        chunk of an uneven partition is shorter). Timing uses the
     *        largest payload, as rank transfers serialise on it.
     * @return modelled transfer seconds.
     */
    double pushChunks(std::size_t offset,
                      const std::vector<std::span<const std::uint8_t>>
                          &per_dpu);

    /** Push one identical payload to every core's MRAM at @p offset. */
    double pushBroadcast(std::size_t offset,
                         std::span<const std::uint8_t> payload);

    /**
     * Gather @p bytes from every core's MRAM at @p offset into
     * @p out (resized to numDpus() payloads). Unlike
     * CommandStream::gather, which hands out bank views, the blocking
     * wrapper copies the payloads out.
     *
     * The blocking wrapper has no recovery path: if the default
     * stream reports a fault it dies loudly. Fault-tolerant code
     * drives a CommandStream directly and handles the CommandStatus.
     * @return modelled transfer seconds.
     */
    double gather(std::size_t offset, std::size_t bytes,
                  std::vector<std::vector<std::uint8_t>> &out);

    // --- kernel launch -----------------------------------------------

    /**
     * Run @p kernel once per core. Cores execute in parallel on the
     * modelled machine, so the launch lasts as long as the slowest
     * core's kernel instance (plus fixed launch overhead).
     *
     * @param tasklets resident hardware threads per core. The DPU
     *        pipeline issues one instruction per cycle round-robin
     *        across tasklets, while each tasklet can issue only once
     *        per pipelineInterval cycles; with balanced tasklet work
     *        the launch therefore speeds up by min(tasklets,
     *        pipelineInterval). The kernel is responsible for
     *        splitting its work across tasklets (see
     *        swiftrl::KernelParams::tasklets).
     *
     * Like gather(), the blocking wrapper is fail-fast under an
     * active fault plan: a faulted launch is fatal here. Recovery
     * belongs to CommandStream callers with a RetryPolicy.
     * @return modelled seconds for the launch.
     */
    double launch(const KernelFn &kernel, unsigned tasklets = 1);

    // --- accounting ---------------------------------------------------

    /** Cycles consumed by the slowest core across all launches. */
    Cycles maxCycles() const;

    /** Sum of cycles over all cores (energy-proportional metric). */
    Cycles totalCycles() const;

    /** Reset all per-core clocks and statistics (MRAM kept). */
    void resetStats();

  private:
    friend class CommandStream; ///< the engine executes on _dpus/_pool

    PimConfig _config;
    std::vector<Dpu> _dpus;
    std::unique_ptr<HostPool> _pool;
    std::unique_ptr<CommandStream> _defaultStream; ///< lazily built
};

} // namespace swiftrl::pimsim

#endif // SWIFTRL_PIMSIM_PIM_SYSTEM_HH
