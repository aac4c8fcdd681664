/**
 * @file
 * The simulated PIM machine: its cores (each with an MRAM bank and
 * cycle clocks), the host thread pool that executes their functional
 * kernel work, and the machine-wide accounting. Work is issued through
 * a CommandStream built on the system — push data to the cores' MRAM
 * banks, launch a kernel on all cores in parallel, gather results —
 * in the shape of the UPMEM SDK host library, with every command
 * recorded on the stream's modelled-time timeline.
 */

#ifndef SWIFTRL_PIMSIM_PIM_SYSTEM_HH
#define SWIFTRL_PIMSIM_PIM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "pimsim/cost_model.hh"
#include "pimsim/dpu.hh"
#include "pimsim/fault_plan.hh"
#include "pimsim/host_pool.hh"
#include "pimsim/kernel_context.hh"
#include "pimsim/transfer_model.hh"

namespace swiftrl::pimsim {

class CommandStream;

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
 * the cost model, and every CommandStream command returns modelled
 * seconds.
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
     * Run fn(index) for index 0..n-1 on the engine's host pool, the
     * calling thread included, and return when every call is done:
     * host-side work between commands (the tau-round mean) that splits
     * into index-pure blocks. The HostPool::parallelFor contract
     * holds: calls for distinct indices may run concurrently, so fn
     * must touch nothing another index touches. Not reentrant: call it
     * from the thread that enqueues commands, never from a pool lane.
     */
    template <typename Fn>
    void
    hostParallelFor(std::size_t n, Fn &&fn)
    {
        _pool->parallelFor(n, fn);
    }

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
};

} // namespace swiftrl::pimsim

#endif // SWIFTRL_PIMSIM_PIM_SYSTEM_HH
