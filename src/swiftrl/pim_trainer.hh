/**
 * @file
 * The SwiftRL training orchestrator: the host-side program that
 * executes Figure 4's four steps on the (simulated) PIM machine —
 * (1) distribute dataset chunks to the cores' DRAM banks,
 * (2) run the training kernel on every core in parallel,
 * (3) retrieve partial Q-tables, and
 * (4) aggregate them on the host —
 * with the tau-periodic inter-core synchronisation of Sec. 4.2 and the
 * multi-agent independent-learner mode of Sec. 3.2.1.
 *
 * Each run is issued as an explicit command sequence on a
 * pimsim::CommandStream: every scatter / launch / gather / reduce /
 * broadcast becomes a command with a `{start, end}` interval on the
 * stream's modelled-time timeline. The reported TimeBreakdown is
 * *derived from that timeline* (see breakdownFromTimeline), and the
 * timeline itself ships in the result for Chrome-trace export.
 */

#ifndef SWIFTRL_SWIFTRL_PIM_TRAINER_HH
#define SWIFTRL_SWIFTRL_PIM_TRAINER_HH

#include <vector>

#include "pimsim/command_stream.hh"
#include "pimsim/pim_system.hh"
#include "pimsim/timeline.hh"
#include "rlcore/dataset.hh"
#include "rlcore/qtable.hh"
#include "swiftrl/qtable_io.hh"
#include "swiftrl/session.hh"
#include "swiftrl/time_breakdown.hh"
#include "swiftrl/workload.hh"

namespace swiftrl {

/**
 * Configuration for one PIM training run: a SessionConfig, under the
 * name the paper-reproduction harnesses use. PimTrainer drives offline
 * sessions only, so `streaming` must stay false.
 */
using PimTrainConfig = SessionConfig;

/** Output of a PIM training run. */
struct PimTrainResult
{
    /** Aggregated final Q-table (average of all local tables). */
    rlcore::QTable finalQ;

    /** Per-core final tables; filled only in multi-agent mode. */
    std::vector<rlcore::QTable> perCore;

    /**
     * Modelled execution time, split per Figures 5/6. Derived from
     * `timeline` via breakdownFromTimeline — the two always agree.
     */
    TimeBreakdown time;

    /**
     * The run's full command timeline: one event per scatter /
     * launch / gather / host-reduce / broadcast command, in modelled
     * time. Export with Timeline::writeChromeTrace for
     * chrome://tracing.
     */
    pimsim::Timeline timeline;

    /** Inter-core communication rounds executed. */
    int commRounds = 0;

    /**
     * Convergence trace: max |change| of the aggregated Q-table at
     * each synchronisation round. Empty in multi-agent mode.
     */
    std::vector<float> roundDeltas;

    /** PIM cores that participated. */
    std::size_t coresUsed = 0;

    /** Faulted command attempts absorbed by the retry policy. */
    int faultsDetected = 0;

    /** Cores lost to permanent dropouts (work redistributed). */
    std::size_t coresLost = 0;

    PimTrainResult() : finalQ(1, 1) {}
};

/**
 * Drives training of one workload on a PimSystem. The trainer owns no
 * PIM state beyond a run; the same system can be reused (resetStats
 * between runs for clean accounting).
 */
class PimTrainer
{
  public:
    /** @param system machine to run on; must outlive the trainer. */
    PimTrainer(pimsim::PimSystem &system, PimTrainConfig config);

    /**
     * Standard SwiftRL training: partition @p data across all cores,
     * train with tau-periodic averaging, aggregate on the host.
     */
    PimTrainResult train(const rlcore::Dataset &data,
                         rlcore::StateId num_states,
                         rlcore::ActionId num_actions);

    /**
     * Train until @p rounds synchronisation rounds have completed,
     * then checkpoint and stop (no final retrieval). The returned
     * checkpoint — persistable with saveCheckpoint() — restores in a
     * fresh process via resume(), which continues bit-identically to
     * an uninterrupted train(). A @p rounds past the end of the run
     * checkpoints at the final round boundary.
     */
    SessionCheckpoint trainUntilRound(const rlcore::Dataset &data,
                                      rlcore::StateId num_states,
                                      rlcore::ActionId num_actions,
                                      int rounds);

    /**
     * Continue a checkpointed run to completion. @p data must be the
     * same dataset the checkpointed run trained on (the transition
     * region is rebuilt from it), and the trainer configuration must
     * match the checkpoint's identity block.
     */
    PimTrainResult resume(const rlcore::Dataset &data,
                          rlcore::StateId num_states,
                          rlcore::ActionId num_actions,
                          const SessionCheckpoint &ck);

    /**
     * Multi-agent Q-learning (Sec. 3.2.1): one independent learner per
     * core, each with its own dataset; no synchronisation and no final
     * aggregation. @p agent_data must contain exactly one non-empty
     * dataset per core.
     */
    PimTrainResult trainMultiAgent(
        const std::vector<rlcore::Dataset> &agent_data,
        rlcore::StateId num_states, rlcore::ActionId num_actions);

    /** Configuration in use. */
    const PimTrainConfig &config() const { return _config; }

  private:
    /** Scatter each agent's whole dataset to its core, packed in
     *  the core's lane. */
    void distribute(pimsim::CommandStream &stream,
                    const std::vector<rlcore::Dataset> &agent_data,
                    pimsim::TimeBucket bucket =
                        pimsim::TimeBucket::CpuToPim,
                    std::string_view label = "scatter:dataset");

    /**
     * One code path for train / trainUntilRound / resume: drive a
     * TrainerSession from either a fresh begin or @p restore_from,
     * stopping at @p pause_at_round (absolute round count, -1 =
     * never) into @p out_ck, else finishing the run into the result.
     */
    PimTrainResult runImpl(const rlcore::Dataset &data,
                           rlcore::StateId num_states,
                           rlcore::ActionId num_actions,
                           const SessionCheckpoint *restore_from,
                           int pause_at_round,
                           SessionCheckpoint *out_ck);

    std::size_t dataOffset(std::size_t q_bytes) const;

    pimsim::PimSystem &_system;
    PimTrainConfig _config;

    /**
     * Q-table transfer helper shared with the streaming trainer:
     * packing, broadcast/gather commands, and the on-core
     * fixed<->float conversion costs all come from here.
     */
    QTableIo _qio;

    /** MRAM byte offset of the transition region for the active run. */
    std::size_t _dataOffsetCache = 0;
};

} // namespace swiftrl

#endif // SWIFTRL_SWIFTRL_PIM_TRAINER_HH
