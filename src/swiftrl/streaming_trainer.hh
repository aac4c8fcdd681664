/**
 * @file
 * The streaming actor–learner extension: online training where CPU
 * actor threads roll out a behaviour policy into transition blocks
 * while the PIM side trains on the *previous* generation's data.
 *
 * The paper trains offline — collect everything, then train
 * (Sec. 3.2.1). This trainer pipelines the two on one command stream:
 * generation k's scatter / kernel / sync commands occupy the PIM
 * tracks of the timeline while the host track shows generation k+1's
 * collection slices running concurrently (CommandStream::recordHostSpan
 * + waitUntil). Periodically the aggregated Q-table is fed back to the
 * actors as an epsilon-greedy behaviour policy ("other policies such
 * as epsilon greedy ... can also be used", Sec. 3.2.1).
 *
 * Determinism contract: the final Q-table is bit-identical for any
 * actor-thread count and for overlap on/off. Collection is
 * block-index-pure (rlcore::collectPolicyBlocks), the policy-refresh
 * schedule is generation-indexed (never time-based), and `overlap`
 * changes only the timing gates — so actors and overlap move modelled
 * time, never values. Verified by tests/test_streaming.cc.
 */

#ifndef SWIFTRL_SWIFTRL_STREAMING_TRAINER_HH
#define SWIFTRL_SWIFTRL_STREAMING_TRAINER_HH

#include <cstdint>
#include <string_view>
#include <vector>

#include "baselines/platform_model.hh"
#include "pimsim/command_stream.hh"
#include "pimsim/pim_system.hh"
#include "pimsim/timeline.hh"
#include "rlcore/collection.hh"
#include "rlcore/qtable.hh"
#include "swiftrl/qtable_io.hh"
#include "swiftrl/session.hh"
#include "swiftrl/time_breakdown.hh"
#include "swiftrl/workload.hh"

namespace swiftrl {

/**
 * One streaming (online) run: the session every generation trains
 * with, plus the driver's fields. hyper.episodes counts episodes *per
 * generation*; blockTransitions also sizes the actors' collection
 * blocks; retry re-partitions the current generation's dataset after
 * a dropout; epsilonDecay runs across generations. The trainer sets
 * `streaming`, so weighted aggregation and shards are refused.
 */
struct StreamingConfig : SessionConfig
{
    /** Collect/train generations to pipeline. */
    int generations = 8;

    /** Transitions collected (and trained on) per generation. */
    std::size_t transitionsPerGeneration = 16384;

    /**
     * CPU actor threads collecting each generation. Affects modelled
     * collection time (blocks are round-robin across actors) and the
     * host thread count actually used — never the collected data,
     * which is block-index-pure.
     */
    unsigned actors = 1;

    /**
     * Refresh the actors' behaviour policy every this many
     * generations (0 = never; actors stay uniform-random). At
     * generation g >= 2 with g % refreshPeriod == 0 the behaviour
     * policy becomes epsilon-greedy over the aggregate trained
     * through generation g-2 — the newest table available when g's
     * collection starts, given that g-1 is still training under the
     * overlap.
     */
    int refreshPeriod = 0;

    /** Exploration rate of the refreshed behaviour policy. */
    float behaviourEpsilon = 0.2f;

    /** Root seed of the collection streams (independent of
     *  hyper.seed, which drives the on-core kernels). */
    std::uint64_t collectSeed = 1234;

    /**
     * Modelled host cost of producing one transition (env step +
     * policy query + log append). Default from the CPU platform
     * model; see docs/COSTMODEL.md.
     */
    double collectSecPerTransition = baselines::kActorStepSec;

    /**
     * true: collection of generation k+1 overlaps training of k (the
     * streaming pipeline). false: strict collect-then-train baseline.
     * Timing-only — the functional command order is identical, so the
     * final Q-table is bit-identical between the two settings (how
     * bench/ext_streaming_overlap.cc compares them fairly).
     */
    bool overlap = true;
};

/** Output of a streaming training run. */
struct StreamingResult
{
    /** Aggregated final Q-table after the last generation. */
    rlcore::QTable finalQ;

    /**
     * Busy-time breakdown from the timeline. `time.hostCollect` is
     * the actor-side busy time; it overlaps the PIM components, so
     * the run's makespan is `endToEnd`, not a sum.
     */
    TimeBreakdown time;

    /** Full command timeline: PIM tracks plus the host-collect
     *  track. Export with Timeline::writeChromeTrace. */
    pimsim::Timeline timeline;

    /** Modelled makespan: end of the last event on any track. */
    double endToEnd = 0.0;

    /** Actor busy seconds spent collecting (excludes refreshes). */
    double collectSeconds = 0.0;

    /** Generations executed. */
    int generations = 0;

    /** Inter-core communication rounds across all generations. */
    int commRounds = 0;

    /** Behaviour-policy refreshes performed. */
    int policyRefreshes = 0;

    /** Total transitions collected and trained on. */
    std::size_t transitions = 0;

    /** PIM cores that participated. */
    std::size_t coresUsed = 0;

    /** Faulted command attempts absorbed by the retry policy. */
    int faultsDetected = 0;

    /** Cores lost to permanent dropouts (work redistributed). */
    std::size_t coresLost = 0;

    StreamingResult() : finalQ(1, 1) {}
};

/**
 * Drives the streaming actor–learner pipeline on a PimSystem. One
 * train() call is one full run: `generations` rounds of host-side
 * collection feeding PIM-side tau-synchronised training, double
 * buffered so the two stages overlap in modelled time.
 */
class StreamingTrainer
{
  public:
    /** @param system machine to run on; must outlive the trainer. */
    StreamingTrainer(pimsim::PimSystem &system, StreamingConfig config);

    /**
     * Run the full pipeline. @p make_env supplies fresh environment
     * instances for the actor threads (one per collection block).
     */
    StreamingResult train(const rlcore::EnvFactory &make_env,
                          rlcore::StateId num_states,
                          rlcore::ActionId num_actions);

    /**
     * Run until @p rounds synchronisation rounds have completed
     * (counted across generations), then checkpoint and stop. The
     * checkpoint carries the host pipeline state (actor clock,
     * behaviour policy, recent aggregates) on top of the session
     * state, so resume() in a fresh process continues
     * bit-identically — mid-generation pauses re-collect the
     * in-flight generation's data deterministically on restore.
     */
    SessionCheckpoint trainUntilRound(
        const rlcore::EnvFactory &make_env,
        rlcore::StateId num_states, rlcore::ActionId num_actions,
        int rounds);

    /**
     * Continue a checkpointed streaming run to completion. The
     * trainer configuration (including collectSeed, refreshPeriod,
     * and transitionsPerGeneration — which the checkpoint's identity
     * block cannot see) must match the checkpointed run's.
     */
    StreamingResult resume(const rlcore::EnvFactory &make_env,
                           rlcore::StateId num_states,
                           rlcore::ActionId num_actions,
                           const SessionCheckpoint &ck);

    /** Configuration in use. */
    const StreamingConfig &config() const { return _config; }

  private:
    /**
     * One code path for train / trainUntilRound / resume: drive the
     * actor pipeline around a TrainerSession from either a fresh
     * begin or @p restore_from, stopping at @p pause_at_round
     * (absolute round count, -1 = never) into @p out_ck, else
     * finishing the run into the result.
     */
    StreamingResult runImpl(const rlcore::EnvFactory &make_env,
                            rlcore::StateId num_states,
                            rlcore::ActionId num_actions,
                            const SessionCheckpoint *restore_from,
                            int pause_at_round,
                            SessionCheckpoint *out_ck);

    /**
     * Modelled duration of one generation's collection: the busiest
     * actor's share of the round-robin block assignment, times the
     * per-transition cost.
     */
    double collectDuration(std::size_t num_transitions) const;

    pimsim::PimSystem &_system;
    StreamingConfig _config;
};

} // namespace swiftrl

#endif // SWIFTRL_SWIFTRL_STREAMING_TRAINER_HH
