/**
 * @file
 * The round-granular training session both trainers drive.
 *
 * A TrainerSession owns everything one training run needs on the PIM
 * side — the command stream, the Q-table wire I/O, the per-(core,
 * tasklet) LCG streams, the host-side aggregate, the kernel
 * parameters, and the fault-recovery plumbing — and exposes it as an
 * explicit state machine:
 *
 *     Init --begin/restore--> Ready --step()...--> (rounds done)
 *       Ready --pause()--> Paused --resume()--> Ready
 *       Ready --finishRetrieval()--> Done
 *     Init --beginAgents()--> Ready --trainAgents()--> Done
 *
 * One step() is one tau-round: launch (with bounded retry and
 * dropout redistribution), gather, aggregate, host-reduce, broadcast
 * — exactly the loop body PimTrainer and StreamingTrainer used to
 * own privately. The offline trainer runs one begin/step/finish
 * sequence over a fixed dataset; multi-agent training (Sec. 3.2.1)
 * runs the same scatter, q-init, launch and gather without the
 * tau-sync (beginAgents/trainAgents); the streaming trainer re-arms
 * the session once per generation with loadGeneration(); the fleet
 * scheduler (src/fleet) drives many sessions in slices, pausing and
 * checkpointing each at preemption and restoring it on a fresh
 * machine at the next grant.
 *
 * Checkpoint/restore, the point of the abstraction: checkpoint() at
 * any round boundary captures the complete session state —
 * aggregate Q-table, LCG streams, epsilon schedule position,
 * generation/round counters, fault-plan cursor, live-core set,
 * stream clock, and the per-bucket partial time sums — and a fresh
 * process can restore*() it and continue **bit-identically** to the
 * uninterrupted run, for any host-pool size and with or without an
 * active fault plan. The invariants that make this exact:
 *
 *  - Fault draws are pure in (seed, kind, site, core); restoring the
 *    per-stream fault-site cursor replays the same schedule.
 *  - Launch timing depends only on the launch's own effective cycles
 *    (never on cumulative core clocks), and transfer timing only on
 *    (bytes, live cores) — both restored.
 *  - MRAM is rebuilt functionally (poke, no time charge): the data
 *    region from the deterministic partition over the restored live
 *    set, the Q region from the aggregate's exact wire bytes.
 *  - The reported TimeBreakdown continues from the checkpoint's
 *    per-bucket partial sums in event order, which equals full
 *    in-order summation (double addition is order-deterministic).
 *
 * Out of scope, documented rather than restored: the post-restore
 * Timeline holds only post-restore events (traces of a resumed run
 * are partial), and telemetry counters restart (observation never
 * was part of the determinism contract). Multi-agent runs have no
 * round boundary, so they cannot be checkpointed.
 */

#ifndef SWIFTRL_SWIFTRL_SESSION_HH
#define SWIFTRL_SWIFTRL_SESSION_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "pimsim/command_stream.hh"
#include "pimsim/pim_system.hh"
#include "telemetry/tracing.hh"
#include "rlcore/dataset.hh"
#include "rlcore/qtable.hh"
#include "swiftrl/pim_kernels.hh"
#include "swiftrl/qtable_io.hh"
#include "swiftrl/sharding.hh"
#include "swiftrl/retry_policy.hh"
#include "swiftrl/time_breakdown.hh"
#include "swiftrl/workload.hh"

namespace swiftrl {

namespace telemetry {
class MetricRegistry;
class EngineCollector;
}

/**
 * The one training configuration: every trainer (TrainerSession,
 * PimTrainer, StreamingTrainer's generations, fleet jobs, the C ABI,
 * the CLI) runs from a SessionConfig. Its rules live in one place,
 * sessionConfigInvalidReason().
 */
struct SessionConfig
{
    /** Which of the 12 workload variants to run. */
    Workload workload;

    /** Hyper-parameters; hyper.episodes is the episode budget per
     *  begin/loadGeneration arming. alpha, gamma and epsilon must be
     *  finite and in [0, 1]. */
    rlcore::Hyper hyper;

    /**
     * Synchronisation period tau: episodes between inter-core
     * Q-table averaging rounds (paper default 50). Comm_rounds =
     * episodes / tau.
     */
    int tau = 50;

    /** Transitions per SEQ/STR staging block. */
    std::size_t blockTransitions = 128;

    /**
     * Hardware threads per PIM core, 1..24 (paper: 1, its stated
     * future work beyond core-level parallelism). Each tasklet trains
     * its own sub-chunk against the core's shared Q-table; the
     * pipeline speeds up by min(tasklets, pipelineInterval).
     */
    unsigned tasklets = 1;

    /**
     * Fault recovery under an active PimConfig::faultPlan: bounded
     * relaunch with modelled backoff for transient/corruption faults,
     * chunk redistribution over the survivors for permanent dropouts.
     * Unused (and cost-free) when the fault plan is inert.
     */
    RetryPolicy retry;

    /**
     * Extension beyond the paper: weight each core's Q-entries by
     * its per-round visit counts during the synchronisation average,
     * instead of the paper's plain mean. Entries no core visited
     * keep their previous aggregated value. Plain averaging lets the
     * Q = 0 of unvisited entries dilute learned values — fatal in
     * negative-reward environments when chunks under-cover the state
     * space (see tests/test_pim_trainer.cc's coverage
     * characterisation); weighting fixes exactly that at the cost of
     * one extra per-round gather of the count table. Offline
     * tau-synchronised runs only: streaming refuses it, and so does
     * beginAgents, whose independent learners are never averaged.
     */
    bool weightedAggregation = false;

    /**
     * Per-round epsilon decay, in (0, 1]: after each round the
     * working epsilon is multiplied by this factor. 1.0 (the default)
     * keeps epsilon constant bit-exactly (x * 1.0f == x), reproducing
     * the paper's fixed-epsilon training; smaller values anneal
     * exploration as the aggregate converges. The current position is
     * checkpointed.
     */
    float epsilonDecay = 1.0f;

    /** Streaming mode: per-generation datasets, plain averaging,
     *  per-generation metrics left to the driver. PimTrainer refuses
     *  it; StreamingTrainer sets it. */
    bool streaming = false;

    /**
     * Q-table shards for procedurally scaled state spaces: 0 (the
     * default) replicates the whole table on every core (the paper's
     * scheme); S >= 1 partitions the state space into S contiguous
     * ranges (rlcore::ShardMap), routes each transition to the shard
     * owning its current state, and replicates each shard's slice
     * over a contiguous core group. Sync rounds then gather slices,
     * reduce each shard group through the hierarchical aggregation
     * tree (TransferModel::aggregationTreeSeconds), and push back
     * slices plus per-core remote-row halos. shards == 1 is the
     * degenerate single-shard layout and stays bit-identical to
     * unsharded training. Offline single-table training only:
     * incompatible with streaming and weightedAggregation, and
     * beginAgents refuses it (each agent trains one whole table).
     */
    std::size_t shards = 0;

    /**
     * Telemetry destination (null = off, the default). When set, the
     * session attaches an EngineCollector to its command stream
     * (per-launch instruction mix, DMA bytes, straggler histograms)
     * and emits the rl_* training metrics documented in
     * docs/OBSERVABILITY.md. Purely observational: results and
     * modelled times are bit-identical with and without a registry.
     */
    telemetry::MetricRegistry *metrics = nullptr;

    /**
     * Causal-trace parent for this session's "session.run" span
     * (0 = ambient/root). The fleet scheduler sets its grant span's
     * id here so every round, engine command, and serve batch of a
     * job transitively parents up to the fleet job. Observation-only.
     */
    std::uint64_t traceParent = 0;
};

/**
 * Every rule a SessionConfig must satisfy that needs nothing but the
 * config: empty when @p config is valid, else the reason, which starts
 * with the offending field's name. The trainers' constructors are
 * fatal on a non-empty answer; the C ABI and the fleet parser call it
 * first to report the reason their own way. Rules that need the
 * machine or the environment (shard plan, MRAM demand) are checked
 * when a run begins.
 */
std::string sessionConfigInvalidReason(const SessionConfig &config);

/**
 * Complete state of a paused session, version-tagged. Produced by
 * TrainerSession::checkpoint(), consumed by restore*(); persisted
 * with saveCheckpoint()/loadCheckpoint(). The `streaming*` block
 * carries the streaming driver's pipeline state (host clock, recent
 * aggregates, behaviour policy); it is empty/zero for offline
 * sessions.
 *
 * On-disk format ("SWRLCK01", implemented in session.cc):
 *
 *     magic "SWRLCK01" | payload | u64 FNV-1a(payload)
 *
 * little-endian throughout (matching rlcore/serialization.cc). The
 * payload is the fields of this struct in declaration order, each
 * scalar written raw and each vector as u64 length + raw elements;
 * it begins with u32 kVersion, and loads of any other version fail
 * loudly rather than guess at a layout. The trailing checksum makes
 * truncation and corruption detectable before any field is trusted.
 * Bump kVersion on any layout change.
 *
 * Identity vs placement: the identity block pins the session's
 * *logical* machine — numDpus is the core count the LCG streams,
 * partition, and aggregate were computed with, and restoring onto a
 * different count is (correctly) refused by checkpointMismatch().
 * Which *physical* cores or ranks host those numDpus logical cores
 * is NOT identity: the simulator is functional, so a checkpoint
 * taken on one rank subset restores bit-identically on any other
 * (the fleet scheduler, src/fleet, preempts and migrates jobs on
 * exactly this property — see docs/SCHEDULER.md).
 */
struct SessionCheckpoint
{
    /** Format version this struct describes. Version 2 added the
     *  shard count to the identity block; version-1 files still load
     *  (they predate sharding, so shards = 0). Loads of any other
     *  version fail loudly. */
    static constexpr std::uint32_t kVersion = 2;

    // --- identity (must match the restoring session's config) ------
    bool streaming = false;
    Workload workload;
    rlcore::Hyper hyper;
    int tau = 0;
    std::size_t blockTransitions = 0;
    unsigned tasklets = 1;
    bool weightedAggregation = false;
    float epsilonDecay = 1.0f;
    std::size_t numDpus = 0;
    /** Q-table shard count (0 = unsharded; see SessionConfig). The
     *  shard plan, routing, and halos are re-derived on restore —
     *  only the count is identity. */
    std::size_t shards = 0;
    rlcore::StateId numStates = 0;
    rlcore::ActionId numActions = 0;

    // --- progress ---------------------------------------------------
    /** Episodes left in the currently armed dataset/generation. */
    int episodesRemaining = 0;
    /** Communication rounds completed so far (whole run). */
    int commRounds = 0;
    /** loadGeneration() calls so far (streaming; 0 offline). */
    int generationsStarted = 0;
    /** Per-round max |dQ| trace (offline; empty streaming). */
    std::vector<float> roundDeltas;
    /** Epsilon schedule position. */
    float epsilonNow = 0.0f;

    // --- learner state ----------------------------------------------
    /** Aggregated Q-table values, row-major. */
    std::vector<float> aggregated;
    /** Per-(core, tasklet) LCG states. */
    std::vector<std::uint32_t> lcgStates;

    // --- engine state -----------------------------------------------
    /** Stream clock at the checkpoint, modelled seconds. */
    double cursor = 0.0;
    /** Fault sites consumed. */
    std::uint64_t faultSites = 0;
    /** Cores lost to permanent dropouts, ascending ids. */
    std::vector<std::uint64_t> deadDpus;
    /** Per-bucket partial time sums at the checkpoint. */
    TimeBreakdown timeBase;
    /** Fault events recorded before the checkpoint. */
    int faultEventsBase = 0;
    /** Cumulative per-core cycle clocks (restored onto the Dpus so
     *  stats reports of a resumed run cover the whole run). */
    std::vector<std::uint64_t> dpuCycles;

    // --- streaming driver state (zero/empty offline) ----------------
    /** When the actor pool is next free, modelled seconds. */
    double streamingHostClock = 0.0;
    /** Behaviour-policy refreshes performed so far. */
    int streamingPolicyRefreshes = 0;
    /** Actor busy seconds spent collecting so far. */
    double streamingCollectSeconds = 0.0;
    /** Tail (last <= 2) of the per-generation train-end clocks. */
    std::vector<double> streamingTrainEndTail;
    /** Tail (last <= 2) of the per-generation aggregates. */
    std::vector<std::vector<float>> streamingQAfterTail;
    /** Is the behaviour policy epsilon-greedy (vs uniform-random)? */
    bool streamingPolicyActive = false;
    /** Epsilon of the refreshed behaviour policy. */
    float streamingPolicyEpsilon = 0.0f;
    /** Q-table the behaviour policy greedifies, row-major. */
    std::vector<float> streamingPolicySource;
};

/** Persist @p ck to @p path; fatal on I/O failure. */
void saveCheckpoint(const SessionCheckpoint &ck,
                    const std::string &path);

/** Load a checkpoint; fatal on I/O failure, corruption, or an
 *  unsupported format version. */
SessionCheckpoint loadCheckpoint(const std::string &path);

/**
 * Non-fatal variants for embedders (the C API), which must report
 * errors through return codes instead of aborting the host process.
 * On failure they return false / nullopt and, when @p error is
 * non-null, store the reason the fatal variant would have printed.
 */
bool trySaveCheckpoint(const SessionCheckpoint &ck,
                       const std::string &path, std::string *error);
std::optional<SessionCheckpoint>
tryLoadCheckpoint(const std::string &path, std::string *error);

/**
 * The restore identity check: empty when @p ck can be adopted by a
 * session built from @p config on @p num_dpus cores, else the
 * human-readable reason. restore*() performs exactly this comparison
 * and is fatal on a non-empty answer; embedders call it first.
 */
std::string checkpointMismatch(const SessionConfig &config,
                               std::size_t num_dpus,
                               const SessionCheckpoint &ck);

/** Where a session is in its lifecycle. */
enum class SessionState
{
    Init,   ///< constructed; no run begun
    Ready,  ///< between rounds; step()/checkpoint()/pause() legal
    Paused, ///< explicitly paused; resume() to continue
    Done,   ///< final retrieval issued; the session is spent
};

/** The round-granular training core. See file comment. */
class TrainerSession
{
  public:
    /** @param system machine to run on; must outlive the session. */
    TrainerSession(pimsim::PimSystem &system, SessionConfig config);

    ~TrainerSession();

    TrainerSession(const TrainerSession &) = delete;
    TrainerSession &operator=(const TrainerSession &) = delete;

    // --- lifecycle ---------------------------------------------------

    /**
     * Begin an offline run: partition @p data over all cores, scatter
     * it, broadcast the zero Q-table, seed the LCG streams, and arm
     * hyper.episodes episodes. @p data must outlive the session's
     * stepping (the dropout redistribution path re-packs from it).
     */
    void beginOffline(const rlcore::Dataset &data,
                      rlcore::StateId num_states,
                      rlcore::ActionId num_actions);

    /**
     * Begin a multi-agent run (Sec. 3.2.1): one independent Q-learner
     * per core, core i training on the whole of @p agents[i]. Scatters
     * each agent's records to its core, broadcasts the zero Q-table,
     * seeds the LCG streams, and arms hyper.episodes episodes for
     * trainAgents(). Fatal unless there is one non-empty dataset per
     * core whose records fit the table, the algorithm is Q-learning,
     * and the config is unsharded and unweighted.
     */
    void beginAgents(std::span<const rlcore::Dataset> agents,
                     rlcore::StateId num_states,
                     rlcore::ActionId num_actions);

    /**
     * Train the agents of beginAgents(): every armed episode in one
     * launch ("kernel:episodes") with no synchronisation, then one
     * gather of every core's table ("gather:q"), and move to Done.
     * A lost core is fatal: its agent cannot move. Returns core i's
     * table at index i.
     */
    std::vector<rlcore::QTable> trainAgents();

    /**
     * Begin a streaming run: broadcast the zero Q-table and seed the
     * LCG streams. No dataset yet — arm each generation with
     * loadGeneration().
     */
    void beginStreaming(rlcore::StateId num_states,
                        rlcore::ActionId num_actions);

    /**
     * Arm one streaming generation: partition @p gen_data over the
     * surviving cores, scatter it ("scatter:gen<g>"), and reset the
     * episode budget. @p gen_data must outlive this generation's
     * steps.
     */
    void loadGeneration(const rlcore::Dataset &gen_data);

    /**
     * Re-attach the in-progress generation's dataset after a
     * mid-generation restore: rebuilds the MRAM data region
     * functionally (the scatter's cost is part of the checkpointed
     * prefix) without touching the episode budget. The caller
     * re-collects @p gen_data deterministically (collection is pure
     * in (policy, seed, generation)).
     */
    void attachGeneration(const rlcore::Dataset &gen_data);

    /**
     * Run one tau-round: launch -> gather -> aggregate -> reduce ->
     * broadcast, with fault recovery. Returns false (and does
     * nothing) once the armed episode budget is exhausted.
     */
    bool step();

    /**
     * Pause at the current round boundary; step() becomes illegal
     * until resume(). Legal only in Ready. Pausing is bookkeeping —
     * it enqueues nothing and charges nothing, so pause();resume()
     * round-trips are free and a paused session's stream clock holds
     * still. Checkpointing does not require pausing — the session is
     * quiescent between any two steps — but a preempting scheduler
     * typically pauses first so an accidental step() between
     * checkpoint() and teardown fails loudly instead of silently
     * diverging from the captured state.
     */
    void pause();

    /** Leave Paused and make step() legal again. The session resumes
     *  exactly where it paused: same round, same epsilon, same
     *  stream clock. */
    void resume();

    /**
     * Issue the final retrieval (on-core descale + "gather:final")
     * and move to Done. Idempotence is not offered: a session
     * finishes once.
     */
    void finishRetrieval();

    // --- checkpoint / restore ---------------------------------------

    /**
     * Capture the complete session state at the current round
     * boundary. Legal in Ready or Paused. Streaming drivers fill the
     * streaming* block afterwards (the session cannot see the host
     * pipeline).
     */
    SessionCheckpoint checkpoint() const;

    /**
     * Rebuild a mid-run offline session from @p ck on a fresh system:
     * validates the identity block, restores learner + engine state,
     * and reconstructs MRAM functionally. The session lands in Ready,
     * bit-identical to the one that checkpointed.
     */
    void restoreOffline(const rlcore::Dataset &data,
                        const SessionCheckpoint &ck);

    /**
     * Streaming counterpart. Rebuilds the Q region only; the driver
     * re-attaches the in-progress generation's data (if any) with
     * attachGeneration().
     */
    void restoreStreaming(const SessionCheckpoint &ck);

    // --- accessors ---------------------------------------------------

    SessionState state() const { return _state; }

    /** Episodes left in the armed budget (0 at a generation/run
     *  boundary). */
    int episodesRemaining() const { return _episodesRemaining; }

    /** Communication rounds completed (whole run). */
    int commRounds() const { return _commRounds; }

    /** loadGeneration() calls so far. */
    int generationsStarted() const { return _generation; }

    /** The current host-side aggregate. */
    const rlcore::QTable &aggregated() const { return _aggregated; }

    /** Per-round max |dQ| so far (offline mode). */
    const std::vector<float> &roundDeltas() const
    {
        return _roundDeltas;
    }

    /** Current epsilon schedule position. */
    float epsilon() const { return _epsilonNow; }

    /** The session's command stream (the streaming driver records
     *  host spans and waits on it). */
    pimsim::CommandStream &stream();

    /** Whole-run time breakdown: checkpointed base plus this
     *  process's timeline, accumulated in event order. */
    TimeBreakdown currentTime() const;

    /** Whole-run fault count: checkpointed base plus this process's
     *  timeline. */
    int faultsDetected() const;

    /** Cores lost over the whole run. */
    std::size_t coresLost() const;

    /** The wire I/O helper (shared fixed-point scale etc.). */
    const QTableIo &qio() const { return _qio; }

    /** MRAM byte offset of the transition region. */
    std::size_t dataOffset() const { return _dataOffset; }

    /** MRAM byte offset of the per-core visit-count region (weighted
     *  aggregation only). */
    std::size_t visitsOffset() const { return _visitsOffset; }

  private:
    /** Shared begin work: stream + collector + LCG seeding. */
    void start(rlcore::StateId num_states,
               rlcore::ActionId num_actions);

    /** Open the "session.run" lifecycle span at the current stream
     *  clock; @p how is "begin" or "restore". Observation-only. */
    void openRunSpan(const char *how);

    /** Finish the "session.run" span, if open, with the run's
     *  totals. Observation-only. */
    void closeRunSpan();

    /** Fill _params/_kernel once shapes are known. */
    void buildKernel();

    /** partitionDataset over the surviving cores into
     *  _firsts/_counts (dead cores get empty chunks). */
    void repartition(const rlcore::Dataset &data);

    /** CommandStream::scatter, or with @p poke its functional-only
     *  twin (restores: no event, no time). */
    void scatterChunks(std::size_t offset,
                       const pimsim::CommandStream::ChunkBytes &bytes,
                       const pimsim::CommandStream::ChunkFill &fill,
                       pimsim::TimeBucket bucket, std::string_view label,
                       bool poke);

    /** Scatter each core's records [_firsts[i], +_counts[i]) of
     *  @p agents[i], or of _activeData when @p agents is empty, packed
     *  in its lane (push or poke); fatal when one lies outside the
     *  table. */
    void scatterActive(pimsim::TimeBucket bucket,
                       std::string_view label, bool poke,
                       std::span<const rlcore::Dataset> agents = {});

    /** Dropout recovery: repartition + recovery-track rescatter +
     *  aggregate rebroadcast. */
    void redistribute();

    /** True once the session runs with a shard plan. */
    bool shardedMode() const { return _plan != nullptr; }

    /**
     * Build the sharded layout for the armed dataset: plan, routing,
     * MRAM offsets (slice | data | halo), per-core assignment, halos,
     * and the kernel parameters. Fatal when the plan is invalid or
     * the conservative MRAM demand bound exceeds the bank.
     */
    void setupShardLayout();

    /**
     * Sharded repartition: split each shard's routed transitions over
     * its *surviving* replicas (fatal when a shard group loses every
     * replica — its slice rows would stop training silently) and
     * rebuild every core's halo.
     */
    void repartitionSharded();

    /** Scatter the localized chunks per the current sharded
     *  partition, each packed in its core's lane (push or poke). */
    void scatterSharded(pimsim::TimeBucket bucket,
                        std::string_view label, bool poke);

    /** Per-core slice wire of the aggregate (push or poke). */
    void pushShardSlices(pimsim::TimeBucket bucket,
                         std::string_view label, bool poke);

    /** Per-core halo wire of the aggregate (push or poke). */
    void pushShardHalos(pimsim::TimeBucket bucket,
                        std::string_view label, bool poke);

    /**
     * Sharded gather + per-shard-group slice averaging into
     * _aggregated. Returns the largest live replica group (the
     * aggregation tree's depth driver).
     */
    std::size_t shardedAggregate();

    /**
     * Visit-count-weighted mean (offline weighted aggregation) into
     * _aggregated, decoding the gathered @p q_views and reading the
     * @p visit_views in place; entries no core visited keep
     * @p previous. Split over the host pool like
     * QTableIo::meanOfWires: bit-identical for any pool size.
     */
    void weightedAverage(
        const std::vector<std::span<const std::uint8_t>> &q_views,
        const std::vector<std::span<const std::uint8_t>> &visit_views,
        const rlcore::QTable &previous);

    /** Shared restore work: identity check + engine + learner. */
    void adopt(const SessionCheckpoint &ck);

    pimsim::PimSystem &_system;
    SessionConfig _config;
    QTableIo _qio;

    SessionState _state = SessionState::Init;

    rlcore::StateId _numStates = 0;
    rlcore::ActionId _numActions = 0;
    std::size_t _entries = 0;
    std::size_t _visitsOffset = 0;
    std::size_t _dataOffset = 0;

    /** Dataset the armed rounds train on (offline: the whole run's;
     *  streaming: the current generation's). Not owned. */
    const rlcore::Dataset *_activeData = nullptr;

    std::unique_ptr<pimsim::CommandStream> _stream;
    std::unique_ptr<telemetry::EngineCollector> _collector;

    std::vector<std::size_t> _firsts;
    std::vector<std::size_t> _counts;
    std::vector<std::uint32_t> _lcgStates;
    rlcore::QTable _aggregated;

    /** Sharded-mode state (null/empty when unsharded). The plan and
     *  routing are pure functions of (shape, shards, numDpus, data),
     *  so none of this is checkpointed — restore re-derives it. */
    std::unique_ptr<ShardPlan> _plan;
    ShardRouting _routing;
    std::vector<std::vector<rlcore::StateId>> _haloStates;
    std::vector<std::size_t> _haloRows;
    std::size_t _sliceRows = 0;
    std::size_t _sliceEntries = 0;
    std::size_t _haloOffset = 0;

    int _episodesRemaining = 0;
    int _commRounds = 0;
    int _generation = 0;
    std::vector<float> _roundDeltas;
    float _epsilonNow = 0.0f;

    /** Restore bases (zero for a from-scratch run). */
    TimeBreakdown _timeBase;
    int _faultEventsBase = 0;

    /** Lifecycle span ("session.run"), opened by start()/adopt() and
     *  finished by finishRetrieval() or the destructor (outcome
     *  "preempted" when torn down Paused). Observation-only. */
    telemetry::Span _traceSpan;
    /** faultsDetected() at the last traced round start (to stamp a
     *  round's outcome "retried"); only maintained while tracing. */
    int _traceFaultsSeen = 0;

    KernelParams _params;
    pimsim::BatchKernel _kernel;
};

} // namespace swiftrl

#endif // SWIFTRL_SWIFTRL_SESSION_HH
