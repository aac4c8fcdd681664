/**
 * @file
 * The command-stream execution engine of the host runtime.
 *
 * A CommandStream turns the host<->PIM operations (scatter, broadcast,
 * kernel launch, gather, host-side reduce) into *commands*: each
 * enqueue executes the operation functionally, advances the stream's
 * modelled clock by the operation's modelled duration, and records a
 * `{start, end}` Event on the stream's Timeline. `sync()` returns the
 * modelled time elapsed since the previous sync point, which equals
 * the sum of the commands' returned durations.
 *
 * Inside the engine, the functional work of a kernel launch runs on
 * the owning PimSystem's host thread pool — one work item per DPU
 * instance, which is safe because a kernel instance touches only its
 * own core's MRAM bank, WRAM accounting, and cycle clock.
 * Determinism guarantee: Q-tables, cycle counts, and modelled seconds
 * are bit-identical for any pool size, including 1, because work
 * items are index-pure and every reduction (slowest-core max, cycle
 * commit) happens serially in core order after the pool joins.
 *
 * Multiple streams may target one PimSystem; each has its own clock
 * and timeline, while functional state (MRAM) is shared and mutated
 * in enqueue order.
 *
 * Two extras serve overlapped (streaming) execution plans: waitUntil
 * advances the clock to a host-side dependency (the queue idles), and
 * recordHostSpan records host work at an explicit interval that may
 * overlap the command queue — how the streaming trainer draws actor
 * collection slices under concurrent PIM training.
 *
 * Fault injection (PimConfig::faultPlan, inert by default): kernel
 * launches and functional gathers are *fault sites*, numbered per
 * stream in enqueue order. A faulted command has **no functional
 * effect** — launches are abandoned before any core commits work,
 * corrupted gathers discard the received payloads — and returns a
 * typed CommandError inside its CommandStatus instead of dying; the
 * failed attempt's modelled cost lands on the Recovery track. Cores
 * hit by a permanent dropout are tracked per stream and skipped by
 * every later command (transfers re-time over the survivors);
 * recovery — bounded retry, chunk redistribution — is the caller's
 * job (see swiftrl::RetryPolicy and the trainers).
 */

#ifndef SWIFTRL_PIMSIM_COMMAND_STREAM_HH
#define SWIFTRL_PIMSIM_COMMAND_STREAM_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "pimsim/batch_context.hh"
#include "pimsim/fault_plan.hh"
#include "pimsim/kernel_context.hh"
#include "pimsim/kernel_scratch.hh"
#include "pimsim/timeline.hh"

namespace swiftrl::pimsim {

class PimSystem;
class CommandStream;

/**
 * Per-launch observation handed to a StreamObserver: the modelled
 * interval of the completed launch command plus the per-core
 * effective cycles the serial reduce just computed. Everything in
 * here is a *modelled* quantity — bit-identical for every host-pool
 * size — so observers can derive metrics without touching the
 * determinism contract. The spans alias stream-owned scratch and are
 * valid only for the duration of the callback.
 */
struct LaunchStats
{
    /** Command label ("kernel:round"). */
    std::string_view label;

    /** Launch start on the stream clock, modelled seconds. */
    double start = 0.0;

    /** Launch end on the stream clock, modelled seconds. */
    double end = 0.0;

    /**
     * Per-core cycles consumed by this launch (0 for dead cores —
     * check CommandStream::isDead to distinguish a dead core from a
     * live one whose kernel instance happened to charge nothing).
     */
    std::span<const Cycles> effectiveCycles;

    /** Cores that executed the launch. */
    std::size_t liveCount = 0;
};

/**
 * Read-only hook called by a CommandStream after each successful
 * kernel launch (faulted launches commit nothing and are not
 * observed). The telemetry layer's EngineCollector is the intended
 * implementation; the engine itself stays telemetry-agnostic.
 *
 * Observers run on the enqueue thread after the host pool joins, so
 * they may read the system's device counters race-free — but they
 * must not enqueue commands or mutate device state: observation can
 * never move a modelled number.
 */
class StreamObserver
{
  public:
    virtual ~StreamObserver() = default;

    /** One successful kernel launch retired on @p stream. */
    virtual void onLaunch(CommandStream &stream,
                          const LaunchStats &stats) = 0;
};

/** Ordered command queue with a modelled clock. See file comment. */
class CommandStream
{
  public:
    /** @param system machine the stream drives; must outlive it. */
    explicit CommandStream(PimSystem &system);

    // --- commands ----------------------------------------------------
    // Each call executes functionally, advances the stream clock by
    // the command's modelled duration, records one timeline event,
    // and returns the duration in modelled seconds.

    /**
     * Scatter one distinct payload per core to MRAM at @p offset.
     * Timing serialises on the largest payload (rank transfers do).
     * Dropped-out cores are skipped (pass them empty spans).
     */
    double pushChunks(
        std::size_t offset,
        const std::vector<std::span<const std::uint8_t>> &per_dpu,
        TimeBucket bucket = TimeBucket::CpuToPim,
        std::string_view label = "scatter");

    /**
     * Replicate one payload to every live core's MRAM at @p offset.
     * The cores share @p payload (Dpu::mramShare): each bank copies it
     * in on its next access — for a trained core, inside its next
     * kernel lane — so the command itself copies nothing.
     */
    double pushBroadcast(std::size_t offset, Dpu::SharedPayload payload,
                         TimeBucket bucket = TimeBucket::CpuToPim,
                         std::string_view label = "broadcast");

    /** pushBroadcast of a copy of @p payload. */
    double pushBroadcast(std::size_t offset,
                         std::span<const std::uint8_t> payload,
                         TimeBucket bucket = TimeBucket::CpuToPim,
                         std::string_view label = "broadcast");

    /**
     * Gather @p bytes from every core's MRAM at @p offset as read-only
     * views into the banks: @p out gets one span per core, aliasing
     * Dpu::mramView — no payload is copied (a pending broadcast lands
     * first). A dropped core's span is empty (filter with isDead());
     * never-written bytes read as zero. A view stays valid until the
     * next write to its bank (any later scatter, broadcast, kernel
     * launch or poke). Reading a range past a bank's buffer end grows
     * the bank, so a gather can also invalidate views an *earlier*
     * gather took of that bank: a caller that holds views across two
     * gathers must re-take the older ones (Dpu::mram) before reading
     * them.
     *
     * A fault site. While the fault plan is active every received
     * chunk is checksum-verified (charged to the Recovery track);
     * on a mismatch the whole gather is discarded (@p out cleared)
     * and a CorruptGather error returned — the wire corruption is
     * modelled on a scratch copy, so the banks stay intact and a
     * retry re-reads them cleanly.
     */
    CommandStatus gather(std::size_t offset, std::size_t bytes,
                         std::vector<std::span<const std::uint8_t>> &out,
                         TimeBucket bucket = TimeBucket::PimToCpu,
                         std::string_view label = "gather");

    /**
     * Timing-only gather: charges the modelled transfer and records
     * the event, but skips the functional copy. For transfers whose
     * payload the host provably already holds (e.g. the final
     * retrieval after a synchronisation round, when every core's
     * table *is* the aggregate the host just broadcast).
     *
     * Not a fault site (there is no payload to corrupt), but while
     * the fault plan is active the modelled checksum verification is
     * still charged — the real host cannot know in advance that a
     * transfer is redundant.
     */
    double gatherTimed(std::size_t offset, std::size_t bytes,
                       TimeBucket bucket = TimeBucket::PimToCpu,
                       std::string_view label = "gather(timed)");

    /**
     * Run @p kernel once per core (functionally on the host pool;
     * temporally in parallel on the modelled machine, so the command
     * lasts as long as the slowest core plus launch overhead).
     *
     * A fault site. A transient fault or permanent dropout abandons
     * the launch before *any* core commits work (no MRAM writes, no
     * cycle advance), charges the detection cost to the Recovery
     * track, and returns the error; dropped-out cores are marked dead
     * on this stream and skipped from then on.
     *
     * @param tasklets resident hardware threads per core. The DPU
     *        pipeline issues one instruction per cycle round-robin
     *        across tasklets, while each tasklet can issue only once
     *        per pipelineInterval cycles; with balanced tasklet work
     *        the launch therefore speeds up by min(tasklets,
     *        pipelineInterval). The kernel splits its work across
     *        tasklets (see swiftrl::KernelParams::tasklets).
     */
    CommandStatus launch(const KernelFn &kernel, unsigned tasklets = 1,
                         TimeBucket bucket = TimeBucket::Kernel,
                         std::string_view label = "kernel");

    /**
     * Batch-interpreted launch: form the live cores into cohort
     * chunks (CPU-count-aware: at most ~4 chunks per host thread,
     * clamped to the cohort size) and run @p kernel once per chunk on
     * the host pool, handing it a BatchKernelContext over that
     * chunk's lanes. Everything observable — fault-site numbering,
     * dead-core masking, per-core cycle commits, the slowest-core
     * reduce, the timeline event, LaunchStats — matches launch() of
     * an equivalent scalar kernel bit for bit; only the host-side
     * execution strategy differs. See docs/PERFORMANCE.md.
     *
     * A fault site, with exactly launch()'s semantics: one site per
     * launch, dropouts outrank transient faults, a faulted launch is
     * abandoned before any lane commits work.
     */
    CommandStatus launchBatch(const BatchKernelFn &kernel,
                              unsigned tasklets = 1,
                              TimeBucket bucket = TimeBucket::Kernel,
                              std::string_view label = "kernel");

    /**
     * Record host-side reduction work of @p seconds (the averaging
     * between a gather and a broadcast). Purely temporal — the caller
     * performs the actual reduction on host data it already gathered.
     */
    double hostReduce(double seconds,
                      std::string_view label = "reduce");

    /**
     * Record on-core compute of @p seconds that is not a kernel
     * launch of its own (e.g. the fixed-point<->float Q-table
     * conversion flanking a transfer). Drawn on the kernel track.
     */
    double onCoreCompute(double seconds, TimeBucket bucket,
                         std::string_view label = "convert");

    /**
     * Record work that happened *off* the PIM command queue — e.g. an
     * actor thread's collection slice in the streaming trainer — at an
     * explicit `[start, start+seconds]` interval. The stream cursor
     * does not move: host-track events may overlap PIM commands, which
     * is how the timeline shows collection hiding under training.
     * Use Phase::HostCollect / TimeBucket::HostCollect for actor work;
     * the event still lands on this stream's timeline and trace.
     * @return @p seconds.
     */
    double recordHostSpan(Phase phase, TimeBucket bucket, double start,
                          double seconds, std::string_view label);

    /**
     * Block the command queue on a host-side dependency: advance the
     * stream clock to @p time if it is in the future (the queue sits
     * idle until the dependency — e.g. the current generation's
     * collection — resolves). Records no event.
     * @return the idle gap in modelled seconds (0 when already past).
     */
    double waitUntil(double time);

    // --- checkpoint restore ------------------------------------------
    // Functional-only MRAM writes plus engine-state adoption, used to
    // rebuild a stream mid-run from a TrainerSession checkpoint. None
    // of these advance the clock or record events: the modelled cost
    // of the original transfers was paid (and checkpointed) by the
    // run being restored, so charging it again would double-count.

    /**
     * Write one payload per core to MRAM at @p offset, functionally
     * only (no event, no time, dead cores skipped). Restore
     * counterpart of pushChunks.
     */
    void pokeChunks(
        std::size_t offset,
        const std::vector<std::span<const std::uint8_t>> &per_dpu);

    /**
     * Share @p payload with every live core's MRAM at @p offset,
     * functionally only. Restore counterpart of pushBroadcast.
     */
    void pokeBroadcast(std::size_t offset, Dpu::SharedPayload payload);

    /**
     * Adopt a checkpointed engine position: stream clock, fault-site
     * counter, and the dead-core set. After this call the stream
     * issues commands exactly as the checkpointed stream would have —
     * fault draws are pure in (seed, kind, site, core), so restoring
     * the site cursor replays the same fault schedule.
     */
    void restoreState(double cursor, std::size_t fault_sites,
                      const std::vector<std::size_t> &dead_dpus);

    /**
     * Restore checkpointed cumulative per-core cycle clocks (one
     * entry per core). Functional bookkeeping only: launch timing
     * depends on each launch's own cycles, never the cumulative
     * clocks — these exist so stats reports of a resumed run cover
     * the whole run.
     */
    void restoreDpuCycles(const std::vector<Cycles> &cycles);

    // --- fault recovery ----------------------------------------------

    /**
     * Charge @p seconds of recovery overhead (a RetryPolicy backoff
     * delay) to the Recovery track. The command queue sits on it like
     * on any command, so recovery delays push every later command out
     * — exactly what a trace should show.
     */
    double recoveryDelay(double seconds,
                         std::string_view label = "retry-backoff");

    /** Has @p dpu been lost to a permanent dropout on this stream? */
    bool isDead(std::size_t dpu) const;

    /** Cores still alive on this stream. */
    std::size_t liveDpuCount() const { return _liveCount; }

    /** Ids of the cores lost so far, ascending. */
    std::vector<std::size_t> deadDpus() const;

    /**
     * Fault sites consumed so far (next launch/gather occupies this
     * index). Lets tests and tools aim ScheduledFaults precisely.
     */
    std::size_t faultSitesUsed() const { return _faultSites; }

    // --- clock --------------------------------------------------------

    /**
     * Modelled seconds elapsed since the last sync() (or since
     * stream creation), and start a new sync interval.
     */
    double sync();

    /** Current stream clock, modelled seconds since creation. */
    double now() const { return _cursor; }

    /** The stream's event record. */
    const Timeline &timeline() const { return _timeline; }

    // --- telemetry ----------------------------------------------------

    /**
     * Attach (or detach, with nullptr) the launch observer. At most
     * one; must outlive the stream or be detached first. Purely
     * observational — attaching one never changes modelled numbers.
     */
    void setObserver(StreamObserver *observer)
    {
        _observer = observer;
    }

    /** The attached launch observer, or nullptr. */
    StreamObserver *observer() const { return _observer; }

    /**
     * Record one sample on the named counter track of this stream's
     * timeline, at the current stream clock. Counter samples are
     * annotations for the Chrome trace export — they are not events
     * and never contribute to phase/bucket totals.
     */
    void
    recordCounter(std::string name, double value)
    {
        _timeline.recordCounter(std::move(name), _cursor, value);
    }

    /** System this stream drives. */
    PimSystem &system() { return _system; }

    /** System this stream drives (read-only view). */
    const PimSystem &system() const { return _system; }

  private:
    /** Advance the clock and record one event; returns @p seconds. */
    double record(Phase phase, TimeBucket bucket, double seconds,
                  std::string_view label);

    /** Modelled host cost of checksum-verifying @p bytes. */
    double checksumSeconds(std::size_t bytes) const;

    /**
     * Shared fault block of launch()/launchBatch(): consume one
     * fault site while the plan is active and, if the launch is
     * fated, mark dropouts dead, charge the detection cost, and
     * return the error status. nullopt = proceed with the launch.
     */
    std::optional<CommandStatus> launchFaultCheck();

    /**
     * Shared tail of launch()/launchBatch(): commit per-core clocks
     * from _effective serially in core order, reduce the slowest
     * core, record the timeline event, and notify the observer.
     */
    CommandStatus finishLaunch(TimeBucket bucket,
                               std::string_view label);

    /**
     * Per-host-worker launch state, reused across launches: the
     * staging arena (reset per kernel instance) and a rebindable
     * KernelContext, so steady-state launches construct nothing.
     * Heap-allocated individually so workers never false-share.
     */
    struct LaunchWorker
    {
        KernelScratch scratch;
        std::unique_ptr<KernelContext> ctx;
    };

    /** The launch worker for host-pool worker @p worker (lazy). */
    LaunchWorker &launchWorker(unsigned worker);

    PimSystem &_system;
    Timeline _timeline;
    double _cursor = 0.0;
    double _syncMark = 0.0;

    /** Per-stream dropout state: _dead[i] once core i is lost. */
    std::vector<bool> _dead;
    std::size_t _liveCount = 0;

    /** Fault sites consumed (launches + functional gathers). */
    std::size_t _faultSites = 0;

    /** Per-worker launch state, indexed by host-pool worker id. */
    std::vector<std::unique_ptr<LaunchWorker>> _launchWorkers;

    /** Per-core effective cycles of the current launch (reused). */
    std::vector<Cycles> _effective;

    /** Launch observer (telemetry); nullptr when none attached. */
    StreamObserver *_observer = nullptr;

    /** Faulting-core scratch lists (reused; copied on the rare
     *  error path so their capacity survives). */
    std::vector<std::size_t> _faultScratchA;
    std::vector<std::size_t> _faultScratchB;

    /** Live-lane cohort of the current batch launch (reused). */
    std::vector<std::size_t> _cohortScratch;
};

} // namespace swiftrl::pimsim

#endif // SWIFTRL_PIMSIM_COMMAND_STREAM_HH
