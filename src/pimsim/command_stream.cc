#include "pimsim/command_stream.hh"

#include <algorithm>
#include <string>

#include "common/logging.hh"
#include "pimsim/host_pool.hh"
#include "pimsim/pim_system.hh"
#include "telemetry/tracing.hh"

namespace swiftrl::pimsim {

namespace {

/** Recovery-track label of a failed attempt: "fault:<kind>". */
std::string
faultLabel(FaultKind kind)
{
    return std::string("fault:") + faultKindName(kind);
}

/**
 * Emit a causal span mirroring one timeline event, parented on the
 * ambient span (the session round that issued the command). Only
 * called behind tracingActive(): the untraced hot path pays a single
 * relaxed atomic load. Observation-only — reads the already-recorded
 * interval, never touches the cursor or any modelled state.
 */
void
traceCommandSpan(Phase phase, TimeBucket bucket, double start,
                 double end, std::string_view label)
{
    const bool faulted = phase == Phase::Recovery &&
                         label.substr(0, 6) == "fault:";
    auto span = telemetry::tracer().begin(
        label, "engine", "modelled", start,
        telemetry::currentSpanParent());
    span.attr("phase", phaseName(phase))
        .attr("bucket", bucketName(bucket));
    span.finish(end, faulted ? "faulted" : "ok");
}

} // namespace

CommandStream::CommandStream(PimSystem &system)
    : _system(system),
      _dead(system.numDpus(), false),
      _liveCount(system.numDpus())
{
}

double
CommandStream::record(Phase phase, TimeBucket bucket, double seconds,
                      std::string_view label)
{
    SWIFTRL_ASSERT(seconds >= 0.0,
                   "command durations cannot be negative");
    Event event;
    event.index = _timeline.size();
    event.phase = phase;
    event.bucket = bucket;
    event.start = _cursor;
    event.end = _cursor + seconds;
    event.label = std::string(label);
    _timeline.record(std::move(event));
    _cursor += seconds;
    if (telemetry::tracingActive())
        traceCommandSpan(phase, bucket, _cursor - seconds, _cursor,
                         label);
    return seconds;
}

double
CommandStream::checksumSeconds(std::size_t bytes) const
{
    return _system.config().faultPlan.checksumSecPerByte *
           static_cast<double>(bytes);
}

bool
CommandStream::isDead(std::size_t dpu) const
{
    SWIFTRL_ASSERT(dpu < _dead.size(), "DPU id ", dpu,
                   " out of range");
    return _dead[dpu];
}

std::vector<std::size_t>
CommandStream::deadDpus() const
{
    std::vector<std::size_t> ids;
    for (std::size_t i = 0; i < _dead.size(); ++i) {
        if (_dead[i])
            ids.push_back(i);
    }
    return ids;
}

std::size_t
CommandStream::fillChunks(std::size_t offset, const ChunkBytes &bytes,
                          const ChunkFill &fill)
{
    auto &dpus = _system._dpus;
    const std::size_t n = dpus.size();
    _chunkBytes.assign(n, 0);
    _chunkBanks.assign(n, nullptr);
    std::size_t max_bytes = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (_dead[i])
            continue;
        const std::size_t b = bytes(i);
        _chunkBytes[i] = b;
        max_bytes = std::max(max_bytes, b);
        if (b > 0)
            _chunkBanks[i] = dpus[i].reserveLane(offset + b);
    }
    _system._pool->parallelFor(n, [&](std::size_t i, unsigned) {
        const std::size_t b = _chunkBytes[i];
        if (b == 0)
            return;
        const std::span<std::uint8_t> bank = dpus[i].mramLane(offset + b);
        SWIFTRL_ASSERT(bank.data() == _chunkBanks[i], "scatter lane ", i,
                       " reallocated its bank");
        fill(i, bank.subspan(offset, b));
    });
    return max_bytes;
}

void
CommandStream::poke(std::size_t offset, const ChunkBytes &bytes,
                    const ChunkFill &fill)
{
    fillChunks(offset, bytes, fill);
}

void
CommandStream::pokeBroadcast(std::size_t offset,
                             Dpu::SharedPayload payload)
{
    auto &dpus = _system._dpus;
    for (std::size_t i = 0; i < dpus.size(); ++i) {
        if (!_dead[i])
            dpus[i].mramShare(offset, payload);
    }
}

void
CommandStream::restoreState(double cursor, std::size_t fault_sites,
                            const std::vector<std::size_t> &dead_dpus)
{
    SWIFTRL_ASSERT(cursor >= 0.0,
                   "restored stream clock cannot be negative");
    SWIFTRL_ASSERT(_timeline.size() == 0 && _faultSites == 0,
                   "restoreState requires a fresh stream");
    _cursor = cursor;
    _syncMark = cursor;
    _faultSites = fault_sites;
    for (const std::size_t i : dead_dpus) {
        SWIFTRL_ASSERT(i < _dead.size(), "restored dead core id ", i,
                       " out of range");
        if (!_dead[i]) {
            _dead[i] = true;
            --_liveCount;
        }
    }
}

void
CommandStream::restoreDpuCycles(const std::vector<Cycles> &cycles)
{
    auto &dpus = _system._dpus;
    SWIFTRL_ASSERT(cycles.size() == dpus.size(),
                   "restoreDpuCycles needs one clock per core");
    for (std::size_t i = 0; i < dpus.size(); ++i)
        dpus[i].addCycles(cycles[i]);
}

double
CommandStream::recoveryDelay(double seconds, std::string_view label)
{
    return record(Phase::Recovery, TimeBucket::Recovery, seconds,
                  label);
}

double
CommandStream::scatter(std::size_t offset, const ChunkBytes &bytes,
                       const ChunkFill &fill, TimeBucket bucket,
                       std::string_view label)
{
    const std::size_t max_bytes = fillChunks(offset, bytes, fill);
    const double seconds =
        _system.config().transferModel.scatterSeconds(max_bytes,
                                                      _liveCount);
    return record(Phase::Scatter, bucket, seconds, label);
}

double
CommandStream::pushBroadcast(std::size_t offset,
                             Dpu::SharedPayload payload,
                             TimeBucket bucket, std::string_view label)
{
    pokeBroadcast(offset, payload);
    const double seconds =
        _system.config().transferModel.broadcastSeconds(
            payload ? payload->size() : 0, _liveCount);
    return record(Phase::Broadcast, bucket, seconds, label);
}

double
CommandStream::pushBroadcast(std::size_t offset,
                             std::span<const std::uint8_t> payload,
                             TimeBucket bucket, std::string_view label)
{
    return pushBroadcast(
        offset,
        std::make_shared<const std::vector<std::uint8_t>>(
            payload.begin(), payload.end()),
        bucket, label);
}

CommandStatus
CommandStream::gather(std::size_t offset, std::size_t bytes,
                      std::vector<std::span<const std::uint8_t>> &out,
                      TimeBucket bucket, std::string_view label)
{
    auto &dpus = _system._dpus;
    const FaultPlan &plan = _system.config().faultPlan;
    const bool faulty = plan.enabled();
    const std::size_t site = faulty ? _faultSites++ : 0;

    out.assign(dpus.size(), {});
    for (std::size_t i = 0; i < dpus.size(); ++i) {
        if (!_dead[i])
            out[i] = {dpus[i].mramView(offset, bytes), bytes};
    }
    const double transfer =
        _system.config().transferModel.pimToCpuSeconds(bytes,
                                                       _liveCount);
    if (!faulty || bytes == 0) {
        record(Phase::Gather, bucket, transfer, label);
        return {transfer, std::nullopt};
    }

    // Wire corruption: a fated chunk arrives flipped, so the FNV
    // checksum its bank computed over the true payload no longer
    // matches what the host recomputes over the received bytes. A
    // byte flip always changes an FNV-1a digest, so only fated
    // chunks need the send/recompute pair — unaffected chunks verify
    // clean by construction (their modelled verify time is charged
    // below either way). The flip lands on a scratch copy of the
    // chunk, never on the bank the view aliases.
    std::vector<std::size_t> &corrupted = _faultScratchA;
    corrupted.clear();
    for (std::size_t i = 0; i < dpus.size(); ++i) {
        if (_dead[i])
            continue;
        if (!plan.fires(FaultKind::CorruptGather, site, i))
            continue;
        std::vector<std::uint8_t> wire(out[i].begin(), out[i].end());
        const std::uint64_t sent = chunkChecksum(wire);
        wire[0] ^= 0xFFu;
        if (chunkChecksum(wire) != sent)
            corrupted.push_back(i);
    }
    const double verify = checksumSeconds(bytes * _liveCount);
    if (!corrupted.empty()) {
        // No functional effect: the whole gather is discarded. The
        // banks are intact — a retry re-reads them cleanly.
        out.clear();
        const double seconds = transfer + verify;
        record(Phase::Recovery, TimeBucket::Recovery, seconds,
               faultLabel(FaultKind::CorruptGather));
        CommandStatus status;
        status.seconds = seconds;
        // Copied, not moved: corrupted aliases reusable scratch.
        status.error =
            CommandError{FaultKind::CorruptGather, corrupted, site};
        return status;
    }
    record(Phase::Gather, bucket, transfer, label);
    record(Phase::Recovery, TimeBucket::Recovery, verify,
           "verify:checksum");
    return {transfer + verify, std::nullopt};
}

double
CommandStream::gatherTimed(std::size_t offset, std::size_t bytes,
                           TimeBucket bucket, std::string_view label)
{
    // The transfer is charged as if performed; validate the range so
    // the timing-only path fails exactly where the functional one
    // would (an out-of-bank gather is a bug either way).
    auto &dpus = _system._dpus;
    if (bytes > 0) {
        std::uint8_t probe = 0;
        for (std::size_t i = 0; i < dpus.size(); ++i) {
            if (_dead[i])
                continue;
            dpus[i].mramRead(offset + bytes - 1, &probe, 1);
        }
    }
    const double seconds =
        _system.config().transferModel.pimToCpuSeconds(bytes,
                                                       _liveCount);
    record(Phase::Gather, bucket, seconds, label);
    const FaultPlan &plan = _system.config().faultPlan;
    if (plan.enabled() && bytes > 0) {
        const double verify = checksumSeconds(bytes * _liveCount);
        record(Phase::Recovery, TimeBucket::Recovery, verify,
               "verify:checksum");
        return seconds + verify;
    }
    return seconds;
}

std::optional<CommandStatus>
CommandStream::launchFaultCheck()
{
    const auto &config = _system.config();
    const FaultPlan &plan = config.faultPlan;
    if (!plan.enabled())
        return std::nullopt;
    const std::size_t site = _faultSites++;
    std::vector<std::size_t> &dropped = _faultScratchA;
    std::vector<std::size_t> &transient = _faultScratchB;
    dropped.clear();
    transient.clear();
    for (std::size_t i = 0; i < _dead.size(); ++i) {
        if (_dead[i])
            continue;
        if (plan.fires(FaultKind::PermanentDropout, site, i))
            dropped.push_back(i);
        else if (plan.fires(FaultKind::TransientKernel, site, i))
            transient.push_back(i);
    }
    if (dropped.empty() && transient.empty())
        return std::nullopt;
    // The launch is abandoned before any core commits work
    // (no MRAM writes, no cycle advance): the host sees the
    // fault line, polls per-core status, reports. A dropout
    // outranks a transient fault at the same site — the
    // caller must redistribute before any retry can succeed.
    const FaultKind kind = dropped.empty()
                               ? FaultKind::TransientKernel
                               : FaultKind::PermanentDropout;
    auto &faultyDpus = dropped.empty() ? transient : dropped;
    if (kind == FaultKind::PermanentDropout) {
        for (const std::size_t i : faultyDpus) {
            _dead[i] = true;
            --_liveCount;
        }
    }
    const double seconds = config.launchOverheadSec + plan.detectSec;
    record(Phase::Recovery, TimeBucket::Recovery, seconds,
           faultLabel(kind));
    CommandStatus status;
    status.seconds = seconds;
    // Copied, not moved: faultyDpus aliases reusable scratch.
    status.error = CommandError{kind, faultyDpus, site};
    return status;
}

CommandStatus
CommandStream::finishLaunch(TimeBucket bucket, std::string_view label)
{
    const auto &config = _system.config();
    auto &dpus = _system._dpus;
    // Commit clocks and reduce the slowest core serially, in core
    // order: bit-identical for every pool size.
    Cycles slowest = 0;
    for (std::size_t i = 0; i < dpus.size(); ++i) {
        if (_dead[i])
            continue;
        dpus[i].addCycles(_effective[i]);
        slowest = std::max(slowest, _effective[i]);
    }
    const double seconds = config.launchOverheadSec +
                           config.costModel.seconds(slowest);
    record(Phase::Kernel, bucket, seconds, label);
    if (_observer) {
        LaunchStats stats;
        stats.label = label;
        stats.start = _cursor - seconds;
        stats.end = _cursor;
        stats.effectiveCycles = _effective;
        stats.liveCount = _liveCount;
        _observer->onLaunch(*this, stats);
    }
    return {seconds, std::nullopt};
}

CommandStatus
CommandStream::launchBatch(const BatchKernel &kernel,
                           unsigned tasklets, TimeBucket bucket,
                           std::string_view label)
{
    SWIFTRL_ASSERT(kernel, "launch of an empty batch kernel");
    SWIFTRL_ASSERT(tasklets >= 1 && tasklets <= 24,
                   "UPMEM DPUs support 1-24 tasklets, got ",
                   tasklets);
    const auto &config = _system.config();

    if (auto faulted = launchFaultCheck())
        return *faulted;

    // Fine-grained multithreading: t resident tasklets retire t
    // instructions per pipelineInterval window (saturating at one
    // instruction per cycle), so balanced kernels finish
    // min(t, interval) times sooner.
    const Cycles speedup = std::min<Cycles>(
        tasklets, config.costModel.pipelineInterval);

    auto &dpus = _system._dpus;
    const std::size_t n = dpus.size();
    _effective.assign(n, 0);

    // Cohort = live cores in ascending id order: dead cores run
    // nothing and stay at their last clock.
    std::vector<std::size_t> &cohort = _cohortScratch;
    cohort.clear();
    for (std::size_t i = 0; i < n; ++i) {
        if (!_dead[i])
            cohort.push_back(i);
    }
    const std::size_t lanes = cohort.size();
    // CPU-count-aware chunking: ~4 chunks per host thread for load
    // balance, clamped to the cohort so tiny cohorts do not
    // over-chunk. Each chunk gets a contiguous near-equal lane range
    // and one BatchKernelContext on one worker.
    const std::size_t chunks = std::min<std::size_t>(
        lanes, static_cast<std::size_t>(
                   std::max(1u, _system.hostThreadCount())) *
                   4);
    if (lanes > 0) {
        _system._pool->parallelFor(chunks, [&](std::size_t c,
                                               unsigned) {
            const std::size_t begin = lanes * c / chunks;
            const std::size_t end = lanes * (c + 1) / chunks;
            if (begin == end)
                return;
            std::vector<Dpu *> lane_dpus;
            lane_dpus.reserve(end - begin);
            for (std::size_t i = begin; i < end; ++i)
                lane_dpus.push_back(&dpus[cohort[i]]);
            BatchKernelContext bctx(lane_dpus, config.costModel,
                                    config.wramBytesPerDpu);
            kernel(bctx);
            bctx.flushAll();
            for (std::size_t i = begin; i < end; ++i) {
                _effective[cohort[i]] =
                    bctx.lane(i - begin).cycles() / speedup;
            }
        });
    }
    const CommandStatus status = finishLaunch(bucket, label);
    if (telemetry::tracingActive()) {
        // Cohort span covering the committed kernel interval, sitting
        // alongside the per-command span finishLaunch's record()
        // already emitted.
        auto span = telemetry::tracer().begin(
            "engine.cohort", "engine", "modelled",
            _cursor - status.seconds, telemetry::currentSpanParent());
        span.attr("label", label).attr("lanes", lanes).attr("chunks",
                                                            chunks);
        span.finish(_cursor, "ok");
    }
    return status;
}

double
CommandStream::hostReduce(double seconds, std::string_view label)
{
    return record(Phase::HostReduce, TimeBucket::InterCore, seconds,
                  label);
}

double
CommandStream::onCoreCompute(double seconds, TimeBucket bucket,
                             std::string_view label)
{
    return record(Phase::Kernel, bucket, seconds, label);
}

double
CommandStream::recordHostSpan(Phase phase, TimeBucket bucket,
                              double start, double seconds,
                              std::string_view label)
{
    SWIFTRL_ASSERT(start >= 0.0, "host spans cannot start before 0");
    SWIFTRL_ASSERT(seconds >= 0.0,
                   "host span durations cannot be negative");
    Event event;
    event.index = _timeline.size();
    event.phase = phase;
    event.bucket = bucket;
    event.start = start;
    event.end = start + seconds;
    event.label = std::string(label);
    _timeline.record(std::move(event));
    if (telemetry::tracingActive())
        traceCommandSpan(phase, bucket, start, start + seconds,
                         label);
    return seconds;
}

double
CommandStream::waitUntil(double time)
{
    if (time <= _cursor)
        return 0.0;
    const double gap = time - _cursor;
    _cursor = time;
    return gap;
}

double
CommandStream::sync()
{
    const double elapsed = _cursor - _syncMark;
    _syncMark = _cursor;
    return elapsed;
}

} // namespace swiftrl::pimsim
