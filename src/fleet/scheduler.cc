#include "fleet/scheduler.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <queue>

#include "common/logging.hh"
#include "pimsim/pim_system.hh"
#include "pimsim/rank_pool.hh"
#include "rlcore/dataset.hh"
#include "rlenv/registry.hh"
#include "swiftrl/session.hh"
#include "telemetry/metric_registry.hh"
#include "telemetry/tracing.hh"

namespace swiftrl::fleet {

namespace {

/**
 * Serialized SWRLCK01 payload size of @p ck: the fixed identity /
 * progress / engine fields (~150 bytes plus framing) and the
 * variable-length arrays. Used to price checkpoint/restore transfers;
 * kept in sync with trySaveCheckpoint's field list by
 * tests/test_fleet.cc's accounting cases being deterministic, not by
 * byte-exactness (the cost model needs magnitude, not parity).
 */
std::size_t
checkpointBytes(const SessionCheckpoint &ck)
{
    std::size_t bytes = 256; // fixed fields + magic + checksum
    bytes += ck.roundDeltas.size() * 4;
    bytes += ck.aggregated.size() * 4;
    bytes += ck.lcgStates.size() * 4;
    bytes += ck.deadDpus.size() * 8;
    bytes += ck.dpuCycles.size() * 8;
    return bytes;
}

/** Fleet-clock seconds rendered for the dispatch log (%.9g is
 *  shortest-ish and deterministic across libcs for these values). */
std::string
renderSec(double t)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", t);
    return buf;
}

/** One job's live scheduling state. */
struct Job
{
    enum class State
    {
        Pending, ///< before arrivalSec
        Queued,  ///< waiting for a grant
        Running, ///< holds ranks; a slice is in flight
        Finished,
    };

    const JobSpec *spec = nullptr;
    State state = State::Pending;

    /** Offline dataset, collected at first dispatch and kept until
     *  the job finishes (restores re-pack from it). */
    std::optional<rlcore::Dataset> data;
    rlcore::StateId numStates = 0;
    rlcore::ActionId numActions = 0;

    /** Machine + session while Running (torn down on preemption). */
    std::unique_ptr<pimsim::PimSystem> system;
    std::unique_ptr<TrainerSession> session;

    /** Held checkpoint while preempted. */
    std::optional<SessionCheckpoint> checkpoint;

    /** Physical ranks currently leased. */
    std::vector<std::size_t> granted;

    /** Did the in-flight slice exhaust the episode budget? */
    bool sliceFinished = false;

    double enqueueSec = 0.0;

    /** Rank-seconds this job has consumed (unweighted): the
     *  within-tenant tie-break, so equal-standing jobs round-robin
     *  instead of the just-preempted job re-winning its ranks. */
    double consumedRankSec = 0.0;

    /** Causal spans (fleet clock): the job's lifetime (arrival to
     *  finish) and the currently-held grant. Observation-only. */
    telemetry::Span span;
    telemetry::Span grantSpan;

    JobOutcome outcome;
};

struct Event
{
    double time = 0.0;
    std::uint64_t seq = 0;
    enum class Kind
    {
        Arrival,
        SliceEnd,
        PreemptDone,
    } kind = Kind::Arrival;
    std::size_t job = 0;
};

struct EventAfter
{
    bool
    operator()(const Event &a, const Event &b) const
    {
        if (a.time != b.time)
            return a.time > b.time;
        return a.seq > b.seq;
    }
};

/** The whole run's mutable state, so helpers stay small. */
struct RunState
{
    const FleetConfig &config;
    pimsim::RankPool pool;
    std::vector<Job> jobs;
    std::priority_queue<Event, std::vector<Event>, EventAfter> events;
    std::uint64_t nextSeq = 0;
    /** Per-tenant consumed rank-seconds / weight. */
    std::map<std::string, double> virtualTime;
    double clock = 0.0;
    std::vector<std::string> log;

    /** Root "fleet.run" span over the whole schedule (fleet clock). */
    telemetry::Span runSpan;

    explicit RunState(const FleetConfig &cfg)
        : config(cfg), pool(cfg.totalRanks)
    {
    }

    void
    push(double time, Event::Kind kind, std::size_t job)
    {
        events.push(Event{time, nextSeq++, kind, job});
    }

    void
    logLine(const std::string &what, const Job &job,
            const std::string &extra = "")
    {
        log.push_back("t=" + renderSec(clock) + " " + what +
                      " job=" + job.spec->id +
                      " tenant=" + job.spec->tenant + extra);
    }
};

/** ceil(ranks / granted): the gang time-multiplexing factor. */
double
dilationFor(const JobSpec &spec, std::size_t granted)
{
    return static_cast<double>((spec.ranks + granted - 1) / granted);
}

/**
 * Run one quantum of rounds on the job's live session (plus the
 * final retrieval if the budget ran out) and schedule the SliceEnd.
 * @p start is the fleet clock at which the slice begins (grant time
 * plus any dispatch/restore cost).
 */
void
runSlice(RunState &rs, std::size_t ji, double start)
{
    Job &job = rs.jobs[ji];
    TrainerSession &session = *job.session;
    const double t0 = session.stream().now();
    int rounds = 0;
    while (rounds < rs.config.quantumRounds &&
           session.episodesRemaining() > 0) {
        session.step();
        ++rounds;
    }
    job.sliceFinished = session.episodesRemaining() == 0;
    if (job.sliceFinished)
        session.finishRetrieval();
    const double modelled = session.stream().now() - t0;
    const double fleetDur =
        modelled * dilationFor(*job.spec, job.granted.size());
    const double overhead = start - rs.clock;
    rs.pool.charge(job.granted, overhead + fleetDur);
    job.outcome.occupiedSec += overhead + fleetDur;
    const double rankSec =
        static_cast<double>(job.granted.size()) * (overhead + fleetDur);
    job.consumedRankSec += rankSec;
    rs.virtualTime[job.spec->tenant] +=
        rankSec / rs.config.weightFor(job.spec->tenant);
    rs.push(start + fleetDur, Event::Kind::SliceEnd, ji);
}

/** Lease ranks, (re)build machine + session, start the first slice. */
void
grant(RunState &rs, std::size_t ji, std::size_t want)
{
    Job &job = rs.jobs[ji];
    const JobSpec &spec = *job.spec;
    job.granted = rs.pool.lease(want);
    SWIFTRL_ASSERT(!job.granted.empty(), "grant sized to free ranks");
    job.state = Job::State::Running;
    ++job.outcome.grants;
    job.outcome.queueWaitSec += rs.clock - job.enqueueSec;
    if (job.outcome.grants == 1)
        job.outcome.firstDispatchSec = rs.clock;
    job.outcome.minGrantRanks =
        job.outcome.minGrantRanks == 0
            ? want
            : std::min(job.outcome.minGrantRanks, want);

    // One span per grant on the fleet clock, the causal parent of the
    // session the grant hosts (the session's own spans tick the
    // modelled clock, so the link is parental, not containment).
    job.grantSpan = telemetry::tracer().begin(
        job.outcome.grants == 1 ? "fleet.grant" : "fleet.resume",
        "fleet", "fleet", rs.clock, job.span.id());
    job.grantSpan
        .attr("ranks", std::to_string(job.granted.size()) + "/" +
                           std::to_string(spec.ranks))
        .attr("first_rank", job.granted.front())
        .attr("tenant", spec.tenant);

    // The job's logical machine is always full width; the physical
    // grant only sets the time-multiplexing factor.
    pimsim::PimConfig pim;
    pim.numDpus = spec.ranks * rs.config.dpusPerRank;
    pim.hostThreads = rs.config.hostThreads;
    job.system = std::make_unique<pimsim::PimSystem>(pim);
    SessionConfig scfg = sessionConfigFor(spec);
    scfg.traceParent = job.grantSpan.id();
    job.session = std::make_unique<TrainerSession>(*job.system,
                                                   std::move(scfg));

    double cost = rs.config.dispatchOverheadSec;
    if (job.checkpoint) {
        cost += static_cast<double>(checkpointBytes(*job.checkpoint)) *
                rs.config.restoreSecPerByte;
        job.session->restoreOffline(*job.data, *job.checkpoint);
        job.checkpoint.reset();
    } else {
        if (!job.data) {
            auto env = rlenv::makeEnvironment(spec.env);
            job.numStates = env->numStates();
            job.numActions = env->numActions();
            job.data = rlcore::collectRandomDataset(
                *env, spec.transitions, spec.collectSeed);
        }
        job.session->beginOffline(*job.data, job.numStates,
                                  job.numActions);
    }
    rs.logLine(job.outcome.grants == 1 ? "grant" : "resume", job,
               " ranks=" + std::to_string(job.granted.size()) + "/" +
                   std::to_string(spec.ranks) + " first=" +
                   std::to_string(job.granted.front()));
    runSlice(rs, ji, rs.clock + cost);
}

/** Total order over queued jobs: weighted fair share, then
 *  priority, then arrival, then id. */
std::vector<std::size_t>
queuedInOrder(RunState &rs)
{
    std::vector<std::size_t> queued;
    for (std::size_t i = 0; i < rs.jobs.size(); ++i) {
        if (rs.jobs[i].state == Job::State::Queued)
            queued.push_back(i);
    }
    std::sort(queued.begin(), queued.end(),
              [&rs](std::size_t a, std::size_t b) {
                  const JobSpec &sa = *rs.jobs[a].spec;
                  const JobSpec &sb = *rs.jobs[b].spec;
                  const double va = rs.virtualTime[sa.tenant];
                  const double vb = rs.virtualTime[sb.tenant];
                  if (va != vb)
                      return va < vb;
                  if (sa.priority != sb.priority)
                      return sa.priority > sb.priority;
                  // Within a tenant and priority class, the job
                  // that has consumed the least runs first — a
                  // just-preempted job cannot re-win its ranks from
                  // a starving sibling.
                  const double ca = rs.jobs[a].consumedRankSec;
                  const double cb = rs.jobs[b].consumedRankSec;
                  if (ca != cb)
                      return ca < cb;
                  if (sa.arrivalSec != sb.arrivalSec)
                      return sa.arrivalSec < sb.arrivalSec;
                  return sa.id < sb.id;
              });
    return queued;
}

/** Hand free ranks to queued jobs in policy order (with backfill). */
void
dispatch(RunState &rs)
{
    for (const std::size_t ji : queuedInOrder(rs)) {
        const std::size_t free = rs.pool.freeRanks();
        if (free == 0)
            break;
        const JobSpec &spec = *rs.jobs[ji].spec;
        const std::size_t want = std::min(spec.ranks, free);
        if (want < spec.effectiveMinRanks())
            continue; // backfill: a smaller job may still fit
        grant(rs, ji, want);
    }
}

bool
anyQueued(const RunState &rs)
{
    for (const Job &job : rs.jobs) {
        if (job.state == Job::State::Queued)
            return true;
    }
    return false;
}

void
handleSliceEnd(RunState &rs, std::size_t ji)
{
    Job &job = rs.jobs[ji];
    if (job.sliceFinished) {
        job.outcome.finalQ = job.session->aggregated();
        job.outcome.commRounds = job.session->commRounds();
        job.outcome.modelledTrainSec = job.session->stream().now();
        job.outcome.finishSec = rs.clock;
        // Whole-run fault tallies, captured before the session (and
        // its timeline) is torn down.
        job.outcome.faultsDetected = job.session->faultsDetected();
        job.outcome.coresLost = job.session->coresLost();
        job.session.reset();
        job.system.reset();
        job.data.reset();
        rs.pool.release(job.granted);
        job.granted.clear();
        job.state = Job::State::Finished;
        rs.logLine("finish", job,
                   " rounds=" + std::to_string(job.outcome.commRounds));
        job.grantSpan.finish(rs.clock);
        job.span.attr("rounds", job.outcome.commRounds)
            .attr("preemptions", job.outcome.preemptions)
            .attr("faults", job.outcome.faultsDetected)
            .attr("cores_lost", job.outcome.coresLost);
        job.span.finish(rs.clock,
                        job.outcome.faultsDetected > 0 ? "retried"
                                                       : "ok");
        return;
    }
    if (!anyQueued(rs)) {
        // Nobody waiting: renew the grant in place, cost-free.
        runSlice(rs, ji, rs.clock);
        return;
    }
    // Preempt: checkpoint now (the session is quiescent at the round
    // boundary), hold the ranks for the modelled serialisation cost,
    // release at PreemptDone.
    job.session->pause();
    job.checkpoint = job.session->checkpoint();
    job.session.reset();
    job.system.reset();
    ++job.outcome.preemptions;
    const double cost =
        static_cast<double>(checkpointBytes(*job.checkpoint)) *
        rs.config.checkpointSecPerByte;
    rs.pool.charge(job.granted, cost);
    job.outcome.occupiedSec += cost;
    const double rankSec =
        static_cast<double>(job.granted.size()) * cost;
    job.consumedRankSec += rankSec;
    rs.virtualTime[job.spec->tenant] +=
        rankSec / rs.config.weightFor(job.spec->tenant);
    rs.logLine("preempt", job,
               " rounds=" +
                   std::to_string(job.checkpoint->commRounds));
    // Retrospective span over the checkpoint serialisation window;
    // the grant closes with it, outcome "preempted".
    auto preempt = telemetry::tracer().begin(
        "fleet.preempt", "fleet", "fleet", rs.clock, job.span.id());
    preempt.attr("rounds", job.checkpoint->commRounds)
        .attr("tenant", job.spec->tenant);
    preempt.finish(rs.clock + cost);
    job.grantSpan.finish(rs.clock + cost, "preempted");
    rs.push(rs.clock + cost, Event::Kind::PreemptDone, ji);
}

} // namespace

FleetScheduler::FleetScheduler(FleetConfig config)
    : _config(std::move(config))
{
    if (_config.totalRanks == 0)
        SWIFTRL_FATAL("a fleet needs at least one rank");
    if (_config.dpusPerRank == 0)
        SWIFTRL_FATAL("a rank needs at least one DPU core");
    if (_config.quantumRounds <= 0)
        SWIFTRL_FATAL("the scheduling quantum must be at least one "
                      "round");
    if (_config.checkpointSecPerByte < 0.0 ||
        _config.restoreSecPerByte < 0.0 ||
        _config.dispatchOverheadSec < 0.0)
        SWIFTRL_FATAL("fleet cost constants must be non-negative");
    for (const auto &[tenant, weight] : _config.tenantWeights) {
        if (!(weight > 0.0))
            SWIFTRL_FATAL("tenant \"", tenant,
                          "\" needs a positive fair-share weight");
    }
}

FleetResult
FleetScheduler::run(const std::vector<JobSpec> &jobs)
{
    if (jobs.empty())
        SWIFTRL_FATAL("a fleet run needs at least one job");
    RunState rs(_config);
    rs.runSpan =
        telemetry::tracer().begin("fleet.run", "fleet", "fleet", 0.0);
    rs.runSpan.attr("jobs", jobs.size())
        .attr("ranks", _config.totalRanks);
    rs.jobs.resize(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobSpec &spec = jobs[i];
        if (spec.ranks > _config.totalRanks)
            SWIFTRL_FATAL("job \"", spec.id, "\" wants ", spec.ranks,
                          " ranks but the fleet has ",
                          _config.totalRanks);
        rs.jobs[i].spec = &spec;
        rs.jobs[i].outcome.id = spec.id;
        rs.jobs[i].outcome.tenant = spec.tenant;
        rs.jobs[i].outcome.arrivalSec = spec.arrivalSec;
        rs.virtualTime.emplace(spec.tenant, 0.0);
        rs.push(spec.arrivalSec, Event::Kind::Arrival, i);
    }

    while (!rs.events.empty()) {
        const Event e = rs.events.top();
        rs.events.pop();
        rs.clock = e.time;
        Job &job = rs.jobs[e.job];
        switch (e.kind) {
        case Event::Kind::Arrival:
            job.state = Job::State::Queued;
            job.enqueueSec = rs.clock;
            rs.logLine("arrive", job);
            // The job's lifetime span opens at admission so every
            // grant, session, engine command, and serve batch below
            // it can name it as an ancestor.
            job.span = telemetry::tracer().begin(
                "fleet.job", "fleet", "fleet", rs.clock,
                rs.runSpan.id());
            job.span.attr("job", job.spec->id)
                .attr("tenant", job.spec->tenant)
                .attr("ranks", job.spec->ranks);
            job.outcome.traceSpanId = job.span.id();
            break;
        case Event::Kind::SliceEnd:
            handleSliceEnd(rs, e.job);
            break;
        case Event::Kind::PreemptDone:
            rs.pool.release(job.granted);
            job.granted.clear();
            job.state = Job::State::Queued;
            job.enqueueSec = rs.clock;
            break;
        }
        dispatch(rs);
    }

    FleetResult result;
    result.dispatchLog = std::move(rs.log);
    result.jobs.reserve(rs.jobs.size());
    for (Job &job : rs.jobs) {
        SWIFTRL_ASSERT(job.state == Job::State::Finished,
                       "event loop drained with an unfinished job");
        result.makespanSec =
            std::max(result.makespanSec, job.outcome.finishSec);
        result.totalPreemptions += job.outcome.preemptions;
        result.jobs.push_back(std::move(job.outcome));
    }
    result.perRankBusySec.reserve(_config.totalRanks);
    for (std::size_t r = 0; r < _config.totalRanks; ++r)
        result.perRankBusySec.push_back(rs.pool.busySeconds(r));
    result.rankBusySeconds = rs.pool.totalBusySeconds();
    rs.runSpan.attr("preemptions", result.totalPreemptions);
    rs.runSpan.finish(result.makespanSec);

    if (_config.metrics) {
        auto &m = *_config.metrics;
        for (const JobOutcome &out : result.jobs) {
            const telemetry::Labels labels = {
                {"job", out.id}, {"tenant", out.tenant}};
            m.gauge("fleet_queue_wait_seconds", labels)
                .set(out.queueWaitSec);
            m.counter("fleet_preemptions_total", labels)
                .add(static_cast<std::uint64_t>(out.preemptions));
            m.counter("fleet_grants_total", labels)
                .add(static_cast<std::uint64_t>(out.grants));
            m.gauge("fleet_job_finish_seconds", labels)
                .set(out.finishSec);
            m.counter("fleet_job_faults_detected_total", labels)
                .add(static_cast<std::uint64_t>(out.faultsDetected));
            m.gauge("fleet_job_cores_lost", labels)
                .set(static_cast<double>(out.coresLost));
            m.counter("fleet_jobs_completed_total",
                      {{"tenant", out.tenant}})
                .add();
        }
        for (std::size_t r = 0; r < result.perRankBusySec.size();
             ++r) {
            m.gauge("fleet_rank_busy_seconds",
                    {{"rank", std::to_string(r)}})
                .set(result.perRankBusySec[r]);
        }
        m.gauge("fleet_makespan_seconds").set(result.makespanSec);
        m.gauge("fleet_rank_occupancy_ratio")
            .set(result.occupancy());
        m.gauge("fleet_jobs_per_hour").set(result.jobsPerHour());
    }
    return result;
}

PimTrainResult
FleetScheduler::runStandalone(const JobSpec &job,
                              const FleetConfig &config)
{
    pimsim::PimConfig pim;
    pim.numDpus = job.ranks * config.dpusPerRank;
    pim.hostThreads = config.hostThreads;
    pimsim::PimSystem system(pim);

    auto env = rlenv::makeEnvironment(job.env);
    const auto data = rlcore::collectRandomDataset(
        *env, job.transitions, job.collectSeed);

    PimTrainer trainer(system, sessionConfigFor(job));
    return trainer.train(data, env->numStates(), env->numActions());
}

} // namespace swiftrl::fleet
