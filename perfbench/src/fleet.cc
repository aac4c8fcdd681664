/**
 * @file
 * fleet-preempt: a contended two-tenant job set on a small rank pool
 * with quantumRounds = 1, so almost every grant ends in a checkpoint
 * and a restore on a fresh machine.
 *
 * One op is one FleetScheduler::run call over the whole job set. All
 * calls run in the runner process, one after another, as they would
 * in a long-lived scheduler service. Every call's per-job Q-tables must equal FleetScheduler::
 * runStandalone (computed once, outside the timed region), and every
 * call must produce the same schedule.
 *
 * Set-up is what the fleet does for a job at its first dispatch —
 * dataset collection, PimSystem build and beginOffline — done here
 * from outside for every job of the set. Traced runs also time the
 * preemption round trip on each job's shape: TrainerSession::
 * checkpoint after one quantum, a fresh PimSystem, restoreOffline.
 *
 * noteFleetLayers gives the same layer figures from a few calls, for
 * taxi-sync's traced run: fleet-preempt stays runnable but is not
 * one of the benchmark's workloads (see run.py).
 */

#include <cstring>
#include <memory>
#include <string>

#include "common.hh"
#include "fleet/job_spec.hh"
#include "fleet/scheduler.hh"
#include "pimsim/pim_system.hh"
#include "rlcore/dataset.hh"
#include "rlenv/registry.hh"
#include "spans.hh"
#include "swiftrl/session.hh"

namespace perfbench {

namespace {

using namespace swiftrl;

constexpr int kEpisodes = 160;
constexpr int kSetupReps = 40;
/** FleetScheduler::run calls of the probe in taxi-sync's traced run. */
constexpr int kProbeCalls = 20;

fleet::JobSpec
makeJob(const std::string &id, const std::string &tenant,
        const std::string &env, std::size_t ranks, std::size_t minRanks,
        int episodes, double arrival, std::uint64_t collectSeed)
{
    fleet::JobSpec job;
    job.id = id;
    job.tenant = tenant;
    job.env = env;
    job.ranks = ranks;
    job.minRanks = minRanks;
    job.hyper.episodes = episodes;
    job.tau = 10;
    job.transitions = 4'000;
    job.arrivalSec = arrival;
    job.collectSeed = collectSeed;
    job.hyper.seed = collectSeed + 41;
    return job;
}

fleet::FleetConfig
fleetConfig()
{
    fleet::FleetConfig cfg;
    cfg.totalRanks = 4;
    cfg.dpusPerRank = 4;
    cfg.quantumRounds = 1;
    // One thread: a job's 8-16 cores give a worker too little to do
    // per launch, and each grant would start a fresh one.
    cfg.hostThreads = 1;
    cfg.tenantWeights = {{"research", 2.0}, {"prod", 1.0}};
    return cfg;
}

std::vector<fleet::JobSpec>
jobSet(std::uint64_t seed)
{
    const std::uint64_t s = seed * 100;
    const int e = kEpisodes;
    return {
        makeJob("fl-r1", "research", "frozenlake", 2, 0, e, 0.0, s + 1),
        makeJob("fl-r2", "research", "frozenlake", 2, 0, e, 0.0, s + 2),
        makeJob("fl-p1", "prod", "frozenlake", 2, 0, e, 0.0, s + 3),
        makeJob("fl-p2", "prod", "frozenlake", 4, 2, e, 0.001, s + 4),
        makeJob("tx-r3", "research", "taxi", 2, 1, e / 2, 0.002, s + 5),
        makeJob("tx-p3", "prod", "taxi", 2, 1, e / 2, 0.002, s + 6),
    };
}

bool
sameBits(const rlcore::QTable &a, const rlcore::QTable &b)
{
    return a.values().size() == b.values().size() &&
           std::memcmp(a.values().data(), b.values().data(),
                       a.values().size() * sizeof(float)) == 0;
}

std::uint64_t
scheduleDigest(const fleet::FleetResult &r)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const auto &line : r.dispatchLog)
        h = fnv({reinterpret_cast<const std::uint8_t *>(line.data()),
                 line.size()},
                h);
    return h;
}

/** What one call reports. */
struct CallOutcome
{
    bool ok = false;
    int grants = 0, preemptions = 0, rounds = 0;
};

/** A job's session machinery, built the way the fleet builds it. */
struct JobMachine
{
    std::unique_ptr<rlenv::Environment> env;
    rlcore::Dataset data;
    std::unique_ptr<pimsim::PimSystem> system;
    std::unique_ptr<TrainerSession> session;
};

SessionConfig
sessionConfig(const fleet::JobSpec &job)
{
    SessionConfig scfg;
    scfg.workload = job.workload;
    scfg.hyper = job.hyper;
    scfg.tau = job.tau;
    scfg.tasklets = job.tasklets;
    return scfg;
}

std::unique_ptr<pimsim::PimSystem>
buildSystem(const fleet::JobSpec &job, const fleet::FleetConfig &cfg)
{
    pimsim::PimConfig pim;
    pim.numDpus = job.ranks * cfg.dpusPerRank;
    pim.hostThreads = cfg.hostThreads;
    return std::make_unique<pimsim::PimSystem>(pim);
}

/** Host seconds of one job's first-dispatch set-up, by layer. */
struct SetupTimes
{
    double collectSec = 0.0;
    double buildSec = 0.0; ///< PimSystem build + beginOffline

    double total() const { return collectSec + buildSec; }
};

SetupTimes
setUpJob(const fleet::JobSpec &job, const fleet::FleetConfig &cfg,
         JobMachine &m)
{
    const auto t0 = Clock::now();
    {
        ScopedSpan span("rlcore.collect");
        m.env = rlenv::makeEnvironment(job.env);
        m.data = rlcore::collectRandomDataset(*m.env, job.transitions,
                                              job.collectSeed);
    }
    const auto t1 = Clock::now();
    {
        ScopedSpan span("pimsim.system_build");
        m.system = buildSystem(job, cfg);
    }
    {
        ScopedSpan span("swiftrl.begin");
        m.session = std::make_unique<TrainerSession>(*m.system,
                                                     sessionConfig(job));
        m.session->beginOffline(m.data, m.env->numStates(),
                                m.env->numActions());
    }
    return {secondsBetween(t0, t1), secondsBetween(t1, Clock::now())};
}

/** Host times of one preemption round trip on a job's shape. */
struct RoundTrip
{
    double checkpointSec = 0.0;
    double buildSec = 0.0;
    double restoreSec = 0.0;
    bool ok = true;
};

RoundTrip
preemptionRoundTrip(const fleet::JobSpec &job,
                    const fleet::FleetConfig &cfg)
{
    RoundTrip rt;
    JobMachine m;
    setUpJob(job, cfg, m);
    for (int r = 0; r < cfg.quantumRounds; ++r)
        rt.ok = m.session->step() && rt.ok;
    m.session->pause();

    auto t0 = Clock::now();
    SessionCheckpoint ck;
    {
        ScopedSpan span("swiftrl.checkpoint");
        ck = m.session->checkpoint();
    }
    auto t1 = Clock::now();
    m.session.reset();
    m.system.reset();
    {
        ScopedSpan span("pimsim.system_build");
        m.system = buildSystem(job, cfg);
    }
    auto t2 = Clock::now();
    {
        ScopedSpan span("swiftrl.restore");
        m.session = std::make_unique<TrainerSession>(*m.system,
                                                     sessionConfig(job));
        m.session->restoreOffline(m.data, ck);
    }
    auto t3 = Clock::now();
    rt.checkpointSec = secondsBetween(t0, t1);
    rt.buildSec = secondsBetween(t1, t2);
    rt.restoreSec = secondsBetween(t2, t3);
    rt.ok = m.session->step() && rt.ok;
    return rt;
}

/** Preemption round trips on every job's shape, five times each,
 *  traced; the notes carry their medians. */
double
noteRoundTrips(const std::vector<fleet::JobSpec> &jobs,
               const fleet::FleetConfig &cfg, Result &res,
               const std::string &buildName)
{
    recorder().enable(true);
    std::vector<double> trip, ckpt, restore, build;
    for (int rep = 0; rep < 5; ++rep) {
        for (const auto &job : jobs) {
            ScopedSpan span("bench.preemption_probe");
            const auto rt = preemptionRoundTrip(job, cfg);
            if (!rt.ok)
                res.fail("probe session ran out of episodes");
            trip.push_back(rt.checkpointSec + rt.buildSec + rt.restoreSec);
            ckpt.push_back(rt.checkpointSec);
            restore.push_back(rt.restoreSec);
            build.push_back(rt.buildSec);
        }
    }
    recorder().enable(false);
    res.note("swiftrl.checkpoint_ms", median(ckpt) * 1e3, "ms");
    res.note("swiftrl.restore_ms", median(restore) * 1e3, "ms");
    res.note(buildName, median(build) * 1e3, "ms");
    return median(trip) * 1e3;
}

/** The job set's standalone Q-tables and the first call's schedule,
 *  the references every call is checked against. */
struct Reference
{
    std::vector<rlcore::QTable> finalQ;
    std::uint64_t schedule = 0;
    std::uint64_t digest = 0; ///< of both; pinned
};

Reference
referenceFor(const std::vector<fleet::JobSpec> &jobs,
             const fleet::FleetConfig &cfg)
{
    Reference ref;
    std::uint64_t digest = 0xcbf29ce484222325ull;
    for (const auto &job : jobs) {
        ref.finalQ.push_back(
            fleet::FleetScheduler::runStandalone(job, cfg).finalQ);
        digest = fnvValues<float>(ref.finalQ.back().values(), digest);
    }
    ref.schedule = scheduleDigest(fleet::FleetScheduler(cfg).run(jobs));
    ref.digest = fnvValues<std::uint64_t>(
        std::span<const std::uint64_t>(&ref.schedule, 1), digest);
    return ref;
}

/** One FleetScheduler::run call, checked; returns its host seconds. */
double
checkedCall(const std::vector<fleet::JobSpec> &jobs,
            const fleet::FleetConfig &cfg, const Reference &ref,
            CallOutcome &out)
{
    const auto t0 = Clock::now();
    const auto result = fleet::FleetScheduler(cfg).run(jobs);
    const auto t1 = Clock::now();
    out = {};
    out.ok = result.jobs.size() == jobs.size() &&
             scheduleDigest(result) == ref.schedule;
    for (std::size_t j = 0; out.ok && j < jobs.size(); ++j)
        out.ok = sameBits(result.jobs[j].finalQ, ref.finalQ[j]);
    for (const auto &job : result.jobs) {
        out.grants += job.grants;
        out.rounds += job.commRounds;
    }
    out.preemptions = result.totalPreemptions;
    return secondsBetween(t0, t1);
}

void
noteCallCounts(const CallOutcome &last, double callP50, Result &res)
{
    res.note("fleet.grants", last.grants, "count");
    res.note("fleet.preemptions", last.preemptions, "count");
    res.note("fleet.comm_rounds", last.rounds, "count");
    res.note("fleet.ms_per_grant", callP50 / last.grants, "ms");
}

} // namespace

void
noteFleetLayers(std::uint64_t seed, Result &res)
{
    const auto cfg = fleetConfig();
    const auto jobs = jobSet(seed);
    const Reference ref = referenceFor(jobs, cfg);
    std::vector<double> calls;
    CallOutcome out;
    recorder().enable(true);
    for (int i = 0; i < kProbeCalls; ++i) {
        ScopedSpan span("fleet.run");
        calls.push_back(checkedCall(jobs, cfg, ref, out));
        res.attempted += 1;
        if (!out.ok) {
            res.failed += 1;
            res.fail("fleet probe call diverged from the standalone "
                     "reference or the first schedule");
            return;
        }
    }
    const double callP50 = median(calls) * 1e3;
    res.note("fleet.call_ms_p50", callP50, "ms");
    res.note("samples.fleet_calls", static_cast<double>(calls.size()),
             "count");
    noteCallCounts(out, callP50, res);
    res.note("fleet.preemption_round_trip_ms",
             noteRoundTrips(jobs, cfg, res, "fleet.rebuild_ms"), "ms");
}

Result
runFleet(const Options &opts)
{
    Result res;
    const auto cfg = fleetConfig();
    const auto jobs = jobSet(opts.seed);

    // Reference outside the timed region: every job alone.
    const Reference ref = referenceFor(jobs, cfg);
    res.digest = hex(ref.digest);
    if (opts.digestOnly)
        return res;

    // Set-up: every job's first-dispatch work, repeated for a median.
    std::vector<double> setup, setupCollect, setupBuild;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        SetupTimes total;
        for (const auto &job : jobs) {
            JobMachine m;
            const auto t = setUpJob(job, cfg, m);
            total.collectSec += t.collectSec;
            total.buildSec += t.buildSec;
        }
        setup.push_back(total.total());
        setupCollect.push_back(total.collectSec);
        setupBuild.push_back(total.buildSec);
    }

    auto runCalls = [&](double seconds, bool traced,
                        std::vector<double> &callSec, CallOutcome &last) {
        const auto start = Clock::now();
        while (callSec.size() < 20 ||
               secondsBetween(start, Clock::now()) < seconds) {
            CallOutcome out;
            const double t0 = recorder().now();
            const double sec = checkedCall(jobs, cfg, ref, out);
            res.attempted += 1;
            if (!out.ok) {
                res.failed += 1;
                res.fail("fleet run diverged from the standalone reference "
                         "or the first schedule");
                break;
            }
            callSec.push_back(sec);
            if (traced) {
                auto &rec = recorder();
                rec.record({rec.nextId(), 0, "fleet.run", t0, t0 + sec});
            }
            last = out;
        }
    };

    std::vector<double> calls;
    CallOutcome last{};
    runCalls(opts.trace ? opts.seconds / 2 : opts.seconds, false, calls,
             last);
    const double callP50 = median(calls) * 1e3;

    const double jobsPerS =
        static_cast<double>(jobs.size() * calls.size()) / sum(calls);
    res.note("samples.calls", static_cast<double>(calls.size()), "count");
    res.note("jobs_per_s", jobsPerS, "1/s");

    if (!opts.trace) {
        res.pool.setupSec = setup;
        res.pool.opSec = calls;
        res.pool.workUnits = static_cast<double>(jobs.size() * calls.size());
        res.pool.workSec = sum(calls);
    } else {
        std::vector<double> tcalls;
        CallOutcome tlast{};
        runCalls(opts.seconds / 2, true, tcalls, tlast);

        const double tcallP50 = median(tcalls) * 1e3;
        const double focus =
            noteRoundTrips(jobs, cfg, res, "pimsim.system_build_ms");
        res.metric("rlcore.input_ms", median(setupCollect) * 1e3, "ms");
        res.metric("frontend.build_ms", median(setupBuild) * 1e3, "ms");
        res.metric("focus_ms_p50", focus, "ms");
        res.metric("focus_share",
                   last.preemptions * focus / tcallP50, "frac");
        res.metric("op_ms_p99", quantile(tcalls, 0.99) * 1e3, "ms");
        res.metric("telemetry.trace_overhead_frac", tcallP50 / callP50 - 1.0,
                   "frac");
        res.note("traced.op_ms_p50", tcallP50, "ms");
        res.note("samples.traced_calls", static_cast<double>(tcalls.size()),
                 "count");
    }
    noteCallCounts(last, callP50, res);

    res.shape("jobs", std::to_string(jobs.size()));
    res.shape("tenants", "2");
    res.shape("total_ranks", std::to_string(cfg.totalRanks));
    res.shape("dpus_per_rank", std::to_string(cfg.dpusPerRank));
    res.shape("quantum_rounds", std::to_string(cfg.quantumRounds));
    res.shape("episodes", std::to_string(kEpisodes));
    res.shape("host_pool", std::to_string(cfg.hostThreads));
    res.shape("client_threads", "0");
    return res;
}

} // namespace perfbench
