// Tests for the multi-tenant fleet scheduler (src/fleet) and the
// rank-lease allocator behind it (src/pimsim/rank_pool).
//
// The load-bearing property is the determinism contract from
// docs/SCHEDULER.md: scheduling moves only fleet-clock time, never a
// learned value. Every schedule — whatever the quantum, tenant
// weights, grant shrinkage, or host-thread count — must produce final
// Q-tables bit-identical to each job's standalone run on a dedicated
// machine.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fleet/job_spec.hh"
#include "fleet/scheduler.hh"
#include "pimsim/pim_system.hh"
#include "pimsim/rank_pool.hh"
#include "rlcore/dataset.hh"
#include "rlenv/registry.hh"
#include "swiftrl/session.hh"
#include "telemetry/metric_registry.hh"

namespace {

using namespace swiftrl;

// --- RankPool ------------------------------------------------------

TEST(RankPool, LeasesLowestFreeIdsFirst)
{
    pimsim::RankPool pool(4);
    EXPECT_EQ(pool.numRanks(), 4u);
    EXPECT_EQ(pool.freeRanks(), 4u);

    const auto a = pool.lease(2);
    EXPECT_EQ(a, (std::vector<std::size_t>{0, 1}));
    const auto b = pool.lease(1);
    EXPECT_EQ(b, (std::vector<std::size_t>{2}));
    EXPECT_EQ(pool.freeRanks(), 1u);

    // Releasing the low ids makes them the next grant again.
    pool.release(a);
    const auto c = pool.lease(2);
    EXPECT_EQ(c, (std::vector<std::size_t>{0, 1}));
}

TEST(RankPool, InsufficientLeaseGrantsNothing)
{
    pimsim::RankPool pool(2);
    const auto a = pool.lease(1);
    EXPECT_EQ(a.size(), 1u);
    EXPECT_TRUE(pool.lease(2).empty());
    // The failed lease must not have consumed the free rank.
    EXPECT_EQ(pool.freeRanks(), 1u);
}

TEST(RankPool, ChargesBusySecondsPerRank)
{
    pimsim::RankPool pool(3);
    const auto a = pool.lease(2);
    pool.charge(a, 1.5);
    pool.charge({a[1]}, 0.5);
    EXPECT_DOUBLE_EQ(pool.busySeconds(0), 1.5);
    EXPECT_DOUBLE_EQ(pool.busySeconds(1), 2.0);
    EXPECT_DOUBLE_EQ(pool.busySeconds(2), 0.0);
    EXPECT_DOUBLE_EQ(pool.totalBusySeconds(), 3.5);
}

TEST(RankPoolDeath, GuardsMisuse)
{
    pimsim::RankPool pool(2);
    EXPECT_DEATH(pool.lease(0), "lease");
    const auto a = pool.lease(1);
    pool.release(a);
    EXPECT_DEATH(pool.release(a), "double release");
    EXPECT_DEATH(pool.charge({0}, -1.0), "negative");
}

// --- job-spec parsing ----------------------------------------------

constexpr const char *kTwoTenantSpec = R"({
  "fleet": {"ranks": 4, "dpus_per_rank": 2, "quantum_rounds": 3},
  "tenants": {"research": 2.0, "prod": 1.0},
  "jobs": [
    {"id": "a", "tenant": "research", "env": "frozenlake",
     "ranks": 2, "min_ranks": 1, "episodes": 20, "tau": 5,
     "transitions": 2000, "seed": 7, "priority": 1,
     "alpha": 0.2, "gamma": 0.9, "epsilon": 0.1},
    {"id": "b", "tenant": "prod", "env": "taxi", "ranks": 4,
     "episodes": 10, "tau": 40, "transitions": 3000,
     "arrival_sec": 0.25}
  ]
})";

TEST(FleetSpec, ParsesFleetTenantsAndJobs)
{
    const auto spec = fleet::parseFleetSpec(kTwoTenantSpec);
    EXPECT_EQ(spec.config.totalRanks, 4u);
    EXPECT_EQ(spec.config.dpusPerRank, 2u);
    EXPECT_EQ(spec.config.quantumRounds, 3);
    EXPECT_DOUBLE_EQ(spec.config.weightFor("research"), 2.0);
    EXPECT_DOUBLE_EQ(spec.config.weightFor("prod"), 1.0);
    EXPECT_DOUBLE_EQ(spec.config.weightFor("unlisted"), 1.0);

    ASSERT_EQ(spec.jobs.size(), 2u);
    const auto &a = spec.jobs[0];
    EXPECT_EQ(a.id, "a");
    EXPECT_EQ(a.tenant, "research");
    EXPECT_EQ(a.priority, 1);
    EXPECT_EQ(a.ranks, 2u);
    EXPECT_EQ(a.minRanks, 1u);
    EXPECT_EQ(a.effectiveMinRanks(), 1u);
    EXPECT_EQ(a.hyper.episodes, 20);
    EXPECT_EQ(a.tau, 5);
    EXPECT_EQ(a.transitions, 2000u);
    EXPECT_FLOAT_EQ(a.hyper.alpha, 0.2f);
    EXPECT_FLOAT_EQ(a.hyper.gamma, 0.9f);
    EXPECT_FLOAT_EQ(a.hyper.epsilon, 0.1f);
    // Seed discipline matches swiftrl_cli: collect = seed,
    // train = seed + 41.
    EXPECT_EQ(a.collectSeed, 7u);
    EXPECT_EQ(a.hyper.seed, 48u);

    const auto &b = spec.jobs[1];
    EXPECT_EQ(b.minRanks, 0u);
    EXPECT_EQ(b.effectiveMinRanks(), 4u); // 0 = same as ranks
    EXPECT_EQ(b.tau, 10);                 // clamped to episodes
    EXPECT_DOUBLE_EQ(b.arrivalSec, 0.25);
}

TEST(FleetSpecDeath, RejectsOperatorMistakes)
{
    // Unknown keys anywhere fail loudly instead of silently running
    // the default.
    EXPECT_DEATH(fleet::parseFleetSpec(
                     R"({"jobs": [{"id": "a", "tenant": "t",
                          "episods": 5}]})"),
                 "unknown key");
    EXPECT_DEATH(fleet::parseFleetSpec(
                     R"({"flee": {}, "jobs": []})"),
                 "unknown key");
    // Duplicate ids, missing ids/tenants, oversized jobs.
    EXPECT_DEATH(fleet::parseFleetSpec(
                     R"({"jobs": [{"id": "a", "tenant": "t"},
                                  {"id": "a", "tenant": "t"}]})"),
                 "duplicate job id");
    EXPECT_DEATH(fleet::parseFleetSpec(R"({"jobs": [{"tenant": "t"}]})"),
                 "non-empty");
    EXPECT_DEATH(fleet::parseFleetSpec(R"({"jobs": [{"id": "a"}]})"),
                 "tenant");
    EXPECT_DEATH(fleet::parseFleetSpec(
                     R"({"fleet": {"ranks": 2},
                         "jobs": [{"id": "a", "tenant": "t",
                                   "ranks": 4}]})"),
                 "wants 4 ranks");
    EXPECT_DEATH(fleet::parseFleetSpec(
                     R"({"tenants": {"t": 0},
                         "jobs": [{"id": "a", "tenant": "t"}]})"),
                 "positive");
    EXPECT_DEATH(fleet::parseFleetSpec("{nope"), "malformed JSON");
    // Session-config rules are checked at parse time, naming the job
    // and the field, before the scheduler runs any other job.
    EXPECT_DEATH(fleet::parseFleetSpec(
                     R"({"jobs": [{"id": "a", "tenant": "t",
                                   "gamma": 2}]})"),
                 "job \"a\": hyper\\.gamma");
    EXPECT_DEATH(fleet::parseFleetSpec(
                     R"({"jobs": [{"id": "ok", "tenant": "t"},
                                  {"id": "b", "tenant": "t",
                                   "tasklets": 30}]})"),
                 "job \"b\": tasklets: UPMEM DPUs support 1-24");
    // Integers are read checked: no truncation, no wrap-around.
    EXPECT_DEATH(fleet::parseFleetSpec(
                     R"({"jobs": [{"id": "a", "tenant": "t",
                                   "episodes": 2.5}]})"),
                 "episodes must be an integer");
    EXPECT_DEATH(fleet::parseFleetSpec(
                     R"({"jobs": [{"id": "a", "tenant": "t",
                                   "episodes": 4294967297}]})"),
                 "episodes must be an integer");
}

// --- scheduling determinism ----------------------------------------

/** A small contended two-tenant job mix on a 3-rank fleet. */
std::vector<fleet::JobSpec>
contendedJobs()
{
    const auto make = [](const char *id, const char *tenant,
                         std::size_t ranks, std::size_t min_ranks,
                         int episodes, double arrival,
                         std::uint64_t seed) {
        fleet::JobSpec job;
        job.id = id;
        job.tenant = tenant;
        job.env = "frozenlake";
        job.ranks = ranks;
        job.minRanks = min_ranks;
        job.hyper.episodes = episodes;
        job.tau = 5;
        job.transitions = 2'000;
        job.arrivalSec = arrival;
        job.collectSeed = seed;
        job.hyper.seed = seed + 41;
        return job;
    };
    return {
        make("r1", "research", 2, 1, 20, 0.0, 3),
        make("r2", "research", 2, 0, 20, 0.0, 4),
        make("p1", "prod", 3, 1, 15, 0.001, 5),
        make("p2", "prod", 1, 0, 10, 0.002, 6),
    };
}

fleet::FleetConfig
smallFleet()
{
    fleet::FleetConfig config;
    config.totalRanks = 3;
    config.dpusPerRank = 2;
    config.quantumRounds = 2;
    config.tenantWeights = {{"research", 2.0}, {"prod", 1.0}};
    return config;
}

TEST(FleetScheduler, MatchesStandaloneBitExactly)
{
    const auto jobs = contendedJobs();
    const auto config = smallFleet();
    fleet::FleetScheduler scheduler(config);
    const auto result = scheduler.run(jobs);

    ASSERT_EQ(result.jobs.size(), jobs.size());
    EXPECT_GT(result.totalPreemptions, 0);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto standalone =
            fleet::FleetScheduler::runStandalone(jobs[i], config);
        EXPECT_EQ(result.jobs[i].finalQ.values(),
                  standalone.finalQ.values())
            << "job " << jobs[i].id
            << " diverged from its standalone run";
        EXPECT_EQ(result.jobs[i].commRounds, standalone.commRounds);
    }
}

TEST(FleetScheduler, ScheduleKnobsNeverMoveALearnedValue)
{
    const auto jobs = contendedJobs();
    const auto baseline =
        fleet::FleetScheduler(smallFleet()).run(jobs);

    // Different quantum: different interleaving, same Q-tables.
    auto quantum1 = smallFleet();
    quantum1.quantumRounds = 1;
    const auto r1 = fleet::FleetScheduler(quantum1).run(jobs);

    // Inverted tenant weights.
    auto inverted = smallFleet();
    inverted.tenantWeights = {{"research", 0.5}, {"prod", 4.0}};
    const auto r2 = fleet::FleetScheduler(inverted).run(jobs);

    // Single-threaded functional simulation.
    auto serial = smallFleet();
    serial.hostThreads = 1;
    const auto r3 = fleet::FleetScheduler(serial).run(jobs);

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto &expect = baseline.jobs[i].finalQ.values();
        EXPECT_EQ(r1.jobs[i].finalQ.values(), expect);
        EXPECT_EQ(r2.jobs[i].finalQ.values(), expect);
        EXPECT_EQ(r3.jobs[i].finalQ.values(), expect);
    }
    // The host-thread count must not even move the schedule.
    EXPECT_EQ(r3.dispatchLog, baseline.dispatchLog);
    EXPECT_EQ(r3.makespanSec, baseline.makespanSec);
}

TEST(FleetScheduler, ReplaysByteIdenticalSchedules)
{
    // Equal-priority, equal-arrival jobs tie-break by id — a total
    // order, so two runs replay the same dispatch log byte for byte.
    const auto jobs = contendedJobs();
    const auto config = smallFleet();
    const auto a = fleet::FleetScheduler(config).run(jobs);
    const auto b = fleet::FleetScheduler(config).run(jobs);
    ASSERT_FALSE(a.dispatchLog.empty());
    EXPECT_EQ(a.dispatchLog, b.dispatchLog);
    EXPECT_EQ(a.makespanSec, b.makespanSec);
    EXPECT_EQ(a.rankBusySeconds, b.rankBusySeconds);
}

TEST(FleetScheduler, ShrunkenGrantDilatesButPreservesResults)
{
    // Three ranks; "wide" (2 ranks) and "narrow" (2 ranks, min 1)
    // arrive together: wide dispatches first (id order), narrow
    // backfills onto the single leftover rank — a shrunken, dilated
    // grant.
    fleet::FleetConfig config;
    config.totalRanks = 3;
    config.dpusPerRank = 2;
    config.quantumRounds = 100; // no preemption: isolate dilation

    fleet::JobSpec wide;
    wide.id = "a-wide";
    wide.tenant = "t1";
    wide.env = "frozenlake";
    wide.ranks = 2;
    wide.hyper.episodes = 20;
    wide.tau = 5;
    wide.transitions = 2'000;
    wide.collectSeed = 9;
    wide.hyper.seed = 50;

    fleet::JobSpec narrow = wide;
    narrow.id = "b-narrow";
    narrow.tenant = "t2";
    narrow.minRanks = 1;
    narrow.collectSeed = 10;
    narrow.hyper.seed = 51;

    fleet::FleetScheduler scheduler(config);
    const auto result = scheduler.run({wide, narrow});

    EXPECT_EQ(result.jobs[0].minGrantRanks, 2u);
    EXPECT_EQ(result.jobs[1].minGrantRanks, 1u);
    // The halved grant time-multiplexes: fleet-clock occupancy is
    // dilated by ceil(2/1) = 2 over the session's own clock (plus
    // the fixed dispatch overhead).
    EXPECT_GT(result.jobs[1].occupiedSec,
              1.9 * result.jobs[1].modelledTrainSec);
    // ...but the learned values are untouched.
    for (std::size_t i = 0; i < result.jobs.size(); ++i) {
        const auto standalone = fleet::FleetScheduler::runStandalone(
            i == 0 ? wide : narrow, config);
        EXPECT_EQ(result.jobs[i].finalQ.values(),
                  standalone.finalQ.values());
    }
}

TEST(FleetScheduler, ResumesOnDifferentRanksAfterPreemption)
{
    // Two ranks, two full-width jobs: they alternate via preemption,
    // and the requeued job's resume lands on whatever is free — the
    // physical placement legitimately changes between grants.
    fleet::FleetConfig config;
    config.totalRanks = 2;
    config.dpusPerRank = 2;
    config.quantumRounds = 1;

    auto jobs = contendedJobs();
    jobs.resize(2);
    jobs[0].ranks = 2;
    jobs[0].minRanks = 0;
    jobs[1].ranks = 2;
    jobs[1].minRanks = 0;

    fleet::FleetScheduler scheduler(config);
    const auto result = scheduler.run(jobs);
    EXPECT_GT(result.totalPreemptions, 0);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_GT(result.jobs[i].grants, 1);
        const auto standalone =
            fleet::FleetScheduler::runStandalone(jobs[i], config);
        EXPECT_EQ(result.jobs[i].finalQ.values(),
                  standalone.finalQ.values());
    }
}

TEST(FleetScheduler, AccountsQueueWaitAndArrivals)
{
    const auto jobs = contendedJobs();
    const auto result =
        fleet::FleetScheduler(smallFleet()).run(jobs);
    bool someone_waited = false;
    for (const auto &job : result.jobs) {
        EXPECT_GE(job.firstDispatchSec, job.arrivalSec);
        EXPECT_GE(job.queueWaitSec, 0.0);
        EXPECT_GE(job.finishSec, job.firstDispatchSec);
        EXPECT_GT(job.grants, 0);
        someone_waited |= job.queueWaitSec > 0.0;
    }
    // An oversubscribed fleet must have made someone wait.
    EXPECT_TRUE(someone_waited);
    EXPECT_GT(result.makespanSec, 0.0);
    EXPECT_GT(result.occupancy(), 0.0);
    EXPECT_LE(result.occupancy(), 1.0);
    EXPECT_GT(result.jobsPerHour(), 0.0);
}

TEST(FleetScheduler, ShortJobFinishesWhileLongJobIsPreempted)
{
    // One rank: the long job trains, gets preempted for the short
    // job, which runs to completion while the long job waits; then
    // the long job resumes and finishes. Exercises the
    // finish-during-preemption interleaving.
    fleet::FleetConfig config;
    config.totalRanks = 1;
    config.dpusPerRank = 2;
    config.quantumRounds = 1;

    fleet::JobSpec longer;
    longer.id = "long";
    longer.tenant = "t1";
    longer.env = "frozenlake";
    longer.ranks = 1;
    longer.hyper.episodes = 30;
    longer.tau = 5;
    longer.transitions = 2'000;
    longer.collectSeed = 30;
    longer.hyper.seed = 71;

    fleet::JobSpec shorter = longer;
    shorter.id = "short";
    shorter.tenant = "t2";
    shorter.hyper.episodes = 5;
    shorter.arrivalSec = 0.001;
    shorter.collectSeed = 31;
    shorter.hyper.seed = 72;

    fleet::FleetScheduler scheduler(config);
    const auto result = scheduler.run({longer, shorter});
    EXPECT_GT(result.jobs[0].preemptions, 0);
    EXPECT_LT(result.jobs[1].finishSec, result.jobs[0].finishSec);
    for (std::size_t i = 0; i < result.jobs.size(); ++i) {
        const auto standalone = fleet::FleetScheduler::runStandalone(
            i == 0 ? longer : shorter, config);
        EXPECT_EQ(result.jobs[i].finalQ.values(),
                  standalone.finalQ.values());
    }
}

// --- round-0 checkpoint (the preemption edge the fleet never hits:
// --- its slices always train >= 1 round first) ---------------------

TEST(FleetScheduler, CheckpointBeforeAnyStepRestoresBitIdentically)
{
    SessionConfig config;
    config.hyper.episodes = 20;
    config.hyper.seed = 42;
    config.tau = 5;

    auto env = rlenv::makeEnvironment("frozenlake");
    const auto data = rlcore::collectRandomDataset(*env, 2'000, 1);

    pimsim::PimConfig pim;
    pim.numDpus = 4;

    // Checkpoint immediately after beginOffline, before any step.
    pimsim::PimSystem paused_system(pim);
    TrainerSession paused(paused_system, config);
    paused.beginOffline(data, env->numStates(), env->numActions());
    const auto ck = paused.checkpoint();
    EXPECT_EQ(ck.commRounds, 0);

    pimsim::PimSystem restored_system(pim);
    TrainerSession restored(restored_system, config);
    restored.restoreOffline(data, ck);
    while (restored.step()) {
    }
    restored.finishRetrieval();

    // Reference: the same run, uninterrupted.
    pimsim::PimSystem plain_system(pim);
    TrainerSession plain(plain_system, config);
    plain.beginOffline(data, env->numStates(), env->numActions());
    while (plain.step()) {
    }
    plain.finishRetrieval();

    EXPECT_EQ(restored.aggregated().values(),
              plain.aggregated().values());
    EXPECT_EQ(restored.stream().now(), plain.stream().now());
}

// --- telemetry -----------------------------------------------------

TEST(FleetScheduler, ExportsLabelledFleetMetrics)
{
    telemetry::MetricRegistry metrics(true);
    auto config = smallFleet();
    config.metrics = &metrics;
    const auto jobs = contendedJobs();
    const auto result = fleet::FleetScheduler(config).run(jobs);

    const telemetry::Labels r1_labels = {{"job", "r1"},
                                         {"tenant", "research"}};
    EXPECT_EQ(metrics.counter("fleet_preemptions_total", r1_labels)
                  .value(),
              static_cast<std::uint64_t>(result.jobs[0].preemptions));
    EXPECT_EQ(
        metrics.gauge("fleet_queue_wait_seconds", r1_labels).value(),
        result.jobs[0].queueWaitSec);
    EXPECT_EQ(metrics
                  .counter("fleet_jobs_completed_total",
                           {{"tenant", "prod"}})
                  .value(),
              2u);
    EXPECT_EQ(metrics.gauge("fleet_makespan_seconds").value(),
              result.makespanSec);
    EXPECT_EQ(metrics.gauge("fleet_rank_occupancy_ratio").value(),
              result.occupancy());
    EXPECT_EQ(
        metrics.gauge("fleet_rank_busy_seconds", {{"rank", "0"}})
            .value(),
        result.perRankBusySec[0]);

    // The registry is observation-only: a metrics-free run produces
    // the same Q-tables and schedule.
    const auto bare = fleet::FleetScheduler(smallFleet()).run(jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(bare.jobs[i].finalQ.values(),
                  result.jobs[i].finalQ.values());
    }
    EXPECT_EQ(bare.dispatchLog, result.dispatchLog);
}

} // namespace
