/**
 * @file
 * swiftrl_cli: run any SwiftRL workload from the command line — the
 * driver a downstream user reaches for first. Collects (or loads) an
 * offline dataset, trains the chosen workload variant on a simulated
 * PIM system, evaluates the deployed policy, prints the full report
 * (time breakdown + instruction mix), and optionally checkpoints the
 * dataset and the trained Q-table.
 *
 * With --streaming the offline collect-then-train flow is replaced by
 * the streaming actor–learner pipeline: --actors CPU threads collect
 * each generation while the PIM side trains the previous one, with
 * the behaviour policy refreshed from the learner every
 * --refresh-period generations.
 *
 * With --metrics (JSON) / --metrics-prom (Prometheus text) the run
 * additionally exports the telemetry registry — per-DPU instruction
 * mix, MRAM DMA bytes, straggler histograms, per-generation RL
 * metrics — together with a run manifest recording config, seeds,
 * fault plan, and cost-model provenance (docs/OBSERVABILITY.md).
 * --log-level (or SWIFTRL_LOG) sets the stderr verbosity.
 *
 * With --trace-spans the run retains its causal span tree (fleet ->
 * session -> engine / serving) and writes it as self-describing JSON
 * validated by tools/check_trace.py; --flight-record dumps the
 * always-on flight ring on exit and names the crash-dump destination
 * for SWIFTRL_FATAL / SWIFTRL_PANIC.
 *
 * Training flags (--env, --cores, --episodes, ...) are rows of the
 * run-spec table the C ABI and the fleet share (swiftrl/run_spec.hh).
 * Examples: README.md, "Quickstart".
 */

#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "fleet/job_spec.hh"
#include "fleet/scheduler.hh"
#include "pimsim/stats_report.hh"
#include "rlcore/serialization.hh"
#include "serving/policy_server.hh"
#include "swiftrl/run_spec.hh"
#include "swiftrl/swiftrl.hh"
#include "telemetry/export.hh"
#include "telemetry/metric_registry.hh"
#include "telemetry/run_manifest.hh"
#include "telemetry/tracing.hh"

namespace {

/**
 * Write the export the path in @p flag asks for, if it asks: @p write
 * does the writing, @p what names the file in the report. False when
 * the file could not be written.
 */
template <typename Write>
bool
exportTo(const swiftrl::common::CliFlags &flags, const char *flag,
         const char *what, Write write)
{
    const auto path = flags.getString(flag, "");
    if (path.empty())
        return true;
    if (!write(path)) {
        SWIFTRL_WARN("cannot write ", what, " ", path);
        return false;
    }
    std::cout << what << " written to " << path << "\n";
    return true;
}

/**
 * Causal-trace exports, shared by every mode: --trace-spans writes
 * the retained span dump (validated by tools/check_trace.py),
 * --flight-record writes the always-on flight ring on demand.
 * Returns non-zero when a requested file could not be written.
 */
int
writeTraceOutputs(const swiftrl::common::CliFlags &flags)
{
    auto &tracer = swiftrl::telemetry::tracer();
    const bool ok =
        exportTo(flags, "trace-spans", "trace spans",
                 [&](const auto &p) { return tracer.writeSpansJson(p); }) &&
        exportTo(flags, "flight-record", "flight record",
                 [&](const auto &p) { return tracer.writeFlightJson(p); });
    return ok ? 0 : 1;
}

/**
 * Metrics export, shared by every mode: --metrics writes JSON
 * (tools/check_metrics.py validates it, tools/bench_compare.py diffs
 * it), --metrics-prom the Prometheus text format. False when a
 * requested file could not be written.
 */
bool
writeMetrics(const swiftrl::common::CliFlags &flags,
             const swiftrl::telemetry::RunManifest &manifest,
             const swiftrl::telemetry::MetricRegistry &metrics)
{
    using namespace swiftrl::telemetry;
    return exportTo(flags, "metrics", "metrics",
                    [&](const auto &p) {
                        return writeMetricsJson(p, manifest, metrics);
                    }) &&
           exportTo(flags, "metrics-prom", "prometheus metrics",
                    [&](const auto &p) {
                        return writeMetricsPrometheus(p, manifest,
                                                      metrics);
                    });
}

/**
 * --serve N: answer N greedy-action queries from @p table through the
 * batched serving frontend (src/serving), as a smoke of the
 * deployment path. Queries walk the state space round-robin, so the
 * served actions are deterministic. False when a query is rejected.
 */
bool
serveQueries(const swiftrl::rlcore::QTable &table, long long queries,
             const swiftrl::serving::ServingConfig &config,
             const std::string &tenant, const std::string &label)
{
    swiftrl::serving::PolicyServer server(table, config);
    for (long long i = 0; i < queries; ++i) {
        const auto state = static_cast<swiftrl::rlcore::StateId>(
            i % table.numStates());
        if (server.act(state, tenant) < 0) {
            SWIFTRL_WARN("policy serving rejected state ", state,
                         " for ", label);
            return false;
        }
    }
    server.stop();
    const auto stats = server.stats();
    std::cout << "served " << stats.queries << " greedy queries for "
              << label << " in " << stats.batches << " batch(es)\n";
    return true;
}

/**
 * Record what trains in @p m: @p cfg is the session (per generation
 * when streaming), @p transitions and @p collect_seed the data it
 * trains on.
 */
void
recordTraining(swiftrl::telemetry::RunManifest &m,
               const swiftrl::SessionConfig &cfg,
               std::size_t transitions, std::uint64_t collect_seed)
{
    m.workload = cfg.workload.name();
    m.tasklets = cfg.tasklets;
    m.episodes = cfg.hyper.episodes;
    m.tau = cfg.tau;
    m.transitions = transitions;
    m.weightedAggregation = cfg.weightedAggregation;
    m.alpha = cfg.hyper.alpha;
    m.gamma = cfg.hyper.gamma;
    m.epsilon = cfg.hyper.epsilon;
    m.collectSeed = collect_seed;
    m.trainSeed = cfg.hyper.seed;
    m.retryLimit = cfg.retry.limit;
}

/**
 * The tool's own integer flags (the training flags are the run-spec
 * table's), range-checked when read — before any work starts — so a
 * bad value is a usage error naming its flag instead of a wrapped
 * count or a failure after training.
 */
struct ToolInts
{
    explicit ToolInts(const swiftrl::common::CliFlags &flags)
        : evalEpisodes(flags.getIntIn("eval-episodes", 1000, 1)),
          serve(flags.getIntIn<long long>("serve", 0, 0)),
          generations(flags.getIntIn("generations", 8)),
          // Each actor is an OS thread per generation.
          actors(flags.getIntIn("actors", 1u, 1u, 1024u)),
          refreshPeriod(flags.getIntIn("refresh-period", 0)),
          pauseRound(flags.getIntIn("pause-round", 1, 1)),
          retryLimit(flags.getIntIn("retry-limit", 3)),
          faultSeed(flags.getIntIn<std::uint64_t>("fault-seed", 1))
    {
    }

    int evalEpisodes;
    long long serve;
    int generations;
    unsigned actors;
    int refreshPeriod;
    int pauseRound;
    int retryLimit;
    std::uint64_t faultSeed;
};

/** Shared tail of both modes: evaluate, report, export, checkpoint. */
int
finishRun(const swiftrl::common::CliFlags &flags, const ToolInts &ints,
          swiftrl::rlenv::Environment &env,
          const swiftrl::rlcore::QTable &final_q,
          const swiftrl::pimsim::Timeline &timeline,
          swiftrl::pimsim::PimSystem &system,
          swiftrl::telemetry::MetricRegistry &metrics,
          const swiftrl::telemetry::RunManifest &manifest)
{
    using namespace swiftrl;

    const int eval_episodes = ints.evalEpisodes;
    const auto eval =
        rlcore::evaluateGreedy(env, final_q, eval_episodes, 7);
    std::cout << "mean reward:      " << eval.meanReward << " over "
              << eval_episodes << " episodes (success rate "
              << eval.successRate << ", mean steps " << eval.meanSteps
              << ")\n";
    metrics.gauge("rl_eval_mean_reward").set(eval.meanReward);
    metrics.gauge("rl_eval_success_rate").set(eval.successRate);

    if (flags.getBool("stats", false)) {
        std::cout << "\n";
        pimsim::StatsReport::fromSystem(system).print(
            std::cout, "Device statistics");
    }

    // Export the run's command timeline as Chrome trace JSON: open
    // the file in chrome://tracing or https://ui.perfetto.dev. With
    // telemetry on, the trace additionally carries counter tracks
    // (straggler ratio, DMA bytes, live cores, max |dQ|), and with
    // --trace-spans active the retained causal spans are merged in
    // as nested slices (pid 1).
    if (!exportTo(flags, "trace", "trace",
                  [&](const auto &p) {
                      return timeline.writeChromeTrace(
                          p, telemetry::tracer().chromeSpanEvents());
                  }) ||
        !writeMetrics(flags, manifest, metrics))
        return 1;

    const auto save_q = flags.getString("save-qtable", "");
    if (!save_q.empty()) {
        rlcore::saveQTable(final_q, save_q);
        std::cout << "Q-table saved to " << save_q << "\n";
    }
    if (ints.serve > 0 && !serveQueries(final_q, ints.serve, {}, "default",
                                        "the trained table"))
        return 1;
    return writeTraceOutputs(flags);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace swiftrl;

    // The training flags are the run-spec table's CLI keys
    // (swiftrl/run_spec.hh); the rest are this tool's own.
    const auto run_keys = runSpecKeys(FrontEnd::Cli);
    std::vector<std::string> known = {
        "eval-episodes", "save-qtable", "save-dataset", "load-dataset",
        "stats", "trace", "streaming", "actors", "refresh-period",
        "generations", "fault-seed", "fault-rate", "dropout-rate",
        "retry-limit", "metrics", "metrics-prom", "log-level",
        "checkpoint", "pause-round", "restore", "serve", "fleet",
        "trace-spans", "flight-record"};
    for (const auto key : run_keys)
        known.push_back(flagName(key));
    const common::CliFlags flags(argc, argv, std::move(known));
    const ToolInts ints(flags);

    // --log-level overrides the SWIFTRL_LOG environment variable.
    // An unknown name warns once and falls back to inform rather
    // than aborting the run.
    const auto log_level_name = flags.getString("log-level", "");
    if (!log_level_name.empty())
        common::setLogLevelFromName(log_level_name, "--log-level");

    // Causal tracing: --trace-spans turns on span retention for the
    // whole run; --flight-record names the on-demand flight-ring dump
    // and doubles as the crash-dump destination, so a SWIFTRL_FATAL
    // mid-run still leaves the recorder's trail on disk.
    if (!flags.getString("trace-spans", "").empty())
        telemetry::tracer().enableExport(true);
    const auto flight_record_path =
        flags.getString("flight-record", "");
    if (!flight_record_path.empty())
        telemetry::tracer().setCrashDumpPath(flight_record_path);

    // Telemetry: enabled only when an export was requested, so
    // default runs construct nothing but an inert registry. The
    // trainers see a null registry pointer in that case and skip
    // collector attachment entirely.
    const bool want_metrics = !flags.getString("metrics", "").empty() ||
                              !flags.getString("metrics-prom", "").empty();
    telemetry::MetricRegistry metrics(want_metrics);

    // --- fleet mode --------------------------------------------------
    // --fleet jobs.json replaces the single-run flow entirely: the
    // document describes a shared rank pool and a multi-tenant job
    // list (schema in docs/SCHEDULER.md), and the scheduler runs it
    // to completion. Per-run training flags are ignored — each job
    // carries its own workload and hyper-parameters.
    const auto fleet_path = flags.getString("fleet", "");
    if (!fleet_path.empty()) {
        if (flags.getBool("streaming", false) ||
            !flags.getString("checkpoint", "").empty() ||
            !flags.getString("restore", "").empty()) {
            SWIFTRL_USAGE_ERROR("--fleet is its own mode; it cannot combine "
                                "with --streaming/--checkpoint/--restore");
        }
        auto spec = fleet::loadFleetSpec(fleet_path);
        constexpr std::string_view kHostThreads[] = {"host_threads"};
        spec.config.hostThreads =
            runSpecFromFlags(flags, kHostThreads).hostThreads;
        spec.config.metrics = want_metrics ? &metrics : nullptr;

        std::cout << "fleet: " << spec.config.totalRanks
                  << " rank(s) x " << spec.config.dpusPerRank
                  << " core(s), quantum "
                  << spec.config.quantumRounds << " round(s), "
                  << spec.jobs.size() << " job(s)\n";

        fleet::FleetScheduler scheduler(spec.config);
        const auto result = scheduler.run(spec.jobs);

        std::cout << "\n--- fleet results ---\n";
        for (const auto &job : result.jobs) {
            std::cout << job.id << " (tenant " << job.tenant
                      << "): finished at " << job.finishSec
                      << " s, queue wait " << job.queueWaitSec
                      << " s, " << job.preemptions
                      << " preemption(s), " << job.grants
                      << " grant(s), " << job.commRounds
                      << " round(s)\n";
        }
        std::cout << "makespan:         " << result.makespanSec
                  << " s\n"
                  << "throughput:       " << result.jobsPerHour()
                  << " jobs/hour\n"
                  << "rank occupancy:   " << result.occupancy()
                  << "\n"
                  << "preemptions:      " << result.totalPreemptions
                  << "\n";

        // --serve N in fleet mode: one serving frontend per finished
        // job, labelled with the job's tenant. Each server's span
        // tree parents on that job's fleet.job span, so serve traffic
        // in the trace dump is causally attributed to the job that
        // trained the table.
        for (const auto &job : result.jobs) {
            if (ints.serve <= 0)
                break;
            serving::ServingConfig serve_cfg;
            serve_cfg.traceParent = job.traceSpanId;
            serve_cfg.metrics = spec.config.metrics;
            if (!serveQueries(job.finalQ, ints.serve, serve_cfg,
                              job.tenant,
                              job.id + " (tenant " + job.tenant + ")"))
                return 1;
        }

        telemetry::RunManifest fleet_manifest;
        fleet_manifest.tool = "swiftrl_cli";
        fleet_manifest.mode = "fleet";
        fleet_manifest.cores =
            spec.config.totalRanks * spec.config.dpusPerRank;
        fleet_manifest.hostThreads = spec.config.hostThreads;
        if (!writeMetrics(flags, fleet_manifest, metrics))
            return 1;
        return writeTraceOutputs(flags);
    }

    const RunSpec run = runSpecFromFlags(flags, run_keys);
    auto env = rlenv::makeEnvironment(run.env);

    // Machine. --host-threads only changes how fast the simulation
    // itself runs (0 = one worker per hardware thread); results and
    // modelled times are bit-identical for every value.
    pimsim::PimConfig pim;
    pim.numDpus = run.cores;
    pim.hostThreads = run.hostThreads;
    // Fault injection (off by default): --fault-rate covers transient
    // kernel faults and wire corruption, --dropout-rate permanent
    // core loss; draws are seeded by --fault-seed, so a run's fault
    // sequence — and its recovered Q-table — is reproducible.
    pim.faultPlan.seed = ints.faultSeed;
    const double fault_rate = flags.getDouble("fault-rate", 0.0);
    pim.faultPlan.transientRate = fault_rate;
    pim.faultPlan.corruptRate = fault_rate;
    pim.faultPlan.dropoutRate = flags.getDouble("dropout-rate", 0.0);
    pimsim::PimSystem system(pim);

    auto manifest = telemetry::RunManifest::fromSystem(system);
    manifest.tool = "swiftrl_cli";
    manifest.environment = run.env;

    RetryPolicy retry;
    retry.limit = ints.retryLimit;
    if (pim.faultPlan.enabled()) {
        std::cout << "fault injection:  rate " << fault_rate
                  << ", dropout " << pim.faultPlan.dropoutRate
                  << ", seed " << pim.faultPlan.seed
                  << ", retry limit " << retry.limit << "\n";
    }

    if (flags.getBool("streaming", false)) {
        // --- streaming actor–learner mode ---------------------------
        if (!flags.getString("checkpoint", "").empty() ||
            !flags.getString("restore", "").empty()) {
            SWIFTRL_USAGE_ERROR("--checkpoint/--restore drive the offline "
                                "trainer; streaming runs restore through "
                                "the TrainerSession API instead");
        }
        // --episodes and --transitions are run totals in both modes;
        // streaming splits them evenly across the generations.
        StreamingConfig cfg = run.toStreamingConfig(ints.generations);
        cfg.actors = ints.actors;
        cfg.refreshPeriod = ints.refreshPeriod;
        cfg.retry = retry;
        cfg.metrics = want_metrics ? &metrics : nullptr;

        manifest.mode = "streaming";
        recordTraining(manifest, cfg, cfg.transitionsPerGeneration,
                       cfg.collectSeed);
        manifest.generations = cfg.generations;
        manifest.actors = cfg.actors;
        manifest.refreshPeriod = cfg.refreshPeriod;

        std::cout << "streaming " << cfg.workload.name() << " on "
                  << pim.numDpus << " PIM cores, " << cfg.generations
                  << " generations x " << cfg.transitionsPerGeneration
                  << " transitions, " << cfg.actors
                  << " actor(s), refresh-period=" << cfg.refreshPeriod
                  << "\n";

        StreamingTrainer trainer(system, cfg);
        const auto result = trainer.train(
            [&run] { return rlenv::makeEnvironment(run.env); },
            env->numStates(), env->numActions());

        std::cout << "\n--- results ---\n"
                  << "end-to-end:       " << result.endToEnd << " s"
                  << " (PIM pipeline " << result.time.total()
                  << ", host collect " << result.time.hostCollect
                  << " overlapped)\n"
                  << "breakdown:        kernel " << result.time.kernel
                  << ", cpu->pim " << result.time.cpuToPim
                  << ", pim->cpu " << result.time.pimToCpu
                  << ", inter-core " << result.time.interCore << "\n"
                  << "comm rounds:      " << result.commRounds
                  << ", policy refreshes " << result.policyRefreshes
                  << ", transitions " << result.transitions << "\n";
        if (pim.faultPlan.enabled()) {
            std::cout << "recovery:         "
                      << result.faultsDetected << " fault(s), "
                      << result.coresLost << " core(s) lost, "
                      << result.time.recovery
                      << " s recovery overhead\n";
        }
        return finishRun(flags, ints, *env, result.finalQ, result.timeline,
                         system, metrics, manifest);
    }

    // --- offline (paper) mode ---------------------------------------
    // Dataset: load a checkpoint or collect fresh.
    rlcore::Dataset data;
    const auto load_path = flags.getString("load-dataset", "");
    if (!load_path.empty()) {
        std::string error;
        auto loaded = rlcore::tryLoadDataset(load_path, &error);
        if (!loaded)
            SWIFTRL_USAGE_ERROR("--load-dataset: ", error);
        data = *std::move(loaded);
        if (const std::string misfit = rlcore::datasetMisfit(
                data, env->numStates(), env->numActions());
            !misfit.empty()) {
            SWIFTRL_USAGE_ERROR("--load-dataset '", load_path,
                                "' does not fit --env ", run.env, ": ",
                                misfit);
        }
        std::cout << "loaded " << data.size() << " transitions from "
                  << load_path << "\n";
    } else {
        data = rlcore::collectRandomDataset(*env, run.transitions,
                                            run.collectSeed());
        std::cout << "collected " << data.size()
                  << " transitions from " << run.env << "\n";
    }
    const auto save_data = flags.getString("save-dataset", "");
    if (!save_data.empty()) {
        rlcore::saveDataset(data, save_data);
        std::cout << "dataset saved to " << save_data << "\n";
    }

    // --shards S partitions the Q-table into S contiguous state
    // ranges with replicated slices per core group — the path for
    // procedurally scaled environments (--env lake:64, mptaxi:8x3)
    // whose tables outgrow whole-table replication.
    SessionConfig cfg = run.toSessionConfig();
    cfg.retry = retry;
    cfg.metrics = want_metrics ? &metrics : nullptr;

    manifest.mode = "offline";
    recordTraining(manifest, cfg, data.size(), run.collectSeed());

    std::cout << "training " << cfg.workload.name() << " on "
              << pim.numDpus << " PIM cores x " << cfg.tasklets
              << " tasklet(s), " << cfg.hyper.episodes
              << " episodes, tau=" << cfg.tau << "\n";

    PimTrainer trainer(system, cfg);

    // --checkpoint PATH [--pause-round N]: train to round boundary N,
    // persist the session checkpoint, and stop — no retrieval, no
    // evaluation. A later invocation with the same configuration and
    // dataset flags plus --restore PATH continues bit-identically to
    // an uninterrupted run (tests/test_session.cc proves it).
    const auto checkpoint_path = flags.getString("checkpoint", "");
    const auto restore_path = flags.getString("restore", "");
    if (!checkpoint_path.empty()) {
        if (!restore_path.empty())
            SWIFTRL_USAGE_ERROR("--checkpoint and --restore are one-at-a-"
                                "time: pause a run or continue one");
        const auto ck = trainer.trainUntilRound(
            data, env->numStates(), env->numActions(), ints.pauseRound);
        saveCheckpoint(ck, checkpoint_path);
        std::cout << "checkpoint written to " << checkpoint_path
                  << " after " << ck.commRounds << " round(s); "
                  << "resume with --restore " << checkpoint_path
                  << "\n";
        return writeTraceOutputs(flags);
    }

    const auto result =
        restore_path.empty()
            ? trainer.train(data, env->numStates(), env->numActions())
            : trainer.resume(data, env->numStates(),
                             env->numActions(),
                             loadCheckpoint(restore_path));
    if (!restore_path.empty())
        std::cout << "restored session from " << restore_path << "\n";

    std::cout << "\n--- results ---\n"
              << "modelled time:    " << result.time.total() << " s"
              << " (kernel " << result.time.kernel << ", cpu->pim "
              << result.time.cpuToPim << ", pim->cpu "
              << result.time.pimToCpu << ", inter-core "
              << result.time.interCore << ")\n"
              << "comm rounds:      " << result.commRounds << "\n";
    if (pim.faultPlan.enabled()) {
        std::cout << "recovery:         " << result.faultsDetected
                  << " fault(s), " << result.coresLost
                  << " core(s) lost, " << result.time.recovery
                  << " s recovery overhead\n";
    }
    return finishRun(flags, ints, *env, result.finalQ, result.timeline,
                     system, metrics, manifest);
}
