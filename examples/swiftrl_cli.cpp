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
 * Examples:
 *   swiftrl_cli --env taxi --algo sarsa --sampling ran --format int32
 *   swiftrl_cli --env frozenlake --cores 2000 --episodes 200 --tau 50
 *   swiftrl_cli --env frozenlake --save-qtable policy.swrl
 *   swiftrl_cli --env frozenlake --tasklets 11 --stats
 *   swiftrl_cli --env lake:64 --shards 8 --cores 32 --transitions 20000
 *   swiftrl_cli --env mptaxi:6x2 --shards 4 --cores 16
 *   swiftrl_cli --env frozenlake --metrics run.json --trace run.trace
 *   swiftrl_cli --env taxi --streaming --actors 4 --generations 8 \
 *               --refresh-period 2 --trace stream.json
 */

#include <algorithm>
#include <iostream>

#include "common/cli.hh"
#include "common/logging.hh"
#include "fleet/job_spec.hh"
#include "fleet/scheduler.hh"
#include "pimsim/stats_report.hh"
#include "rlcore/serialization.hh"
#include "serving/policy_server.hh"
#include "swiftrl/swiftrl.hh"
#include "telemetry/export.hh"
#include "telemetry/metric_registry.hh"
#include "telemetry/run_manifest.hh"
#include "telemetry/tracing.hh"

namespace {

/**
 * Causal-trace exports, shared by every mode: --trace-spans writes
 * the retained span dump (validated by tools/check_trace.py),
 * --flight-record writes the always-on flight ring on demand.
 * Returns non-zero when a requested file could not be written.
 */
int
writeTraceOutputs(const swiftrl::common::CliFlags &flags)
{
    using namespace swiftrl;

    const auto spans_path = flags.getString("trace-spans", "");
    if (!spans_path.empty()) {
        if (telemetry::tracer().writeSpansJson(spans_path)) {
            std::cout << "trace spans written to " << spans_path
                      << "\n";
        } else {
            SWIFTRL_WARN("cannot write span file ", spans_path);
            return 1;
        }
    }
    const auto flight_path = flags.getString("flight-record", "");
    if (!flight_path.empty()) {
        if (telemetry::tracer().writeFlightJson(flight_path)) {
            std::cout << "flight record written to " << flight_path
                      << "\n";
        } else {
            SWIFTRL_WARN("cannot write flight record ", flight_path);
            return 1;
        }
    }
    return 0;
}

/** Shared tail of both modes: evaluate, report, export, checkpoint. */
int
finishRun(const swiftrl::common::CliFlags &flags,
          swiftrl::rlenv::Environment &env,
          const swiftrl::rlcore::QTable &final_q,
          const swiftrl::pimsim::Timeline &timeline,
          swiftrl::pimsim::PimSystem &system,
          swiftrl::telemetry::MetricRegistry &metrics,
          const swiftrl::telemetry::RunManifest &manifest)
{
    using namespace swiftrl;

    const auto eval_episodes =
        static_cast<int>(flags.getInt("eval-episodes", 1000));
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
    // (straggler ratio, DMA bytes, live cores, max |dQ|).
    const auto trace_path = flags.getString("trace", "");
    if (!trace_path.empty()) {
        // With --trace-spans active, the retained causal spans are
        // merged into the same trace as nested slices (pid 1).
        if (timeline.writeChromeTrace(
                trace_path,
                telemetry::tracer().chromeSpanEvents())) {
            std::cout << "trace written to " << trace_path << " ("
                      << timeline.size() << " commands)\n";
        } else {
            SWIFTRL_WARN("cannot write trace file ", trace_path);
            return 1;
        }
    }

    // Metrics export: JSON (tools/check_metrics.py validates it,
    // tools/bench_compare.py diffs it) and Prometheus text format.
    const auto metrics_path = flags.getString("metrics", "");
    if (!metrics_path.empty()) {
        if (telemetry::writeMetricsJson(metrics_path, manifest,
                                        metrics)) {
            std::cout << "metrics written to " << metrics_path << " ("
                      << metrics.size() << " metrics)\n";
        } else {
            SWIFTRL_WARN("cannot write metrics file ", metrics_path);
            return 1;
        }
    }
    const auto prom_path = flags.getString("metrics-prom", "");
    if (!prom_path.empty()) {
        if (telemetry::writeMetricsPrometheus(prom_path, manifest,
                                              metrics)) {
            std::cout << "prometheus metrics written to " << prom_path
                      << "\n";
        } else {
            SWIFTRL_WARN("cannot write metrics file ", prom_path);
            return 1;
        }
    }

    const auto save_q = flags.getString("save-qtable", "");
    if (!save_q.empty()) {
        rlcore::saveQTable(final_q, save_q);
        std::cout << "Q-table saved to " << save_q << "\n";
    }

    // --serve N: answer N greedy-action queries from the trained
    // table through the batched serving frontend (src/serving), as a
    // smoke of the deployment path. Queries walk the state space
    // round-robin, so the served actions are deterministic.
    const auto serve = flags.getInt("serve", 0);
    if (serve > 0) {
        serving::PolicyServer server(final_q, {});
        for (long long i = 0; i < serve; ++i) {
            const auto state = static_cast<rlcore::StateId>(
                i % final_q.numStates());
            if (server.act(state) < 0) {
                SWIFTRL_WARN("policy serving rejected state ", state);
                return 1;
            }
        }
        server.stop();
        const auto stats = server.stats();
        std::cout << "served " << stats.queries
                  << " greedy queries in " << stats.batches
                  << " batch(es)\n";
    }
    return writeTraceOutputs(flags);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace swiftrl;

    const common::CliFlags flags(
        argc, argv,
        {"env", "algo", "sampling", "format", "cores", "episodes",
         "tau", "tasklets", "transitions", "seed", "eval-episodes",
         "save-qtable", "save-dataset", "load-dataset", "stats",
         "alpha", "gamma", "epsilon", "weighted", "trace",
         "host-threads", "streaming", "actors", "refresh-period",
         "generations", "fault-seed", "fault-rate", "dropout-rate",
         "retry-limit", "metrics", "metrics-prom", "log-level",
         "checkpoint", "pause-round", "restore", "serve", "fleet",
         "shards", "trace-spans", "flight-record"});

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
            SWIFTRL_FATAL("--fleet is its own mode; it cannot combine "
                          "with --streaming/--checkpoint/--restore");
        }
        auto spec = fleet::loadFleetSpec(fleet_path);
        spec.config.hostThreads =
            static_cast<unsigned>(flags.getInt("host-threads", 0));
        const bool want_fleet_metrics =
            !flags.getString("metrics", "").empty() ||
            !flags.getString("metrics-prom", "").empty();
        telemetry::MetricRegistry fleet_metrics(want_fleet_metrics);
        spec.config.metrics =
            want_fleet_metrics ? &fleet_metrics : nullptr;

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

        // --serve N in fleet mode: stand up one serving frontend per
        // finished job and answer N greedy queries from its trained
        // table, labelled with the job's tenant. Each server's span
        // tree parents on that job's fleet.job span, so serve traffic
        // in the trace dump is causally attributed to the job that
        // trained the table.
        const auto fleet_serve = flags.getInt("serve", 0);
        if (fleet_serve > 0) {
            for (const auto &job : result.jobs) {
                serving::ServingConfig serve_cfg;
                serve_cfg.traceParent = job.traceSpanId;
                serve_cfg.metrics = spec.config.metrics;
                serving::PolicyServer server(job.finalQ, serve_cfg);
                for (long long i = 0; i < fleet_serve; ++i) {
                    const auto state = static_cast<rlcore::StateId>(
                        i % job.finalQ.numStates());
                    if (server.act(state, job.tenant) < 0) {
                        SWIFTRL_WARN("policy serving rejected state ",
                                     state, " for job ", job.id);
                        return 1;
                    }
                }
                server.stop();
                const auto stats = server.stats();
                std::cout << "served " << stats.queries
                          << " queries for " << job.id << " (tenant "
                          << job.tenant << ") in " << stats.batches
                          << " batch(es)\n";
            }
        }

        telemetry::RunManifest fleet_manifest;
        fleet_manifest.tool = "swiftrl_cli";
        fleet_manifest.mode = "fleet";
        fleet_manifest.cores =
            spec.config.totalRanks * spec.config.dpusPerRank;
        fleet_manifest.hostThreads = spec.config.hostThreads;
        const auto fleet_metrics_path =
            flags.getString("metrics", "");
        if (!fleet_metrics_path.empty()) {
            if (!telemetry::writeMetricsJson(fleet_metrics_path,
                                             fleet_manifest,
                                             fleet_metrics)) {
                SWIFTRL_WARN("cannot write metrics file ",
                             fleet_metrics_path);
                return 1;
            }
            std::cout << "metrics written to " << fleet_metrics_path
                      << " (" << fleet_metrics.size()
                      << " metrics)\n";
        }
        const auto fleet_prom_path =
            flags.getString("metrics-prom", "");
        if (!fleet_prom_path.empty()) {
            if (!telemetry::writeMetricsPrometheus(
                    fleet_prom_path, fleet_manifest, fleet_metrics)) {
                SWIFTRL_WARN("cannot write metrics file ",
                             fleet_prom_path);
                return 1;
            }
            std::cout << "prometheus metrics written to "
                      << fleet_prom_path << "\n";
        }
        return writeTraceOutputs(flags);
    }

    const auto env_name = flags.getString("env", "frozenlake");
    auto env = rlenv::makeEnvironment(env_name);

    // Machine. --host-threads only changes how fast the simulation
    // itself runs (0 = one worker per hardware thread); results and
    // modelled times are bit-identical for every value.
    pimsim::PimConfig pim;
    pim.numDpus =
        static_cast<std::size_t>(flags.getInt("cores", 256));
    pim.hostThreads =
        static_cast<unsigned>(flags.getInt("host-threads", 0));
    // Fault injection (off by default): --fault-rate covers transient
    // kernel faults and wire corruption, --dropout-rate permanent
    // core loss; draws are seeded by --fault-seed, so a run's fault
    // sequence — and its recovered Q-table — is reproducible.
    pim.faultPlan.seed =
        static_cast<std::uint64_t>(flags.getInt("fault-seed", 1));
    const double fault_rate = flags.getDouble("fault-rate", 0.0);
    pim.faultPlan.transientRate = fault_rate;
    pim.faultPlan.corruptRate = fault_rate;
    pim.faultPlan.dropoutRate = flags.getDouble("dropout-rate", 0.0);
    pimsim::PimSystem system(pim);

    // Telemetry: enabled only when an export was requested, so
    // default runs construct nothing but an inert registry. The
    // trainers see a null registry pointer in that case and skip
    // collector attachment entirely.
    const bool want_metrics =
        !flags.getString("metrics", "").empty() ||
        !flags.getString("metrics-prom", "").empty();
    telemetry::MetricRegistry metrics(want_metrics);
    auto manifest = telemetry::RunManifest::fromSystem(system);
    manifest.tool = "swiftrl_cli";
    manifest.environment = env_name;

    RetryPolicy retry;
    retry.limit = static_cast<int>(flags.getInt("retry-limit", 3));
    if (pim.faultPlan.enabled()) {
        std::cout << "fault injection:  rate " << fault_rate
                  << ", dropout " << pim.faultPlan.dropoutRate
                  << ", seed " << pim.faultPlan.seed
                  << ", retry limit " << retry.limit << "\n";
    }

    // Workload, shared by both modes.
    Workload workload;
    workload.algo =
        rlcore::parseAlgorithm(flags.getString("algo", "qlearning"));
    workload.sampling =
        rlcore::parseSampling(flags.getString("sampling", "seq"));
    workload.format =
        rlcore::parseNumericFormat(flags.getString("format", "int32"));

    rlcore::Hyper hyper;
    hyper.episodes = static_cast<int>(flags.getInt("episodes", 100));
    hyper.alpha = static_cast<float>(flags.getDouble("alpha", 0.1));
    hyper.gamma = static_cast<float>(flags.getDouble("gamma", 0.95));
    hyper.epsilon =
        static_cast<float>(flags.getDouble("epsilon", 0.05));
    hyper.seed =
        static_cast<std::uint64_t>(flags.getInt("seed", 1)) + 41;

    const auto transitions = static_cast<std::size_t>(
        flags.getInt("transitions", 100'000));

    if (flags.getBool("streaming", false)) {
        // --- streaming actor–learner mode ---------------------------
        if (flags.getBool("weighted", false))
            SWIFTRL_FATAL("--weighted is not available in streaming "
                          "mode");
        if (flags.getInt("shards", 0) > 0)
            SWIFTRL_FATAL("--shards is offline-only; streaming "
                          "generations replicate the whole table");
        if (!flags.getString("checkpoint", "").empty() ||
            !flags.getString("restore", "").empty()) {
            SWIFTRL_FATAL("--checkpoint/--restore drive the offline "
                          "trainer; streaming runs restore through "
                          "the TrainerSession API instead");
        }
        StreamingConfig cfg;
        cfg.workload = workload;
        cfg.hyper = hyper;
        cfg.generations =
            static_cast<int>(flags.getInt("generations", 8));
        // --episodes and --transitions are run totals in both modes;
        // streaming splits them evenly across the generations.
        cfg.hyper.episodes =
            std::max(1, hyper.episodes / std::max(1, cfg.generations));
        cfg.transitionsPerGeneration =
            transitions /
            static_cast<std::size_t>(std::max(1, cfg.generations));
        cfg.tau = static_cast<int>(flags.getInt("tau", 50));
        if (cfg.tau > cfg.hyper.episodes)
            cfg.tau = cfg.hyper.episodes;
        cfg.tasklets =
            static_cast<unsigned>(flags.getInt("tasklets", 1));
        cfg.actors = static_cast<unsigned>(flags.getInt("actors", 1));
        cfg.refreshPeriod =
            static_cast<int>(flags.getInt("refresh-period", 0));
        cfg.collectSeed =
            static_cast<std::uint64_t>(flags.getInt("seed", 1)) + 977;
        cfg.retry = retry;
        cfg.metrics = want_metrics ? &metrics : nullptr;

        manifest.mode = "streaming";
        manifest.workload = cfg.workload.name();
        manifest.tasklets = cfg.tasklets;
        manifest.episodes = cfg.hyper.episodes;
        manifest.tau = cfg.tau;
        manifest.transitions = cfg.transitionsPerGeneration;
        manifest.generations = cfg.generations;
        manifest.actors = cfg.actors;
        manifest.refreshPeriod = cfg.refreshPeriod;
        manifest.alpha = cfg.hyper.alpha;
        manifest.gamma = cfg.hyper.gamma;
        manifest.epsilon = cfg.hyper.epsilon;
        manifest.collectSeed = cfg.collectSeed;
        manifest.trainSeed = cfg.hyper.seed;
        manifest.retryLimit = retry.limit;

        std::cout << "streaming " << cfg.workload.name() << " on "
                  << pim.numDpus << " PIM cores, " << cfg.generations
                  << " generations x " << cfg.transitionsPerGeneration
                  << " transitions, " << cfg.actors
                  << " actor(s), refresh-period=" << cfg.refreshPeriod
                  << "\n";

        StreamingTrainer trainer(system, cfg);
        const auto result = trainer.train(
            [&env_name] { return rlenv::makeEnvironment(env_name); },
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
        return finishRun(flags, *env, result.finalQ, result.timeline,
                         system, metrics, manifest);
    }

    // --- offline (paper) mode ---------------------------------------
    // Dataset: load a checkpoint or collect fresh.
    rlcore::Dataset data;
    const auto load_path = flags.getString("load-dataset", "");
    if (!load_path.empty()) {
        data = rlcore::loadDataset(load_path);
        std::cout << "loaded " << data.size() << " transitions from "
                  << load_path << "\n";
    } else {
        data = rlcore::collectRandomDataset(
            *env, transitions,
            static_cast<std::uint64_t>(flags.getInt("seed", 1)));
        std::cout << "collected " << data.size()
                  << " transitions from " << env_name << "\n";
    }
    const auto save_data = flags.getString("save-dataset", "");
    if (!save_data.empty()) {
        rlcore::saveDataset(data, save_data);
        std::cout << "dataset saved to " << save_data << "\n";
    }

    PimTrainConfig cfg;
    cfg.workload = workload;
    cfg.hyper = hyper;
    cfg.tau = static_cast<int>(flags.getInt("tau", 50));
    if (cfg.tau > cfg.hyper.episodes)
        cfg.tau = cfg.hyper.episodes;
    cfg.tasklets =
        static_cast<unsigned>(flags.getInt("tasklets", 1));
    cfg.weightedAggregation = flags.getBool("weighted", false);
    // --shards S: partition the Q-table into S contiguous state
    // ranges with replicated slices per core group — the path for
    // procedurally scaled environments (--env lake:64, mptaxi:8x3)
    // whose tables outgrow whole-table replication.
    cfg.shards = static_cast<std::size_t>(flags.getInt("shards", 0));
    if (cfg.shards > 0 && cfg.weightedAggregation)
        SWIFTRL_FATAL("--shards and --weighted are incompatible "
                      "(sharded aggregation has no visit counts)");
    cfg.retry = retry;
    cfg.metrics = want_metrics ? &metrics : nullptr;

    manifest.mode = "offline";
    manifest.workload = cfg.workload.name();
    manifest.tasklets = cfg.tasklets;
    manifest.episodes = cfg.hyper.episodes;
    manifest.tau = cfg.tau;
    manifest.transitions = data.size();
    manifest.weightedAggregation = cfg.weightedAggregation;
    manifest.alpha = cfg.hyper.alpha;
    manifest.gamma = cfg.hyper.gamma;
    manifest.epsilon = cfg.hyper.epsilon;
    manifest.collectSeed =
        static_cast<std::uint64_t>(flags.getInt("seed", 1));
    manifest.trainSeed = cfg.hyper.seed;
    manifest.retryLimit = retry.limit;

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
            SWIFTRL_FATAL("--checkpoint and --restore are one-at-a-"
                          "time: pause a run or continue one");
        const auto rounds =
            static_cast<int>(flags.getInt("pause-round", 1));
        if (rounds < 1)
            SWIFTRL_FATAL("--pause-round must be >= 1, got ", rounds);
        const auto ck = trainer.trainUntilRound(
            data, env->numStates(), env->numActions(), rounds);
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
    return finishRun(flags, *env, result.finalQ, result.timeline,
                     system, metrics, manifest);
}
