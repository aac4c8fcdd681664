/**
 * @file
 * Shared implementation of the strong-scaling figures (Figures 5 and
 * 6): run all 12 workload variants across the paper's PIM core counts
 * on a fixed dataset, print the four-way execution-time breakdown,
 * and check the paper's headline claims.
 *
 * Episode extrapolation: training cost is exactly linear in
 * communication rounds — every tau-episode round performs identical
 * work (same chunk sweeps, same Q-table synchronisation) — so the
 * harness simulates one round (tau episodes) and scales the kernel
 * and inter-core components by Comm_rounds = episodes/tau. The
 * CPU->PIM setup and final PIM->CPU retrieval are one-off costs and
 * are not scaled. This keeps the functional simulation affordable
 * while reporting the paper's full 2,000-episode configuration.
 */

#ifndef SWIFTRL_BENCH_SCALING_COMMON_HH
#define SWIFTRL_BENCH_SCALING_COMMON_HH

#include <iostream>

#include "bench/bench_common.hh"
#include "common/stats.hh"
#include "common/stopwatch.hh"

namespace swiftrl::bench {

/** One measured configuration. */
struct ScalingPoint
{
    Workload workload;
    std::size_t cores = 0;
    TimeBreakdown time; ///< extrapolated to the full episode count
    unsigned hostThreads = 0; ///< resolved simulation pool size
};

/** Parameters of one scaling figure. */
struct ScalingFigureConfig
{
    std::string experimentName;
    std::string envName;
    std::size_t transitions = 100'000;
    int episodes = 2000; ///< reported episode count (paper: 2,000)
    int tau = 50;        ///< synchronisation period (paper: 50)
    int stride = 4;      ///< STR stride (paper: 4)
    bool fullScale = false;
    std::vector<std::size_t> coreCounts = kPaperCoreCounts;

    /** Simulation pool size (0 = hardware concurrency). */
    unsigned hostThreads = 0;

    /**
     * When non-empty, the command timeline of one representative run
     * (first workload at the largest core count) is exported here as
     * Chrome trace JSON.
     */
    std::string tracePath;
};

/** Run one workload at one core count; extrapolate to episodes. */
inline ScalingPoint
measureScalingPoint(const ScalingFigureConfig &fig,
                    const rlcore::Dataset &data,
                    rlcore::StateId num_states,
                    rlcore::ActionId num_actions,
                    const Workload &workload, std::size_t cores,
                    pimsim::Timeline *timeline_out = nullptr)
{
    auto system = makePimSystem(cores, fig.hostThreads);
    PimTrainConfig cfg;
    cfg.workload = workload;
    cfg.hyper.episodes = fig.tau; // one communication round
    cfg.hyper.stride = fig.stride;
    cfg.tau = fig.tau;
    PimTrainer trainer(system, cfg);
    const auto result = trainer.train(data, num_states, num_actions);
    SWIFTRL_ASSERT(result.commRounds == 1,
                   "extrapolation expects a single simulated round");
    if (timeline_out != nullptr)
        *timeline_out = result.timeline;

    const double rounds = static_cast<double>(fig.episodes) /
                          static_cast<double>(fig.tau);
    ScalingPoint point;
    point.workload = workload;
    point.cores = cores;
    point.time.kernel = result.time.kernel * rounds;
    point.time.interCore = result.time.interCore * rounds;
    point.time.cpuToPim = result.time.cpuToPim;
    point.time.pimToCpu = result.time.pimToCpu;
    point.hostThreads = system.hostThreadCount();
    return point;
}

/** Execute and print a whole scaling figure; returns exit status. */
inline int
runScalingFigure(const ScalingFigureConfig &fig)
{
    using common::TextTable;

    banner(fig.experimentName, fig.fullScale,
           "env=" + fig.envName +
               ", transitions=" + std::to_string(fig.transitions) +
               ", episodes=" + std::to_string(fig.episodes) +
               " (1 round simulated, extrapolated), tau=" +
               std::to_string(fig.tau) +
               ", stride=" + std::to_string(fig.stride));

    auto env = rlenv::makeEnvironment(fig.envName);
    const auto data =
        collectDataset(fig.envName, fig.transitions, 1);

    TextTable t("Execution time breakdown (seconds, modelled)");
    t.setHeader({"workload", "cores", "kernel", "cpu->pim",
                 "pim->cpu", "inter-core", "total"});

    common::RunningStat speedups;
    double worst_intercore_frac = 0.0;
    std::string worst_intercore_cfg;
    pimsim::Timeline trace; ///< representative run, see tracePath
    std::string trace_run;
    unsigned pool_threads = 0;
    common::Stopwatch wall;

    bool first_workload = true;
    for (const auto &workload : allWorkloads()) {
        std::vector<double> cores_x, kernel_y;
        for (const auto cores : fig.coreCounts) {
            const bool want_trace = !fig.tracePath.empty() &&
                                    first_workload &&
                                    cores == fig.coreCounts.back();
            const auto p = measureScalingPoint(
                fig, data, env->numStates(), env->numActions(),
                workload, cores,
                want_trace ? &trace : nullptr);
            if (want_trace)
                trace_run = workload.name() + " @" +
                            std::to_string(cores) + " cores";
            pool_threads = p.hostThreads;
            t.addRow({workload.name(),
                      TextTable::num(static_cast<long long>(cores)),
                      TextTable::num(p.time.kernel, 3),
                      TextTable::num(p.time.cpuToPim, 3),
                      TextTable::num(p.time.pimToCpu, 3),
                      TextTable::num(p.time.interCore, 3),
                      TextTable::num(p.time.total(), 3)});
            cores_x.push_back(static_cast<double>(cores));
            kernel_y.push_back(p.time.kernel);
            const double frac =
                p.time.fractionOf(p.time.interCore);
            if (frac > worst_intercore_frac) {
                worst_intercore_frac = frac;
                worst_intercore_cfg =
                    workload.name() + " @" + std::to_string(cores);
            }
        }
        t.addRule();
        speedups.add(kernel_y.front() / kernel_y.back());
        first_workload = false;
    }
    t.print(std::cout);

    std::cout << "\n"
              << kWallTag << "simulation wall-clock: "
              << TextTable::num(wall.seconds(), 2) << " s ("
              << pool_threads << " host thread(s); results are "
              << "bit-identical for any pool size)\n";
    if (!fig.tracePath.empty()) {
        if (trace.writeChromeTrace(fig.tracePath)) {
            std::cout << "trace of " << trace_run << " (1 round) "
                      << "written to " << fig.tracePath << " ("
                      << trace.size() << " commands)\n";
        } else {
            std::cerr << "cannot write trace file " << fig.tracePath
                      << "\n";
        }
    }

    const double mean_speedup = speedups.mean();
    std::cout << "\nkernel-time speedup " << fig.coreCounts.front()
              << " -> " << fig.coreCounts.back()
              << " cores, averaged over all 12 workloads: "
              << TextTable::speedup(mean_speedup, 2)
              << " (paper: >15x for 16x cores)\n"
              << "largest inter-PIM-core share of total: "
              << TextTable::percent(worst_intercore_frac, 2) << " ("
              << worst_intercore_cfg << ")\n";

    const bool reproduced = mean_speedup > 15.0;
    std::cout << "paper claim check (near-linear scaling >15x): "
              << (reproduced ? "REPRODUCED" : "NOT reproduced")
              << "\n";
    return reproduced ? 0 : 1;
}

} // namespace swiftrl::bench

#endif // SWIFTRL_BENCH_SCALING_COMMON_HH
