/**
 * @file
 * Wall-clock throughput benchmark of the simulation engine itself.
 *
 * Every other harness in bench/ reports *modelled* PIM time; this one
 * measures how fast the host simulates it. It runs a fixed set of
 * fig5/fig6-shaped workloads (frozen lake and taxi, 2,000 cores, one
 * tau-episode communication round — the shape of every point in the
 * strong-scaling figures) and reports, per workload:
 *
 *   - wall_sec            best-of-reps host wall-clock for one round
 *   - sim_ops/sec         priced instruction charges simulated per
 *                         second (sum of per-core op counts / wall)
 *   - updates/sec         Q-table updates simulated per second
 *   - launches/sec        kernel launches issued per second
 *
 * Results are written as JSON (default BENCH_sim_throughput.json) so
 * the engine's perf trajectory is tracked across PRs; diff two files
 * with tools/bench_compare.py. Pass --smoke for a CI-sized run.
 *
 * Modelled results are independent of engine speed by the determinism
 * contract (docs/ARCHITECTURE.md §5); as a guard, the harness also
 * prints each workload's modelled max-cycle count so a perf change
 * that altered modelled numbers would be visible immediately.
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hh"
#include "common/stopwatch.hh"
#include "pimsim/device_counters.hh"

namespace {

using namespace swiftrl;
using common::TextTable;

/** One fixed benchmark shape. */
struct PerfCase
{
    std::string figure; ///< "fig5" or "fig6"
    std::string env;
    Workload workload;
};

/** One measured row. */
struct PerfResult
{
    std::string name;
    PerfCase shape;
    std::size_t cores = 0;
    std::size_t transitions = 0;
    int episodes = 0;
    int reps = 0;
    unsigned hostThreads = 0;
    double wallSec = 0.0;
    std::uint64_t simOps = 0;
    std::uint64_t dmaBytes = 0;
    std::uint64_t updates = 0;
    std::uint64_t launches = 0;
    pimsim::Cycles maxCycles = 0; ///< modelled; determinism guard
};

std::vector<PerfCase>
perfCases()
{
    using rlcore::Algorithm;
    using rlcore::NumericFormat;
    using rlcore::Sampling;
    // The INT8 variants run on frozen lake only: taxi's value range
    // violates the narrow-multiply applicability condition.
    return {
        {"fig5", "frozenlake",
         {Algorithm::QLearning, Sampling::Seq, NumericFormat::Fp32}},
        {"fig5", "frozenlake",
         {Algorithm::QLearning, Sampling::Ran, NumericFormat::Fp32}},
        {"fig5", "frozenlake",
         {Algorithm::QLearning, Sampling::Seq, NumericFormat::Int32}},
        {"fig5", "frozenlake",
         {Algorithm::QLearning, Sampling::Str, NumericFormat::Int8}},
        {"fig6", "taxi",
         {Algorithm::QLearning, Sampling::Seq, NumericFormat::Fp32}},
        {"fig6", "taxi",
         {Algorithm::Sarsa, Sampling::Ran, NumericFormat::Int32}},
    };
}

PerfResult
measureCase(const PerfCase &shape, const rlcore::Dataset &data,
            rlcore::StateId num_states, rlcore::ActionId num_actions,
            std::size_t cores, int tau, int reps,
            unsigned host_threads)
{
    PerfResult r;
    r.shape = shape;
    r.cores = cores;
    r.transitions = data.size();
    r.episodes = tau;
    r.reps = reps;
    r.name = shape.figure + "-" + shape.env + "/" +
             shape.workload.name() + "/" + std::to_string(cores) + "c";

    for (int rep = 0; rep < reps; ++rep) {
        auto system = bench::makePimSystem(cores, host_threads);
        PimTrainConfig cfg;
        cfg.workload = shape.workload;
        cfg.hyper.episodes = tau; // one communication round
        cfg.tau = tau;
        PimTrainer trainer(system, cfg);

        common::Stopwatch wall;
        const auto result =
            trainer.train(data, num_states, num_actions);
        const double sec = wall.seconds();
        SWIFTRL_ASSERT(result.commRounds == 1,
                       "throughput shapes simulate a single round");

        if (rep == 0 || sec < r.wallSec) {
            r.wallSec = sec;
        }
        if (rep == 0) {
            // Same snapshot path telemetry and StatsReport read —
            // the reported sim_ops/dma_bytes can never drift from
            // what a --metrics run exports.
            const auto counters =
                pimsim::DeviceCounters::fromSystem(system);
            r.simOps = counters.totalOps();
            r.dmaBytes = counters.dmaBytes;
            r.updates = static_cast<std::uint64_t>(data.size()) *
                        static_cast<std::uint64_t>(tau);
            r.launches =
                static_cast<std::uint64_t>(result.commRounds);
            r.maxCycles = system.maxCycles();
            r.hostThreads = system.hostThreadCount();
        }
    }
    return r;
}

/** One thread-sweep point: the same shape at a given pool size. */
struct SweepPoint
{
    unsigned hostThreads = 0;
    double wallSec = 0.0;
};

void
writeRow(std::ostream &out, const PerfResult &r, const char *indent,
         bool last)
{
    const double ops_per_sec = static_cast<double>(r.simOps) / r.wallSec;
    const double updates_per_sec =
        static_cast<double>(r.updates) / r.wallSec;
    const double launches_per_sec =
        static_cast<double>(r.launches) / r.wallSec;
    out << indent << "{\n"
        << indent << "  \"name\": \"" << r.name << "\",\n"
        << indent << "  \"figure\": \"" << r.shape.figure << "\",\n"
        << indent << "  \"env\": \"" << r.shape.env << "\",\n"
        << indent << "  \"workload\": \"" << r.shape.workload.name()
        << "\",\n"
        << indent << "  \"cores\": " << r.cores << ",\n"
        << indent << "  \"transitions\": " << r.transitions << ",\n"
        << indent << "  \"episodes\": " << r.episodes << ",\n"
        << indent << "  \"reps\": " << r.reps << ",\n"
        << indent << "  \"host_threads\": " << r.hostThreads << ",\n"
        << indent << "  \"wall_sec\": " << r.wallSec << ",\n"
        << indent << "  \"sim_ops\": " << r.simOps << ",\n"
        << indent << "  \"sim_ops_per_sec\": " << ops_per_sec << ",\n"
        << indent << "  \"dma_bytes\": " << r.dmaBytes << ",\n"
        << indent << "  \"updates\": " << r.updates << ",\n"
        << indent << "  \"updates_per_sec\": " << updates_per_sec
        << ",\n"
        << indent << "  \"launches\": " << r.launches << ",\n"
        << indent << "  \"launches_per_sec\": " << launches_per_sec
        << ",\n"
        << indent << "  \"modelled_max_cycles\": " << r.maxCycles
        << "\n"
        << indent << "}" << (last ? "" : ",") << "\n";
}

bool
writeJson(const std::string &path, const std::string &mode,
          const std::vector<PerfResult> &rows,
          const std::string &sweep_name,
          const std::vector<SweepPoint> &sweep)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\n"
        << "  \"bench\": \"perf_sim_throughput\",\n"
        << "  \"mode\": \"" << mode << "\",\n"
        << "  \"workloads\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i)
        writeRow(out, rows[i], "    ", i + 1 == rows.size());
    out << "  ]";
    if (!sweep.empty()) {
        // Host-pool scaling of one representative shape: same
        // modelled run at each pool size, so the points differ in
        // wall-clock only.
        out << ",\n  \"thread_sweep\": {\n"
            << "    \"name\": \"" << sweep_name << "\",\n"
            << "    \"points\": [\n";
        for (std::size_t i = 0; i < sweep.size(); ++i) {
            out << "      {\"host_threads\": "
                << sweep[i].hostThreads << ", \"wall_sec\": "
                << sweep[i].wallSec << "}"
                << (i + 1 < sweep.size() ? "," : "") << "\n";
        }
        out << "    ]\n  }";
    }
    out << "\n}\n";
    return static_cast<bool>(out);
}

} // namespace

int
main(int argc, char **argv)
{
    const common::CliFlags flags(
        argc, argv,
        {"smoke", "json", "reps", "cores", "transitions", "tau",
         "host-threads", "sweep"});

    const bool smoke = flags.getBool("smoke", false);
    // Full shapes mirror one strong-scaling point at the paper's
    // largest sweep size; smoke keeps CI runs in seconds.
    const std::size_t cores = static_cast<std::size_t>(
        flags.getInt("cores", smoke ? 250 : 2000));
    const std::size_t transitions = static_cast<std::size_t>(
        flags.getInt("transitions", smoke ? 20'000 : 100'000));
    const int tau =
        static_cast<int>(flags.getInt("tau", smoke ? 10 : 50));
    const int reps =
        static_cast<int>(flags.getInt("reps", smoke ? 1 : 3));
    const unsigned host_threads =
        static_cast<unsigned>(flags.getInt("host-threads", 0));
    // --sweep 0 skips the host-pool scaling points (they rerun the
    // first workload once per pool size).
    const bool sweep_enabled = flags.getBool("sweep", true);
    const std::string json_path =
        flags.getString("json", "BENCH_sim_throughput.json");

    bench::banner(
        "Simulation-engine throughput (host wall-clock)", !smoke,
        "cores=" + std::to_string(cores) +
            ", transitions=" + std::to_string(transitions) +
            ", tau=" + std::to_string(tau) + " (1 round), reps=" +
            std::to_string(reps));

    std::vector<PerfResult> rows;
    std::string dataset_env;
    rlcore::Dataset data;
    for (const auto &shape : perfCases()) {
        if (shape.env != dataset_env) {
            data = bench::collectDataset(shape.env, transitions, 1);
            dataset_env = shape.env;
        }
        auto env = rlenv::makeEnvironment(shape.env);
        rows.push_back(measureCase(shape, data, env->numStates(),
                                   env->numActions(), cores, tau,
                                   reps, host_threads));
    }

    // Host-pool scaling sweep (1 / 2 / hardware threads) of the first
    // shape. Modelled results are pool-size-invariant, so the points
    // record pure host scaling.
    std::vector<SweepPoint> sweep;
    std::string sweep_name;
    if (sweep_enabled) {
        std::vector<unsigned> pools{
            1u, 2u, std::max(1u, std::thread::hardware_concurrency())};
        std::sort(pools.begin(), pools.end());
        pools.erase(std::unique(pools.begin(), pools.end()),
                    pools.end());
        const auto shape = perfCases().front();
        const auto sweep_data =
            bench::collectDataset(shape.env, transitions, 1);
        auto env = rlenv::makeEnvironment(shape.env);
        for (const unsigned pool : pools) {
            const auto r = measureCase(
                shape, sweep_data, env->numStates(),
                env->numActions(), cores, tau, /*reps=*/1, pool);
            sweep.push_back({r.hostThreads, r.wallSec});
            sweep_name = r.name;
        }
    }

    TextTable t("Host throughput per workload (best of reps)");
    t.setHeader({"workload", "wall s", "Mops/s", "Mupd/s",
                 "launch/s"});
    for (const auto &r : rows) {
        t.addRow({r.name, TextTable::num(r.wallSec, 3),
                  TextTable::num(static_cast<double>(r.simOps) /
                                     r.wallSec / 1e6,
                                 2),
                  TextTable::num(static_cast<double>(r.updates) /
                                     r.wallSec / 1e6,
                                 3),
                  TextTable::num(static_cast<double>(r.launches) /
                                     r.wallSec,
                                 2)});
    }
    t.print(std::cout);
    std::cout << "\nhost threads: " << rows.front().hostThreads
              << "\n";
    for (const auto &p : sweep)
        std::cout << "sweep " << sweep_name << ": " << p.hostThreads
                  << " thread(s) -> " << p.wallSec << " s\n";

    if (!writeJson(json_path, smoke ? "smoke" : "full", rows,
                   sweep_name, sweep)) {
        std::cerr << "cannot write " << json_path << "\n";
        return 1;
    }
    std::cout << "results written to " << json_path << "\n";
    return 0;
}
