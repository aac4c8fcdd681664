/**
 * @file
 * Section 4.2 reproduction: RL training quality. Trains the PIM
 * implementation (simulated) and the CPU reference on frozen lake and
 * taxi, evaluates the greedy policies over 1,000 episodes, and prints
 * measured-vs-paper mean rewards.
 *
 * Paper reference points:
 *   frozen lake: Q-SEQ PIM tau=10/25/50 -> 0.74 / 0.7295 / 0.70
 *                (CPU reference ~0.70); SARSA-SEQ tau=50 -> 0.71 vs
 *                CPU 0.723.
 *   taxi: Q-SEQ tau=50 -> -7.9 vs CPU -8.6; SARSA -8.8 vs CPU -8.2.
 *   (The paper evaluates *partially trained* policies — Sec. 4.1
 *   collects data "until the policy performance achieves a
 *   performance threshold" — so its taxi numbers sit below the
 *   converged optimum of ~+8; we report converged quality and check
 *   the paper's actual claim: PIM quality matches CPU quality.)
 *
 * Exits 1 unless both |PIM - CPU| checks (frozen lake, taxi) pass.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "rlcore/evaluate.hh"

namespace {

using namespace swiftrl;
using bench::makePimSystem;
using common::TextTable;
using rlcore::Algorithm;
using rlcore::evaluateGreedy;
using rlcore::Hyper;
using rlcore::NumericFormat;
using rlcore::Sampling;

struct QualityRow
{
    std::string workload;
    std::string platform;
    double mean;
    double paper;
};

double
pimQuality(const rlcore::Dataset &data, rlenv::Environment &eval_env,
           Algorithm algo, int tau, int episodes, std::size_t cores)
{
    auto system = makePimSystem(cores);
    PimTrainConfig cfg;
    cfg.workload = Workload{algo, Sampling::Seq, NumericFormat::Int32};
    cfg.hyper.episodes = episodes;
    cfg.tau = tau;
    PimTrainer trainer(system, cfg);
    const auto result = trainer.train(data, eval_env.numStates(),
                                      eval_env.numActions());
    return evaluateGreedy(eval_env, result.finalQ, 1000, 7).meanReward;
}

double
cpuQuality(const rlcore::Dataset &data, rlenv::Environment &eval_env,
           Algorithm algo, int episodes)
{
    Hyper h;
    h.episodes = episodes;
    const auto q = rlcore::trainCpuReference(
        algo, data, eval_env.numStates(), eval_env.numActions(), h,
        Sampling::Seq, NumericFormat::Fp32);
    return evaluateGreedy(eval_env, q, 1000, 7).meanReward;
}

} // namespace

int
main(int argc, char **argv)
{
    const common::CliFlags flags(
        argc, argv,
        {"full", "lake-transitions", "taxi-transitions", "episodes",
         "cores"});
    const bool full = flags.getBool("full", false);
    const auto lake_n = static_cast<std::size_t>(flags.getInt(
        "lake-transitions", 1'000'000));
    const auto taxi_n = static_cast<std::size_t>(flags.getInt(
        "taxi-transitions", full ? 5'000'000 : 1'000'000));
    const auto episodes =
        static_cast<int>(flags.getInt("episodes", full ? 200 : 40));
    const auto cores =
        static_cast<std::size_t>(flags.getInt("cores", 8));

    bench::banner(
        "Section 4.2: RL training quality (PIM vs CPU)", full,
        "lake n=" + std::to_string(lake_n) +
            ", taxi n=" + std::to_string(taxi_n) +
            ", episodes=" + std::to_string(episodes) +
            ", PIM cores=" + std::to_string(cores) +
            ", eval episodes=1000, seed=42");

    std::vector<QualityRow> rows;

    // --- frozen lake ---------------------------------------------------
    {
        auto data = bench::collectDataset("frozenlake", lake_n, 1);
        auto eval_env = rlenv::makeEnvironment("frozenlake");
        for (const auto &[tau, paper] :
             {std::pair{10, 0.74}, {25, 0.7295}, {50, 0.70}}) {
            rows.push_back({"Q-learner-SEQ tau=" + std::to_string(tau),
                            "PIM",
                            pimQuality(data, *eval_env,
                                       Algorithm::QLearning, tau,
                                       episodes, cores),
                            paper});
        }
        rows.push_back({"Q-learner-SEQ", "CPU",
                        cpuQuality(data, *eval_env,
                                   Algorithm::QLearning, episodes),
                        0.70});
        rows.push_back({"SARSA-SEQ tau=50", "PIM",
                        pimQuality(data, *eval_env, Algorithm::Sarsa,
                                   50, episodes, cores),
                        0.71});
        rows.push_back({"SARSA-SEQ", "CPU",
                        cpuQuality(data, *eval_env, Algorithm::Sarsa,
                                   episodes),
                        0.723});
    }

    TextTable lake("Frozen lake mean reward (1,000 eval episodes)");
    lake.setHeader({"workload", "platform", "measured", "paper"});
    for (const auto &r : rows) {
        lake.addRow({r.workload, r.platform, TextTable::num(r.mean, 4),
                     TextTable::num(r.paper, 4)});
    }
    lake.print(std::cout);

    const double pim_lake = rows[2].mean; // tau=50
    const double cpu_lake = rows[3].mean;
    const bool lake_on_par = std::abs(pim_lake - cpu_lake) < 0.05;
    std::cout << "\npaper claim check (PIM quality on par with CPU): "
              << "|PIM - CPU| = "
              << TextTable::num(std::abs(pim_lake - cpu_lake), 4)
              << " -> "
              << (lake_on_par ? "REPRODUCED" : "NOT reproduced")
              << "\n\n";

    // --- taxi ----------------------------------------------------------
    rows.clear();
    {
        auto data = bench::collectDataset("taxi", taxi_n, 1);
        auto eval_env = rlenv::makeEnvironment("taxi");
        const int taxi_eps = std::max(10, episodes / 4);
        rows.push_back({"Q-learner-SEQ tau=50", "PIM",
                        pimQuality(data, *eval_env,
                                   Algorithm::QLearning, 50, taxi_eps,
                                   cores),
                        -7.9});
        rows.push_back({"Q-learner-SEQ", "CPU",
                        cpuQuality(data, *eval_env,
                                   Algorithm::QLearning, taxi_eps),
                        -8.6});
        rows.push_back({"SARSA-SEQ tau=50", "PIM",
                        pimQuality(data, *eval_env, Algorithm::Sarsa,
                                   50, taxi_eps, cores),
                        -8.8});
        rows.push_back({"SARSA-SEQ", "CPU",
                        cpuQuality(data, *eval_env, Algorithm::Sarsa,
                                   taxi_eps),
                        -8.2});
    }

    TextTable taxi("Taxi mean reward (1,000 eval episodes; paper "
                   "numbers are for partially-trained policies)");
    taxi.setHeader({"workload", "platform", "measured", "paper"});
    for (const auto &r : rows) {
        taxi.addRow({r.workload, r.platform, TextTable::num(r.mean, 2),
                     TextTable::num(r.paper, 2)});
    }
    taxi.print(std::cout);

    const double pim_taxi = rows[0].mean;
    const double cpu_taxi = rows[1].mean;
    const bool taxi_on_par = std::abs(pim_taxi - cpu_taxi) < 1.0;
    std::cout << "\npaper claim check (PIM quality on par with CPU): "
              << "|PIM - CPU| = "
              << TextTable::num(std::abs(pim_taxi - cpu_taxi), 2)
              << " -> "
              << (taxi_on_par ? "REPRODUCED" : "NOT reproduced")
              << "\n";
    return lake_on_par && taxi_on_par ? 0 : 1;
}
