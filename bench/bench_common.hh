/**
 * @file
 * Shared plumbing for the experiment harnesses in bench/: system
 * construction, dataset caching, and row formatting. Every bench
 * prints through common::TextTable so outputs diff cleanly against
 * EXPERIMENTS.md.
 *
 * Scale policy: by default each harness runs a *scaled-down* version
 * of the paper's configuration (smaller datasets, fewer episodes) so
 * the whole suite finishes in CI time; pass --full for the paper's
 * exact parameters. Ratios and shapes — who wins, by what factor,
 * where the crossovers sit — are what the reproduction checks, and
 * those are scale-stable (EXPERIMENTS.md records both).
 */

#ifndef SWIFTRL_BENCH_BENCH_COMMON_HH
#define SWIFTRL_BENCH_BENCH_COMMON_HH

#include <iostream>
#include <string>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "swiftrl/swiftrl.hh"

namespace swiftrl::bench {

/**
 * Build a PIM system with n cores and the default UPMEM-like model.
 * @param host_threads workers for the functional simulation (0 = one
 *        per hardware thread); never affects modelled results.
 */
inline pimsim::PimSystem
makePimSystem(std::size_t num_dpus, unsigned host_threads = 0)
{
    pimsim::PimConfig cfg;
    cfg.numDpus = num_dpus;
    cfg.hostThreads = host_threads;
    return pimsim::PimSystem(cfg);
}

/** Collect (once) the offline dataset for an environment by name. */
inline rlcore::Dataset
collectDataset(const std::string &env_name, std::size_t transitions,
               std::uint64_t seed)
{
    auto env = rlenv::makeEnvironment(env_name);
    return rlcore::collectRandomDataset(*env, transitions, seed);
}

/**
 * Prefix of every output line that reports host wall-clock time. Those
 * lines differ from run to run; everything else a harness prints is
 * modelled and deterministic, and tools/golden_modelled.py hashes it
 * with the tagged lines dropped.
 */
inline constexpr const char *kWallTag = "[wall] ";

/** The paper's PIM core counts for the strong-scaling figures. */
inline const std::vector<std::size_t> kPaperCoreCounts = {
    125, 250, 500, 1000, 2000,
};

/** Banner printed by every harness (experiment id + scale note). */
inline void
banner(const std::string &experiment, bool full_scale,
       const std::string &params)
{
    std::cout << "### " << experiment << " ###\n"
              << "scale: "
              << (full_scale ? "FULL (paper parameters)"
                             : "scaled-down (pass --full for paper "
                               "parameters)")
              << "\n"
              << "parameters: " << params << "\n\n";
}

} // namespace swiftrl::bench

#endif // SWIFTRL_BENCH_BENCH_COMMON_HH
