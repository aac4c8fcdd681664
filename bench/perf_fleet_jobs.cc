/**
 * @file
 * Fleet-scheduler throughput benchmark: jobs per hour of modelled
 * fleet time for multi-tenant job mixes on a shared rank pool
 * (src/fleet), plus the host wall-clock cost of simulating them.
 *
 * Two scenarios:
 *  - "two-tenant/contended": six jobs from two tenants oversubscribe
 *    a four-rank fleet with staggered arrivals, forcing quantum
 *    preemptions and fair-share arbitration.
 *  - "three-tenant/backfill": jobs whose min_ranks sits below their
 *    logical width, so the scheduler hands out shrunken (dilated)
 *    grants and backfills around a wide job.
 *
 * The headline number (jobs/hour) is **modelled** — derived from the
 * fleet-clock makespan — so it is bit-identical on every machine;
 * only wall_sec varies per host. The bench asserts the scheduler's
 * determinism contract before writing a single row: every job's final
 * Q-table must be bit-identical to the same spec run standalone on a
 * dedicated machine, each scenario must involve >= 2 tenants, and the
 * contended scenario must actually preempt. The modelled slots
 * tools/bench_compare.py verifies carry: sim_ops = total
 * communication rounds, dma_bytes = Q-table bytes moved by grants and
 * preemption checkpoints, modelled_max_cycles = an FNV digest of
 * every final Q-table bit pattern — a scheduling change that moved a
 * learned value fails CI even at equal speed.
 *
 * Results go to JSON (default BENCH_fleet_jobs.json); CI runs --smoke
 * and diffs against the recorded run (see .github/workflows/ci.yml).
 */

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "common/stopwatch.hh"
#include "fleet/job_spec.hh"
#include "fleet/scheduler.hh"

namespace {

using namespace swiftrl;
using common::TextTable;

/** One benchmark scenario: a fleet plus its job mix. */
struct Scenario
{
    std::string name;
    fleet::FleetConfig config;
    std::vector<fleet::JobSpec> jobs;
    bool expectPreemption = false;
};

/** One measured row. */
struct FleetRow
{
    std::string name;
    std::size_t jobCount = 0;
    std::size_t tenantCount = 0;
    double wallSec = 0.0;
    double makespanSec = 0.0;
    double jobsPerHour = 0.0;
    double occupancy = 0.0;
    int preemptions = 0;
    std::uint64_t simOps = 0;   ///< total communication rounds
    std::uint64_t dmaBytes = 0; ///< Q bytes moved by grants + ckpts
    std::uint64_t digest = 0;   ///< FNV digest of all final Q-tables
};

fleet::JobSpec
makeJob(const std::string &id, const std::string &tenant,
        const std::string &env, std::size_t ranks,
        std::size_t min_ranks, int episodes, double arrival_sec,
        std::uint64_t seed)
{
    fleet::JobSpec job;
    job.id = id;
    job.tenant = tenant;
    job.env = env;
    job.ranks = ranks;
    job.minRanks = min_ranks;
    job.hyper.episodes = episodes;
    job.tau = 10;
    job.transitions = 4'000;
    job.arrivalSec = arrival_sec;
    job.collectSeed = seed;
    job.hyper.seed = seed + 41;
    return job;
}

std::vector<Scenario>
scenarios(bool smoke)
{
    // Smoke halves the episode budgets; the schedule shape (who
    // preempts whom) is budget-dependent, so smoke and full each pin
    // their own recorded digests.
    const int e = smoke ? 40 : 80;

    Scenario contended;
    contended.name = "two-tenant/contended";
    contended.config.totalRanks = 4;
    contended.config.dpusPerRank = 4;
    contended.config.quantumRounds = 2;
    contended.config.tenantWeights = {{"research", 2.0},
                                      {"prod", 1.0}};
    contended.expectPreemption = true;
    contended.jobs = {
        makeJob("fl-r1", "research", "frozenlake", 2, 0, e, 0.0, 11),
        makeJob("fl-r2", "research", "frozenlake", 2, 0, e, 0.0, 12),
        makeJob("fl-p1", "prod", "frozenlake", 2, 0, e, 0.0, 13),
        makeJob("fl-p2", "prod", "frozenlake", 4, 2, e, 0.001, 14),
        makeJob("tx-r3", "research", "taxi", 2, 1, e / 2, 0.002, 15),
        makeJob("tx-p3", "prod", "taxi", 2, 1, e / 2, 0.002, 16),
    };

    Scenario backfill;
    backfill.name = "three-tenant/backfill";
    backfill.config.totalRanks = 4;
    backfill.config.dpusPerRank = 4;
    backfill.config.quantumRounds = 4;
    backfill.config.tenantWeights = {{"research", 1.0},
                                     {"prod", 1.0},
                                     {"batch", 0.5}};
    backfill.jobs = {
        makeJob("wide", "prod", "frozenlake", 4, 1, e, 0.0, 21),
        makeJob("narrow-1", "research", "frozenlake", 1, 0, e, 0.0,
                22),
        makeJob("narrow-2", "batch", "frozenlake", 1, 0, e, 0.0, 23),
        makeJob("late", "batch", "taxi", 2, 1, e / 2, 0.005, 24),
    };

    return {contended, backfill};
}

/** FNV-1a over the bit patterns of every final Q-table, job order. */
std::uint64_t
digestOutcomes(const std::vector<fleet::JobOutcome> &jobs)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const auto &job : jobs) {
        for (const float v : job.finalQ.values()) {
            std::uint32_t bits;
            static_assert(sizeof bits == sizeof v);
            __builtin_memcpy(&bits, &v, sizeof bits);
            for (int i = 0; i < 4; ++i) {
                hash ^= (bits >> (8 * i)) & 0xffu;
                hash *= 0x100000001b3ull;
            }
        }
    }
    return (hash ^ (hash >> 32)) & 0xffffffffull;
}

/** Run one scenario, verify its claims, and measure it. */
bool
measureScenario(const Scenario &scenario, FleetRow &row)
{
    row.name = scenario.name;
    row.jobCount = scenario.jobs.size();

    common::Stopwatch wall;
    fleet::FleetScheduler scheduler(scenario.config);
    const auto result = scheduler.run(scenario.jobs);
    row.wallSec = wall.seconds();

    std::vector<std::string> tenants;
    for (const auto &job : result.jobs) {
        if (std::find(tenants.begin(), tenants.end(), job.tenant) ==
            tenants.end())
            tenants.push_back(job.tenant);
        row.simOps += static_cast<std::uint64_t>(job.commRounds);
        // Q bytes cross the host boundary once per grant (the
        // restore/initial broadcast) and once per preemption (the
        // checkpointed aggregate).
        row.dmaBytes +=
            static_cast<std::uint64_t>(job.finalQ.values().size()) *
            rlcore::kQWireBytesPerEntry *
            static_cast<std::uint64_t>(job.grants + job.preemptions);
    }
    row.tenantCount = tenants.size();
    row.makespanSec = result.makespanSec;
    row.jobsPerHour = result.jobsPerHour();
    row.occupancy = result.occupancy();
    row.preemptions = result.totalPreemptions;
    row.digest = digestOutcomes(result.jobs);

    if (row.tenantCount < 2) {
        std::cerr << scenario.name << ": expected >= 2 tenants, got "
                  << row.tenantCount << "\n";
        return false;
    }
    if (scenario.expectPreemption && result.totalPreemptions == 0) {
        std::cerr << scenario.name
                  << ": expected at least one preemption\n";
        return false;
    }
    // The determinism contract: every job's fleet result must be
    // bit-identical to the same spec run alone on its own machine.
    for (std::size_t i = 0; i < scenario.jobs.size(); ++i) {
        const auto standalone = fleet::FleetScheduler::runStandalone(
            scenario.jobs[i], scenario.config);
        if (result.jobs[i].finalQ.values() !=
            standalone.finalQ.values()) {
            std::cerr << scenario.name << ": job "
                      << scenario.jobs[i].id
                      << " diverged from its standalone run — "
                         "scheduling moved a learned value\n";
            return false;
        }
    }
    return true;
}

bool
writeJson(const std::string &path, const std::string &mode,
          const std::vector<FleetRow> &rows)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\n"
        << "  \"bench\": \"perf_fleet_jobs\",\n"
        << "  \"mode\": \"" << mode << "\",\n"
        << "  \"workloads\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &r = rows[i];
        out << "    {\n"
            << "      \"name\": \"" << r.name << "\",\n"
            << "      \"jobs\": " << r.jobCount << ",\n"
            << "      \"tenants\": " << r.tenantCount << ",\n"
            << "      \"wall_sec\": " << r.wallSec << ",\n"
            << "      \"makespan_sec\": " << r.makespanSec << ",\n"
            << "      \"jobs_per_hour\": " << r.jobsPerHour << ",\n"
            << "      \"occupancy\": " << r.occupancy << ",\n"
            << "      \"preemptions\": " << r.preemptions << ",\n"
            << "      \"sim_ops\": " << r.simOps << ",\n"
            << "      \"dma_bytes\": " << r.dmaBytes << ",\n"
            << "      \"modelled_max_cycles\": " << r.digest << "\n"
            << "    }" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    return static_cast<bool>(out);
}

} // namespace

int
main(int argc, char **argv)
{
    const common::CliFlags flags(argc, argv, {"smoke", "json"});

    const bool smoke = flags.getBool("smoke", false);
    const std::string json_path =
        flags.getString("json", "BENCH_fleet_jobs.json");

    bench::banner("Fleet scheduling throughput (modelled jobs/hour)",
                  !smoke,
                  std::string("episodes=") + (smoke ? "40" : "80") +
                      ", 4 ranks x 4 cores");

    std::vector<FleetRow> rows;
    for (const auto &scenario : scenarios(smoke)) {
        FleetRow row;
        if (!measureScenario(scenario, row))
            return 1;
        rows.push_back(row);
    }

    TextTable t("Fleet scheduling (modelled time)");
    t.setHeader({"scenario", "jobs", "tenants", "makespan s",
                 "jobs/h", "occup", "preempt", "wall s"});
    for (const auto &r : rows) {
        t.addRow({r.name, std::to_string(r.jobCount),
                  std::to_string(r.tenantCount),
                  TextTable::num(r.makespanSec, 4),
                  TextTable::num(r.jobsPerHour, 0),
                  TextTable::num(r.occupancy, 3),
                  std::to_string(r.preemptions),
                  TextTable::num(r.wallSec, 3)});
    }
    t.print(std::cout);
    std::cout << "\nall final Q-tables bit-identical to standalone "
                 "runs; bench_compare verifies the digests\n";

    if (!writeJson(json_path, smoke ? "smoke" : "full", rows)) {
        std::cerr << "cannot write " << json_path << "\n";
        return 1;
    }
    std::cout << "results written to " << json_path << "\n";
    return 0;
}
