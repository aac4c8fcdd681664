/**
 * @file
 * The fleet scheduler's job and fleet descriptors, plus the operator
 * JSON surface that fills them.
 *
 * A *job* is one complete training run — environment x workload
 * variant x hyper-parameters x tenant — expressed as the ingredients
 * of a `swiftrl::TrainerSession` (offline mode). A *fleet* is a
 * shared pool of DPU ranks jobs are scheduled onto. The JSON document
 * format (the `--fleet jobs.json` CLI surface) is specified
 * field-by-field in docs/SCHEDULER.md; parsing rejects unknown keys
 * so an operator typo fails loudly instead of silently running the
 * default. A job's training keys are read through the run-spec table
 * (swiftrl/run_spec.hh), whose defaults and seed rule they share
 * with the CLI and the C ABI; the in-struct defaults below serve
 * C++ callers that build a JobSpec directly.
 *
 * Shape vocabulary, fixed here and used everywhere in src/fleet:
 *
 *  - `ranks` is the job's **logical width**: the rank count its
 *    simulated machine is built with (`ranks * dpusPerRank` DPU
 *    cores). It is part of the job's *identity* — the final Q-table
 *    depends on it — and never changes across preemptions.
 *  - `minRanks <= ranks` is the smallest **physical grant** the job
 *    accepts. Granting g < ranks physical ranks time-multiplexes the
 *    logical machine onto them: modelled results are bit-identical,
 *    wall (fleet-clock) time dilates by ceil(ranks / g). See
 *    docs/SCHEDULER.md "Rank grants and time dilation".
 */

#ifndef SWIFTRL_FLEET_JOB_SPEC_HH
#define SWIFTRL_FLEET_JOB_SPEC_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "rlcore/types.hh"
#include "swiftrl/workload.hh"

namespace swiftrl {

struct SessionConfig;

namespace telemetry {
class MetricRegistry;
}

namespace fleet {

/** One training job submitted to the fleet. */
struct JobSpec
{
    /** Unique job id (the `job` metric label); required. */
    std::string id;

    /** Tenant the job bills to (the fair-share bucket); required. */
    std::string tenant;

    /** Higher runs first among equal fair-share standing. */
    int priority = 0;

    /** Fleet-clock submission time, modelled seconds. */
    double arrivalSec = 0.0;

    /** Logical width in ranks (identity; see file comment). */
    std::size_t ranks = 1;

    /** Smallest acceptable physical grant (0 = same as ranks). */
    std::size_t minRanks = 0;

    /** Environment name ("frozenlake", "taxi", "cliffwalking"). */
    std::string env = "frozenlake";

    /** Workload variant (algo x sampling x numeric format). */
    Workload workload;

    /** Hyper-parameters; hyper.episodes is the episode budget. */
    rlcore::Hyper hyper;

    /** Synchronisation period tau (clamped to episodes). */
    int tau = 50;

    /** Offline dataset size collected for the job. */
    std::size_t transitions = 20'000;

    /** Tasklets per core. */
    unsigned tasklets = 1;

    /** Dataset-collection seed (hyper.seed trains; this collects). */
    std::uint64_t collectSeed = 1;

    /** The grant floor with the 0-default resolved. */
    std::size_t
    effectiveMinRanks() const
    {
        return minRanks == 0 ? ranks : minRanks;
    }
};

/** The session configuration @p spec trains with (the fleet
 *  scheduler builds every grant's session from it). */
SessionConfig sessionConfigFor(const JobSpec &spec);

/** The shared fleet and the scheduling policy knobs. */
struct FleetConfig
{
    /** Ranks in the shared pool. */
    std::size_t totalRanks = 8;

    /** Simulated DPU cores per rank (a job's machine has
     *  ranks * dpusPerRank cores). */
    std::size_t dpusPerRank = 8;

    /** Rounds per scheduling quantum: a granted job trains this many
     *  tau-rounds before the scheduler reconsiders the grant. */
    int quantumRounds = 4;

    /**
     * Modelled host cost of serialising one checkpoint byte at
     * preemption (one streaming pass: copy + FNV checksum, the
     * `FaultPlan::checksumSecPerByte` class of work — see
     * docs/COSTMODEL.md "Fleet scheduling"). Timing-only by the
     * cost-model invariant.
     */
    double checkpointSecPerByte = 1.0e-9;

    /** Modelled host cost per checkpoint byte at restore (same
     *  pass in the other direction). */
    double restoreSecPerByte = 1.0e-9;

    /** Fixed host cost of (re)dispatching a job onto a grant —
     *  allocation bookkeeping + session construction, a
     *  `launchOverheadSec`-class host-runtime round trip. */
    double dispatchOverheadSec = 50.0e-6;

    /** Host threads for each job's functional simulation (0 = one
     *  per hardware thread; never changes modelled results). */
    unsigned hostThreads = 0;

    /** Per-tenant fair-share weights; tenants absent here weigh 1. */
    std::vector<std::pair<std::string, double>> tenantWeights;

    /** Telemetry destination (null = off). Observation-only. */
    telemetry::MetricRegistry *metrics = nullptr;

    /** Weight for @p tenant (default 1.0). */
    double weightFor(const std::string &tenant) const;
};

/** A parsed `--fleet` document: the fleet plus its job list. */
struct FleetSpec
{
    FleetConfig config;
    std::vector<JobSpec> jobs;
};

/**
 * Parse the operator JSON document (schema in docs/SCHEDULER.md).
 * A usage error (one line, exit 1, SWIFTRL_USAGE_ERROR) on malformed
 * JSON, unknown keys, duplicate job ids, or out-of-range values — the
 * operator surface fails loudly. Each job's
 * run spec is checked here (runSpecInvalidReason: the environment
 * resolves, the session rules hold), so a bad job fails, naming its
 * id, before the scheduler runs any other.
 */
FleetSpec parseFleetSpec(const std::string &json_text);

/** Read @p path and parse it; a usage error when it cannot be read. */
FleetSpec loadFleetSpec(const std::string &path);

} // namespace fleet
} // namespace swiftrl

#endif // SWIFTRL_FLEET_JOB_SPEC_HH
