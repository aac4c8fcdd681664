#include "fleet/job_spec.hh"

#include <concepts>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "rlcore/trainers.hh"
#include "swiftrl/session.hh"

namespace swiftrl::fleet {

double
FleetConfig::weightFor(const std::string &tenant) const
{
    for (const auto &[name, weight] : tenantWeights) {
        if (name == tenant)
            return weight;
    }
    return 1.0;
}

namespace {

/** Reject members outside @p allowed (operator typos fail loudly). */
void
rejectUnknownKeys(const json::JsonValue &object,
                  const std::set<std::string> &allowed,
                  const char *where)
{
    for (const auto &[key, value] : object.members) {
        (void)value;
        if (!allowed.contains(key))
            SWIFTRL_FATAL("fleet spec: unknown key \"", key, "\" in ",
                          where, " (see docs/SCHEDULER.md for the "
                          "schema)");
    }
}

/** Integer member @p key that fits T, or @p fallback when absent;
 *  fatal on a fractional or out-of-range value. */
template <std::integral T>
T
integerField(const json::JsonValue &object, const char *key,
             T fallback, const std::string &where)
{
    const auto v = object.integerOr<T>(key, fallback);
    if (!v)
        SWIFTRL_FATAL("fleet spec: ", where, ".", key,
                      " must be an integer in [",
                      std::numeric_limits<T>::min(), ", ",
                      std::numeric_limits<T>::max(), "]");
    return *v;
}

template <std::integral T>
T
positiveInt(const json::JsonValue &object, const char *key,
            T fallback, const std::string &where)
{
    const T v = integerField<T>(object, key, fallback, where);
    if (v <= 0)
        SWIFTRL_FATAL("fleet spec: ", where, ".", key,
                      " must be positive, got ", v);
    return v;
}

JobSpec
parseJob(const json::JsonValue &j, std::size_t index)
{
    static const std::set<std::string> kJobKeys = {
        "id",       "tenant",   "priority",    "arrival_sec",
        "ranks",    "min_ranks", "env",        "algo",
        "sampling", "format",   "episodes",    "tau",
        "transitions", "tasklets", "alpha",    "gamma",
        "epsilon",  "seed",
    };
    const std::string where = "jobs[" + std::to_string(index) + "]";
    rejectUnknownKeys(j, kJobKeys, where.c_str());

    JobSpec spec;
    spec.id = j.stringOr("id", "");
    if (spec.id.empty())
        SWIFTRL_FATAL("fleet spec: ", where, " needs a non-empty "
                      "\"id\"");
    spec.tenant = j.stringOr("tenant", "");
    if (spec.tenant.empty())
        SWIFTRL_FATAL("fleet spec: job \"", spec.id, "\" needs a "
                      "non-empty \"tenant\"");
    spec.priority = integerField<int>(j, "priority", 0, where);
    spec.arrivalSec = j.numberOr("arrival_sec", 0.0);
    if (spec.arrivalSec < 0.0)
        SWIFTRL_FATAL("fleet spec: job \"", spec.id,
                      "\" arrival_sec must be >= 0");
    spec.ranks = positiveInt<std::size_t>(j, "ranks", 1, where);
    spec.minRanks =
        integerField<std::size_t>(j, "min_ranks", 0, where);
    if (spec.minRanks > spec.ranks)
        SWIFTRL_FATAL("fleet spec: job \"", spec.id,
                      "\" min_ranks must be in [0, ranks]");
    spec.env = j.stringOr("env", "frozenlake");
    spec.workload.algo =
        rlcore::parseAlgorithm(j.stringOr("algo", "qlearning"));
    spec.workload.sampling =
        rlcore::parseSampling(j.stringOr("sampling", "seq"));
    spec.workload.format =
        rlcore::parseNumericFormat(j.stringOr("format", "int32"));
    spec.hyper.episodes = integerField<int>(j, "episodes", 100, where);
    spec.tau = integerField<int>(j, "tau", 50, where);
    if (spec.tau > spec.hyper.episodes)
        spec.tau = spec.hyper.episodes;
    spec.transitions =
        positiveInt<std::size_t>(j, "transitions", 20'000, where);
    spec.tasklets = integerField<unsigned>(j, "tasklets", 1, where);
    spec.hyper.alpha = static_cast<float>(j.numberOr("alpha", 0.1));
    spec.hyper.gamma = static_cast<float>(j.numberOr("gamma", 0.95));
    spec.hyper.epsilon =
        static_cast<float>(j.numberOr("epsilon", 0.05));
    // Seed discipline matches swiftrl_cli: one operator seed derives
    // the collection seed directly and the training seed at +41, so
    // a fleet job and a standalone CLI run of the same spec draw the
    // same datasets and LCG streams.
    const auto seed = integerField<std::uint64_t>(j, "seed", 1, where);
    spec.collectSeed = seed;
    spec.hyper.seed = seed + 41;

    const std::string why =
        sessionConfigInvalidReason(sessionConfigFor(spec));
    if (!why.empty())
        SWIFTRL_FATAL("fleet spec: job \"", spec.id, "\": ", why);
    return spec;
}

} // namespace

SessionConfig
sessionConfigFor(const JobSpec &spec)
{
    SessionConfig cfg;
    cfg.workload = spec.workload;
    cfg.hyper = spec.hyper;
    cfg.tau = spec.tau;
    cfg.tasklets = spec.tasklets;
    return cfg;
}

FleetSpec
parseFleetSpec(const std::string &json_text)
{
    std::string error;
    const auto doc = json::parseJson(json_text, &error);
    if (!doc)
        SWIFTRL_FATAL("fleet spec: malformed JSON (", error, ")");
    if (!doc->isObject())
        SWIFTRL_FATAL("fleet spec: the document must be an object");
    static const std::set<std::string> kTopKeys = {"fleet", "tenants",
                                                  "jobs"};
    rejectUnknownKeys(*doc, kTopKeys, "the top-level object");

    FleetSpec spec;
    if (const auto *fleet = doc->find("fleet")) {
        if (!fleet->isObject())
            SWIFTRL_FATAL("fleet spec: \"fleet\" must be an object");
        static const std::set<std::string> kFleetKeys = {
            "ranks", "dpus_per_rank", "quantum_rounds"};
        rejectUnknownKeys(*fleet, kFleetKeys, "\"fleet\"");
        spec.config.totalRanks =
            positiveInt<std::size_t>(*fleet, "ranks", 8, "fleet");
        spec.config.dpusPerRank = positiveInt<std::size_t>(
            *fleet, "dpus_per_rank", 8, "fleet");
        spec.config.quantumRounds =
            positiveInt<int>(*fleet, "quantum_rounds", 4, "fleet");
    }

    if (const auto *tenants = doc->find("tenants")) {
        if (!tenants->isObject())
            SWIFTRL_FATAL("fleet spec: \"tenants\" must map tenant "
                          "names to fair-share weights");
        for (const auto &[name, weight] : tenants->members) {
            if (!weight.isNumber() || !(weight.number > 0.0))
                SWIFTRL_FATAL("fleet spec: tenant \"", name,
                              "\" weight must be a positive number");
            spec.config.tenantWeights.emplace_back(name,
                                                   weight.number);
        }
    }

    const auto *jobs = doc->find("jobs");
    if (!jobs || !jobs->isArray() || jobs->elements.empty())
        SWIFTRL_FATAL("fleet spec: \"jobs\" must be a non-empty "
                      "array");
    std::set<std::string> seen_ids;
    for (std::size_t i = 0; i < jobs->elements.size(); ++i) {
        const auto &element = jobs->elements[i];
        if (!element.isObject())
            SWIFTRL_FATAL("fleet spec: jobs[", i,
                          "] must be an object");
        JobSpec job = parseJob(element, i);
        if (!seen_ids.insert(job.id).second)
            SWIFTRL_FATAL("fleet spec: duplicate job id \"", job.id,
                          "\"");
        if (job.ranks > spec.config.totalRanks)
            SWIFTRL_FATAL("fleet spec: job \"", job.id, "\" wants ",
                          job.ranks, " ranks but the fleet has ",
                          spec.config.totalRanks);
        spec.jobs.push_back(std::move(job));
    }
    return spec;
}

FleetSpec
loadFleetSpec(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        SWIFTRL_FATAL("cannot open fleet spec ", path);
    std::ostringstream text;
    text << in.rdbuf();
    return parseFleetSpec(text.str());
}

} // namespace swiftrl::fleet
