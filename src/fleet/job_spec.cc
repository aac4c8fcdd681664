#include "fleet/job_spec.hh"

#include <concepts>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "swiftrl/run_spec.hh"

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
            SWIFTRL_USAGE_ERROR("fleet spec: unknown key \"", key, "\" in ",
                          where, " (see docs/SCHEDULER.md for the "
                          "schema)");
    }
}

/** Integer member @p key that fits T, or @p fallback when absent;
 *  a usage error on a fractional or out-of-range value. */
template <std::integral T>
T
integerField(const json::JsonValue &object, const char *key,
             T fallback, const std::string &where)
{
    const auto v = object.integerOr<T>(key, fallback);
    if (!v)
        SWIFTRL_USAGE_ERROR("fleet spec: ", where, ".", key,
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
        SWIFTRL_USAGE_ERROR("fleet spec: ", where, ".", key,
                      " must be positive, got ", v);
    return v;
}

JobSpec
parseJob(const json::JsonValue &j, std::size_t index,
         const FleetConfig &fleet)
{
    static const std::vector<std::string_view> kTrainingKeys =
        runSpecKeys(FrontEnd::Fleet);
    std::set<std::string> allowed(kTrainingKeys.begin(),
                                  kTrainingKeys.end());
    allowed.insert({"id", "tenant", "priority", "arrival_sec", "ranks",
                    "min_ranks"});
    const std::string where = "jobs[" + std::to_string(index) + "]";
    rejectUnknownKeys(j, allowed, where.c_str());

    JobSpec spec;
    spec.id = j.stringOr("id", "");
    if (spec.id.empty())
        SWIFTRL_USAGE_ERROR("fleet spec: ", where, " needs a non-empty "
                      "\"id\"");
    spec.tenant = j.stringOr("tenant", "");
    if (spec.tenant.empty())
        SWIFTRL_USAGE_ERROR("fleet spec: job \"", spec.id, "\" needs a "
                      "non-empty \"tenant\"");
    spec.priority = integerField<int>(j, "priority", 0, where);
    spec.arrivalSec = j.numberOr("arrival_sec", 0.0);
    if (spec.arrivalSec < 0.0)
        SWIFTRL_USAGE_ERROR("fleet spec: job \"", spec.id,
                      "\" arrival_sec must be >= 0");
    spec.ranks = positiveInt<std::size_t>(j, "ranks", 1, where);
    spec.minRanks =
        integerField<std::size_t>(j, "min_ranks", 0, where);
    if (spec.minRanks > spec.ranks)
        SWIFTRL_USAGE_ERROR("fleet spec: job \"", spec.id,
                      "\" min_ranks must be in [0, ranks]");
    if (spec.ranks > fleet.totalRanks)
        SWIFTRL_USAGE_ERROR("fleet spec: job \"", spec.id, "\" wants ",
                      spec.ranks, " ranks but the fleet has ",
                      fleet.totalRanks);

    // The training keys go through the run-spec table, so a fleet job
    // and a standalone CLI run of the same spec train the same table.
    RunSpec run;
    run.cores = spec.ranks * fleet.dpusPerRank;
    std::string why = readRunSpec(j, kTrainingKeys, run);
    if (why.empty())
        why = runSpecInvalidReason(run);
    if (!why.empty())
        SWIFTRL_USAGE_ERROR("fleet spec: job \"", spec.id, "\": ", why);
    const SessionConfig session = run.toSessionConfig();
    spec.env = run.env;
    spec.workload = session.workload;
    spec.hyper = session.hyper;
    spec.tau = session.tau;
    spec.transitions = run.transitions;
    spec.tasklets = session.tasklets;
    spec.collectSeed = run.collectSeed();
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
        SWIFTRL_USAGE_ERROR("fleet spec: malformed JSON (", error, ")");
    if (!doc->isObject())
        SWIFTRL_USAGE_ERROR("fleet spec: the document must be an object");
    static const std::set<std::string> kTopKeys = {"fleet", "tenants",
                                                  "jobs"};
    rejectUnknownKeys(*doc, kTopKeys, "the top-level object");

    FleetSpec spec;
    if (const auto *fleet = doc->find("fleet")) {
        if (!fleet->isObject())
            SWIFTRL_USAGE_ERROR("fleet spec: \"fleet\" must be an object");
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
            SWIFTRL_USAGE_ERROR("fleet spec: \"tenants\" must map tenant "
                          "names to fair-share weights");
        for (const auto &[name, weight] : tenants->members) {
            if (!weight.isNumber() || !(weight.number > 0.0))
                SWIFTRL_USAGE_ERROR("fleet spec: tenant \"", name,
                              "\" weight must be a positive number");
            spec.config.tenantWeights.emplace_back(name,
                                                   weight.number);
        }
    }

    const auto *jobs = doc->find("jobs");
    if (!jobs || !jobs->isArray() || jobs->elements.empty())
        SWIFTRL_USAGE_ERROR("fleet spec: \"jobs\" must be a non-empty "
                      "array");
    std::set<std::string> seen_ids;
    for (std::size_t i = 0; i < jobs->elements.size(); ++i) {
        const auto &element = jobs->elements[i];
        if (!element.isObject())
            SWIFTRL_USAGE_ERROR("fleet spec: jobs[", i,
                          "] must be an object");
        JobSpec job = parseJob(element, i, spec.config);
        if (!seen_ids.insert(job.id).second)
            SWIFTRL_USAGE_ERROR("fleet spec: duplicate job id \"", job.id,
                          "\"");
        spec.jobs.push_back(std::move(job));
    }
    return spec;
}

FleetSpec
loadFleetSpec(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        SWIFTRL_USAGE_ERROR("cannot open fleet spec ", path);
    std::ostringstream text;
    text << in.rdbuf();
    return parseFleetSpec(text.str());
}

} // namespace swiftrl::fleet
