#include "swiftrl/run_spec.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/cli.hh"
#include "common/logging.hh"
#include "pimsim/pim_system.hh"
#include "rlenv/registry.hh"
#include "swiftrl/pim_kernels.hh"
#include "swiftrl/sharding.hh"

namespace swiftrl {

namespace {

using common::detail::concat;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kExact = 0x1p53;
constexpr unsigned kCli = static_cast<unsigned>(FrontEnd::Cli);
constexpr unsigned kCApi = static_cast<unsigned>(FrontEnd::CApi);
constexpr unsigned kFleet = static_cast<unsigned>(FrontEnd::Fleet);
constexpr unsigned kAll = kCli | kCApi | kFleet;

std::string
label(std::string_view name, KeySpelling spelling)
{
    return spelling == KeySpelling::Json ? std::string(name)
                                         : "--" + flagName(name);
}

/**
 * The row's integer range, clipped to what T holds and to +-2^53:
 * every front end's number is a double, exact only that far.
 */
template <typename T>
std::pair<T, T>
intRange(const RunParam &row)
{
    const auto clip = [](double v) {
        return static_cast<T>(std::clamp(
            v, std::max(-kExact, double(std::numeric_limits<T>::min())),
            std::min(kExact, double(std::numeric_limits<T>::max()))));
    };
    return {clip(row.min), clip(row.max)};
}

template <typename T>
std::string
mustBeInteger(const RunParam &row)
{
    const auto [lo, hi] = intRange<T>(row);
    return concat("must be an integer in [", +lo, ", ", +hi, "]");
}

/** Store @p v into @p out: "" or what the value must be. */
template <typename T>
std::string
store(const json::JsonValue &v, T &out, const RunParam &row)
{
    if constexpr (std::is_same_v<T, bool>) {
        if (!v.isBool())
            return "must be true or false";
        out = v.boolean;
    } else if constexpr (std::is_integral_v<T>) {
        const auto [lo, hi] = intRange<T>(row);
        const auto x = v.integer<T>();
        if (!x || *x < lo || *x > hi)
            return mustBeInteger<T>(row);
        out = *x;
    } else if constexpr (std::is_floating_point_v<T>) {
        // Past float's range the conversion is undefined, not inf.
        if (!v.isNumber() ||
            !(std::fabs(v.number) <= std::numeric_limits<T>::max()))
            return "must be a number";
        out = static_cast<T>(v.number);
    } else if constexpr (std::is_same_v<T, std::string>) {
        if (!v.isString())
            return "must be a string";
        out = v.string;
    } else {
        std::optional<T> parsed;
        if constexpr (std::is_same_v<T, rlcore::Algorithm>)
            parsed = rlcore::parseAlgorithm(v.string);
        else if constexpr (std::is_same_v<T, rlcore::Sampling>)
            parsed = rlcore::parseSampling(v.string);
        else
            parsed = rlcore::parseNumericFormat(v.string);
        // An enum row's doc lists the names it accepts.
        if (!v.isString() || !parsed)
            return "must be " + std::string(row.doc);
        out = *parsed;
    }
    return "";
}

/**
 * One row. @p field is a captureless lambda returning the field the
 * key fills; the row's read, range check and flag reading follow from
 * the field's type.
 */
template <typename Field>
constexpr RunParam
param(std::string_view name, std::string_view default_json,
      unsigned front_ends, std::string_view doc, Field,
      double min = -kInf, double max = kInf)
{
    using T = std::remove_cvref_t<decltype(Field{}(
        std::declval<RunSpec &>()))>;
    return {
        name, default_json, front_ends, doc, min, max,
        [](const json::JsonValue &v, RunSpec &spec, const RunParam &row) {
            return store(v, Field{}(spec), row);
        },
        [](const RunSpec &spec, const RunParam &row) {
            if constexpr (std::is_integral_v<T>) {
                const auto [lo, hi] = intRange<T>(row);
                if (Field{}(spec) < lo || Field{}(spec) > hi)
                    return mustBeInteger<T>(row);
            }
            return std::string();
        },
        [](const common::CliFlags &flags, const std::string &flag) {
            json::JsonValue v;
            if constexpr (std::is_same_v<T, bool>) {
                v.type = json::JsonValue::Type::Bool;
                v.boolean = flags.getBool(flag, false);
            } else if constexpr (std::is_integral_v<T>) {
                // Past 2^53 the double would round: make it refusable.
                const std::int64_t i = flags.getInt(flag, 0);
                const bool exact = i >= -(std::int64_t{1} << 53) &&
                                   i <= (std::int64_t{1} << 53);
                v.type = json::JsonValue::Type::Number;
                v.number = exact ? static_cast<double>(i) : kInf;
            } else if constexpr (std::is_floating_point_v<T>) {
                v.type = json::JsonValue::Type::Number;
                v.number = flags.getDouble(flag, 0.0);
            } else {
                v.type = json::JsonValue::Type::String;
                v.string = flags.getString(flag, "");
            }
            return v;
        },
    };
}

#define SWIFTRL_FIELD(f) [](auto &s) -> auto & { return s.f; }

// clang-format off
constexpr RunParam kParams[] = {
    param("env", "\"frozenlake\"", kAll, "rlenv name or procedural spec",
          SWIFTRL_FIELD(env)),
    param("cores", "256", kCli | kCApi, "PIM cores",
          SWIFTRL_FIELD(cores), 1),
    param("host_threads", "0", kCli | kCApi, "simulation threads; 0 = all",
          SWIFTRL_FIELD(hostThreads), 0, 1024),
    param("transitions", "100000", kAll, "dataset size",
          SWIFTRL_FIELD(transitions), 1),
    param("seed", "1", kAll, "operator seed", SWIFTRL_FIELD(seed)),
    param("algo", "\"qlearning\"", kAll, "qlearning or sarsa",
          SWIFTRL_FIELD(session.workload.algo)),
    param("sampling", "\"seq\"", kAll, "seq, ran, or str",
          SWIFTRL_FIELD(session.workload.sampling)),
    param("format", "\"int32\"", kAll, "fp32, int32, or int8",
          SWIFTRL_FIELD(session.workload.format)),
    param("alpha", "0.1", kAll, "learning rate",
          SWIFTRL_FIELD(session.hyper.alpha)),
    param("gamma", "0.95", kAll, "discount",
          SWIFTRL_FIELD(session.hyper.gamma)),
    param("epsilon", "0.05", kAll, "SARSA exploration",
          SWIFTRL_FIELD(session.hyper.epsilon)),
    param("episodes", "100", kAll, "episode budget",
          SWIFTRL_FIELD(session.hyper.episodes)),
    param("stride", "4", kCApi, "STR sampling stride",
          SWIFTRL_FIELD(session.hyper.stride)),
    param("tau", "50", kAll, "synchronisation period",
          SWIFTRL_FIELD(session.tau)),
    param("block_transitions", "128", kCApi, "staging block size",
          SWIFTRL_FIELD(session.blockTransitions)),
    param("tasklets", "1", kAll, "threads per core",
          SWIFTRL_FIELD(session.tasklets)),
    param("weighted", "false", kCli | kCApi, "visit-weighted averaging",
          SWIFTRL_FIELD(session.weightedAggregation)),
    param("epsilon_decay", "1.0", kCApi, "per-round epsilon factor",
          SWIFTRL_FIELD(session.epsilonDecay)),
    param("shards", "0", kCli | kCApi, "Q-table shards; 0 = replicate",
          SWIFTRL_FIELD(session.shards)),
};
// clang-format on

#undef SWIFTRL_FIELD

const RunParam &
paramNamed(std::string_view name)
{
    const auto *row = std::find_if(
        std::begin(kParams), std::end(kParams),
        [&](const RunParam &r) { return r.name == name; });
    SWIFTRL_ASSERT(row != std::end(kParams), "no run parameter ", name);
    return *row;
}

} // namespace

RunSpec::RunSpec()
{
    for (const RunParam &row : kParams) {
        const auto value = json::parseJson(row.defaultJson);
        const std::string why =
            value ? row.read(*value, *this, row) : "is not JSON";
        SWIFTRL_ASSERT(why.empty(), "default of ", row.name, " ", why);
    }
}

SessionConfig
RunSpec::toSessionConfig() const
{
    SessionConfig cfg = session;
    cfg.hyper.seed = trainSeed();
    cfg.tau = std::min(cfg.tau, cfg.hyper.episodes);
    return cfg;
}

StreamingConfig
RunSpec::toStreamingConfig(int generations) const
{
    const int split = std::max(1, generations);
    RunSpec per_generation = *this;
    per_generation.session.hyper.episodes =
        std::max(1, session.hyper.episodes / split);
    StreamingConfig cfg;
    static_cast<SessionConfig &>(cfg) = per_generation.toSessionConfig();
    cfg.generations = generations;
    cfg.transitionsPerGeneration =
        transitions / static_cast<std::size_t>(split);
    cfg.collectSeed = streamingCollectSeed();
    return cfg;
}

std::span<const RunParam>
runParams()
{
    return kParams;
}

std::string
flagName(std::string_view key)
{
    std::string flag(key);
    std::replace(flag.begin(), flag.end(), '_', '-');
    return flag;
}

std::vector<std::string_view>
runSpecKeys(FrontEnd front_end)
{
    std::vector<std::string_view> keys;
    for (const RunParam &row : kParams) {
        if (row.frontEnds & static_cast<unsigned>(front_end))
            keys.push_back(row.name);
    }
    return keys;
}

std::string
readRunSpec(const json::JsonValue &doc,
            std::span<const std::string_view> keys, RunSpec &spec,
            KeySpelling spelling)
{
    for (const std::string_view key : keys) {
        const RunParam &row = paramNamed(key);
        const json::JsonValue *value = doc.find(key);
        const std::string why =
            value ? row.read(*value, spec, row) : std::string();
        if (!why.empty())
            return label(key, spelling) + " " + why;
    }
    return "";
}

std::string
runSpecInvalidReason(const RunSpec &spec, KeySpelling spelling)
{
    for (const RunParam &row : kParams) {
        const std::string why = row.check(spec, row);
        if (!why.empty())
            return label(row.name, spelling) + " " + why;
    }
    std::string env_error;
    const auto env = rlenv::tryMakeEnvironment(spec.env, &env_error);
    if (!env)
        return label("env", spelling) + ": " + env_error;
    const SessionConfig session = spec.toSessionConfig();
    std::string why = sessionConfigInvalidReason(session);
    if (!why.empty())
        return why;
    if (session.shards == 0) {
        // What the first launch would be fatal about: every core holds
        // the whole table, and after dropouts (or a shrunken fleet
        // lease) one core's chunk can grow to the whole dataset, so
        // every tasklet may get records.
        KernelParams kernel;
        kernel.workload = session.workload;
        kernel.tasklets = session.tasklets;
        kernel.blockTransitions = session.blockTransitions;
        kernel.trackVisits = session.weightedAggregation;
        const std::size_t wram = laneWramBytes(
            kernel,
            static_cast<std::size_t>(env->numStates()) *
                static_cast<std::size_t>(env->numActions()),
            spec.transitions);
        const std::size_t scratchpad = pimsim::PimConfig{}.wramBytesPerDpu;
        if (wram > scratchpad)
            return concat("the kernel needs ", wram,
                          " bytes of WRAM per core but the scratchpad "
                          "holds ", scratchpad, "; split the Q-table "
                          "with ", label("shards", spelling));
        return "";
    }
    // What beginOffline would be fatal about, checked before any
    // machine exists: the plan, and the conservative MRAM demand
    // bound against the default bank size.
    const std::string shards = label("shards", spelling);
    why = shardPlanInvalidReason(env->numStates(), session.shards,
                                 spec.cores);
    if (!why.empty())
        return shards + ": " + why;
    const std::size_t demand = shardedMramDemandBound(
        env->numStates(), env->numActions(), session.shards,
        spec.transitions);
    const std::size_t bank = pimsim::PimConfig{}.mramBytesPerDpu;
    if (demand > bank)
        return concat("sharded layout needs ", demand,
                      " bytes of MRAM per core but banks hold ", bank,
                      "; raise ", shards, " or lower ",
                      label("transitions", spelling));
    return "";
}

RunSpec
runSpecFromFlags(const common::CliFlags &flags,
                 std::span<const std::string_view> keys)
{
    json::JsonValue doc;
    doc.type = json::JsonValue::Type::Object;
    for (const std::string_view key : keys) {
        const std::string flag = flagName(key);
        if (flags.has(flag))
            doc.members.emplace_back(
                key, paramNamed(key).fromFlag(flags, flag));
    }
    RunSpec spec;
    std::string why = readRunSpec(doc, keys, spec, KeySpelling::Flag);
    if (why.empty())
        why = runSpecInvalidReason(spec, KeySpelling::Flag);
    if (!why.empty())
        SWIFTRL_USAGE_ERROR(why);
    return spec;
}

} // namespace swiftrl
