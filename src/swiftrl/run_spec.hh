/**
 * @file
 * The one run specification every front end trains from: the CLI's
 * flags, the C ABI's `params_json` and the fleet's job objects read
 * their training keys through one table, one reader and one
 * validator, so a spec trains the same Q-table however it arrives.
 * Each key is one row of runParams() — name, default (a JSON
 * literal), range, doc, front ends, and an accessor that fixes its
 * type — after Soar's `rl_param_container`. The CLI spells a key with
 * `-` for `_`. Seeds: collect with `seed`, train with `seed + 41`,
 * stream-collect with `seed + 977`.
 */

#ifndef SWIFTRL_SWIFTRL_RUN_SPEC_HH
#define SWIFTRL_SWIFTRL_RUN_SPEC_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hh"
#include "swiftrl/session.hh"
#include "swiftrl/streaming_trainer.hh"

namespace swiftrl {

namespace common {
class CliFlags;
}

/** What one run trains: the session plus the front-end fields. */
struct RunSpec
{
    RunSpec(); ///< every row's default

    /** Training config as read; seed and tau resolve in to*Config. */
    SessionConfig session;
    std::string env;             ///< rlenv registry name or spec
    std::size_t cores = 0;       ///< PIM cores of the machine
    unsigned hostThreads = 0;    ///< simulation threads (0 = all)
    std::size_t transitions = 0; ///< dataset size (streaming: total)
    std::uint64_t seed = 0;      ///< every other seed derives from it

    std::uint64_t collectSeed() const { return seed; }
    std::uint64_t trainSeed() const { return seed + 41; }
    std::uint64_t streamingCollectSeed() const { return seed + 977; }

    /** The session: training seed derived, tau clamped to episodes. */
    SessionConfig toSessionConfig() const;

    /** The streaming run: episodes and transitions are run totals,
     *  split across @p generations; tau is clamped per generation. */
    StreamingConfig toStreamingConfig(int generations) const;
};

/** Front ends, as bits of RunParam::frontEnds. */
enum class FrontEnd : unsigned { Cli = 1, CApi = 2, Fleet = 4 };

/** How a reason names a key: `cores` (JSON) or `--cores` (CLI). */
enum class KeySpelling { Json, Flag };

/** One row of the parameter table. */
struct RunParam
{
    std::string_view name;
    std::string_view defaultJson; ///< "256", "\"int32\"", "false"
    unsigned frontEnds;
    std::string_view doc;
    double min; ///< an integer key's inclusive range; infinite =
    double max; ///< the field type's (and at most +-2^53)
    /** Store a JSON value into the field; "" or what it must be. */
    std::string (*read)(const json::JsonValue &, RunSpec &,
                        const RunParam &);
    /** Range-check the field's value; "" or what it must be. */
    std::string (*check)(const RunSpec &, const RunParam &);
    /** The flag's value as the JSON value the reader reads. */
    json::JsonValue (*fromFlag)(const common::CliFlags &,
                                const std::string &flag);
};

/** The table, one row per key. */
std::span<const RunParam> runParams();

/** The CLI spelling of @p key without `--` (`host-threads`). */
std::string flagName(std::string_view key);

/** The keys @p front_end accepts, in table order. */
std::vector<std::string_view> runSpecKeys(FrontEnd front_end);

/**
 * Read the members of @p doc named in @p keys into @p spec; absent
 * keys keep their value, other members are the caller's. Every value
 * must have its field's type, and integers must be integral and in
 * range (never truncated or wrapped). "" or the reason.
 */
std::string readRunSpec(const json::JsonValue &doc,
                        std::span<const std::string_view> keys,
                        RunSpec &spec,
                        KeySpelling spelling = KeySpelling::Json);

/**
 * Every rule a spec must satisfy before a machine is built: the row
 * ranges, the environment resolving, sessionConfigInvalidReason, and
 * for a sharded run the shard plan and the MRAM demand bound.
 */
std::string runSpecInvalidReason(const RunSpec &spec,
                                 KeySpelling spelling =
                                     KeySpelling::Json);

/** The CLI's adapter: read and validate the flags of @p keys; fatal
 *  with the reason, naming the flag. */
RunSpec runSpecFromFlags(const common::CliFlags &flags,
                         std::span<const std::string_view> keys);

} // namespace swiftrl

#endif // SWIFTRL_SWIFTRL_RUN_SPEC_HH
