/**
 * @file
 * Implementation of the stable C API (capi/swiftrl.h) over the C++
 * library: TrainerSession for training, serving::PolicyServer for
 * inference, common/json for the params documents.
 *
 * The one design rule of this layer: *validate, then call*. The C++
 * layer treats invalid configuration as a programming error and
 * aborts (SWIFTRL_FATAL); here every input crosses a trust boundary,
 * so each entry point checks what the C++ layer would be fatal about
 * — JSON shape, then the run spec through the same table, reader and
 * runSpecInvalidReason the CLI and the fleet use (swiftrl/run_spec),
 * then checkpoint identity — and turns the failure into a status
 * code plus a thread-local message before any fatal path is
 * reachable.
 */

#include "capi/swiftrl.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <iostream>

#include "common/json.hh"
#include "pimsim/pim_system.hh"
#include "rlcore/dataset.hh"
#include "rlcore/qtable.hh"
#include "rlcore/serialization.hh"
#include "rlenv/environment.hh"
#include "rlenv/registry.hh"
#include "serving/policy_server.hh"
#include "swiftrl/run_spec.hh"
#include "swiftrl/session.hh"

namespace {

namespace rlcore = swiftrl::rlcore;
namespace rlenv = swiftrl::rlenv;

static_assert(std::is_same_v<rlenv::StateId, std::int32_t> &&
                  std::is_same_v<rlenv::ActionId, std::int32_t>,
              "the C ABI promises int32_t state/action ids");

thread_local std::string t_lastError;

swiftrl_status
ok()
{
    t_lastError.clear();
    return SWIFTRL_OK;
}

swiftrl_status
fail(swiftrl_status status, std::string reason)
{
    t_lastError = std::move(reason);
    return status;
}

/** IO errors say "cannot open"; everything else about a file that
 *  did open is a content (corruption/version) problem. */
swiftrl_status
fileStatus(const std::string &reason)
{
    return reason.find("cannot open") != std::string::npos
               ? SWIFTRL_ERR_IO
               : SWIFTRL_ERR_CORRUPT;
}

/** Parse + validate params_json into @p spec: "" or the reason, for
 *  any problem the C++ layer would abort over. */
std::string
parseParams(const char *params_json, swiftrl::RunSpec &spec)
{
    if (params_json == nullptr)
        return "params_json must not be NULL";
    std::string parse_error;
    const auto doc =
        swiftrl::json::parseJson(params_json, &parse_error);
    if (!doc)
        return "params_json: " + parse_error;
    if (!doc->isObject())
        return "params_json must be a JSON object";
    // The C ABI accepts every key of the run-spec table.
    static const auto kKeys = swiftrl::runSpecKeys(swiftrl::FrontEnd::CApi);
    for (const auto &member : doc->members) {
        if (std::find(kKeys.begin(), kKeys.end(), member.first) ==
            kKeys.end())
            return "params_json: unknown key \"" + member.first + "\"";
    }
    std::string why = swiftrl::readRunSpec(*doc, kKeys, spec);
    if (why.empty())
        why = swiftrl::runSpecInvalidReason(spec);
    return why.empty() ? why : "params_json: " + why;
}

} // namespace

/** One C-API training run: the machine, the dataset, the session. */
struct swiftrl_session
{
    std::unique_ptr<swiftrl::pimsim::PimSystem> system;
    rlcore::Dataset data;
    std::unique_ptr<swiftrl::TrainerSession> session;
    bool finished = false;
};

/** One C-API serving handle over a loaded Q-table. */
struct swiftrl_policy
{
    explicit swiftrl_policy(rlcore::QTable table,
                            swiftrl::serving::ServingConfig config)
        : server(std::move(table), config)
    {
    }
    swiftrl::serving::PolicyServer server;
};

namespace {

/** Shared body of create and restore: build the machine, the dataset
 *  and the session, then begin it or restore it from @p ck. */
std::unique_ptr<swiftrl_session>
buildSession(const swiftrl::RunSpec &spec,
             const swiftrl::SessionCheckpoint *ck)
{
    auto handle = std::make_unique<swiftrl_session>();
    const auto env = rlenv::makeEnvironment(spec.env);
    handle->data = rlcore::collectRandomDataset(*env, spec.transitions,
                                                spec.collectSeed());
    swiftrl::pimsim::PimConfig machine;
    machine.numDpus = spec.cores;
    machine.hostThreads = spec.hostThreads;
    handle->system =
        std::make_unique<swiftrl::pimsim::PimSystem>(machine);
    handle->session = std::make_unique<swiftrl::TrainerSession>(
        *handle->system, spec.toSessionConfig());
    if (ck)
        handle->session->restoreOffline(handle->data, *ck);
    else
        handle->session->beginOffline(handle->data, env->numStates(),
                                      env->numActions());
    return handle;
}

} // namespace

extern "C" {

const char *
swiftrl_version(void)
{
    return "1.0.0";
}

const char *
swiftrl_status_name(swiftrl_status status)
{
    switch (status) {
    case SWIFTRL_OK: return "SWIFTRL_OK";
    case SWIFTRL_ERR_INVALID_ARGUMENT:
        return "SWIFTRL_ERR_INVALID_ARGUMENT";
    case SWIFTRL_ERR_PARSE: return "SWIFTRL_ERR_PARSE";
    case SWIFTRL_ERR_STATE: return "SWIFTRL_ERR_STATE";
    case SWIFTRL_ERR_IO: return "SWIFTRL_ERR_IO";
    case SWIFTRL_ERR_CORRUPT: return "SWIFTRL_ERR_CORRUPT";
    case SWIFTRL_ERR_MISMATCH: return "SWIFTRL_ERR_MISMATCH";
    }
    return "SWIFTRL_ERR_UNKNOWN";
}

const char *
swiftrl_last_error(void)
{
    return t_lastError.c_str();
}

swiftrl_status
swiftrl_session_create(const char *params_json,
                       swiftrl_session **out_session)
{
    if (out_session == nullptr)
        return fail(SWIFTRL_ERR_INVALID_ARGUMENT,
                    "out_session must not be NULL");
    *out_session = nullptr;
    swiftrl::RunSpec spec;
    std::string reason = parseParams(params_json, spec);
    if (!reason.empty())
        return fail(SWIFTRL_ERR_PARSE, reason);

    *out_session = buildSession(spec, nullptr).release();
    return ok();
}

swiftrl_status
swiftrl_session_step(swiftrl_session *session, int *out_remaining)
{
    if (session == nullptr)
        return fail(SWIFTRL_ERR_INVALID_ARGUMENT,
                    "session must not be NULL");
    if (session->finished)
        return fail(SWIFTRL_ERR_STATE,
                    "session is finished; create a new one");
    if (!session->session->step())
        return fail(SWIFTRL_ERR_STATE,
                    "episode budget exhausted; call "
                    "swiftrl_session_finish");
    if (out_remaining)
        *out_remaining = session->session->episodesRemaining();
    return ok();
}

swiftrl_status
swiftrl_session_checkpoint(swiftrl_session *session,
                           const char *path)
{
    if (session == nullptr || path == nullptr)
        return fail(SWIFTRL_ERR_INVALID_ARGUMENT,
                    "session and path must not be NULL");
    if (session->finished)
        return fail(SWIFTRL_ERR_STATE,
                    "a finished session has nothing to checkpoint");
    std::string reason;
    if (!swiftrl::trySaveCheckpoint(session->session->checkpoint(),
                                    path, &reason))
        return fail(SWIFTRL_ERR_IO, reason);
    return ok();
}

swiftrl_status
swiftrl_session_restore(const char *params_json,
                        const char *checkpoint_path,
                        swiftrl_session **out_session)
{
    if (out_session == nullptr)
        return fail(SWIFTRL_ERR_INVALID_ARGUMENT,
                    "out_session must not be NULL");
    *out_session = nullptr;
    if (checkpoint_path == nullptr)
        return fail(SWIFTRL_ERR_INVALID_ARGUMENT,
                    "checkpoint_path must not be NULL");
    swiftrl::RunSpec spec;
    std::string reason = parseParams(params_json, spec);
    if (!reason.empty())
        return fail(SWIFTRL_ERR_PARSE, reason);

    const auto ck =
        swiftrl::tryLoadCheckpoint(checkpoint_path, &reason);
    if (!ck)
        return fail(fileStatus(reason), reason);
    if (ck->streaming)
        return fail(SWIFTRL_ERR_MISMATCH,
                    "checkpoint is from a streaming run; the C API "
                    "drives offline sessions");
    const std::string why = swiftrl::checkpointMismatch(
        spec.toSessionConfig(), spec.cores, *ck);
    if (!why.empty())
        return fail(SWIFTRL_ERR_MISMATCH, why);
    const auto env = rlenv::makeEnvironment(spec.env);
    if (ck->numStates != env->numStates() ||
        ck->numActions != env->numActions())
        return fail(SWIFTRL_ERR_MISMATCH,
                    "checkpoint was trained on a different "
                    "environment shape than \"" + spec.env + "\"");

    *out_session = buildSession(spec, &*ck).release();
    return ok();
}

swiftrl_status
swiftrl_session_finish(swiftrl_session *session,
                       const char *q_table_path)
{
    if (session == nullptr || q_table_path == nullptr)
        return fail(SWIFTRL_ERR_INVALID_ARGUMENT,
                    "session and q_table_path must not be NULL");
    if (session->finished)
        return fail(SWIFTRL_ERR_STATE, "session already finished");
    if (session->session->episodesRemaining() > 0)
        return fail(SWIFTRL_ERR_STATE,
                    "episode budget not exhausted; keep stepping");
    session->session->finishRetrieval();
    session->finished = true;
    std::string reason;
    if (!rlcore::trySaveQTable(session->session->aggregated(),
                               q_table_path, &reason))
        return fail(SWIFTRL_ERR_IO, reason);
    return ok();
}

int
swiftrl_session_rounds(const swiftrl_session *session)
{
    return session ? session->session->commRounds() : -1;
}

int
swiftrl_session_episodes_remaining(const swiftrl_session *session)
{
    return session ? session->session->episodesRemaining() : -1;
}

void
swiftrl_session_free(swiftrl_session *session)
{
    delete session;
}

swiftrl_status
swiftrl_train(const char *params_json, const char *q_table_path)
{
    if (q_table_path == nullptr)
        return fail(SWIFTRL_ERR_INVALID_ARGUMENT,
                    "q_table_path must not be NULL");
    swiftrl_session *session = nullptr;
    swiftrl_status status =
        swiftrl_session_create(params_json, &session);
    if (status != SWIFTRL_OK)
        return status;
    while (session->session->step()) {
    }
    status = swiftrl_session_finish(session, q_table_path);
    const std::string reason = t_lastError;
    swiftrl_session_free(session);
    if (status != SWIFTRL_OK)
        return fail(status, reason);
    return ok();
}

swiftrl_status
swiftrl_policy_load(const char *q_table_path,
                    const char *serving_json,
                    swiftrl_policy **out_policy)
{
    if (out_policy == nullptr)
        return fail(SWIFTRL_ERR_INVALID_ARGUMENT,
                    "out_policy must not be NULL");
    *out_policy = nullptr;
    if (q_table_path == nullptr)
        return fail(SWIFTRL_ERR_INVALID_ARGUMENT,
                    "q_table_path must not be NULL");

    swiftrl::serving::ServingConfig config;
    if (serving_json != nullptr) {
        std::string parse_error;
        const auto doc =
            swiftrl::json::parseJson(serving_json, &parse_error);
        if (!doc)
            return fail(SWIFTRL_ERR_PARSE,
                        "serving_json: " + parse_error);
        if (!doc->isObject())
            return fail(SWIFTRL_ERR_PARSE,
                        "serving_json must be a JSON object");
        for (const auto &[key, value] : doc->members) {
            if (key != "max_batch" && key != "max_wait_sec")
                return fail(SWIFTRL_ERR_PARSE,
                            "serving_json: unknown key \"" + key +
                                "\"");
            (void)value;
        }
        const auto max_batch =
            doc->integerOr<std::size_t>("max_batch", 64);
        const double max_wait =
            doc->numberOr("max_wait_sec", 100e-6);
        if (!max_batch || *max_batch < 1)
            return fail(SWIFTRL_ERR_PARSE,
                        "serving_json: \"max_batch\" must be an "
                        "integer >= 1");
        if (max_wait < 0.0)
            return fail(SWIFTRL_ERR_PARSE,
                        "serving_json: \"max_wait_sec\" must be "
                        ">= 0");
        config.maxBatch = *max_batch;
        config.maxWaitSec = max_wait;
    }

    std::string reason;
    auto table = rlcore::tryLoadQTable(q_table_path, &reason);
    if (!table)
        return fail(fileStatus(reason), reason);

    *out_policy = new swiftrl_policy(*std::move(table), config);
    return ok();
}

swiftrl_status
swiftrl_policy_act_batch(swiftrl_policy *policy,
                         const int32_t *states, int32_t *actions,
                         size_t count)
{
    if (policy == nullptr)
        return fail(SWIFTRL_ERR_INVALID_ARGUMENT,
                    "policy must not be NULL");
    if (count == 0)
        return ok();
    if (states == nullptr || actions == nullptr)
        return fail(SWIFTRL_ERR_INVALID_ARGUMENT,
                    "states and actions must not be NULL");
    if (!policy->server.actBatch(states, actions, count))
        return fail(SWIFTRL_ERR_INVALID_ARGUMENT,
                    "a state id is out of range for the loaded "
                    "table");
    return ok();
}

int32_t
swiftrl_policy_num_states(const swiftrl_policy *policy)
{
    return policy ? policy->server.table().numStates() : -1;
}

int32_t
swiftrl_policy_num_actions(const swiftrl_policy *policy)
{
    return policy ? policy->server.table().numActions() : -1;
}

void
swiftrl_policy_free(swiftrl_policy *policy)
{
    delete policy;
}

swiftrl_status
swiftrl_dump_flight_record(const char *path)
{
    auto &tracer = swiftrl::telemetry::tracer();
    if (path == nullptr) {
        tracer.dumpFlightText(std::cerr);
        return ok();
    }
    if (!tracer.writeFlightJson(path)) {
        return fail(SWIFTRL_ERR_IO,
                    std::string("cannot write flight record to ") +
                        path);
    }
    return ok();
}

} // extern "C"
