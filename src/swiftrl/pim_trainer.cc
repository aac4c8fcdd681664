#include "swiftrl/pim_trainer.hh"

#include "common/logging.hh"
#include "telemetry/metric_registry.hh"

namespace swiftrl {

using rlcore::ActionId;
using rlcore::Dataset;
using rlcore::QTable;
using rlcore::StateId;

PimTrainer::PimTrainer(pimsim::PimSystem &system, PimTrainConfig config)
    : _system(system), _config(std::move(config))
{
    const std::string why = sessionConfigInvalidReason(_config);
    if (!why.empty())
        SWIFTRL_FATAL(why);
    if (_config.streaming)
        SWIFTRL_FATAL("streaming: PimTrainer drives offline sessions; "
                      "streaming runs use StreamingTrainer");
}

PimTrainResult
PimTrainer::runImpl(const Dataset &data, StateId num_states,
                    ActionId num_actions,
                    const SessionCheckpoint *restore_from,
                    int pause_at_round, SessionCheckpoint *out_ck)
{
    // The run is one begin/step*-per-round/finish sequence on a
    // TrainerSession, which owns the command stream, the Q-table wire
    // I/O, the LCG streams, and the fault-recovery plumbing. The
    // reported time breakdown is a view of the session's timeline
    // (continued past the checkpoint base on a resumed run).
    TrainerSession session(_system, _config);
    if (restore_from)
        session.restoreOffline(data, *restore_from);
    else
        session.beginOffline(data, num_states, num_actions);

    // Steps 2 + synchronisation: train in rounds of tau episodes;
    // each step() is one launch -> gather -> average -> reduce ->
    // broadcast round (Figure 4 (2) plus Sec. 4.2's tau-periodic
    // exchange), with fault recovery inside.
    while (session.episodesRemaining() > 0) {
        if (pause_at_round >= 0 &&
            session.commRounds() >= pause_at_round)
            break;
        session.step();
    }

    if (out_ck) {
        *out_ck = session.checkpoint();
        return {};
    }

    // Steps 3+4: final retrieval (Figure 4 (3)), then the result is
    // assembled from the session's whole-run accounting.
    session.finishRetrieval();
    return report(session, session.aggregated());
}

PimTrainResult
PimTrainer::report(TrainerSession &session, QTable final_q) const
{
    PimTrainResult result;
    result.finalQ = std::move(final_q);
    result.coresUsed = _system.numDpus();
    result.roundDeltas = session.roundDeltas();
    result.commRounds = session.commRounds();
    result.time = session.currentTime();
    result.timeline = session.stream().timeline();
    result.faultsDetected = session.faultsDetected();
    result.coresLost = session.coresLost();
    if (_config.metrics) {
        auto &m = *_config.metrics;
        m.gauge("rl_epsilon")
            .set(static_cast<double>(session.epsilon()));
        m.counter("rl_faults_detected_total")
            .add(static_cast<std::uint64_t>(result.faultsDetected));
        m.gauge("rl_live_cores")
            .set(static_cast<double>(
                session.stream().liveDpuCount()));
        m.counter("rl_cores_lost_total")
            .add(static_cast<std::uint64_t>(result.coresLost));
        m.gauge("rl_recovery_seconds").set(result.time.recovery);
    }
    return result;
}

PimTrainResult
PimTrainer::train(const Dataset &data, StateId num_states,
                  ActionId num_actions)
{
    return runImpl(data, num_states, num_actions, nullptr, -1,
                   nullptr);
}

SessionCheckpoint
PimTrainer::trainUntilRound(const Dataset &data, StateId num_states,
                            ActionId num_actions, int rounds)
{
    if (rounds < 0)
        SWIFTRL_FATAL("pause round must be >= 0, got ", rounds);
    SessionCheckpoint ck;
    runImpl(data, num_states, num_actions, nullptr, rounds, &ck);
    return ck;
}

PimTrainResult
PimTrainer::resume(const Dataset &data, StateId num_states,
                   ActionId num_actions, const SessionCheckpoint &ck)
{
    return runImpl(data, num_states, num_actions, &ck, -1, nullptr);
}

PimTrainResult
PimTrainer::trainMultiAgent(const std::vector<Dataset> &agent_data,
                            StateId num_states, ActionId num_actions)
{
    TrainerSession session(_system, _config);
    session.beginAgents(agent_data, num_states, num_actions);
    std::vector<QTable> tables = session.trainAgents();
    // finalQ is the agents' mean, for diagnostics only: each agent
    // deploys its own table.
    PimTrainResult result = report(session, QTable::average(tables));
    result.perCore = std::move(tables);
    return result;
}

} // namespace swiftrl
