#include "swiftrl/streaming_trainer.hh"

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>

#include "common/logging.hh"
#include "rlcore/seeds.hh"
#include "swiftrl/session.hh"
#include "telemetry/metric_registry.hh"

namespace swiftrl {

using pimsim::Phase;
using pimsim::TimeBucket;
using rlcore::ActionId;
using rlcore::Dataset;
using rlcore::QTable;
using rlcore::StateId;

StreamingTrainer::StreamingTrainer(pimsim::PimSystem &system,
                                   StreamingConfig config)
    : _system(system), _config(std::move(config))
{
    const std::string why = sessionConfigInvalidReason(sessionConfig());
    if (!why.empty())
        SWIFTRL_FATAL(why);
    if (_config.generations <= 0)
        SWIFTRL_FATAL("generation count must be positive");
    if (_config.transitionsPerGeneration == 0)
        SWIFTRL_FATAL("each generation must collect at least one "
                      "transition");
    if (_config.actors == 0)
        SWIFTRL_FATAL("actor count must be >= 1: modelled collection "
                      "time may not depend on the host machine");
    if (_config.refreshPeriod < 0)
        SWIFTRL_FATAL("refresh period must be >= 0 (0 = never)");
    if (_config.collectSecPerTransition < 0.0)
        SWIFTRL_FATAL("per-transition collection cost must be >= 0");
}

SessionConfig
StreamingTrainer::sessionConfig() const
{
    SessionConfig cfg;
    cfg.workload = _config.workload;
    cfg.hyper = _config.hyper;
    cfg.tau = _config.tau;
    cfg.blockTransitions = _config.blockTransitions;
    cfg.tasklets = _config.tasklets;
    cfg.retry = _config.retry;
    cfg.weightedAggregation = false;
    cfg.epsilonDecay = _config.epsilonDecay;
    cfg.streaming = true;
    cfg.metrics = _config.metrics;
    return cfg;
}

double
StreamingTrainer::collectDuration(std::size_t num_transitions) const
{
    // Mirror rlcore::collectPolicyBlocks's round-robin assignment:
    // actor t executes blocks t, t+A, t+2A, ... The generation's
    // collection slice lasts as long as the busiest actor.
    const std::size_t block = _config.blockTransitions;
    const std::size_t blocks = (num_transitions + block - 1) / block;
    const std::size_t a = std::clamp<std::size_t>(
        _config.actors, std::size_t{1}, blocks);
    double busiest = 0.0;
    for (std::size_t t = 0; t < a; ++t) {
        std::size_t mine = 0;
        for (std::size_t i = t; i < blocks; i += a) {
            const std::size_t first = i * block;
            mine += std::min(block, num_transitions - first);
        }
        busiest = std::max(busiest, static_cast<double>(mine));
    }
    return busiest * _config.collectSecPerTransition;
}

StreamingResult
StreamingTrainer::runImpl(const rlcore::EnvFactory &make_env,
                          StateId num_states, ActionId num_actions,
                          const SessionCheckpoint *restore_from,
                          int pause_at_round, SessionCheckpoint *out_ck)
{
    const std::size_t n = _system.numDpus();
    const std::size_t entries =
        static_cast<std::size_t>(num_states) *
        static_cast<std::size_t>(num_actions);

    StreamingResult result;
    result.coresUsed = n;
    result.generations = _config.generations;

    // The PIM side of the pipeline is the shared TrainerSession; this
    // driver owns only what the session cannot see — the actor clock,
    // the behaviour policy, and the recent per-generation aggregates
    // the refresh schedule reads.
    TrainerSession session(_system, sessionConfig());

    // The actors start uniform-random, like the paper's collector,
    // until the first policy refresh (if any).
    rlcore::BehaviourPolicy policy =
        rlcore::makeRandomPolicy(num_actions);
    bool policy_active = false;       // epsilon-greedy vs random
    std::vector<float> policy_source; // table the policy greedifies

    // Aggregate after each generation, and the stream time its last
    // training command retired — the refresh schedule reads both.
    // Only the last two generations are ever read back, which is what
    // lets a checkpoint carry a two-entry tail instead of the run.
    std::vector<QTable> q_after;
    std::vector<double> train_end;
    double host_clock = 0.0; // when the actor pool is next free

    const double reduce_per_entry =
        _system.config().transferModel.hostReduceSecPerEntry;

    // Capture the driver state on top of the session checkpoint.
    const auto makeCheckpoint = [&] {
        SessionCheckpoint ck = session.checkpoint();
        ck.streamingHostClock = host_clock;
        ck.streamingPolicyRefreshes = result.policyRefreshes;
        ck.streamingCollectSeconds = result.collectSeconds;
        const std::size_t committed = q_after.size();
        const std::size_t tail = std::min<std::size_t>(2, committed);
        for (std::size_t i = committed - tail; i < committed; ++i) {
            ck.streamingTrainEndTail.push_back(train_end[i]);
            ck.streamingQAfterTail.push_back(q_after[i].values());
        }
        ck.streamingPolicyActive = policy_active;
        ck.streamingPolicyEpsilon = _config.behaviourEpsilon;
        ck.streamingPolicySource = policy_source;
        return ck;
    };

    int g_begin = 0;   // first generation the loop below handles
    int g_resumed = -1; // generation restored mid-training, if any
    std::optional<Dataset> resumed_data;

    if (!restore_from) {
        session.beginStreaming(num_states, num_actions);
    } else {
        session.restoreStreaming(*restore_from);
        host_clock = restore_from->streamingHostClock;
        result.policyRefreshes = restore_from->streamingPolicyRefreshes;
        result.collectSeconds = restore_from->streamingCollectSeconds;

        // An episodesRemaining > 0 checkpoint paused mid-generation:
        // the last started generation re-runs its remaining rounds.
        // At 0 the generation's bookkeeping was committed before the
        // checkpoint, so the loop resumes at the next generation.
        const bool mid = restore_from->episodesRemaining > 0;
        const int committed = mid
                                  ? restore_from->generationsStarted - 1
                                  : restore_from->generationsStarted;
        SWIFTRL_ASSERT(committed >= 0, "corrupt generation count");

        // Rebuild q_after/train_end: zero placeholders for the old
        // generations (never read again — post-restore accesses reach
        // back at most two generations) and the checkpointed tail.
        const auto &tail_q = restore_from->streamingQAfterTail;
        const auto &tail_t = restore_from->streamingTrainEndTail;
        SWIFTRL_ASSERT(tail_q.size() == tail_t.size() &&
                           static_cast<int>(tail_q.size()) <= committed,
                       "checkpoint generation tail is inconsistent");
        const int placeholders =
            committed - static_cast<int>(tail_q.size());
        for (int i = 0; i < committed; ++i) {
            if (i < placeholders) {
                q_after.emplace_back(num_states, num_actions);
                train_end.push_back(0.0);
            } else {
                const std::size_t t =
                    static_cast<std::size_t>(i - placeholders);
                q_after.push_back(QTable::fromFloats(
                    num_states, num_actions, tail_q[t]));
                train_end.push_back(tail_t[t]);
            }
        }

        if (restore_from->streamingPolicyActive) {
            policy = rlcore::makeEpsilonGreedyPolicy(
                QTable::fromFloats(num_states, num_actions,
                                   restore_from->streamingPolicySource),
                restore_from->streamingPolicyEpsilon);
            policy_active = true;
            policy_source = restore_from->streamingPolicySource;
        }

        g_begin = committed;
        if (mid) {
            // Re-collect the in-flight generation's data — collection
            // is pure in (policy, seed, generation), so this is the
            // exact dataset the interrupted run scattered — and poke
            // it back into MRAM functionally (its scatter is part of
            // the checkpointed time base).
            g_resumed = g_begin;
            const auto blocks = rlcore::collectPolicyBlocks(
                make_env, policy, _config.transitionsPerGeneration,
                _config.blockTransitions,
                rlcore::deriveHostSeed(
                    _config.collectSeed,
                    static_cast<std::uint64_t>(g_resumed)),
                _config.actors);
            resumed_data.emplace(rlcore::concatBlocks(blocks));
            session.attachGeneration(*resumed_data);
        }
    }

    for (int g = g_begin; g < _config.generations; ++g) {
        const bool resumed_mid = g == g_resumed;
        Dataset fresh_data;
        const Dataset *gen_data = nullptr;
        double dur = 0.0;

        if (resumed_mid) {
            // Refresh, collection, scatter, and their spans all
            // happened before the checkpoint; only the remaining
            // training rounds are left.
            gen_data = &*resumed_data;
        } else {
            // --- behaviour-policy refresh (generation-indexed) ------
            if (_config.refreshPeriod > 0 && g >= 2 &&
                g % _config.refreshPeriod == 0) {
                // Newest aggregate available when g's collection
                // starts: generation g-1 is still on the PIM side
                // under the overlap, so the actors see the table
                // through g-2.
                policy = rlcore::makeEpsilonGreedyPolicy(
                    q_after[static_cast<std::size_t>(g) - 2],
                    _config.behaviourEpsilon);
                policy_active = true;
                policy_source =
                    q_after[static_cast<std::size_t>(g) - 2].values();
                const double cost =
                    reduce_per_entry * static_cast<double>(entries);
                const double start = std::max(
                    host_clock,
                    train_end[static_cast<std::size_t>(g) - 2]);
                const std::string label =
                    "refresh:gen" + std::to_string(g);
                session.stream().recordHostSpan(
                    Phase::HostCollect, TimeBucket::HostCollect,
                    start, cost, label);
                host_clock = start + cost;
                ++result.policyRefreshes;
            }

            // --- host-side collection (functional) ------------------
            const auto blocks = rlcore::collectPolicyBlocks(
                make_env, policy, _config.transitionsPerGeneration,
                _config.blockTransitions,
                rlcore::deriveHostSeed(_config.collectSeed,
                                       static_cast<std::uint64_t>(g)),
                _config.actors);
            fresh_data = rlcore::concatBlocks(blocks);
            gen_data = &fresh_data;

            // --- host-side collection (temporal) --------------------
            // Overlap mode: the slice starts as soon as the actors
            // are free — while generation g-1 still trains.
            // Sequential mode additionally gates on the previous
            // training finishing, which is the only difference
            // between the two modes.
            double collect_start = host_clock;
            if (!_config.overlap && g > 0)
                collect_start = std::max(
                    collect_start,
                    train_end[static_cast<std::size_t>(g) - 1]);
            dur = collectDuration(_config.transitionsPerGeneration);
            const std::string collect_label =
                "collect:gen" + std::to_string(g);
            session.stream().recordHostSpan(
                Phase::HostCollect, TimeBucket::HostCollect,
                collect_start, dur, collect_label);
            host_clock = collect_start + dur;
            result.collectSeconds += dur;

            // --- PIM-side arming of the fresh generation ------------
            // The scatter depends on the collection having finished;
            // the queue idles if the data is not ready yet. The
            // session partitions over the cores still alive — a
            // dropout in an earlier generation shrinks every later
            // generation's share map.
            session.stream().waitUntil(host_clock);
            session.loadGeneration(*gen_data);
        }

        // --- training rounds on this generation's data --------------
        bool paused = false;
        while (session.episodesRemaining() > 0) {
            if (pause_at_round >= 0 &&
                session.commRounds() >= pause_at_round) {
                paused = true;
                break;
            }
            session.step();
        }
        if (paused) {
            // Mid-generation checkpoint: episodesRemaining > 0 tells
            // the restore path to re-collect and re-attach this
            // generation's data.
            *out_ck = makeCheckpoint();
            return result;
        }

        // --- generation bookkeeping ---------------------------------
        train_end.push_back(session.stream().now());
        q_after.push_back(session.aggregated());
        const QTable &aggregated = q_after.back();
        const float gen_delta = QTable::maxAbsDifference(
            aggregated,
            g > 0 ? q_after[static_cast<std::size_t>(g) - 1]
                  : QTable(num_states, num_actions));
        SWIFTRL_DEBUG("generation ", g, ": max |dQ| ", gen_delta,
                      ", live cores ",
                      session.stream().liveDpuCount(), ", collect ",
                      dur, " s, modelled t ", session.stream().now(),
                      " s");
        if (_config.metrics) {
            auto &m = *_config.metrics;
            // Behaviour-policy reward rate of this generation's
            // collected data: mean reward per transition.
            const auto &rewards = gen_data->rewards();
            const double mean_reward =
                rewards.empty()
                    ? 0.0
                    : std::accumulate(rewards.begin(), rewards.end(),
                                      0.0) /
                          static_cast<double>(rewards.size());
            m.series("rl_generation_mean_reward").append(mean_reward);
            m.series("rl_generation_max_abs_dq")
                .append(static_cast<double>(gen_delta));
            m.series("rl_generation_collect_seconds").append(dur);
            session.stream().recordCounter(
                "max-abs-dq", static_cast<double>(gen_delta));
        }

        // A pause landing exactly on a generation boundary
        // checkpoints *after* the bookkeeping above, so that
        // episodesRemaining == 0 in a checkpoint always means the
        // generation was committed.
        if (out_ck && pause_at_round >= 0 &&
            session.commRounds() >= pause_at_round) {
            *out_ck = makeCheckpoint();
            return result;
        }
    }

    // A pause round past the end of the run checkpoints at the final
    // generation boundary (resume() then just finishes retrieval).
    if (out_ck) {
        *out_ck = makeCheckpoint();
        return result;
    }

    // Final retrieval, identical to the offline trainer's step 3+4.
    session.finishRetrieval();

    result.finalQ = session.aggregated();
    result.commRounds = session.commRounds();
    result.time = session.currentTime();
    result.timeline = session.stream().timeline();
    result.endToEnd = result.timeline.endTime();
    result.faultsDetected = session.faultsDetected();
    result.coresLost = session.coresLost();
    result.transitions =
        static_cast<std::size_t>(_config.generations) *
        _config.transitionsPerGeneration;
    if (_config.metrics) {
        auto &m = *_config.metrics;
        m.gauge("rl_epsilon")
            .set(static_cast<double>(session.epsilon()));
        m.counter("rl_policy_refreshes_total")
            .add(static_cast<std::uint64_t>(result.policyRefreshes));
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

StreamingResult
StreamingTrainer::train(const rlcore::EnvFactory &make_env,
                        StateId num_states, ActionId num_actions)
{
    return runImpl(make_env, num_states, num_actions, nullptr, -1,
                   nullptr);
}

SessionCheckpoint
StreamingTrainer::trainUntilRound(const rlcore::EnvFactory &make_env,
                                  StateId num_states,
                                  ActionId num_actions, int rounds)
{
    if (rounds < 0)
        SWIFTRL_FATAL("pause round must be >= 0, got ", rounds);
    SessionCheckpoint ck;
    runImpl(make_env, num_states, num_actions, nullptr, rounds, &ck);
    return ck;
}

StreamingResult
StreamingTrainer::resume(const rlcore::EnvFactory &make_env,
                         StateId num_states, ActionId num_actions,
                         const SessionCheckpoint &ck)
{
    return runImpl(make_env, num_states, num_actions, &ck, -1,
                   nullptr);
}

} // namespace swiftrl
