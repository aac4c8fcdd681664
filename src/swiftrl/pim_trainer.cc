#include "swiftrl/pim_trainer.hh"

#include <cstring>
#include <optional>

#include "common/logging.hh"
#include "rlcore/seeds.hh"
#include "swiftrl/partition.hh"
#include "swiftrl/pim_kernels.hh"
#include "telemetry/engine_collector.hh"

namespace swiftrl {

using pimsim::TimeBucket;
using rlcore::ActionId;
using rlcore::Dataset;
using rlcore::NumericFormat;
using rlcore::QTable;
using rlcore::StateId;

PimTrainer::PimTrainer(pimsim::PimSystem &system, PimTrainConfig config)
    : _system(system), _config(std::move(config)),
      _qio(_config.workload, _config.hyper)
{
    const std::string why = sessionConfigInvalidReason(_config);
    if (!why.empty())
        SWIFTRL_FATAL(why);
    if (_config.streaming)
        SWIFTRL_FATAL("streaming: PimTrainer drives offline sessions; "
                      "streaming runs use StreamingTrainer");
}

std::size_t
PimTrainer::dataOffset(std::size_t q_bytes) const
{
    // Transitions start at the next 8-byte boundary past the Q region.
    return (q_bytes + 7) / 8 * 8;
}

void
PimTrainer::distribute(pimsim::CommandStream &stream,
                       const std::vector<const Dataset *> &sources,
                       const std::vector<std::size_t> &firsts,
                       const std::vector<std::size_t> &counts,
                       TimeBucket bucket, std::string_view label)
{
    const std::size_t n = _system.numDpus();
    SWIFTRL_ASSERT(sources.size() == n && firsts.size() == n &&
                       counts.size() == n,
                   "per-core distribution tables must cover all cores");

    std::vector<std::vector<std::uint8_t>> packed(n);
    std::vector<std::span<const std::uint8_t>> spans(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Dataset &src = *sources[i];
        packed[i] =
            _config.workload.format == NumericFormat::Fp32
                ? src.packFp32(firsts[i], counts[i])
                : src.packInt32(firsts[i], counts[i],
                                _qio.fixedScale());
        spans[i] = packed[i];
    }

    stream.pushChunks(_dataOffsetCache, spans, bucket, label);
}

PimTrainResult
PimTrainer::runImpl(const Dataset &data, StateId num_states,
                    ActionId num_actions,
                    const SessionCheckpoint *restore_from,
                    int pause_at_round, SessionCheckpoint *out_ck)
{
    PimTrainResult result;
    result.coresUsed = _system.numDpus();

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
        return result;
    }

    // Steps 3+4: final retrieval (Figure 4 (3)), then the result is
    // assembled from the session's whole-run accounting.
    session.finishRetrieval();
    result.finalQ = session.aggregated();
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
    const std::size_t n = _system.numDpus();
    if (agent_data.size() != n) {
        SWIFTRL_FATAL("multi-agent mode pins one agent per core: got ",
                      agent_data.size(), " agents for ", n, " cores");
    }
    if (_config.workload.algo != rlcore::Algorithm::QLearning) {
        SWIFTRL_FATAL("SwiftRL's multi-agent mode uses independent "
                      "Q-learners");
    }
    if (_config.shards > 0) {
        SWIFTRL_FATAL("multi-agent mode trains one whole table per "
                      "agent; sharding does not apply");
    }

    const std::size_t entries = static_cast<std::size_t>(num_states) *
                                static_cast<std::size_t>(num_actions);
    _dataOffsetCache =
        dataOffset(entries * rlcore::kQWireBytesPerEntry);

    PimTrainResult result;
    result.coresUsed = n;

    pimsim::CommandStream stream(_system);

    std::optional<telemetry::EngineCollector> collector;
    if (_config.metrics) {
        collector.emplace(*_config.metrics, _system);
        stream.setObserver(&*collector);
    }

    std::vector<const Dataset *> sources(n);
    std::vector<std::size_t> firsts(n, 0), counts(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (agent_data[i].empty())
            SWIFTRL_FATAL("agent ", i, " has an empty dataset");
        sources[i] = &agent_data[i];
        counts[i] = agent_data[i].size();
    }
    distribute(stream, sources, firsts, counts);
    _qio.initQTables(stream, num_states, num_actions);

    const std::size_t streams = n * _config.tasklets;
    std::vector<std::uint32_t> lcg_states(streams);
    for (std::size_t i = 0; i < streams; ++i)
        lcg_states[i] = rlcore::deriveLcgSeed(_config.hyper.seed, i);

    KernelParams params;
    params.workload = _config.workload;
    params.hyper = _config.hyper;
    params.numStates = num_states;
    params.numActions = num_actions;
    params.qOffset = _qio.qOffset();
    params.dataOffset = _dataOffsetCache;
    params.chunkCounts = &counts;
    params.lcgStates = &lcg_states;
    params.blockTransitions = _config.blockTransitions;
    params.tasklets = _config.tasklets;

    // Independent learners: all episodes in one launch, no
    // synchronisation rounds (the aggregation step "would be
    // unnecessary in this setting", Sec. 3.2.1).
    params.episodes = _config.hyper.episodes;
    const pimsim::BatchKernelFn kernel =
        [&params](pimsim::BatchKernelContext &batch) {
            runTrainingKernelBatch(batch, params);
        };
    runWithRecovery(
        stream, _config.retry, "kernel:episodes",
        [&] {
            return stream.launchBatch(kernel, _config.tasklets,
                                      TimeBucket::Kernel,
                                      "kernel:episodes");
        },
        [](const pimsim::CommandError &error) {
            // Independent learners are pinned to their cores: there
            // is no dataset to redistribute, so a lost core means a
            // lost agent.
            SWIFTRL_FATAL("core ", error.dpus.front(),
                          " dropped out in multi-agent mode; "
                          "independent learners cannot be "
                          "redistributed");
        });

    std::vector<std::span<const std::uint8_t>> views;
    _qio.gatherWires(stream, entries, TimeBucket::PimToCpu, "gather:q",
                     _config.retry, views);
    // Each agent deploys its own table, decoded from its bank view.
    result.perCore.reserve(views.size());
    for (const auto &wire : views)
        result.perCore.push_back(
            _qio.decodeTable(wire, num_states, num_actions));
    // finalQ kept as the average for convenience (diagnostics only;
    // each agent deploys its own table).
    result.finalQ = QTable::average(result.perCore);
    result.time = breakdownFromTimeline(stream.timeline());
    result.timeline = stream.timeline();
    result.faultsDetected = countFaultEvents(result.timeline);
    if (_config.metrics) {
        auto &m = *_config.metrics;
        m.gauge("rl_epsilon").set(_config.hyper.epsilon);
        m.counter("rl_faults_detected_total")
            .add(static_cast<std::uint64_t>(result.faultsDetected));
        m.gauge("rl_live_cores")
            .set(static_cast<double>(stream.liveDpuCount()));
        m.counter("rl_cores_lost_total")
            .add(static_cast<std::uint64_t>(result.coresLost));
        m.gauge("rl_recovery_seconds").set(result.time.recovery);
    }
    return result;
}

} // namespace swiftrl
