#include "swiftrl/session.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>

#include "common/logging.hh"
#include "rlcore/seeds.hh"
#include "rlcore/serialization.hh"
#include "swiftrl/partition.hh"
#include "telemetry/engine_collector.hh"
#include "telemetry/metric_registry.hh"

namespace swiftrl {

using pimsim::TimeBucket;
using rlcore::ActionId;
using rlcore::Dataset;
using rlcore::NumericFormat;
using rlcore::PackedTransition;
using rlcore::QTable;
using rlcore::StateId;

namespace {

/** True while @p view lies inside @p bank (a Dpu::mram() buffer). */
bool
viewInside(std::span<const std::uint8_t> view,
           std::span<const std::uint8_t> bank)
{
    const auto v = reinterpret_cast<std::uintptr_t>(view.data());
    const auto b = reinterpret_cast<std::uintptr_t>(bank.data());
    return v >= b && v + view.size() <= b + bank.size();
}

/**
 * Fatal unless every record of @p data indexes the session's
 * @p num_states x @p num_actions table: the kernel lanes index their
 * Q regions by the records' ids (and sharded routing by the state
 * ids), so one outside the table would train on bytes past it.
 */
void
requireFit(const Dataset &data, StateId num_states, ActionId num_actions)
{
    const std::string misfit =
        rlcore::datasetMisfit(data, num_states, num_actions);
    if (!misfit.empty())
        SWIFTRL_FATAL("dataset does not fit the environment: ", misfit);
}

} // namespace

std::string
sessionConfigInvalidReason(const SessionConfig &config)
{
    using common::detail::concat;
    // alpha, gamma and epsilon are quantised to int32 on the PIM
    // side (rlcore::ScaledHyper), so an out-of-range value is not
    // merely a bad experiment: the conversion would overflow.
    const auto unit = [](float v) {
        return std::isfinite(v) && v >= 0.0f && v <= 1.0f;
    };
    const rlcore::Hyper &h = config.hyper;
    if (!unit(h.alpha))
        return concat("hyper.alpha (learning rate) must be finite and "
                      "in [0, 1], got ", h.alpha);
    if (!unit(h.gamma))
        return concat("hyper.gamma (discount) must be finite and in "
                      "[0, 1], got ", h.gamma);
    if (!unit(h.epsilon))
        return concat("hyper.epsilon (exploration) must be finite and "
                      "in [0, 1], got ", h.epsilon);
    if (h.episodes <= 0)
        return concat("hyper.episodes: episode count must be "
                      "positive, got ", h.episodes);
    if (h.stride <= 0)
        return concat("hyper.stride must be >= 1, got ", h.stride);
    if (config.tau <= 0)
        return concat("tau: synchronisation period tau must be "
                      "positive, got ", config.tau);
    if (config.blockTransitions == 0)
        return "blockTransitions: staging block must hold at least "
               "one transition";
    if (config.tasklets < 1 || config.tasklets > 24)
        return concat("tasklets: UPMEM DPUs support 1-24 tasklets, "
                      "got ", config.tasklets);
    if (!(config.epsilonDecay > 0.0f) || config.epsilonDecay > 1.0f)
        return concat("epsilonDecay must be in (0, 1], got ",
                      config.epsilonDecay);
    if (config.streaming && config.weightedAggregation)
        return "weightedAggregation is not available in streaming "
               "mode";
    if (config.shards > 0 && config.streaming)
        return "shards: sharded Q-tables are offline-only; streaming "
               "generations replicate the whole table";
    if (config.shards > 0 && config.weightedAggregation)
        return "shards: sharded Q-tables do not support visit-weighted "
               "aggregation";
    return retryPolicyInvalidReason(config.retry);
}

TrainerSession::TrainerSession(pimsim::PimSystem &system,
                               SessionConfig config)
    : _system(system), _config(std::move(config)),
      _qio(_config.workload, _config.hyper), _aggregated(1, 1)
{
    const std::string why = sessionConfigInvalidReason(_config);
    if (!why.empty())
        SWIFTRL_FATAL(why);
}

TrainerSession::~TrainerSession()
{
    // A session torn down mid-run (the fleet preemption path destroys
    // Paused sessions after checkpointing them) still closes its
    // lifecycle span, with an outcome that says why it ended.
    if (_traceSpan.active()) {
        _traceSpan.finish(_stream ? _stream->now() : 0.0,
                          _state == SessionState::Paused ? "preempted"
                                                         : "abandoned");
    }
}

void
TrainerSession::openRunSpan(const char *how)
{
    _traceSpan = telemetry::tracer().begin(
        "session.run", "session", "modelled", _stream->now(),
        _config.traceParent ? _config.traceParent
                            : telemetry::currentSpanParent());
    _traceSpan.attr("how", how)
        .attr("cores", _system.numDpus())
        .attr("streaming", _config.streaming ? "yes" : "no");
    if (_config.shards > 0)
        _traceSpan.attr("shards", _config.shards);
    _traceFaultsSeen = 0;
}

pimsim::CommandStream &
TrainerSession::stream()
{
    SWIFTRL_ASSERT(_stream, "session has no stream before begin()");
    return *_stream;
}

void
TrainerSession::start(StateId num_states, ActionId num_actions)
{
    SWIFTRL_ASSERT(_state == SessionState::Init,
                   "a session begins (or restores) exactly once");
    _numStates = num_states;
    _numActions = num_actions;
    _entries = static_cast<std::size_t>(num_states) *
               static_cast<std::size_t>(num_actions);
    const std::size_t q_bytes = _entries * rlcore::kQWireBytesPerEntry;
    // Transitions start at the next 8-byte boundary past the Q region
    // (and, under weighted aggregation, past the visit-count region).
    _visitsOffset = (q_bytes + 7) / 8 * 8;
    _dataOffset = _config.weightedAggregation
                      ? (_visitsOffset + q_bytes + 7) / 8 * 8
                      : _visitsOffset;

    _stream = std::make_unique<pimsim::CommandStream>(_system);
    if (_config.metrics) {
        _collector = std::make_unique<telemetry::EngineCollector>(
            *_config.metrics, _system);
        _stream->setObserver(_collector.get());
    }

    const std::size_t n = _system.numDpus();
    _firsts.assign(n, 0);
    _counts.assign(n, 0);

    // Persistent LCG streams, one per (core, tasklet), carried across
    // rounds (and generations) exactly as a real deployment keeps the
    // DPU binaries resident.
    const std::size_t streams = n * _config.tasklets;
    _lcgStates.resize(streams);
    for (std::size_t i = 0; i < streams; ++i)
        _lcgStates[i] = rlcore::deriveLcgSeed(_config.hyper.seed, i);

    _aggregated = QTable(num_states, num_actions);
    _epsilonNow = _config.hyper.epsilon;
    buildKernel();
}

void
TrainerSession::buildKernel()
{
    _params.workload = _config.workload;
    _params.hyper = _config.hyper;
    _params.numStates = _numStates;
    _params.numActions = _numActions;
    _params.qOffset = _qio.qOffset();
    _params.dataOffset = _dataOffset;
    _params.chunkCounts = &_counts;
    _params.lcgStates = &_lcgStates;
    _params.blockTransitions = _config.blockTransitions;
    _params.tasklets = _config.tasklets;
    _params.trackVisits = _config.weightedAggregation;
    _params.visitsOffset = _visitsOffset;
    _params.sliceRows = shardedMode() ? _sliceRows : 0;
    _params.haloOffset = _haloOffset;
    _params.haloRows = &_haloRows;
    // One kernel wrapper for every round and retry: the
    // BatchKernel (a std::function) allocates, so it is built once
    // and reused rather than reconstructed per launch. It reads the
    // episode count through _params at call time.
    _kernel = [this](pimsim::BatchKernelContext &batch) {
        runTrainingKernelBatch(batch, _params);
    };
}

void
TrainerSession::repartition(const Dataset &data)
{
    const std::size_t n = _system.numDpus();
    const std::size_t live = _stream->liveDpuCount();
    if (live == 0)
        SWIFTRL_FATAL("all ", n, " cores lost to permanent dropouts; "
                      "nothing left to redistribute to");
    const auto live_chunks = partitionDataset(data.size(), live);
    std::size_t next = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (_stream->isDead(i)) {
            _firsts[i] = 0;
            _counts[i] = 0;
            continue;
        }
        _firsts[i] = live_chunks[next].first;
        _counts[i] = live_chunks[next].count;
        ++next;
    }
}

void
TrainerSession::scatterChunks(std::size_t offset,
                              const pimsim::CommandStream::ChunkBytes &bytes,
                              const pimsim::CommandStream::ChunkFill &fill,
                              TimeBucket bucket, std::string_view label,
                              bool poke)
{
    if (poke)
        _stream->poke(offset, bytes, fill);
    else
        _stream->scatter(offset, bytes, fill, bucket, label);
}

void
TrainerSession::scatterActive(TimeBucket bucket, std::string_view label,
                              bool poke, std::span<const Dataset> agents)
{
    const auto source = [&](std::size_t i) -> const Dataset & {
        return agents.empty() ? *_activeData : agents[i];
    };
    // Each core's chunk is packed by its scatter lane straight into
    // its bank (CommandStream::scatter). The lane also checks the ids
    // it just packed, while they are cache-hot (a separate pass over
    // the three id columns cost about 2.5 ms of lake-kernel's 33 ms
    // set-up on a 4-vCPU host). A misfit is fatal before any launch
    // reads it.
    std::vector<std::uint8_t> misfit(_system.numDpus(), 0);
    scatterChunks(
        _dataOffset,
        [this](std::size_t i) {
            return _counts[i] * sizeof(PackedTransition);
        },
        [&](std::size_t i, std::span<std::uint8_t> out) {
            const Dataset &data = source(i);
            _qio.packTransitions(data, _firsts[i], _counts[i], out);
            misfit[i] = !rlcore::datasetMisfit(data, _numStates,
                                               _numActions, _firsts[i],
                                               _counts[i])
                             .empty();
        },
        bucket, label, poke);
    const auto bad = std::ranges::find(misfit, 1);
    if (bad != misfit.end())
        requireFit(source(static_cast<std::size_t>(bad - misfit.begin())),
                   _numStates, _numActions);
}

void
TrainerSession::redistribute()
{
    // Permanent dropout recovery: re-partition the active dataset
    // over the survivors (dead cores get empty chunks) and restart
    // the interrupted round from the last aggregate. The re-broadcast
    // is functionally idempotent — every survivor already holds the
    // aggregate, because the faulted launch committed nothing — but
    // the real host cannot know that, so both transfers are paid for
    // on the Recovery track.
    if (shardedMode()) {
        repartitionSharded();
        scatterSharded(TimeBucket::Recovery, "scatter:redistribute",
                       /*poke=*/false);
        pushShardSlices(TimeBucket::Recovery, "broadcast:recover",
                        /*poke=*/false);
        pushShardHalos(TimeBucket::Recovery, "scatter:halo-recover",
                       /*poke=*/false);
        return;
    }
    repartition(*_activeData);
    scatterActive(TimeBucket::Recovery, "scatter:redistribute",
                  /*poke=*/false);
    _qio.broadcastQTable(*_stream, _aggregated, TimeBucket::Recovery,
                         "broadcast:recover");
}

void
TrainerSession::setupShardLayout()
{
    SWIFTRL_ASSERT(_activeData, "shard layout needs an armed dataset");
    // Routing reads every state id, so the records are checked first.
    requireFit(*_activeData, _numStates, _numActions);
    const std::string reason = shardPlanInvalidReason(
        _numStates, _config.shards, _system.numDpus());
    if (!reason.empty())
        SWIFTRL_FATAL("cannot shard this run: ", reason);
    _plan = std::make_unique<ShardPlan>(
        makeShardPlan(_numStates, _config.shards, _system.numDpus()));
    _sliceRows = static_cast<std::size_t>(_plan->map.rowsPerShard());
    _sliceEntries =
        _sliceRows * static_cast<std::size_t>(_numActions);

    // Sharded MRAM layout: slice | halo | data (shardedMramLayout).
    // The halo follows the slice directly, so a kernel lane trains on
    // [slice | halo] in place; it and the data region are reserved at
    // their worst case with global offsets — after dropouts a lone
    // surviving replica can inherit its shard's entire routing share,
    // and fixed offsets keep redistribution from relayouting the bank.
    const ShardedMramLayout layout = shardedMramLayout(
        _numStates, _numActions, _config.shards, _activeData->size());
    _haloOffset = layout.haloOffset;
    _dataOffset = layout.dataOffset;
    if (layout.end > _system.config().mramBytesPerDpu)
        SWIFTRL_FATAL("sharded layout needs ", layout.end,
                      " bytes of MRAM per core but banks hold ",
                      _system.config().mramBytesPerDpu,
                      "; raise the shard count or shrink the dataset");

    _routing = routeByOwner(*_activeData, _plan->map);
    _haloStates.assign(_system.numDpus(), {});
    _haloRows.assign(_system.numDpus(), 0);
    repartitionSharded();
    buildKernel();
}

void
TrainerSession::repartitionSharded()
{
    const std::size_t shards = _plan->map.numShards();
    for (std::size_t s = 0; s < shards; ++s) {
        std::size_t live = 0;
        for (const std::size_t core : _plan->coresOfShard[s])
            if (!_stream->isDead(core))
                ++live;
        // Unlike unsharded dropout (any survivor holds the whole
        // table), losing a whole replica group means shard s's state
        // rows would silently stop training — fail loudly instead.
        if (live == 0)
            SWIFTRL_FATAL("shard ", s, " lost all ",
                          _plan->coresOfShard[s].size(),
                          " replica cores; its state range cannot "
                          "train on");
        const auto chunks =
            partitionDataset(_routing.shardCount[s], live);
        std::size_t next = 0;
        for (const std::size_t core : _plan->coresOfShard[s]) {
            if (_stream->isDead(core)) {
                _firsts[core] = 0;
                _counts[core] = 0;
                continue;
            }
            // _firsts indexes the routing order, not the dataset.
            _firsts[core] =
                _routing.shardFirst[s] + chunks[next].first;
            _counts[core] = chunks[next].count;
            ++next;
        }
    }
    for (std::size_t i = 0; i < _system.numDpus(); ++i) {
        _haloStates[i] =
            collectHalo(*_activeData, _routing, _plan->map,
                        _plan->shardOfCore[i], _firsts[i], _counts[i]);
        _haloRows[i] = _haloStates[i].size();
        SWIFTRL_ASSERT(_haloOffset + _haloRows[i] *
                                   static_cast<std::size_t>(_numActions) *
                                   rlcore::kQWireBytesPerEntry <=
                           _dataOffset,
                       "core ", i, ": halo overruns its reserved region");
    }
}

void
TrainerSession::scatterSharded(TimeBucket bucket,
                               std::string_view label, bool poke)
{
    const bool fp32 = _config.workload.format == NumericFormat::Fp32;
    const std::int32_t scale = _qio.fixedScale();
    scatterChunks(
        _dataOffset,
        [this](std::size_t i) {
            return _counts[i] * sizeof(PackedTransition);
        },
        [&](std::size_t i, std::span<std::uint8_t> out) {
            packLocalizedChunk(*_activeData, _routing, _plan->map,
                               _plan->shardOfCore[i], _firsts[i],
                               _counts[i], _haloStates[i], fp32, scale,
                               out);
        },
        bucket, label, poke);
}

void
TrainerSession::pushShardSlices(TimeBucket bucket,
                                std::string_view label, bool poke)
{
    // One wire per shard; each replica's lane copies its shard's.
    const std::size_t shards = _plan->map.numShards();
    std::vector<std::vector<std::uint8_t>> wires(shards);
    for (std::size_t s = 0; s < shards; ++s)
        wires[s] = packSliceWire(_qio, _aggregated, _plan->map, s);
    scatterChunks(
        _qio.qOffset(),
        [&](std::size_t i) { return wires[_plan->shardOfCore[i]].size(); },
        [&](std::size_t i, std::span<std::uint8_t> out) {
            std::ranges::copy(wires[_plan->shardOfCore[i]], out.begin());
        },
        bucket, label, poke);
    if (poke)
        return;
    // Requantisation back to raw fixed point happens on-core after
    // the slice lands (zero for FP32), as in the unsharded broadcast.
    const double convert =
        _qio.conversionSeconds(*_stream, _sliceEntries,
                               /*to_float=*/false);
    if (convert > 0.0)
        _stream->onCoreCompute(convert, bucket, "convert:requantise");
}

void
TrainerSession::pushShardHalos(TimeBucket bucket,
                               std::string_view label, bool poke)
{
    std::size_t halo_entries = 0;
    for (const auto &halo : _haloStates)
        halo_entries +=
            halo.size() * static_cast<std::size_t>(_numActions);
    if (halo_entries == 0)
        return; // single shard, or no cross-shard transitions
    if (!poke) {
        // Host-side halo assembly: row lookups into the aggregate
        // plus the staging copies (and, for INT32, the halo
        // requantisation).
        _stream->hostReduce(
            _system.config().transferModel.haloPackSeconds(halo_entries),
            "pack:halo");
    }
    scatterChunks(
        _haloOffset,
        [this](std::size_t i) {
            return _haloStates[i].size() *
                   static_cast<std::size_t>(_numActions) *
                   rlcore::kQWireBytesPerEntry;
        },
        [this](std::size_t i, std::span<std::uint8_t> out) {
            packHaloWire(_qio, _aggregated, _haloStates[i], out);
        },
        bucket, label, poke);
}

std::size_t
TrainerSession::shardedAggregate()
{
    // Descale + gather of each core's slice, as in the unsharded
    // gather but over slice entries only.
    std::vector<std::span<const std::uint8_t>> slices;
    _qio.gatherWires(*_stream, _sliceEntries, TimeBucket::InterCore,
                     "gather:slices", _config.retry, slices);

    const std::span<const std::span<const std::uint8_t>> views(slices);
    const std::size_t row_entries =
        static_cast<std::size_t>(_numActions);
    std::vector<float> mean(_sliceEntries);
    std::size_t deepest = 0;
    for (std::size_t s = 0; s < _plan->map.numShards(); ++s) {
        // A shard's replica group is a contiguous core range; the
        // fused mean over its slice views has QTable::average's exact
        // op order, so a one-shard run aggregates bit-identically to
        // the unsharded path.
        const auto &group = _plan->coresOfShard[s];
        const std::size_t live = _qio.meanOfWires(
            *_stream, views.subspan(group.front(), group.size()), mean);
        deepest = std::max(deepest, live);
        // Only the real (un-padded) rows flow back to the aggregate.
        const StateId base = _plan->map.firstState(s);
        const StateId owned = _plan->map.ownedRows(s);
        std::copy_n(mean.begin(),
                    static_cast<std::size_t>(owned) * row_entries,
                    _aggregated.values().begin() +
                        static_cast<std::size_t>(base) * row_entries);
    }
    return deepest;
}

void
TrainerSession::beginOffline(const Dataset &data, StateId num_states,
                             ActionId num_actions)
{
    SWIFTRL_ASSERT(!data.empty(), "training on an empty dataset");
    SWIFTRL_ASSERT(!_config.streaming,
                   "beginOffline on a streaming session");
    start(num_states, num_actions);
    openRunSpan("begin");
    // Init-phase engine commands (scatter, q-init) parent on the run
    // span so a traced fleet job owns its whole causal subtree.
    telemetry::ScopedSpanParent ambient(_traceSpan.id());

    // Step 1: partition and distribute the dataset (Figure 4 (1)).
    _activeData = &data;
    if (_config.shards > 0) {
        setupShardLayout();
        scatterSharded(TimeBucket::CpuToPim, "scatter:dataset",
                       /*poke=*/false);
        // Zero-init the slice region (both formats share a 4-byte
        // zero encoding) and place the initial all-zero halo rows.
        const std::vector<std::uint8_t> zeros(
            _sliceEntries * rlcore::kQWireBytesPerEntry, 0);
        _stream->pushBroadcast(_qio.qOffset(), zeros,
                               TimeBucket::CpuToPim, "broadcast:qinit");
        pushShardHalos(TimeBucket::CpuToPim, "scatter:halo",
                       /*poke=*/false);
    } else {
        repartition(data);
        scatterActive(TimeBucket::CpuToPim, "scatter:dataset",
                      /*poke=*/false);
        _qio.initQTables(*_stream, num_states, num_actions);
    }

    _episodesRemaining = _config.hyper.episodes;
    _state = SessionState::Ready;
}

void
TrainerSession::beginAgents(std::span<const Dataset> agents,
                            StateId num_states, ActionId num_actions)
{
    SWIFTRL_ASSERT(!_config.streaming,
                   "beginAgents on a streaming session");
    const std::size_t n = _system.numDpus();
    if (agents.size() != n) {
        SWIFTRL_FATAL("multi-agent mode pins one agent per core: got ",
                      agents.size(), " agents for ", n, " cores");
    }
    if (_config.workload.algo != rlcore::Algorithm::QLearning) {
        SWIFTRL_FATAL("SwiftRL's multi-agent mode uses independent "
                      "Q-learners");
    }
    if (_config.shards > 0) {
        SWIFTRL_FATAL("multi-agent mode trains one whole table per "
                      "agent; sharding does not apply");
    }
    if (_config.weightedAggregation) {
        SWIFTRL_FATAL("weightedAggregation: multi-agent mode never "
                      "averages its agents' tables, so there are no "
                      "visits to weight");
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (agents[i].empty())
            SWIFTRL_FATAL("agent ", i, " has an empty dataset");
    }
    start(num_states, num_actions);
    openRunSpan("begin");
    telemetry::ScopedSpanParent ambient(_traceSpan.id());

    // Each agent's whole dataset goes to its own core. No _activeData:
    // a lost core is fatal in this mode, so nothing re-packs these
    // records, and step() refuses to run without a dataset.
    for (std::size_t i = 0; i < n; ++i)
        _counts[i] = agents[i].size();
    scatterActive(TimeBucket::CpuToPim, "scatter:dataset",
                  /*poke=*/false, agents);
    _qio.initQTables(*_stream, num_states, num_actions);

    _episodesRemaining = _config.hyper.episodes;
    _state = SessionState::Ready;
}

std::vector<QTable>
TrainerSession::trainAgents()
{
    SWIFTRL_ASSERT(_state == SessionState::Ready && !_config.streaming &&
                       !_activeData && _episodesRemaining > 0,
                   "trainAgents() needs a session begun with "
                   "beginAgents()");
    telemetry::ScopedSpanParent ambient(_traceSpan.id());
    // Independent learners: all episodes in one launch, no
    // synchronisation rounds (the aggregation step "would be
    // unnecessary in this setting", Sec. 3.2.1).
    _params.episodes = std::exchange(_episodesRemaining, 0);
    runWithRecovery(
        *_stream, _config.retry, "kernel:episodes",
        [&] {
            return _stream->launchBatch(_kernel, _config.tasklets,
                                        TimeBucket::Kernel,
                                        "kernel:episodes");
        },
        [](const pimsim::CommandError &error) {
            // Each learner is pinned to its core: there is no shared
            // dataset to redistribute, so a lost core is a lost agent.
            SWIFTRL_FATAL("core ", error.dpus.front(),
                          " dropped out in multi-agent mode; "
                          "independent learners cannot be "
                          "redistributed");
        });

    std::vector<std::span<const std::uint8_t>> views;
    _qio.gatherWires(*_stream, _entries, TimeBucket::PimToCpu, "gather:q",
                     _config.retry, views);
    std::vector<QTable> tables;
    tables.reserve(views.size());
    for (const auto &wire : views)
        tables.push_back(_qio.decodeTable(wire, _numStates, _numActions));
    closeRunSpan();
    _state = SessionState::Done;
    return tables;
}

void
TrainerSession::beginStreaming(StateId num_states,
                               ActionId num_actions)
{
    SWIFTRL_ASSERT(_config.streaming,
                   "beginStreaming on an offline session");
    start(num_states, num_actions);
    openRunSpan("begin");
    telemetry::ScopedSpanParent ambient(_traceSpan.id());
    _qio.initQTables(*_stream, num_states, num_actions);
    _state = SessionState::Ready;
}

void
TrainerSession::loadGeneration(const Dataset &gen_data)
{
    SWIFTRL_ASSERT(_config.streaming && _state == SessionState::Ready,
                   "loadGeneration needs a Ready streaming session");
    SWIFTRL_ASSERT(_episodesRemaining == 0,
                   "previous generation still has rounds pending");
    _activeData = &gen_data;
    telemetry::ScopedSpanParent ambient(_traceSpan.id());
    repartition(gen_data);
    const std::string label =
        "scatter:gen" + std::to_string(_generation);
    scatterActive(TimeBucket::CpuToPim, label, /*poke=*/false);
    ++_generation;
    _episodesRemaining = _config.hyper.episodes;
}

void
TrainerSession::attachGeneration(const Dataset &gen_data)
{
    SWIFTRL_ASSERT(_config.streaming && _state == SessionState::Ready,
                   "attachGeneration needs a Ready streaming session");
    SWIFTRL_ASSERT(_episodesRemaining > 0,
                   "attachGeneration is for mid-generation restores");
    _activeData = &gen_data;
    repartition(gen_data);
    scatterActive(TimeBucket::CpuToPim, "", /*poke=*/true);
}

bool
TrainerSession::step()
{
    SWIFTRL_ASSERT(_state == SessionState::Ready,
                   "step() needs a Ready session (paused or spent?)");
    if (_episodesRemaining <= 0)
        return false;
    SWIFTRL_ASSERT(_activeData,
                   "no dataset armed (loadGeneration missing?)");

    _params.episodes = std::min(_config.tau, _episodesRemaining);
    _episodesRemaining -= _params.episodes;
    _params.hyper.epsilon = _epsilonNow;

    // One causal span per tau-round, parent of every engine command
    // the round issues. The "retried" outcome (faults recovered
    // inside the round) needs an O(timeline) fault count, so it is
    // only computed while span export is on; the always-on flight
    // breadcrumb keeps outcome "ok".
    const bool traceOutcome = telemetry::tracingActive();
    if (traceOutcome)
        _traceFaultsSeen = faultsDetected();
    telemetry::Span round = telemetry::tracer().begin(
        "session.round", "session", "modelled", _stream->now(),
        _traceSpan.active() ? _traceSpan.id()
                            : telemetry::currentSpanParent());
    round.attr("round", _commRounds + 1)
        .attr("generation", _generation)
        .attr("episodes", _params.episodes);
    telemetry::ScopedSpanParent ambient(round.id());

    runWithRecovery(
        *_stream, _config.retry, "kernel:round",
        [&] {
            return _stream->launchBatch(_kernel, _config.tasklets,
                                        TimeBucket::Kernel,
                                        "kernel:round");
        },
        [&](const pimsim::CommandError &) { redistribute(); });

    const QTable previous = _aggregated;
    std::size_t deepest_group = 0;
    if (shardedMode()) {
        deepest_group = shardedAggregate();
    } else {
        std::vector<std::span<const std::uint8_t>> q_views;
        _qio.gatherWires(*_stream, _entries, TimeBucket::InterCore,
                         "gather:q", _config.retry, q_views);
        if (_config.weightedAggregation) {
            // Extra gather of the per-core visit counts, then a
            // count-weighted mean with fallback to the previous
            // aggregate for entries no core visited this round.
            std::vector<std::span<const std::uint8_t>> visit_views;
            runWithRecovery(
                *_stream, _config.retry, "gather:visits",
                [&] {
                    return _stream->gather(
                        _visitsOffset,
                        _entries * rlcore::kQWireBytesPerEntry,
                        visit_views, TimeBucket::InterCore,
                        "gather:visits");
                },
                [](const pimsim::CommandError &) {
                    SWIFTRL_PANIC("gathers cannot drop cores");
                });
            // A live core whose chunk was empty never ran the kernel,
            // so its visit region was never written and the visits
            // gather just grew (and may have moved) that bank under
            // its Q view: re-take the Q views, uncharged.
            for (std::size_t core = 0; core < q_views.size(); ++core) {
                if (!q_views[core].empty())
                    q_views[core] = _system.dpu(core).mram().subspan(
                        _qio.qOffset(), q_views[core].size());
            }
            weightedAverage(q_views, visit_views, previous);
        } else {
            // Plain mean over the *surviving* cores only: a dropped
            // core's view is empty, so it cannot dilute the mean.
            _qio.meanOfWires(*_stream, q_views, _aggregated.values());
        }
    }
    const float delta = QTable::maxAbsDifference(_aggregated, previous);
    if (!_config.streaming)
        _roundDeltas.push_back(delta);
    if (shardedMode()) {
        // Host-side cost of the hierarchical aggregation: each shard
        // group reduces independently, so the bill is the deepest
        // group's ceil(log2(replicas)) passes over one slice — not
        // the flat reduction's pass per core over the whole table.
        _stream->hostReduce(
            _system.config().transferModel.aggregationTreeSeconds(
                _sliceEntries, deepest_group),
            "reduce:tree");
        pushShardSlices(TimeBucket::InterCore, "broadcast:slices",
                        /*poke=*/false);
        pushShardHalos(TimeBucket::InterCore, "scatter:halo",
                       /*poke=*/false);
    } else {
        // Host-side reduction cost of the averaging itself.
        _stream->hostReduce(
            _system.config().transferModel.hostReduceSecPerEntry *
                static_cast<double>(_entries) *
                static_cast<double>(_stream->liveDpuCount()),
            "reduce:average");
        _qio.broadcastQTable(*_stream, _aggregated,
                             TimeBucket::InterCore);
    }
    ++_commRounds;
    _epsilonNow *= _config.epsilonDecay;
    if (shardedMode())
        round.attr("reduce_group", deepest_group);
    round.finish(_stream->now(),
                 traceOutcome && faultsDetected() > _traceFaultsSeen
                     ? "retried"
                     : "ok");
    if (!_config.streaming) {
        SWIFTRL_DEBUG("round ", _commRounds, ": max |dQ| ", delta,
                      ", live cores ", _stream->liveDpuCount(),
                      ", modelled t ", _stream->now(), " s");
    }
    if (_config.metrics) {
        _config.metrics->counter("rl_comm_rounds_total").add();
        if (!_config.streaming) {
            _config.metrics->series("rl_round_max_abs_dq")
                .append(delta);
            _stream->recordCounter("max-abs-dq",
                                   static_cast<double>(delta));
        }
    }
    return true;
}

void
TrainerSession::pause()
{
    SWIFTRL_ASSERT(_state == SessionState::Ready,
                   "pause() needs a Ready session");
    _state = SessionState::Paused;
}

void
TrainerSession::resume()
{
    SWIFTRL_ASSERT(_state == SessionState::Paused,
                   "resume() needs a Paused session");
    _state = SessionState::Ready;
}

void
TrainerSession::finishRetrieval()
{
    SWIFTRL_ASSERT(_state == SessionState::Ready,
                   "finishRetrieval() needs a Ready session");
    const double finish_start = _stream->now();
    telemetry::ScopedSpanParent ambient(_traceSpan.id());
    // Final retrieval (Figure 4 (3)): after the last synchronisation
    // every core holds the aggregated table, so the deployed policy
    // is that aggregate; the gather is still paid for — timing-only,
    // as the host provably holds the payload already.
    const std::size_t gather_entries =
        shardedMode() ? _sliceEntries : _entries;
    const double convert = _qio.conversionSeconds(
        *_stream, gather_entries, /*to_float=*/true);
    if (convert > 0.0)
        _stream->onCoreCompute(convert, TimeBucket::PimToCpu,
                               "convert:descale");
    _stream->gatherTimed(_qio.qOffset(),
                         gather_entries * rlcore::kQWireBytesPerEntry,
                         TimeBucket::PimToCpu, "gather:final");
    if (_traceSpan.active()) {
        auto span = telemetry::tracer().begin(
            "session.finish", "session", "modelled", finish_start,
            _traceSpan.id());
        span.attr("rounds", _commRounds);
        span.finish(_stream->now());
        closeRunSpan();
    }
    _state = SessionState::Done;
}

void
TrainerSession::closeRunSpan()
{
    if (!_traceSpan.active())
        return;
    _traceSpan.attr("rounds", _commRounds)
        .attr("faults", faultsDetected())
        .attr("cores_lost", coresLost());
    _traceSpan.finish(_stream->now());
}

void
TrainerSession::weightedAverage(
    const std::vector<std::span<const std::uint8_t>> &q_views,
    const std::vector<std::span<const std::uint8_t>> &visit_views,
    const QTable &previous)
{
    const std::size_t entries = _entries;
    // Both gathers alias the same banks, so every Q view must still
    // lie inside its bank's current buffer (the caller re-took them
    // after the visits gather). Dropped cores have empty views and
    // carry no weight.
    for (std::size_t core = 0; core < q_views.size(); ++core) {
        if (visit_views[core].empty())
            continue;
        SWIFTRL_ASSERT(visit_views[core].size() ==
                           entries * rlcore::kQWireBytesPerEntry,
                       "count table size mismatch");
        SWIFTRL_ASSERT(viewInside(q_views[core],
                                  _system.dpu(core).mram()),
                       "core ", core,
                       ": Q view outlived its bank buffer");
    }
    // Split over the host pool like the plain mean: each entry's
    // numerator and denominator accumulate in ascending core order
    // whichever block holds it.
    forEachEntryBlock(_system, entries, [&](std::size_t first,
                                            std::size_t last) {
        std::vector<double> numerator(last - first, 0.0);
        std::vector<double> denominator(last - first, 0.0);
        const std::size_t offset = first * rlcore::kQWireBytesPerEntry;
        const std::size_t bytes =
            (last - first) * rlcore::kQWireBytesPerEntry;
        for (std::size_t core = 0; core < q_views.size(); ++core) {
            const auto counts = visit_views[core];
            if (counts.empty())
                continue;
            _qio.decodeWire(
                q_views[core].subspan(offset, bytes),
                [&](std::size_t j, float q) {
                    std::uint32_t raw;
                    std::memcpy(&raw,
                                counts.data() + offset + j * sizeof raw,
                                sizeof raw);
                    const double w = raw;
                    numerator[j] += w * static_cast<double>(q);
                    denominator[j] += w;
                });
        }
        for (std::size_t j = 0; j < last - first; ++j) {
            _aggregated.values()[first + j] =
                denominator[j] > 0.0
                    ? static_cast<float>(numerator[j] / denominator[j])
                    : previous.values()[first + j];
        }
    });
}

TimeBreakdown
TrainerSession::currentTime() const
{
    SWIFTRL_ASSERT(_stream, "session has no timeline before begin()");
    return breakdownFromTimeline(_stream->timeline(), _timeBase);
}

int
TrainerSession::faultsDetected() const
{
    SWIFTRL_ASSERT(_stream, "session has no timeline before begin()");
    return _faultEventsBase + countFaultEvents(_stream->timeline());
}

std::size_t
TrainerSession::coresLost() const
{
    SWIFTRL_ASSERT(_stream, "session has no stream before begin()");
    return _system.numDpus() - _stream->liveDpuCount();
}

SessionCheckpoint
TrainerSession::checkpoint() const
{
    SWIFTRL_ASSERT(_state == SessionState::Ready ||
                       _state == SessionState::Paused,
                   "checkpoint() needs a live session at a round "
                   "boundary");
    SWIFTRL_ASSERT(_config.streaming || _activeData,
                   "multi-agent runs have no round to checkpoint at");
    SessionCheckpoint ck;
    ck.streaming = _config.streaming;
    ck.workload = _config.workload;
    ck.hyper = _config.hyper;
    ck.tau = _config.tau;
    ck.blockTransitions = _config.blockTransitions;
    ck.tasklets = _config.tasklets;
    ck.weightedAggregation = _config.weightedAggregation;
    ck.epsilonDecay = _config.epsilonDecay;
    ck.numDpus = _system.numDpus();
    ck.shards = _config.shards;
    ck.numStates = _numStates;
    ck.numActions = _numActions;

    ck.episodesRemaining = _episodesRemaining;
    ck.commRounds = _commRounds;
    ck.generationsStarted = _generation;
    ck.roundDeltas = _roundDeltas;
    ck.epsilonNow = _epsilonNow;

    ck.aggregated = _aggregated.values();
    ck.lcgStates = _lcgStates;

    ck.cursor = _stream->now();
    ck.faultSites = _stream->faultSitesUsed();
    for (const std::size_t id : _stream->deadDpus())
        ck.deadDpus.push_back(id);
    ck.timeBase = currentTime();
    ck.faultEventsBase = faultsDetected();
    ck.dpuCycles.reserve(ck.numDpus);
    for (std::size_t i = 0; i < ck.numDpus; ++i)
        ck.dpuCycles.push_back(_system.dpu(i).cycles());

    // Zero-width marker span: checkpoints charge no modelled time,
    // but the causal trail should show where the state was captured.
    auto span = telemetry::tracer().begin(
        "session.checkpoint", "session", "modelled", ck.cursor,
        _traceSpan.active() ? _traceSpan.id() : 0);
    span.attr("round", _commRounds)
        .attr("episodes_remaining", _episodesRemaining);
    span.finish(ck.cursor);
    return ck;
}

std::string
checkpointMismatch(const SessionConfig &config, std::size_t num_dpus,
                   const SessionCheckpoint &ck)
{
    if (ck.streaming != config.streaming ||
        !(ck.workload == config.workload) || ck.tau != config.tau ||
        ck.blockTransitions != config.blockTransitions ||
        ck.tasklets != config.tasklets ||
        ck.weightedAggregation != config.weightedAggregation ||
        ck.numDpus != num_dpus || ck.shards != config.shards) {
        return "checkpoint does not match the session "
               "configuration (workload/tau/tasklets/cores/shards)";
    }
    const rlcore::Hyper &a = ck.hyper;
    const rlcore::Hyper &b = config.hyper;
    // Field-wise: Hyper has padding, so memcmp is not a comparison.
    if (a.alpha != b.alpha || a.gamma != b.gamma ||
        a.episodes != b.episodes || a.epsilon != b.epsilon ||
        a.stride != b.stride || a.scale != b.scale ||
        a.int8Shift != b.int8Shift || a.seed != b.seed)
        return "checkpoint hyper-parameters do not match the "
               "session configuration";
    if (ck.epsilonDecay != config.epsilonDecay)
        return "checkpoint epsilon schedule does not match the "
               "session configuration";
    return "";
}

void
TrainerSession::adopt(const SessionCheckpoint &ck)
{
    const std::string why =
        checkpointMismatch(_config, _system.numDpus(), ck);
    if (!why.empty())
        SWIFTRL_FATAL(why);

    start(ck.numStates, ck.numActions);

    _episodesRemaining = ck.episodesRemaining;
    _commRounds = ck.commRounds;
    _generation = ck.generationsStarted;
    _roundDeltas = ck.roundDeltas;
    _epsilonNow = ck.epsilonNow;

    SWIFTRL_ASSERT(ck.aggregated.size() == _entries,
                   "checkpointed aggregate has the wrong shape");
    _aggregated =
        QTable::fromFloats(ck.numStates, ck.numActions, ck.aggregated);
    SWIFTRL_ASSERT(ck.lcgStates.size() == _lcgStates.size(),
                   "checkpointed LCG stream count mismatch");
    _lcgStates = ck.lcgStates;

    std::vector<std::size_t> dead;
    dead.reserve(ck.deadDpus.size());
    for (const std::uint64_t id : ck.deadDpus)
        dead.push_back(static_cast<std::size_t>(id));
    _stream->restoreState(ck.cursor,
                          static_cast<std::size_t>(ck.faultSites),
                          dead);
    if (!ck.dpuCycles.empty()) {
        std::vector<pimsim::Cycles> cycles(ck.dpuCycles.begin(),
                                           ck.dpuCycles.end());
        _stream->restoreDpuCycles(cycles);
    }
    _timeBase = ck.timeBase;
    _faultEventsBase = ck.faultEventsBase;

    // Rebuild the MRAM Q region functionally: the exact wire bytes
    // the last broadcast (or init) put in every live bank. Sharded
    // sessions rebuild per-core slices (and halos) instead, once
    // restoreOffline has re-derived the shard layout.
    if (_config.shards == 0) {
        _stream->pokeBroadcast(
            _qio.qOffset(),
            std::make_shared<const std::vector<std::uint8_t>>(
                _qio.packWire(_aggregated)));
    }
    // The visit-count region (weighted aggregation) needs no restore:
    // the kernel overwrites it wholesale on every launch before the
    // per-round gather reads it.

    openRunSpan("restore");
    auto span = telemetry::tracer().begin(
        "session.restore", "session", "modelled", ck.cursor,
        _traceSpan.id());
    span.attr("round", _commRounds)
        .attr("episodes_remaining", _episodesRemaining);
    span.finish(ck.cursor);

    _state = SessionState::Ready;
}

void
TrainerSession::restoreOffline(const Dataset &data,
                               const SessionCheckpoint &ck)
{
    SWIFTRL_ASSERT(!_config.streaming,
                   "restoreOffline on a streaming session");
    adopt(ck);
    // Rebuild the transition region: the partition over the restored
    // live set is exactly the one the checkpointed run last scattered
    // (initial scatter and every redistribution use the same
    // deterministic partitionDataset-over-survivors assignment).
    _activeData = &data;
    if (_config.shards > 0) {
        // The shard plan, routing, and halos are pure functions of
        // (shape, shards, cores, data, live set) — re-derive them and
        // poke the slice / data / halo regions functionally.
        setupShardLayout();
        scatterSharded(TimeBucket::Recovery, "", /*poke=*/true);
        pushShardSlices(TimeBucket::Recovery, "", /*poke=*/true);
        pushShardHalos(TimeBucket::Recovery, "", /*poke=*/true);
        return;
    }
    repartition(data);
    scatterActive(TimeBucket::Recovery, "", /*poke=*/true);
}

void
TrainerSession::restoreStreaming(const SessionCheckpoint &ck)
{
    SWIFTRL_ASSERT(_config.streaming,
                   "restoreStreaming on an offline session");
    adopt(ck);
    // The data region is rebuilt by attachGeneration() when the
    // restore lands mid-generation; at a generation boundary the next
    // loadGeneration() overwrites it anyway.
}

// --- checkpoint persistence ------------------------------------------
//
// Binary format, little-endian (matching rlcore/serialization.cc):
//   magic "SWRLCK01" | payload | u64 FNV-1a(payload)
// The payload begins with u32 version; the field order below is the
// format. Bump SessionCheckpoint::kVersion on any layout change.

namespace {

constexpr char kCheckpointMagic[8] = {'S', 'W', 'R', 'L',
                                      'C', 'K', '0', '1'};

class ByteWriter
{
  public:
    template <typename T>
    void
    put(T v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const auto *p = reinterpret_cast<const std::uint8_t *>(&v);
        _bytes.insert(_bytes.end(), p, p + sizeof(T));
    }

    template <typename T>
    void
    putVector(const std::vector<T> &v)
    {
        put<std::uint64_t>(v.size());
        static_assert(std::is_trivially_copyable_v<T>);
        const auto *p =
            reinterpret_cast<const std::uint8_t *>(v.data());
        _bytes.insert(_bytes.end(), p, p + v.size() * sizeof(T));
    }

    const std::vector<std::uint8_t> &bytes() const { return _bytes; }

  private:
    std::vector<std::uint8_t> _bytes;
};

/**
 * Reads checkpoint fields in order. A short field or array, or an enum
 * byte past its last enumerator, is not fatal: the reader records the
 * first such reason, every later read returns zeros, and the loader
 * reports error() after the last field.
 */
class ByteReader
{
  public:
    ByteReader(std::span<const std::uint8_t> bytes,
               const std::string &path)
        : _bytes(bytes), _path(path)
    {
    }

    template <typename T>
    T
    get()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if (sizeof(T) > remaining()) {
            failWith("truncated mid-field");
            return T{};
        }
        T v;
        std::memcpy(&v, _bytes.data() + _pos, sizeof(T));
        _pos += sizeof(T);
        return v;
    }

    template <typename T>
    std::vector<T>
    getVector()
    {
        const auto count = get<std::uint64_t>();
        if (count > remaining() / sizeof(T)) {
            failWith("truncated mid-array");
            return {};
        }
        std::vector<T> v(count);
        // An empty vector's data() may be null, which memcpy forbids
        // even for zero bytes.
        if (count > 0)
            std::memcpy(v.data(), _bytes.data() + _pos,
                        count * sizeof(T));
        _pos += count * sizeof(T);
        return v;
    }

    /** A one-byte enum field whose last enumerator is @p last. */
    template <typename E>
    E
    getEnum(E last, const char *field)
    {
        const auto v = get<std::uint8_t>();
        if (v > static_cast<std::uint8_t>(last)) {
            failWith(std::string("has an out-of-range ") + field +
                     " byte " + std::to_string(v));
            return E{};
        }
        return static_cast<E>(v);
    }

    /**
     * The element count of an array of arrays, each of which takes at
     * least its own 8-byte count: a larger count cannot be in the file.
     */
    std::size_t
    getNestedCount()
    {
        const auto count = get<std::uint32_t>();
        if (count > remaining() / sizeof(std::uint64_t)) {
            failWith("truncated mid-array");
            return 0;
        }
        return count;
    }

    std::size_t remaining() const { return _bytes.size() - _pos; }
    bool exhausted() const { return _pos == _bytes.size(); }

    /** The first read failure, or empty. */
    const std::string &error() const { return _error; }

  private:
    void
    failWith(const std::string &reason)
    {
        if (_error.empty())
            _error = "checkpoint " + _path + " " + reason;
        _pos = _bytes.size();
    }

    std::span<const std::uint8_t> _bytes;
    const std::string &_path;
    std::size_t _pos = 0;
    std::string _error;
};

void
putBreakdown(ByteWriter &w, const TimeBreakdown &t)
{
    w.put<double>(t.kernel);
    w.put<double>(t.cpuToPim);
    w.put<double>(t.pimToCpu);
    w.put<double>(t.interCore);
    w.put<double>(t.hostCollect);
    w.put<double>(t.recovery);
}

TimeBreakdown
getBreakdown(ByteReader &r)
{
    TimeBreakdown t;
    t.kernel = r.get<double>();
    t.cpuToPim = r.get<double>();
    t.pimToCpu = r.get<double>();
    t.interCore = r.get<double>();
    t.hostCollect = r.get<double>();
    t.recovery = r.get<double>();
    return t;
}

} // namespace

bool
trySaveCheckpoint(const SessionCheckpoint &ck,
                  const std::string &path, std::string *error)
{
    ByteWriter w;
    w.put<std::uint32_t>(SessionCheckpoint::kVersion);

    w.put<std::uint8_t>(ck.streaming ? 1 : 0);
    w.put<std::uint8_t>(static_cast<std::uint8_t>(ck.workload.algo));
    w.put<std::uint8_t>(
        static_cast<std::uint8_t>(ck.workload.sampling));
    w.put<std::uint8_t>(static_cast<std::uint8_t>(ck.workload.format));
    w.put<float>(ck.hyper.alpha);
    w.put<float>(ck.hyper.gamma);
    w.put<std::int32_t>(ck.hyper.episodes);
    w.put<float>(ck.hyper.epsilon);
    w.put<std::int32_t>(ck.hyper.stride);
    w.put<std::int32_t>(ck.hyper.scale);
    w.put<std::int32_t>(ck.hyper.int8Shift);
    w.put<std::uint64_t>(ck.hyper.seed);
    w.put<std::int32_t>(ck.tau);
    w.put<std::uint64_t>(ck.blockTransitions);
    w.put<std::uint32_t>(ck.tasklets);
    w.put<std::uint8_t>(ck.weightedAggregation ? 1 : 0);
    w.put<float>(ck.epsilonDecay);
    w.put<std::uint64_t>(ck.numDpus);
    w.put<std::uint64_t>(ck.shards);
    w.put<std::int32_t>(ck.numStates);
    w.put<std::int32_t>(ck.numActions);

    w.put<std::int32_t>(ck.episodesRemaining);
    w.put<std::int32_t>(ck.commRounds);
    w.put<std::int32_t>(ck.generationsStarted);
    w.putVector(ck.roundDeltas);
    w.put<float>(ck.epsilonNow);

    w.putVector(ck.aggregated);
    w.putVector(ck.lcgStates);

    w.put<double>(ck.cursor);
    w.put<std::uint64_t>(ck.faultSites);
    w.putVector(ck.deadDpus);
    putBreakdown(w, ck.timeBase);
    w.put<std::int32_t>(ck.faultEventsBase);
    w.putVector(ck.dpuCycles);

    w.put<double>(ck.streamingHostClock);
    w.put<std::int32_t>(ck.streamingPolicyRefreshes);
    w.put<double>(ck.streamingCollectSeconds);
    w.putVector(ck.streamingTrainEndTail);
    w.put<std::uint32_t>(
        static_cast<std::uint32_t>(ck.streamingQAfterTail.size()));
    for (const auto &q : ck.streamingQAfterTail)
        w.putVector(q);
    w.put<std::uint8_t>(ck.streamingPolicyActive ? 1 : 0);
    w.put<float>(ck.streamingPolicyEpsilon);
    w.putVector(ck.streamingPolicySource);

    const auto fail = [&](std::string reason) {
        if (error)
            *error = std::move(reason);
        return false;
    };
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return fail("cannot open " + path + " for writing");
    out.write(kCheckpointMagic, sizeof(kCheckpointMagic));
    const auto &payload = w.bytes();
    out.write(reinterpret_cast<const char *>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    const std::uint64_t checksum =
        rlcore::fnv1a(payload.data(), payload.size());
    out.write(reinterpret_cast<const char *>(&checksum),
              sizeof(checksum));
    if (!out)
        return fail("write to " + path + " failed");
    return true;
}

void
saveCheckpoint(const SessionCheckpoint &ck, const std::string &path)
{
    std::string error;
    if (!trySaveCheckpoint(ck, path, &error))
        SWIFTRL_FATAL(error);
}

std::optional<SessionCheckpoint>
tryLoadCheckpoint(const std::string &path, std::string *error)
{
    const auto fail = [&](std::string reason) {
        if (error)
            *error = std::move(reason);
        return std::nullopt;
    };
    // One buffer of exactly the file's size (a regular file's: a
    // directory or device has none to trust); the payload is read in
    // place.
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    std::ifstream in(path, std::ios::binary);
    if (ec || !in)
        return fail("cannot open checkpoint " + path);
    const std::size_t overhead =
        sizeof(kCheckpointMagic) + sizeof(std::uint64_t);
    if (size < overhead)
        return fail("checkpoint " + path + " too short to be valid");
    std::vector<std::uint8_t> file(size);
    if (!in.read(reinterpret_cast<char *>(file.data()),
                 static_cast<std::streamsize>(size)))
        return fail("checkpoint " + path + " is unreadable");
    if (std::memcmp(file.data(), kCheckpointMagic,
                    sizeof(kCheckpointMagic)) != 0)
        return fail("checkpoint " + path + " has the wrong magic");

    const std::span<const std::uint8_t> payload(
        file.data() + sizeof(kCheckpointMagic), file.size() - overhead);
    std::uint64_t stored = 0;
    std::memcpy(&stored, file.data() + file.size() - sizeof(stored),
                sizeof(stored));
    if (rlcore::fnv1a(payload.data(), payload.size()) != stored)
        return fail("checkpoint " + path +
                    " failed its integrity check");

    ByteReader r(payload, path);
    const auto version = r.get<std::uint32_t>();
    // Version 1 predates sharding (its sessions are shards = 0);
    // everything else about its layout is identical, so it still
    // loads. Any other version fails loudly.
    if (version != 1 && version != SessionCheckpoint::kVersion)
        return fail("checkpoint " + path + " is format version " +
                    std::to_string(version) +
                    "; this build reads versions 1 and " +
                    std::to_string(SessionCheckpoint::kVersion));

    // A checksum only proves the bytes are what some writer wrote: a
    // short field, a short array or an out-of-range enum is still an
    // error (ByteReader::error), never a fatal, whoever wrote it.
    SessionCheckpoint ck;
    ck.streaming = r.get<std::uint8_t>() != 0;
    ck.workload.algo = r.getEnum(rlcore::Algorithm::Sarsa, "algo");
    ck.workload.sampling = r.getEnum(rlcore::Sampling::Str, "sampling");
    ck.workload.format =
        r.getEnum(rlcore::NumericFormat::Int8, "format");
    ck.hyper.alpha = r.get<float>();
    ck.hyper.gamma = r.get<float>();
    ck.hyper.episodes = r.get<std::int32_t>();
    ck.hyper.epsilon = r.get<float>();
    ck.hyper.stride = r.get<std::int32_t>();
    ck.hyper.scale = r.get<std::int32_t>();
    ck.hyper.int8Shift = r.get<std::int32_t>();
    ck.hyper.seed = r.get<std::uint64_t>();
    ck.tau = r.get<std::int32_t>();
    ck.blockTransitions =
        static_cast<std::size_t>(r.get<std::uint64_t>());
    ck.tasklets = r.get<std::uint32_t>();
    ck.weightedAggregation = r.get<std::uint8_t>() != 0;
    ck.epsilonDecay = r.get<float>();
    ck.numDpus = static_cast<std::size_t>(r.get<std::uint64_t>());
    if (version >= 2)
        ck.shards = static_cast<std::size_t>(r.get<std::uint64_t>());
    ck.numStates = r.get<std::int32_t>();
    ck.numActions = r.get<std::int32_t>();

    ck.episodesRemaining = r.get<std::int32_t>();
    ck.commRounds = r.get<std::int32_t>();
    ck.generationsStarted = r.get<std::int32_t>();
    ck.roundDeltas = r.getVector<float>();
    ck.epsilonNow = r.get<float>();

    ck.aggregated = r.getVector<float>();
    ck.lcgStates = r.getVector<std::uint32_t>();

    ck.cursor = r.get<double>();
    ck.faultSites = r.get<std::uint64_t>();
    ck.deadDpus = r.getVector<std::uint64_t>();
    ck.timeBase = getBreakdown(r);
    ck.faultEventsBase = r.get<std::int32_t>();
    ck.dpuCycles = r.getVector<std::uint64_t>();

    ck.streamingHostClock = r.get<double>();
    ck.streamingPolicyRefreshes = r.get<std::int32_t>();
    ck.streamingCollectSeconds = r.get<double>();
    ck.streamingTrainEndTail = r.getVector<double>();
    const std::size_t tails = r.getNestedCount();
    ck.streamingQAfterTail.resize(tails);
    for (std::size_t i = 0; i < tails; ++i)
        ck.streamingQAfterTail[i] = r.getVector<float>();
    ck.streamingPolicyActive = r.get<std::uint8_t>() != 0;
    ck.streamingPolicyEpsilon = r.get<float>();
    ck.streamingPolicySource = r.getVector<float>();

    if (!r.error().empty())
        return fail(r.error());
    if (!r.exhausted())
        return fail("checkpoint " + path +
                    " carries trailing bytes (corrupt or from a "
                    "newer writer)");
    return ck;
}

SessionCheckpoint
loadCheckpoint(const std::string &path)
{
    std::string error;
    auto ck = tryLoadCheckpoint(path, &error);
    if (!ck)
        SWIFTRL_FATAL(error);
    return *std::move(ck);
}

} // namespace swiftrl
