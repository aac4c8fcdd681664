/**
 * @file
 * The blocked tau-round aggregation: QTableIo::meanOfWires and the
 * session's plain, count-weighted and sharded means split their
 * entries over the host pool (forEachEntryBlock), and must stay
 * bit-identical to an independent reference — decoded with the plain
 * division, summed in ascending core order — at every pool size, in
 * every numeric format, with dropped cores left out of the mean.
 * Entry counts are odd on purpose: no multiple of the 16-entry block
 * alignment nor of any pool size.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "pimsim/command_stream.hh"
#include "pimsim/pim_system.hh"
#include "rlcore/dataset.hh"
#include "swiftrl/qtable_io.hh"
#include "swiftrl/session.hh"
#include "swiftrl/sharding.hh"

namespace {

using swiftrl::QTableIo;
using swiftrl::SessionConfig;
using swiftrl::TrainerSession;
using swiftrl::Workload;
using swiftrl::pimsim::CommandStream;
using swiftrl::pimsim::FaultKind;
using swiftrl::pimsim::PimConfig;
using swiftrl::pimsim::PimSystem;
using namespace swiftrl::rlcore;

constexpr unsigned kPoolSizes[] = {1, 2, 3, 4, 8};
constexpr NumericFormat kFormats[] = {NumericFormat::Fp32,
                                      NumericFormat::Int32,
                                      NumericFormat::Int8};

const char *
formatName(NumericFormat format)
{
    switch (format) {
    case NumericFormat::Fp32:
        return "fp32";
    case NumericFormat::Int32:
        return "int32";
    default:
        return "int8";
    }
}

/** The fixed-point scale of @p format, spelled out independently. */
std::int32_t
scaleOf(NumericFormat format, const Hyper &hyper)
{
    return format == NumericFormat::Int8 ? 1 << hyper.int8Shift
                                         : hyper.scale;
}

/** Entry @p i of a bank's Q wire, decoded with the plain division. */
float
decodeEntry(const std::uint8_t *wire, std::size_t i, NumericFormat format,
            std::int32_t scale)
{
    if (format == NumericFormat::Fp32) {
        float v;
        std::memcpy(&v, wire + i * sizeof v, sizeof v);
        return v;
    }
    std::int32_t raw;
    std::memcpy(&raw, wire + i * sizeof raw, sizeof raw);
    return static_cast<float>(static_cast<double>(raw) /
                              static_cast<double>(scale));
}

/** QTable::average's per-entry operations over the live wires. */
std::vector<float>
referenceMean(const std::vector<std::vector<std::uint8_t>> &wires,
              std::size_t entries, NumericFormat format,
              std::int32_t scale)
{
    std::vector<float> out(entries, 0.0f);
    std::size_t live = 0;
    for (const auto &wire : wires) {
        if (wire.empty())
            continue;
        ++live;
        for (std::size_t i = 0; i < entries; ++i)
            out[i] += decodeEntry(wire.data(), i, format, scale);
    }
    const float inv = 1.0f / static_cast<float>(live);
    for (float &v : out)
        v *= inv;
    return out;
}

bool
bitEqual(std::span<const float> a, std::span<const float> b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(EntryBlocks, OneBlockPerThreadOnLinesSerialWhenSmall)
{
    // FrozenLake's 64 entries are 4 lines: serial at any pool size.
    for (const unsigned threads : kPoolSizes)
        EXPECT_EQ(swiftrl::entryBlockCount(64, threads), 1u);
    // Taxi's 3,000 entries are 188 lines: a block per thread while
    // each keeps 32 lines, so 5 blocks at most.
    EXPECT_EQ(swiftrl::entryBlockCount(3000, 1), 1u);
    EXPECT_EQ(swiftrl::entryBlockCount(3000, 4), 4u);
    EXPECT_EQ(swiftrl::entryBlockCount(3000, 8), 5u);
    EXPECT_EQ(swiftrl::entryBlockCount(0, 8), 1u);

    for (const unsigned threads : kPoolSizes) {
        for (const std::size_t entries :
             {std::size_t{0}, std::size_t{64}, std::size_t{3000},
              std::size_t{4105}, std::size_t{100003}}) {
            SCOPED_TRACE(std::to_string(threads) + " threads, " +
                         std::to_string(entries) + " entries");
            PimConfig pim;
            pim.numDpus = 8;
            pim.hostThreads = threads;
            PimSystem system(pim);
            const std::size_t blocks =
                swiftrl::entryBlockCount(entries, threads);
            // Every entry lands in exactly one block, every inner
            // bound on a 64-byte line.
            std::vector<int> hits(entries, 0);
            std::mutex mutex;
            std::vector<std::pair<std::size_t, std::size_t>> ranges;
            swiftrl::forEachEntryBlock(
                system, entries,
                [&](std::size_t first, std::size_t last) {
                    for (std::size_t i = first; i < last; ++i)
                        ++hits[i];
                    const std::lock_guard lock(mutex);
                    ranges.emplace_back(first, last);
                });
            for (const auto &[first, last] : ranges) {
                EXPECT_EQ(first % swiftrl::kEntriesPerLine, 0u);
                if (last != entries) {
                    EXPECT_EQ(last % swiftrl::kEntriesPerLine, 0u);
                }
            }
            EXPECT_EQ(ranges.size(), blocks);
            EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                                    [](int h) { return h == 1; }));
        }
    }
}

TEST(BlockedMean, MatchesTheReferenceAtEveryPoolSize)
{
    // Thirteen banks (one pass of eight plus a remainder of five, two
    // of them dropped) over 4,099 entries: a prime, so no block
    // alignment or pool size divides it.
    constexpr std::size_t kEntries = 4099;
    constexpr std::size_t kBanks = 13;
    for (const NumericFormat format : kFormats) {
        SCOPED_TRACE(formatName(format));
        const Hyper hyper;
        const std::int32_t scale = scaleOf(format, hyper);
        std::mt19937 rng(7);
        std::uniform_real_distribution<float> value(-25.0f, 25.0f);
        std::uniform_int_distribution<std::int32_t> raw(-3'000'000,
                                                        3'000'000);
        std::vector<std::vector<std::uint8_t>> wires(kBanks);
        for (std::size_t b = 0; b < kBanks; ++b) {
            if (b == 4 || b == 11)
                continue; // dropped cores: empty views
            wires[b].resize(kEntries * kQWireBytesPerEntry);
            for (std::size_t i = 0; i < kEntries; ++i) {
                if (format == NumericFormat::Fp32) {
                    const float v = value(rng);
                    std::memcpy(wires[b].data() + i * 4, &v, 4);
                } else {
                    const std::int32_t r = raw(rng);
                    std::memcpy(wires[b].data() + i * 4, &r, 4);
                }
            }
        }
        const std::vector<float> want =
            referenceMean(wires, kEntries, format, scale);
        const std::vector<std::span<const std::uint8_t>> views(
            wires.begin(), wires.end());
        const QTableIo io(
            Workload{Algorithm::QLearning, Sampling::Seq, format}, hyper);
        for (const unsigned threads : kPoolSizes) {
            SCOPED_TRACE(std::to_string(threads) + " threads");
            PimConfig pim;
            pim.numDpus = kBanks;
            pim.hostThreads = threads;
            PimSystem system(pim);
            CommandStream stream(system);
            ASSERT_EQ(swiftrl::entryBlockCount(kEntries, threads),
                      threads);
            std::vector<float> got(kEntries, -1.0f);
            EXPECT_EQ(io.meanOfWires(stream, views, got), kBanks - 2);
            EXPECT_TRUE(bitEqual(got, want));
        }
    }
}

/** How a session under test aggregates. */
enum class Mode
{
    Plain,
    Weighted,
    Sharded,
};

const char *
modeName(Mode mode)
{
    switch (mode) {
    case Mode::Plain:
        return "plain";
    case Mode::Weighted:
        return "weighted";
    default:
        return "sharded";
    }
}

/**
 * Recomputes the round's aggregate from the live banks' raw contents
 * right after each kernel launch, before the session gathers: the
 * plain mean, the count-weighted mean with fallback to @c previous,
 * or the per-replica-group mean of each shard's slice, scattered to
 * the shard's owned rows.
 */
class BankReference : public swiftrl::pimsim::StreamObserver
{
  public:
    BankReference(Mode mode, NumericFormat format, std::int32_t scale,
                  StateId ns, ActionId na, std::size_t visits_offset,
                  const swiftrl::ShardPlan *plan)
        : reference(ns, na), previous(ns, na), _mode(mode),
          _format(format), _scale(scale), _na(na),
          _visitsOffset(visits_offset), _plan(plan)
    {
    }

    void
    onLaunch(CommandStream &stream,
             const swiftrl::pimsim::LaunchStats &) override
    {
        const std::size_t entries = reference.entryCount();
        if (_mode == Mode::Sharded) {
            const std::size_t row = static_cast<std::size_t>(_na);
            const std::size_t slice =
                static_cast<std::size_t>(_plan->map.rowsPerShard()) * row;
            for (std::size_t s = 0; s < _plan->map.numShards(); ++s) {
                const auto mean =
                    referenceMean(wiresOf(stream, _plan->coresOfShard[s],
                                          slice),
                                  slice, _format, _scale);
                std::copy_n(
                    mean.begin(),
                    static_cast<std::size_t>(_plan->map.ownedRows(s)) * row,
                    reference.values().begin() +
                        static_cast<std::size_t>(_plan->map.firstState(s)) *
                            row);
            }
            return;
        }
        std::vector<std::size_t> cores(stream.system().numDpus());
        for (std::size_t i = 0; i < cores.size(); ++i)
            cores[i] = i;
        const auto wires = wiresOf(stream, cores, entries);
        if (_mode == Mode::Plain) {
            const auto mean =
                referenceMean(wires, entries, _format, _scale);
            std::copy(mean.begin(), mean.end(), reference.values().begin());
            return;
        }
        std::vector<double> num(entries, 0.0), den(entries, 0.0);
        for (std::size_t core = 0; core < wires.size(); ++core) {
            if (wires[core].empty())
                continue;
            std::vector<std::uint32_t> counts(entries);
            stream.system().dpu(core).mramRead(
                _visitsOffset, counts.data(),
                entries * sizeof(std::uint32_t));
            for (std::size_t e = 0; e < entries; ++e) {
                const double w = counts[e];
                num[e] += w * static_cast<double>(decodeEntry(
                                  wires[core].data(), e, _format, _scale));
                den[e] += w;
            }
        }
        for (std::size_t e = 0; e < entries; ++e)
            reference.values()[e] =
                den[e] > 0.0 ? static_cast<float>(num[e] / den[e])
                             : previous.values()[e];
    }

    QTable reference;
    QTable previous;

  private:
    /** Copies of @p cores' Q wires; empty for a dropped core. */
    static std::vector<std::vector<std::uint8_t>>
    wiresOf(CommandStream &stream, const std::vector<std::size_t> &cores,
            std::size_t entries)
    {
        std::vector<std::vector<std::uint8_t>> wires(cores.size());
        for (std::size_t k = 0; k < cores.size(); ++k) {
            if (stream.isDead(cores[k]))
                continue;
            wires[k].resize(entries * kQWireBytesPerEntry);
            stream.system().dpu(cores[k]).mramRead(0, wires[k].data(),
                                                   wires[k].size());
        }
        return wires;
    }

    Mode _mode;
    NumericFormat _format;
    std::int32_t _scale;
    ActionId _na;
    std::size_t _visitsOffset;
    const swiftrl::ShardPlan *_plan;
};

/** Uniform random transitions over an @p ns x @p na table. */
Dataset
randomTransitions(StateId ns, ActionId na, std::size_t count,
                  unsigned seed)
{
    std::mt19937 rng(seed);
    std::uniform_int_distribution<StateId> state(0, ns - 1);
    std::uniform_int_distribution<ActionId> action(0, na - 1);
    std::uniform_real_distribution<float> reward(-1.0f, 1.0f);
    Dataset data;
    for (std::size_t i = 0; i < count; ++i) {
        Transition t;
        t.state = state(rng);
        t.action = action(rng);
        t.reward = reward(rng);
        t.nextState = state(rng);
        t.terminal = i % 17 == 0;
        data.append(t);
    }
    return data;
}

TEST(BlockedSessionMean, MatchesTheReferenceAtEveryPoolSize)
{
    // 821 x 5 = 4,105 entries (257 lines: 8 blocks at 8 threads) for
    // the plain and weighted means; the sharded run doubles the states
    // so each of its two slices is 4,105 entries again. Twelve cores,
    // and core 4 drops out in the first launch: the retried launch
    // runs on the survivors, whose means must leave the dead bank out.
    constexpr ActionId kActions = 5;
    constexpr std::size_t kCores = 12;
    constexpr int kRounds = 2;
    for (const Mode mode : {Mode::Plain, Mode::Weighted, Mode::Sharded}) {
        const StateId ns = mode == Mode::Sharded ? 1641 : 821;
        const Dataset data = randomTransitions(ns, kActions, 6000, 3);
        for (const NumericFormat format : kFormats) {
            std::vector<float> first_pool;
            for (const unsigned threads : kPoolSizes) {
                SCOPED_TRACE(std::string(modeName(mode)) + ", " +
                             formatName(format) + ", " +
                             std::to_string(threads) + " threads");
                SessionConfig cfg;
                cfg.workload =
                    Workload{Algorithm::QLearning, Sampling::Seq, format};
                cfg.hyper.episodes = 2 * kRounds;
                cfg.tau = 2;
                cfg.weightedAggregation = mode == Mode::Weighted;
                cfg.shards = mode == Mode::Sharded ? 2 : 0;
                PimConfig pim;
                pim.numDpus = kCores;
                pim.hostThreads = threads;
                pim.faultPlan.scheduled = {
                    {FaultKind::PermanentDropout, /*site=*/0, /*dpu=*/4}};
                PimSystem system(pim);
                const swiftrl::ShardPlan plan =
                    swiftrl::makeShardPlan(ns, 2, kCores);
                const std::size_t reduced =
                    mode == Mode::Sharded
                        ? static_cast<std::size_t>(plan.map.rowsPerShard()) *
                              kActions
                        : static_cast<std::size_t>(ns) * kActions;
                EXPECT_EQ(reduced, 4105u);
                EXPECT_EQ(swiftrl::entryBlockCount(reduced,
                                                   system.hostThreadCount()),
                          threads);

                TrainerSession session(system, cfg);
                session.beginOffline(data, ns, kActions);
                BankReference ref(mode, format,
                                  scaleOf(format, cfg.hyper), ns, kActions,
                                  session.visitsOffset(), &plan);
                session.stream().setObserver(&ref);
                for (int round = 1; round <= kRounds; ++round) {
                    SCOPED_TRACE("round " + std::to_string(round));
                    ref.previous = session.aggregated();
                    ASSERT_TRUE(session.step());
                    EXPECT_TRUE(bitEqual(ref.reference.values(),
                                         session.aggregated().values()));
                }
                EXPECT_TRUE(session.stream().isDead(4));
                session.stream().setObserver(nullptr);
                const auto &values = session.aggregated().values();
                if (first_pool.empty())
                    first_pool.assign(values.begin(), values.end());
                else
                    EXPECT_TRUE(bitEqual(first_pool, values));
            }
        }
    }
}

} // namespace
