/**
 * @file
 * The command-stream engine and its event timeline:
 *
 *  - a stream's commands land on a timeline of contiguous,
 *    non-overlapping intervals whose durations sum to sync();
 *  - the timing-only gather charges exactly what the functional one
 *    does (and validates the range the same way);
 *  - the functional gather hands out bank views: empty for a dead
 *    core, zeros for never-written MRAM, and under a fault plan the
 *    same sites, charges and events as a copying gather, with a
 *    corrupted chunk flipped on a scratch copy, never in the bank;
 *  - a broadcast parks one shared payload on every live bank, which
 *    lands on the bank's next access through any accessor, under any
 *    later write, and never on a dead core;
 *  - the lane scatter (and its poke twin) leaves exactly the bank
 *    bytes and timeline of serial per-core writes, for ragged and
 *    empty chunks, dead cores, pending payloads and any pool size,
 *    and never-written bytes below its offset still read zero;
 *  - session-level pins: every chunk-scattering training path gives
 *    the Q-table bytes and timeline of the serial implementation;
 *  - the trainer's reported TimeBreakdown is derived from — and hence
 *    always agrees with — its result timeline;
 *  - the exported Chrome trace JSON holds one "X" slice per command,
 *    with per-bucket duration sums matching the breakdown.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>

#include "oracle/scalar_kernel.hh"
#include "rlenv/frozen_lake.hh"
#include "rlenv/registry.hh"
#include "swiftrl/pim_kernels.hh"
#include "swiftrl/swiftrl.hh"

namespace {

using swiftrl::breakdownFromTimeline;
using swiftrl::PimTrainConfig;
using swiftrl::PimTrainer;
using swiftrl::Workload;
using swiftrl::pimsim::CommandStream;
using swiftrl::pimsim::Dpu;
using swiftrl::pimsim::Phase;
using swiftrl::pimsim::PimConfig;
using swiftrl::pimsim::PimSystem;
using swiftrl::pimsim::TimeBucket;
using swiftrl::pimsim::Timeline;
using swiftrl::rlcore::Algorithm;
using swiftrl::rlcore::collectRandomDataset;
using swiftrl::rlcore::NumericFormat;
using swiftrl::rlcore::Sampling;

PimSystem
makeSystem(std::size_t dpus)
{
    PimConfig cfg;
    cfg.numDpus = dpus;
    cfg.mramBytesPerDpu = 1u << 20;
    return PimSystem(cfg);
}

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t base)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(base + i);
    return v;
}

TEST(CommandStream, RecordsContiguousTimeline)
{
    auto system = makeSystem(4);
    CommandStream stream(system);
    const auto payload = pattern(256, 1);

    double summed = 0.0;
    summed += stream.scatter(
        4096, [&](std::size_t) { return payload.size(); },
        [&](std::size_t, std::span<std::uint8_t> out) {
            std::ranges::copy(payload, out.begin());
        });
    summed += stream.pushBroadcast(0, payload);
    const auto launched = stream.launchBatch(swiftrl::oracle::perLane(
        [](swiftrl::oracle::LedgerOps &ctx) { ctx.aluOps(100); }));
    ASSERT_TRUE(launched.ok());
    summed += launched.seconds;
    std::vector<std::span<const std::uint8_t>> out;
    const auto gathered = stream.gather(0, payload.size(), out);
    ASSERT_TRUE(gathered.ok());
    summed += gathered.seconds;

    const auto &timeline = stream.timeline();
    ASSERT_EQ(timeline.size(), 4u);
    const auto &events = timeline.events();

    // Intervals are non-overlapping, contiguous, and start at zero:
    // a single stream models one serialised host command queue.
    EXPECT_EQ(events.front().start, 0.0);
    double total = 0.0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_GE(events[i].end, events[i].start) << "event " << i;
        if (i > 0) {
            EXPECT_EQ(events[i].start, events[i - 1].end)
                << "gap or overlap before event " << i;
        }
        total += events[i].duration();
    }
    EXPECT_DOUBLE_EQ(total, summed);

    // sync() closes the interval spanning all four commands.
    EXPECT_DOUBLE_EQ(stream.sync(), total);
    EXPECT_DOUBLE_EQ(stream.sync(), 0.0);
    EXPECT_DOUBLE_EQ(stream.now(), total);

    // Each command mapped to its phase, in enqueue order.
    EXPECT_EQ(events[0].phase, Phase::Scatter);
    EXPECT_EQ(events[1].phase, Phase::Broadcast);
    EXPECT_EQ(events[2].phase, Phase::Kernel);
    EXPECT_EQ(events[3].phase, Phase::Gather);

    // The gathered payload round-tripped through MRAM.
    ASSERT_EQ(out.size(), 4u);
    EXPECT_TRUE(std::equal(out[2].begin(), out[2].end(),
                           payload.begin(), payload.end()));
}

TEST(CommandStream, TimedGatherChargesExactlyTheFunctionalCost)
{
    auto system = makeSystem(3);
    CommandStream stream(system);
    const auto payload = pattern(512, 7);
    stream.pushBroadcast(0, payload);

    std::vector<std::span<const std::uint8_t>> out;
    const auto status = stream.gather(0, payload.size(), out);
    ASSERT_TRUE(status.ok());
    const double functional = status.seconds;
    ASSERT_EQ(out.size(), 3u);
    EXPECT_TRUE(std::ranges::equal(out[0], payload));
    const double timed = stream.gatherTimed(0, payload.size());
    EXPECT_EQ(timed, functional);

    // Both gathers were recorded as events on the same track.
    EXPECT_EQ(stream.timeline().size(), 3u);
    EXPECT_DOUBLE_EQ(stream.timeline().totalForPhase(Phase::Gather),
                     functional + timed);
}

TEST(CommandStream, StreamsOnOneSystemKeepIndependentClocks)
{
    auto system = makeSystem(2);
    CommandStream a(system);
    CommandStream b(system);
    const auto payload = pattern(64, 3);

    a.pushBroadcast(0, payload);
    EXPECT_GT(a.now(), 0.0);
    EXPECT_EQ(b.now(), 0.0);
    EXPECT_TRUE(b.timeline().empty());

    // Functional state is shared: stream b reads what a wrote.
    std::vector<std::span<const std::uint8_t>> out;
    b.gather(0, payload.size(), out);
    EXPECT_TRUE(std::ranges::equal(out[1], payload));
}

// --- gather contract: bank views ------------------------------------

using swiftrl::pimsim::FaultKind;

/** A 4-core system whose fault plan fires only @p faults. */
PimSystem
makeFaultySystem(std::vector<swiftrl::pimsim::ScheduledFault> faults)
{
    PimConfig cfg;
    cfg.numDpus = 4;
    cfg.mramBytesPerDpu = 1u << 20;
    cfg.faultPlan.scheduled = std::move(faults);
    return PimSystem(cfg);
}

/** Modelled transfer and checksum-verify seconds of one gather. */
std::pair<double, double>
gatherCharges(const PimSystem &system, std::size_t bytes,
              std::size_t live)
{
    const auto &cfg = system.config();
    return {cfg.transferModel.pimToCpuSeconds(bytes, live),
            cfg.faultPlan.checksumSecPerByte *
                static_cast<double>(bytes * live)};
}

TEST(CommandStreamGather, DeadCoreYieldsAnEmptyView)
{
    // Site 0 (the launch) drops core 2; the gather at site 1 then
    // hands out views for the three survivors only.
    auto system = makeFaultySystem(
        {{FaultKind::PermanentDropout, /*site=*/0, /*dpu=*/2}});
    CommandStream stream(system);
    const auto payload = pattern(128, 9);
    stream.pushBroadcast(0, payload);
    const auto launched = stream.launchBatch(swiftrl::oracle::perLane(
        [](swiftrl::oracle::LedgerOps &ctx) { ctx.aluOps(10); }));
    ASSERT_FALSE(launched.ok());
    ASSERT_TRUE(stream.isDead(2));

    std::vector<std::span<const std::uint8_t>> out;
    ASSERT_TRUE(stream.gather(0, payload.size(), out).ok());
    ASSERT_EQ(out.size(), 4u);
    EXPECT_TRUE(out[2].empty());
    for (const std::size_t i : {0u, 1u, 3u})
        EXPECT_TRUE(std::ranges::equal(out[i], payload)) << "core " << i;
}

TEST(CommandStreamGather, NeverWrittenRangeReadsAsZeros)
{
    auto system = makeSystem(2);
    CommandStream stream(system);
    stream.pushBroadcast(0, pattern(64, 1));

    // Far past anything written: the view grows the lazy bank and
    // reads zeros, exactly like the copying mramRead.
    std::vector<std::span<const std::uint8_t>> out;
    ASSERT_TRUE(stream.gather(512 * 1024, 256, out).ok());
    ASSERT_EQ(out.size(), 2u);
    for (const auto &view : out) {
        ASSERT_EQ(view.size(), 256u);
        EXPECT_TRUE(std::ranges::all_of(
            view, [](std::uint8_t b) { return b == 0; }));
    }
}

TEST(CommandStreamGather, CorruptGatherDiscardsViewsAndKeepsBanks)
{
    auto system = makeFaultySystem(
        {{FaultKind::CorruptGather, /*site=*/0, /*dpu=*/1}});
    CommandStream stream(system);
    const auto payload = pattern(300, 4);
    stream.pushBroadcast(0, payload);
    const std::size_t events = stream.timeline().size();

    std::vector<std::span<const std::uint8_t>> out;
    const auto status = stream.gather(0, payload.size(), out);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error->kind, FaultKind::CorruptGather);
    EXPECT_EQ(status.error->site, 0u);
    EXPECT_EQ(status.error->dpus, std::vector<std::size_t>{1});
    EXPECT_EQ(stream.faultSitesUsed(), 1u);
    EXPECT_TRUE(out.empty());

    // One Recovery event carrying transfer + verify.
    const auto [transfer, verify] =
        gatherCharges(system, payload.size(), 4);
    ASSERT_EQ(stream.timeline().size(), events + 1);
    const auto &fault = stream.timeline().events().back();
    EXPECT_EQ(fault.phase, Phase::Recovery);
    EXPECT_EQ(fault.bucket, TimeBucket::Recovery);
    EXPECT_EQ(fault.label, "fault:corrupt-gather");
    EXPECT_EQ(fault.end, fault.start + (transfer + verify));
    EXPECT_EQ(status.seconds, transfer + verify);

    // The flip hit a scratch copy, not the bank: the retry at the
    // next site reads the broadcast payload intact.
    ASSERT_TRUE(stream.gather(0, payload.size(), out).ok());
    EXPECT_EQ(stream.faultSitesUsed(), 2u);
    EXPECT_TRUE(std::ranges::equal(out[1], payload));
}

TEST(CommandStreamGather, CleanFaultyPlanGatherRecordsChecksumVerify)
{
    // An active plan that never fires at this site: the gather still
    // consumes the site and pays the checksum pass, as the copying
    // gather did — Gather event, then "verify:checksum" on Recovery.
    auto system = makeFaultySystem(
        {{FaultKind::TransientKernel, /*site=*/99, /*dpu=*/0}});
    CommandStream stream(system);
    const auto payload = pattern(200, 2);
    stream.pushBroadcast(0, payload);
    const std::size_t events = stream.timeline().size();

    std::vector<std::span<const std::uint8_t>> out;
    const auto status =
        stream.gather(0, payload.size(), out, TimeBucket::InterCore,
                      "gather:q");
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(stream.faultSitesUsed(), 1u);

    const auto [transfer, verify] =
        gatherCharges(system, payload.size(), 4);
    ASSERT_EQ(stream.timeline().size(), events + 2);
    const auto &gather = stream.timeline().events()[events];
    const auto &check = stream.timeline().events()[events + 1];
    EXPECT_EQ(gather.phase, Phase::Gather);
    EXPECT_EQ(gather.bucket, TimeBucket::InterCore);
    EXPECT_EQ(gather.label, "gather:q");
    EXPECT_EQ(gather.end, gather.start + transfer);
    EXPECT_EQ(check.phase, Phase::Recovery);
    EXPECT_EQ(check.bucket, TimeBucket::Recovery);
    EXPECT_EQ(check.label, "verify:checksum");
    EXPECT_EQ(check.start, gather.end);
    EXPECT_EQ(check.end, check.start + verify);
    EXPECT_EQ(status.seconds, transfer + verify);
    for (const auto &view : out)
        EXPECT_TRUE(std::ranges::equal(view, payload));
}

// --- shared broadcast payloads ---------------------------------------

/** @p bytes of @p dpu from offset 0, read with mramRead. */
std::vector<std::uint8_t>
readBank(const Dpu &dpu, std::size_t bytes)
{
    std::vector<std::uint8_t> out(bytes);
    dpu.mramRead(0, out.data(), bytes);
    return out;
}

/** A bank holding @p old at offset 0 with @p payload pending over it. */
std::unique_ptr<Dpu>
bankWithPending(const std::vector<std::uint8_t> &old,
                const std::vector<std::uint8_t> &payload)
{
    auto dpu = std::make_unique<Dpu>(0, 1u << 20);
    dpu->mramWrite(0, old.data(), old.size());
    dpu->mramShare(
        0, std::make_shared<const std::vector<std::uint8_t>>(payload));
    return dpu;
}

TEST(CommandStreamBroadcast, PendingPayloadIsVisibleThroughEveryAccessor)
{
    // A fresh bank per accessor: the first access lands the payload,
    // so each accessor must land it on its own.
    const auto old = pattern(96, 1);
    const auto payload = pattern(64, 100);
    auto expected = payload;
    expected.insert(expected.end(), old.begin() + 64, old.end());

    EXPECT_EQ(readBank(*bankWithPending(old, payload), 96), expected)
        << "mramRead";
    {
        auto dpu = bankWithPending(old, payload);
        const std::uint8_t *view = dpu->mramView(0, 96);
        EXPECT_TRUE(std::ranges::equal(std::span(view, 96), expected))
            << "mramView";
    }
    {
        auto dpu = bankWithPending(old, payload);
        const auto bank = dpu->mram();
        ASSERT_GE(bank.size(), 96u);
        EXPECT_TRUE(std::ranges::equal(bank.first(96), expected))
            << "mram";
    }
    {
        auto dpu = bankWithPending(old, payload);
        const auto bank = dpu->mramLane(96);
        ASSERT_GE(bank.size(), 96u);
        EXPECT_TRUE(std::ranges::equal(bank.first(96), expected))
            << "mramLane";
    }
}

TEST(CommandStreamBroadcast, PartialWriteLandsOnTopOfPendingPayload)
{
    auto dpu = bankWithPending(pattern(64, 1), pattern(64, 100));
    const auto patch = pattern(8, 200);
    dpu->mramWrite(16, patch.data(), patch.size());

    auto expected = pattern(64, 100);
    std::copy(patch.begin(), patch.end(), expected.begin() + 16);
    EXPECT_EQ(readBank(*dpu, 64), expected);
}

TEST(CommandStreamBroadcast, TwoBroadcastsResolveToTheLast)
{
    auto system = makeSystem(2);
    CommandStream stream(system);
    stream.pushBroadcast(0, pattern(64, 1));
    stream.pushBroadcast(0, pattern(64, 50));
    // A narrower third broadcast cannot drop the one it only partly
    // covers: that one lands first, the new bytes on top.
    stream.pushBroadcast(8, pattern(16, 150));

    auto expected = pattern(64, 50);
    const auto top = pattern(16, 150);
    std::copy(top.begin(), top.end(), expected.begin() + 8);
    for (std::size_t i = 0; i < 2; ++i)
        EXPECT_EQ(readBank(system.dpu(i), 64), expected) << "core " << i;
}

TEST(CommandStreamBroadcast, DeadCoreNeverReceivesThePayload)
{
    auto system = makeFaultySystem(
        {{FaultKind::PermanentDropout, /*site=*/0, /*dpu=*/2}});
    CommandStream stream(system);
    const auto before = pattern(64, 7);
    stream.pushBroadcast(0, before);
    ASSERT_FALSE(stream
                     .launchBatch(swiftrl::oracle::perLane(
                         [](swiftrl::oracle::LedgerOps &ctx) {
                             ctx.aluOps(1);
                         }))
                     .ok());
    ASSERT_TRUE(stream.isDead(2));

    const auto after = pattern(64, 70);
    stream.pushBroadcast(0, after);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(readBank(system.dpu(i), 64), i == 2 ? before : after)
            << "core " << i;
    }
}

TEST(CommandStreamBroadcast, SkippedLaneGathersTheBroadcastBytes)
{
    // Core 1 has an empty chunk, so its kernel lane never touches its
    // bank; the payload lands at the gather instead. Cores 0 and 2
    // train on the payload in place.
    swiftrl::rlenv::FrozenLake env(true);
    const auto data = collectRandomDataset(env, 200, 5);
    auto system = makeSystem(3);
    CommandStream stream(system);

    const std::size_t q_bytes = 16 * 4 * 4;
    std::vector<float> q(16 * 4);
    for (std::size_t k = 0; k < q.size(); ++k)
        q[k] = 0.125f * static_cast<float>(k % 5);
    std::vector<std::uint8_t> wire(q_bytes);
    std::memcpy(wire.data(), q.data(), q_bytes);
    stream.pushBroadcast(0, wire);

    const std::size_t data_offset = 4096;
    std::vector<std::size_t> counts{100, 0, 100};
    stream.poke(
        data_offset,
        [&](std::size_t i) {
            return counts[i] * sizeof(swiftrl::rlcore::PackedTransition);
        },
        [&](std::size_t i, std::span<std::uint8_t> out) {
            data.packFp32(0, counts[i], out);
        });

    std::vector<std::uint32_t> lcg{1, 2, 3};
    swiftrl::KernelParams p;
    p.workload = Workload{Algorithm::QLearning, Sampling::Seq,
                          NumericFormat::Fp32};
    p.numStates = 16;
    p.numActions = 4;
    p.qOffset = 0;
    p.dataOffset = data_offset;
    p.episodes = 2;
    p.chunkCounts = &counts;
    p.lcgStates = &lcg;
    ASSERT_TRUE(stream
                    .launchBatch([&p](swiftrl::pimsim::BatchKernelContext
                                          &bctx) {
                        swiftrl::runTrainingKernelBatch(bctx, p);
                    })
                    .ok());
    EXPECT_EQ(system.dpu(1).cycles(), 0u);

    std::vector<std::span<const std::uint8_t>> out;
    ASSERT_TRUE(stream.gather(0, q_bytes, out).ok());
    EXPECT_TRUE(std::ranges::equal(out[1], wire));
    EXPECT_FALSE(std::ranges::equal(out[0], wire));
    EXPECT_TRUE(std::ranges::equal(out[0], out[2]));
}

// --- lane scatter -----------------------------------------------------

/** Core @p core's chunk in scatter @p round of the scenario below. */
std::vector<std::uint8_t>
chunkOf(std::size_t round, std::size_t core)
{
    // Ragged, with empty chunks (cores 1 and 5 in round 0, core 4 in
    // round 1); dead core 2 would hold the largest chunk of both.
    static constexpr std::size_t kBytes[2][6] = {
        {300, 0, 90000, 4097, 1, 0}, {5000, 64, 120000, 10, 0, 7}};
    return pattern(kBytes[round][core],
                   static_cast<std::uint8_t>(17 * core + round));
}

/** Scatter round @p round's chunks, each copied in by its lane. */
double
scatterRound(CommandStream &stream, std::size_t offset, std::size_t round,
             bool poke = false)
{
    const auto bytes = [round](std::size_t i) {
        return chunkOf(round, i).size();
    };
    const auto fill = [round](std::size_t i, std::span<std::uint8_t> out) {
        std::ranges::copy(chunkOf(round, i), out.begin());
    };
    if (poke) {
        stream.poke(offset, bytes, fill);
        return 0.0;
    }
    return stream.scatter(offset, bytes, fill);
}

/** Every bank's whole buffer plus the timeline after the scenario. */
struct ScatterScenario
{
    std::vector<std::vector<std::uint8_t>> banks;
    std::vector<swiftrl::pimsim::Event> events;
    std::vector<double> scatterSeconds;
};

/**
 * Six cores, core 2 lost at the first launch; then a scatter at
 * 2048, a broadcast left pending over it, and a second, larger
 * scatter at 2560 that lands on top of the pending payload and grows
 * banks that already hold bytes.
 */
ScatterScenario
runScatterScenario(unsigned pool)
{
    PimConfig cfg;
    cfg.numDpus = 6;
    cfg.mramBytesPerDpu = 1u << 20;
    cfg.hostThreads = pool;
    cfg.faultPlan.scheduled = {
        {FaultKind::PermanentDropout, /*site=*/0, /*dpu=*/2}};
    PimSystem system(cfg);
    CommandStream stream(system);
    EXPECT_FALSE(stream
                     .launchBatch(swiftrl::oracle::perLane(
                         [](swiftrl::oracle::LedgerOps &ctx) {
                             ctx.aluOps(1);
                         }))
                     .ok());
    ScatterScenario out;
    out.scatterSeconds.push_back(scatterRound(stream, 2048, 0));
    stream.pushBroadcast(0, pattern(3000, 99));
    out.scatterSeconds.push_back(scatterRound(stream, 2560, 1));
    for (std::size_t i = 0; i < cfg.numDpus; ++i) {
        const auto bank = system.dpu(i).mram();
        out.banks.emplace_back(bank.begin(), bank.end());
    }
    out.events = stream.timeline().events();
    return out;
}

TEST(CommandStreamScatter, MatchesSerialWritesForAnyPool)
{
    // The reference: the same commands as serial per-core writes on
    // stand-alone banks, the way the scatter used to run.
    std::vector<Dpu> ref;
    const auto wire = std::make_shared<const std::vector<std::uint8_t>>(
        pattern(3000, 99));
    for (std::size_t i = 0; i < 6; ++i) {
        ref.emplace_back(i, 1u << 20);
        if (i == 2)
            continue; // dead before the first scatter
        const auto a = chunkOf(0, i);
        if (!a.empty())
            ref[i].mramWrite(2048, a.data(), a.size());
        ref[i].mramShare(0, wire);
        const auto b = chunkOf(1, i);
        if (!b.empty())
            ref[i].mramWrite(2560, b.data(), b.size());
    }

    const auto serial = runScatterScenario(1);
    for (const unsigned pool : {1u, 2u, 8u}) {
        SCOPED_TRACE("pool " + std::to_string(pool));
        const auto run = runScatterScenario(pool);
        for (std::size_t i = 0; i < 6; ++i) {
            const auto want = ref[i].mram();
            EXPECT_TRUE(std::ranges::equal(run.banks[i], want))
                << "core " << i << ": " << run.banks[i].size()
                << " bytes, reference " << want.size();
        }
        EXPECT_TRUE(run.banks[2].empty()) << "the dead bank was touched";

        // Timing serialises on the largest *live* chunk.
        PimConfig cfg;
        const auto &model = cfg.transferModel;
        EXPECT_EQ(run.scatterSeconds[0], model.scatterSeconds(4097, 5));
        EXPECT_EQ(run.scatterSeconds[1], model.scatterSeconds(5000, 5));
        ASSERT_EQ(run.events.size(), serial.events.size());
        for (std::size_t e = 0; e < run.events.size(); ++e) {
            EXPECT_EQ(run.events[e].label, serial.events[e].label);
            EXPECT_EQ(run.events[e].start, serial.events[e].start);
            EXPECT_EQ(run.events[e].end, serial.events[e].end);
        }
    }
    const auto &events = serial.events;
    ASSERT_GE(events.size(), 3u);
    EXPECT_EQ(events[events.size() - 3].phase, Phase::Scatter);
    EXPECT_EQ(events.back().phase, Phase::Scatter);
    EXPECT_DOUBLE_EQ(events.back().duration(), serial.scatterSeconds[1]);
}

TEST(CommandStreamScatter, PokeWritesTheSameBytesWithoutTime)
{
    auto pushed = makeSystem(6);
    auto poked = makeSystem(6);
    CommandStream push_stream(pushed);
    CommandStream poke_stream(poked);
    scatterRound(push_stream, 4096, 1);
    scatterRound(poke_stream, 4096, 1, /*poke=*/true);
    EXPECT_EQ(poke_stream.timeline().size(), 0u);
    EXPECT_EQ(poke_stream.now(), 0.0);
    for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_TRUE(std::ranges::equal(pushed.dpu(i).mram(),
                                       poked.dpu(i).mram()))
            << "core " << i;
    }
}

TEST(CommandStreamScatter, BytesBelowTheOffsetReadZero)
{
    auto system = makeSystem(3);
    CommandStream stream(system);
    scatterRound(stream, 4096, 0);
    // An empty chunk leaves its bank unallocated.
    EXPECT_TRUE(system.dpu(1).mram().empty());

    std::vector<std::span<const std::uint8_t>> out;
    ASSERT_TRUE(stream.gather(0, 4096, out).ok());
    for (std::size_t i = 0; i < 3; ++i) {
        if (chunkOf(0, i).empty())
            continue;
        EXPECT_TRUE(std::ranges::all_of(
            out[i], [](std::uint8_t b) { return b == 0; }))
            << "core " << i;
        EXPECT_EQ(readBank(system.dpu(i), 4096),
                  std::vector<std::uint8_t>(4096, 0));
    }
}

TEST(CommandStreamScatter, FreshBankReadsZeroBelowTheOffsetThroughEveryAccessor)
{
    // A scatter at offset k into a fresh bank leaves [0, k) unwritten;
    // the lane zeroes it (and only it) before filling the chunk.
    const std::size_t k = 4096;
    auto system = makeSystem(1);
    CommandStream stream(system);
    const auto chunk = pattern(300, 7);
    stream.scatter(
        k, [&](std::size_t) { return chunk.size(); },
        [&](std::size_t, std::span<std::uint8_t> out) {
            std::ranges::copy(chunk, out.begin());
        });
    const Dpu &dpu = system.dpu(0);
    const auto zero = [](std::uint8_t b) { return b == 0; };

    const auto bank = dpu.mram();
    ASSERT_EQ(bank.size(), k + chunk.size());
    EXPECT_TRUE(std::ranges::all_of(bank.first(k), zero)) << "mram";
    EXPECT_TRUE(std::ranges::equal(bank.subspan(k), chunk));
    EXPECT_EQ(readBank(dpu, k), std::vector<std::uint8_t>(k, 0))
        << "mramRead";
    std::vector<std::span<const std::uint8_t>> out;
    ASSERT_TRUE(stream.gather(0, k, out).ok());
    EXPECT_TRUE(std::ranges::all_of(out[0], zero)) << "mramView";
}

TEST(CommandStreamScatter, GrowthTailPastAChunkReadsZero)
{
    // A bank that already holds 4096 bytes doubles when a chunk ends
    // past them: the tail between the chunk's end and the new size
    // is never written by the lane and must read zero.
    auto system = makeSystem(1);
    CommandStream stream(system);
    const auto old = pattern(4096, 1);
    stream.scatter(
        0, [&](std::size_t) { return old.size(); },
        [&](std::size_t, std::span<std::uint8_t> out) {
            std::ranges::copy(old, out.begin());
        });
    const auto chunk = pattern(100, 9);
    const std::size_t at = 5000;
    stream.scatter(
        at, [&](std::size_t) { return chunk.size(); },
        [&](std::size_t, std::span<std::uint8_t> out) {
            std::ranges::copy(chunk, out.begin());
        });
    const auto bank = system.dpu(0).mram();
    ASSERT_EQ(bank.size(), 8192u);
    EXPECT_TRUE(std::ranges::equal(bank.first(old.size()), old));
    const auto zero = [](std::uint8_t b) { return b == 0; };
    EXPECT_TRUE(std::ranges::all_of(bank.subspan(4096, at - 4096), zero))
        << "gap below the chunk";
    EXPECT_TRUE(std::ranges::equal(bank.subspan(at, chunk.size()), chunk));
    EXPECT_TRUE(
        std::ranges::all_of(bank.subspan(at + chunk.size()), zero))
        << "growth tail past the chunk";
}

TEST(CommandStreamScatter, ReserveCoversThePendingPayload)
{
    // reserveLane must reserve what mramLane then grows to — the
    // pending payload's range included — or the lane would
    // reallocate the bank off the enqueue thread.
    for (const std::size_t pending_at : {0u, 100u, 8000u}) {
        SCOPED_TRACE("payload at " + std::to_string(pending_at));
        Dpu dpu(0, 1u << 20);
        const auto old = pattern(64, 1);
        dpu.mramWrite(0, old.data(), old.size());
        dpu.mramShare(pending_at,
                      std::make_shared<const std::vector<std::uint8_t>>(
                          pattern(4096, 5)));
        const std::uint8_t *reserved = dpu.reserveLane(200);
        EXPECT_EQ(dpu.mramLane(200).data(), reserved);
    }
}

TEST(CommandStream, HostReduceAndOnCoreComputeAdvanceTheClock)
{
    auto system = makeSystem(1);
    CommandStream stream(system);
    stream.hostReduce(1.5e-3);
    stream.onCoreCompute(0.5e-3, TimeBucket::InterCore);
    EXPECT_DOUBLE_EQ(stream.now(), 2.0e-3);
    EXPECT_DOUBLE_EQ(
        stream.timeline().totalForBucket(TimeBucket::InterCore),
        2.0e-3);
    EXPECT_DOUBLE_EQ(
        stream.timeline().totalForPhase(Phase::HostReduce), 1.5e-3);
}

/** A small real training run to exercise the full command sequence. */
swiftrl::PimTrainResult
trainLake(PimSystem &system)
{
    swiftrl::rlenv::FrozenLake env(true);
    const auto data = collectRandomDataset(env, 1500, 21);
    PimTrainConfig cfg;
    cfg.workload = Workload{Algorithm::QLearning, Sampling::Seq,
                            NumericFormat::Int32};
    cfg.hyper.episodes = 20;
    cfg.tau = 5;
    return PimTrainer(system, cfg).train(data, 16, 4);
}

TEST(CommandStream, TrainerBreakdownDerivesFromItsTimeline)
{
    auto system = makeSystem(8);
    const auto result = trainLake(system);

    ASSERT_FALSE(result.timeline.empty());
    const auto derived = breakdownFromTimeline(result.timeline);
    EXPECT_EQ(derived.kernel, result.time.kernel);
    EXPECT_EQ(derived.cpuToPim, result.time.cpuToPim);
    EXPECT_EQ(derived.pimToCpu, result.time.pimToCpu);
    EXPECT_EQ(derived.interCore, result.time.interCore);

    // Bucket totals are the same sums in the same order.
    EXPECT_EQ(result.timeline.totalForBucket(TimeBucket::Kernel),
              result.time.kernel);
    EXPECT_EQ(result.timeline.totalForBucket(TimeBucket::InterCore),
              result.time.interCore);

    // The timeline spans the whole modelled run.
    EXPECT_DOUBLE_EQ(result.timeline.endTime(), result.time.total());
}

TEST(CommandStream, ChromeTraceExportsOneSlicePerCommand)
{
    auto system = makeSystem(8);
    const auto result = trainLake(system);

    std::ostringstream os;
    result.timeline.exportChromeTrace(os);
    const std::string json = os.str();

    // Structurally valid: brace/bracket balanced, object at the top.
    EXPECT_EQ(json.front(), '{');
    long braces = 0, brackets = 0;
    for (const char c : json) {
        braces += (c == '{') - (c == '}');
        brackets += (c == '[') - (c == ']');
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);

    // One complete slice per enqueued command.
    std::size_t slices = 0;
    for (std::size_t pos = 0;
         (pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos;
         ++pos)
        ++slices;
    EXPECT_EQ(slices, result.timeline.size());

    // Per-bucket slice durations (in trace microseconds) sum to the
    // reported breakdown. Events are one per line, so parse by line.
    double bucket_us[swiftrl::pimsim::kNumBuckets] = {};
    std::istringstream lines(json);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.find("\"ph\":\"X\"") == std::string::npos)
            continue;
        const auto dur_at = line.find("\"dur\":");
        const auto bucket_at = line.find("\"bucket\":\"");
        ASSERT_NE(dur_at, std::string::npos);
        ASSERT_NE(bucket_at, std::string::npos);
        const double dur = std::stod(line.substr(dur_at + 6));
        const auto name_at = bucket_at + 10;
        const auto name =
            line.substr(name_at, line.find('"', name_at) - name_at);
        for (std::size_t b = 0; b < swiftrl::pimsim::kNumBuckets;
             ++b) {
            if (name ==
                bucketName(static_cast<TimeBucket>(b)))
                bucket_us[b] += dur;
        }
    }
    const auto expect_us = [&](TimeBucket bucket, double seconds) {
        EXPECT_NEAR(bucket_us[static_cast<std::size_t>(bucket)],
                    seconds * 1e6, 1e-6)
            << bucketName(bucket);
    };
    expect_us(TimeBucket::Kernel, result.time.kernel);
    expect_us(TimeBucket::CpuToPim, result.time.cpuToPim);
    expect_us(TimeBucket::PimToCpu, result.time.pimToCpu);
    expect_us(TimeBucket::InterCore, result.time.interCore);
}

/** Undo the exporter's JSON string escaping. */
std::string
jsonUnescape(const std::string &s)
{
    std::string out;
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\') {
            out.push_back(s[i]);
            continue;
        }
        ++i;
        if (s[i] == 'u') {
            out.push_back(static_cast<char>(
                std::stoi(s.substr(i + 1, 4), nullptr, 16)));
            i += 4;
        } else {
            out.push_back(s[i]);
        }
    }
    return out;
}

TEST(CommandStream, TraceEscapesLabelsLosslessly)
{
    // Labels with every character class the escaper must handle:
    // quotes, backslashes, and control characters (which used to be
    // silently dropped, making trace labels diverge from the labels
    // tools grep for). The exported slice name must unescape back to
    // the exact original label.
    const std::vector<std::string> labels = {
        "plain", "quo\"te", "back\\slash", "new\nline", "tab\there",
        "bell\x07", "mix\"\\\x1f",
    };
    auto system = makeSystem(1);
    CommandStream stream(system);
    for (const auto &label : labels)
        stream.recordHostSpan(Phase::HostCollect,
                              TimeBucket::HostCollect, 0.0, 1.0e-6,
                              label);

    std::ostringstream os;
    stream.timeline().exportChromeTrace(os);
    const std::string json = os.str();

    // Control characters never appear raw in valid JSON strings (the
    // exporter's own inter-event newlines are whitespace outside any
    // string, which is fine).
    for (const char c : json) {
        if (c != '\n') {
            EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
        }
    }

    // Each slice's name unescapes to the exact original label.
    std::istringstream lines(json);
    std::string line;
    std::vector<std::string> names;
    while (std::getline(lines, line)) {
        if (line.find("\"ph\":\"X\"") == std::string::npos)
            continue;
        const auto at = line.find("{\"name\":\"") + 9;
        // Find the closing quote, skipping escaped ones.
        std::size_t end = at;
        while (line[end] != '"' || line[end - 1] == '\\') {
            // A literal backslash escape ("\\") must not hide the
            // closing quote that follows it.
            if (line[end] == '\\' && line[end + 1] == '\\')
                ++end;
            ++end;
        }
        names.push_back(jsonUnescape(line.substr(at, end - at)));
    }
    ASSERT_EQ(names.size(), labels.size());
    for (std::size_t i = 0; i < labels.size(); ++i)
        EXPECT_EQ(names[i], labels[i]) << "label " << i;
}

TEST(CommandStreamDeath, OutOfBankTimedGatherIsFatal)
{
    auto system = makeSystem(1);
    CommandStream stream(system);
    // The timing-only path must fail exactly where the functional
    // gather would: one byte past the MRAM bank.
    EXPECT_EXIT((void)stream.gatherTimed((1u << 20) - 8, 16),
                ::testing::ExitedWithCode(1), "MRAM");
}

// --- session-level pins ------------------------------------------------
//
// Every path that scatters per-core chunks — offline begin in FP32 and
// INT32, the sharded slice/halo/data scatters, dropout redistribution,
// the offline and streaming restore pokes, and the multi-agent
// distribution — must leave the Q-table bytes and every timeline event
// exactly as the serial per-core writes they replaced did. Each case
// hashes the final Q-table bytes plus every event's label and
// start/end bits, and compares with a digest pinned from the serial
// implementation, at two host-pool sizes. A digest only moves when the
// trained table or a modelled time does, so a mismatch is a real
// behaviour change: re-pin only when the cost model or the kernels are
// meant to change.

/** FNV-1a, fed field by field. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    mix(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ull;
        }
    }

    void
    mix(const swiftrl::rlcore::QTable &q)
    {
        mix(q.values().data(), q.values().size() * sizeof(float));
    }

    void
    mix(const Timeline &timeline)
    {
        for (const auto &e : timeline.events()) {
            mix(e.label.data(), e.label.size());
            mix(&e.start, sizeof e.start);
            mix(&e.end, sizeof e.end);
        }
    }
};

/** The final table's bytes and every timeline event. */
std::uint64_t
runDigest(const swiftrl::rlcore::QTable &q, const Timeline &timeline)
{
    Fnv f;
    f.mix(q);
    f.mix(timeline);
    return f.h;
}

/** Does @p timeline hold an event labelled @p label? */
bool
hasEvent(const Timeline &timeline, std::string_view label)
{
    return std::ranges::any_of(timeline.events(), [&](const auto &e) {
        return e.label == label;
    });
}

/** The pin check: every pool size gives @p pinned. */
template <typename Run>
void
expectPinned(std::uint64_t pinned, Run run)
{
    for (const unsigned pool : {1u, 3u}) {
        const std::uint64_t got = run(pool);
        EXPECT_EQ(got, pinned)
            << "pool " << pool << ": digest 0x" << std::hex << got;
    }
}

swiftrl::rlcore::Dataset
pinData(const char *env_name, std::size_t transitions)
{
    auto env = swiftrl::rlenv::makeEnvironment(env_name);
    return collectRandomDataset(*env, transitions, 23);
}

PimTrainConfig
pinConfig(NumericFormat format)
{
    PimTrainConfig cfg;
    cfg.workload = Workload{Algorithm::QLearning, Sampling::Seq, format};
    cfg.hyper.episodes = 40;
    cfg.tau = 20; // 2 rounds
    return cfg;
}

/**
 * Offline run on @p cores cores (ragged chunks: 3001 % 7 != 0); the
 * timeline must show @p expect, the scatter the case is about.
 */
std::uint64_t
offlinePin(const PimTrainConfig &cfg, std::size_t cores, unsigned pool,
           std::string_view expect, const char *env_name = "frozenlake",
           bool dropout = false)
{
    const auto data = pinData(env_name, 3001);
    auto env = swiftrl::rlenv::makeEnvironment(env_name);
    PimConfig pim;
    pim.numDpus = cores;
    pim.hostThreads = pool;
    if (dropout) {
        pim.faultPlan.scheduled = {
            {swiftrl::pimsim::FaultKind::PermanentDropout, /*site=*/2,
             /*dpu=*/2}};
    }
    PimSystem system(pim);
    const auto r = PimTrainer(system, cfg).train(
        data, env->numStates(), env->numActions());
    EXPECT_TRUE(hasEvent(r.timeline, expect)) << expect;
    return runDigest(r.finalQ, r.timeline);
}

/** Pause an offline run at round 1, resume on a fresh system. */
std::uint64_t
offlineRestorePin(const PimTrainConfig &cfg, std::size_t cores,
                  unsigned pool)
{
    const auto data = pinData("frozenlake", 3001);
    PimConfig pim;
    pim.numDpus = cores;
    pim.hostThreads = pool;
    swiftrl::SessionCheckpoint ck;
    {
        PimSystem system(pim);
        ck = PimTrainer(system, cfg).trainUntilRound(data, 16, 4, 1);
    }
    PimSystem system(pim);
    const auto r = PimTrainer(system, cfg).resume(data, 16, 4, ck);
    return runDigest(r.finalQ, r.timeline);
}

TEST(ScatterPins, OfflineFp32)
{
    expectPinned(0x0a0af370951df6d5ull, [](unsigned pool) {
        return offlinePin(pinConfig(NumericFormat::Fp32), 7, pool,
                          "scatter:dataset");
    });
}

TEST(ScatterPins, OfflineInt32Taxi)
{
    expectPinned(0x22fd665e5ca15f74ull, [](unsigned pool) {
        return offlinePin(pinConfig(NumericFormat::Int32), 7, pool,
                          "scatter:dataset", "taxi");
    });
}

TEST(ScatterPins, ShardedFp32AndInt32)
{
    for (const auto format : {NumericFormat::Fp32, NumericFormat::Int32}) {
        auto cfg = pinConfig(format);
        cfg.shards = 4;
        expectPinned(format == NumericFormat::Fp32 ? 0x76b33df47e5b630aull
                                                    : 0x2870d030f09bc73dull,
                     [&](unsigned pool) {
                         return offlinePin(cfg, 8, pool, "scatter:halo");
                     });
    }
}

TEST(ScatterPins, DropoutRedistribute)
{
    auto cfg = pinConfig(NumericFormat::Fp32);
    cfg.retry.limit = 2;
    expectPinned(0xdccc77ca5e1b4b95ull, [&](unsigned pool) {
        return offlinePin(cfg, 7, pool, "scatter:redistribute",
                          "frozenlake", /*dropout=*/true);
    });
    cfg.shards = 2;
    expectPinned(0xafa1d3c9cb1d1dafull, [&](unsigned pool) {
        return offlinePin(cfg, 8, pool, "scatter:halo-recover",
                          "frozenlake", /*dropout=*/true);
    });
}

TEST(ScatterPins, OfflineRestorePokes)
{
    auto cfg = pinConfig(NumericFormat::Int32);
    expectPinned(0x409cf63cd40f89c7ull, [&](unsigned pool) {
        return offlineRestorePin(cfg, 7, pool);
    });
    // Sharded: the data, slice and halo regions are all poked.
    cfg.shards = 4;
    expectPinned(0x161dfb7f13c0efb6ull, [&](unsigned pool) {
        return offlineRestorePin(cfg, 8, pool);
    });
}

TEST(ScatterPins, StreamingAttachGenerationRestore)
{
    swiftrl::StreamingConfig cfg;
    cfg.workload = Workload{Algorithm::QLearning, Sampling::Seq,
                            NumericFormat::Fp32};
    cfg.hyper.episodes = 10; // 2 rounds per generation
    cfg.tau = 5;
    cfg.generations = 3;
    cfg.transitionsPerGeneration = 1001;
    cfg.collectSeed = 99;
    const auto lake = [] {
        return swiftrl::rlenv::makeEnvironment("frozenlake");
    };
    expectPinned(0x2deccba13239c4f6ull, [&](unsigned pool) {
        PimConfig pim;
        pim.numDpus = 6;
        pim.hostThreads = pool;
        swiftrl::SessionCheckpoint ck;
        {
            // Round 3 is mid generation 1: the restore re-attaches
            // that generation's chunks with a poke.
            PimSystem system(pim);
            ck = swiftrl::StreamingTrainer(system, cfg)
                     .trainUntilRound(lake, 16, 4, 3);
        }
        EXPECT_GT(ck.episodesRemaining, 0);
        PimSystem system(pim);
        const auto r = swiftrl::StreamingTrainer(system, cfg)
                           .resume(lake, 16, 4, ck);
        return runDigest(r.finalQ, r.timeline);
    });
}

/** The five-agent run both multi-agent pins train, on @p pool host
 *  threads under @p faults; @p faults_seen gets the run's count. */
std::uint64_t
multiAgentPin(unsigned pool, const swiftrl::pimsim::FaultPlan &faults,
              int *faults_seen = nullptr)
{
    std::vector<swiftrl::rlcore::Dataset> agents;
    for (std::size_t i = 0; i < 5; ++i) {
        swiftrl::rlenv::FrozenLake env(true);
        agents.push_back(collectRandomDataset(env, 300 + 37 * i, i));
    }
    PimConfig pim;
    pim.numDpus = 5;
    pim.hostThreads = pool;
    pim.faultPlan = faults;
    PimSystem system(pim);
    const auto r = PimTrainer(system, pinConfig(NumericFormat::Int32))
                       .trainMultiAgent(agents, 16, 4);
    if (faults_seen)
        *faults_seen = r.faultsDetected;
    Fnv f;
    for (const auto &q : r.perCore)
        f.mix(q);
    f.mix(r.timeline);
    return f.h;
}

TEST(ScatterPins, MultiAgent)
{
    expectPinned(0xdda79c4d5fde58b9ull, [](unsigned pool) {
        return multiAgentPin(pool, {});
    });
}

TEST(ScatterPins, MultiAgentUnderFaults)
{
    // Transient launch faults and corrupted gathers, retried; no
    // dropouts (a lost core is a lost agent, which is fatal).
    swiftrl::pimsim::FaultPlan faults;
    faults.seed = 2;
    faults.transientRate = 0.1;
    faults.corruptRate = 0.15;
    for (const unsigned pool : {1u, 2u, 8u}) {
        int seen = 0;
        const std::uint64_t got = multiAgentPin(pool, faults, &seen);
        EXPECT_EQ(got, 0xd2336edc63cf9153ull)
            << "pool " << pool << ": digest 0x" << std::hex << got;
        EXPECT_GT(seen, 0) << "pool " << pool;
    }
}

} // namespace
