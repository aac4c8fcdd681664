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

    std::vector<std::span<const std::uint8_t>> chunks(
        4, std::span<const std::uint8_t>(payload));
    double summed = 0.0;
    summed += stream.pushChunks(4096, chunks);
    summed += stream.pushBroadcast(0, payload);
    const auto launched = stream.launch(
        [](swiftrl::pimsim::KernelContext &ctx) {
            ctx.aluOps(100);
        });
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
    const auto launched = stream.launch(
        [](swiftrl::pimsim::KernelContext &ctx) { ctx.aluOps(10); });
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
                     .launch([](swiftrl::pimsim::KernelContext &ctx) {
                         ctx.aluOps(1);
                     })
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
    const auto chunk = data.packFp32(0, 100);
    std::vector<std::span<const std::uint8_t>> chunks{chunk, {}, chunk};
    stream.pokeChunks(data_offset, chunks);

    std::vector<std::size_t> counts{100, 0, 100};
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

} // namespace
