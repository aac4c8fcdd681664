/**
 * @file
 * The TrainerSession checkpoint/restore contract: a run paused at any
 * round boundary, persisted to disk, and restored onto a fresh
 * PimSystem must continue **bit-identically** to the uninterrupted
 * run — same final Q-table bytes, same modelled time breakdown, same
 * fault accounting — for any host-pool size, both trainers, and with
 * or without an active fault plan. Plus the checkpoint file format's
 * failure modes: corruption, wrong magic, version and identity
 * mismatches all die loudly. Also: the session's fused plain and
 * count-weighted means equal references computed from independently
 * decoded copies of the live banks, and every sessionConfigInvalidReason
 * rule names its field and kills all three trainers with that reason.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "rlcore/collection.hh"
#include "rlcore/serialization.hh"
#include "swiftrl/session.hh"
#include "swiftrl/swiftrl.hh"

namespace {

using swiftrl::PimTrainConfig;
using swiftrl::PimTrainer;
using swiftrl::PimTrainResult;
using swiftrl::SessionCheckpoint;
using swiftrl::SessionConfig;
using swiftrl::StreamingConfig;
using swiftrl::StreamingResult;
using swiftrl::StreamingTrainer;
using swiftrl::TimeBreakdown;
using swiftrl::Workload;
using swiftrl::pimsim::FaultKind;
using swiftrl::pimsim::PimConfig;
using swiftrl::pimsim::PimSystem;
using namespace swiftrl::rlcore;

void
expectBitEq(const QTable &a, const QTable &b)
{
    ASSERT_EQ(a.entryCount(), b.entryCount());
    EXPECT_EQ(std::memcmp(a.values().data(), b.values().data(),
                          a.entryCount() * sizeof(float)),
              0)
        << "Q-tables differ (max |diff| "
        << QTable::maxAbsDifference(a, b) << ")";
}

void
expectTimeEq(const TimeBreakdown &a, const TimeBreakdown &b)
{
    EXPECT_EQ(a.kernel, b.kernel);
    EXPECT_EQ(a.cpuToPim, b.cpuToPim);
    EXPECT_EQ(a.pimToCpu, b.pimToCpu);
    EXPECT_EQ(a.interCore, b.interCore);
    EXPECT_EQ(a.hostCollect, b.hostCollect);
    EXPECT_EQ(a.recovery, b.recovery);
}

std::string
checkpointPath(const std::string &name)
{
    return ::testing::TempDir() + "swiftrl_" + name + ".ck";
}

// --- offline ----------------------------------------------------------

Dataset
offlineData()
{
    swiftrl::rlenv::FrozenLake env(true);
    return collectRandomDataset(env, 4096, 11);
}

PimTrainConfig
offlineConfig()
{
    PimTrainConfig cfg;
    cfg.workload = Workload{Algorithm::QLearning, Sampling::Seq,
                            NumericFormat::Fp32};
    cfg.hyper.episodes = 60;
    cfg.tau = 20; // 3 rounds
    return cfg;
}

PimTrainResult
runOffline(const Dataset &data, const PimConfig &pim,
           const PimTrainConfig &cfg)
{
    PimSystem system(pim);
    return PimTrainer(system, cfg).train(data, 16, 4);
}

/**
 * The core offline scenario: full run vs pause-at-round k +
 * save/load through a file + resume on a fresh system. Compared
 * bit-for-bit: final Q, breakdown, rounds, deltas, fault counters.
 */
void
checkOfflinePauseResume(const Dataset &data, const PimConfig &pim,
                        const PimTrainConfig &cfg, int pause_round,
                        const std::string &tag)
{
    SCOPED_TRACE(tag + " pause=" + std::to_string(pause_round));
    const auto full = runOffline(data, pim, cfg);

    const std::string path = checkpointPath(tag);
    {
        PimSystem system(pim);
        PimTrainer trainer(system, cfg);
        const auto ck =
            trainer.trainUntilRound(data, 16, 4, pause_round);
        swiftrl::saveCheckpoint(ck, path);
    }

    // Fresh system, fresh trainer, state only through the file.
    PimSystem system(pim);
    PimTrainer trainer(system, cfg);
    const auto ck = swiftrl::loadCheckpoint(path);
    const auto resumed = trainer.resume(data, 16, 4, ck);

    expectBitEq(full.finalQ, resumed.finalQ);
    EXPECT_EQ(full.commRounds, resumed.commRounds);
    ASSERT_EQ(full.roundDeltas.size(), resumed.roundDeltas.size());
    for (std::size_t i = 0; i < full.roundDeltas.size(); ++i)
        EXPECT_EQ(full.roundDeltas[i], resumed.roundDeltas[i]);
    expectTimeEq(full.time, resumed.time);
    EXPECT_EQ(full.faultsDetected, resumed.faultsDetected);
    EXPECT_EQ(full.coresLost, resumed.coresLost);
}

TEST(SessionOffline, RestoreBitIdenticalAcrossPoolsCleanMachine)
{
    const auto data = offlineData();
    const auto cfg = offlineConfig();
    for (const unsigned pool : {1u, 2u, 8u}) {
        PimConfig pim;
        pim.numDpus = 8;
        pim.hostThreads = pool;
        for (const int round : {0, 1, 2}) {
            checkOfflinePauseResume(
                data, pim, cfg, round,
                "clean_p" + std::to_string(pool));
        }
    }
}

TEST(SessionOffline, RestoreBitIdenticalUnderFaultsAndDropout)
{
    const auto data = offlineData();
    auto cfg = offlineConfig();
    cfg.retry.limit = 4;
    for (const unsigned pool : {1u, 2u, 8u}) {
        PimConfig pim;
        pim.numDpus = 8;
        pim.hostThreads = pool;
        pim.faultPlan.seed = 7;
        pim.faultPlan.transientRate = 0.02;
        pim.faultPlan.corruptRate = 0.02;
        // A dropout in round 2's launch: the checkpoint at round 1
        // precedes it, so the restored run must replay the same
        // fault schedule and redistribution.
        pim.faultPlan.scheduled = {
            {FaultKind::PermanentDropout, /*site=*/2, /*dpu=*/3}};
        for (const int round : {1, 2}) {
            checkOfflinePauseResume(
                data, pim, cfg, round,
                "fault_p" + std::to_string(pool));
        }
    }
}

TEST(SessionOffline, RestoreAfterDropoutRebuildsShrunkenPartition)
{
    // The dropout happens in round 1, before the pause at round 2:
    // the checkpoint carries a dead core, and the restored session
    // must re-pack the survivors' partition exactly.
    const auto data = offlineData();
    auto cfg = offlineConfig();
    PimConfig pim;
    pim.numDpus = 8;
    pim.faultPlan.scheduled = {
        {FaultKind::PermanentDropout, /*site=*/0, /*dpu=*/5}};
    checkOfflinePauseResume(data, pim, cfg, 2, "dropout_before");
}

TEST(SessionOffline, RestoreBitIdenticalWeightedInt32)
{
    const auto data = offlineData();
    auto cfg = offlineConfig();
    cfg.workload = Workload{Algorithm::QLearning, Sampling::Str,
                            NumericFormat::Int32};
    cfg.weightedAggregation = true;
    PimConfig pim;
    pim.numDpus = 4;
    checkOfflinePauseResume(data, pim, cfg, 1, "weighted_int32");
}

/**
 * Reference for the session's fused aggregation: after every
 * successful launch, copy each live bank's Q region (and, for the
 * weighted mean, its visit counts) out with mramRead and decode it
 * here, independently of QTableIo. The plain reference is
 * QTable::average over the decoded tables; the weighted one is the
 * count-weighted mean that falls back to @c previous (the aggregate
 * before the round) where no core visited an entry. The session's
 * aggregate must equal the reference bit for bit.
 */
class LiveBankMean : public swiftrl::pimsim::StreamObserver
{
  public:
    LiveBankMean(NumericFormat format, std::int32_t scale, StateId ns,
                 ActionId na, std::size_t visits_offset = 0)
        : _format(format), _scale(scale), _ns(ns), _na(na),
          _visitsOffset(visits_offset), reference(ns, na),
          previous(ns, na)
    {
    }

    void
    onLaunch(swiftrl::pimsim::CommandStream &stream,
             const swiftrl::pimsim::LaunchStats &) override
    {
        const std::size_t entries =
            static_cast<std::size_t>(_ns) * static_cast<std::size_t>(_na);
        std::vector<QTable> live;
        std::vector<double> num(entries, 0.0), den(entries, 0.0);
        for (std::size_t i = 0; i < stream.system().numDpus(); ++i) {
            if (stream.isDead(i))
                continue;
            const auto &dpu = stream.system().dpu(i);
            std::vector<float> values(entries);
            if (_format == NumericFormat::Fp32) {
                dpu.mramRead(0, values.data(), entries * sizeof(float));
            } else {
                std::vector<std::int32_t> raw(entries);
                dpu.mramRead(0, raw.data(),
                             entries * sizeof(std::int32_t));
                for (std::size_t e = 0; e < entries; ++e)
                    values[e] = static_cast<float>(
                        static_cast<double>(raw[e]) /
                        static_cast<double>(_scale));
            }
            if (_visitsOffset > 0) {
                std::vector<std::uint32_t> counts(entries);
                dpu.mramRead(_visitsOffset, counts.data(),
                             entries * sizeof(std::uint32_t));
                for (std::size_t e = 0; e < entries; ++e) {
                    num[e] += static_cast<double>(counts[e]) *
                              static_cast<double>(values[e]);
                    den[e] += static_cast<double>(counts[e]);
                }
            }
            live.push_back(QTable::fromFloats(_ns, _na, values));
        }
        if (_visitsOffset == 0) {
            reference = QTable::average(live);
        } else {
            for (std::size_t e = 0; e < entries; ++e)
                reference.values()[e] =
                    den[e] > 0.0 ? static_cast<float>(num[e] / den[e])
                                 : previous.values()[e];
        }
        ++launches;
    }

  private:
    NumericFormat _format;
    std::int32_t _scale;
    StateId _ns;
    ActionId _na;
    std::size_t _visitsOffset;

  public:
    QTable reference;
    QTable previous;
    int launches = 0;
};

TEST(SessionAggregation, FusedMeanMatchesAverageOverLiveBanks)
{
    const auto data = offlineData();
    for (const auto format :
         {NumericFormat::Int32, NumericFormat::Fp32}) {
        SCOPED_TRACE(format == NumericFormat::Fp32 ? "fp32" : "int32");
        swiftrl::SessionConfig cfg;
        cfg.workload =
            Workload{Algorithm::QLearning, Sampling::Seq, format};
        cfg.hyper.episodes = 40;
        cfg.tau = 20;
        PimConfig pim;
        pim.numDpus = 6;
        // The first launch drops core 4: the retried launch runs on
        // the survivors, and its dead bank must not enter the mean.
        pim.faultPlan.scheduled = {
            {FaultKind::PermanentDropout, /*site=*/0, /*dpu=*/4}};
        PimSystem system(pim);
        swiftrl::TrainerSession session(system, cfg);
        session.beginOffline(data, 16, 4);
        LiveBankMean mean(format, cfg.hyper.scale, 16, 4);
        session.stream().setObserver(&mean);
        for (int round = 1; round <= 2; ++round) {
            SCOPED_TRACE("round " + std::to_string(round));
            ASSERT_TRUE(session.step());
            EXPECT_EQ(mean.launches, round);
            expectBitEq(mean.reference, session.aggregated());
        }
        EXPECT_TRUE(session.stream().isDead(4));
        session.stream().setObserver(nullptr);
    }
}

TEST(SessionAggregation, WeightedMeanWithEmptyChunksMatchesReference)
{
    // Five transitions over eight cores: three live cores get empty
    // chunks, so their kernels never write the visit region and the
    // visits gather has to grow those banks after the Q gather took
    // its views. The aggregate must still be the count-weighted mean
    // over the banks' contents (clean under ASan).
    swiftrl::rlenv::FrozenLake env(true);
    const auto data = collectRandomDataset(env, 5, 11);
    for (const auto format :
         {NumericFormat::Int32, NumericFormat::Fp32}) {
        SCOPED_TRACE(format == NumericFormat::Fp32 ? "fp32" : "int32");
        swiftrl::SessionConfig cfg;
        cfg.workload =
            Workload{Algorithm::QLearning, Sampling::Seq, format};
        cfg.hyper.episodes = 4;
        cfg.tau = 2;
        cfg.weightedAggregation = true;
        PimConfig pim;
        pim.numDpus = 8;
        PimSystem system(pim);
        swiftrl::TrainerSession session(system, cfg);
        session.beginOffline(data, 16, 4);
        LiveBankMean mean(format, cfg.hyper.scale, 16, 4,
                          session.visitsOffset());
        session.stream().setObserver(&mean);
        for (int round = 1; round <= 2; ++round) {
            SCOPED_TRACE("round " + std::to_string(round));
            mean.previous = session.aggregated();
            ASSERT_TRUE(session.step());
            EXPECT_EQ(mean.launches, round);
            expectBitEq(mean.reference, session.aggregated());
        }
        session.stream().setObserver(nullptr);
    }
}

TEST(SessionOffline, EpsilonDecayScheduleSurvivesRestore)
{
    // SARSA consumes epsilon in every update, so a mis-restored
    // schedule position would change the Q-values, not just a label.
    const auto data = offlineData();
    auto cfg = offlineConfig();
    cfg.workload = Workload{Algorithm::Sarsa, Sampling::Seq,
                            NumericFormat::Fp32};
    cfg.epsilonDecay = 0.5f;
    PimConfig pim;
    pim.numDpus = 4;
    checkOfflinePauseResume(data, pim, cfg, 1, "eps_decay");

    // And the schedule really moves: a decaying run differs from the
    // constant-epsilon run.
    auto flat = cfg;
    flat.epsilonDecay = 1.0f;
    const auto decayed = runOffline(data, pim, cfg);
    const auto constant = runOffline(data, pim, flat);
    EXPECT_GT(QTable::maxAbsDifference(decayed.finalQ,
                                       constant.finalQ),
              0.0f);
}

// --- streaming --------------------------------------------------------

std::unique_ptr<swiftrl::rlenv::Environment>
makeLake()
{
    return std::make_unique<swiftrl::rlenv::FrozenLake>(true);
}

StreamingConfig
streamingConfig()
{
    StreamingConfig cfg;
    cfg.workload = Workload{Algorithm::QLearning, Sampling::Seq,
                            NumericFormat::Fp32};
    cfg.hyper.episodes = 10; // 2 rounds per generation
    cfg.tau = 5;
    cfg.generations = 4; // 8 rounds total
    cfg.transitionsPerGeneration = 1024;
    cfg.refreshPeriod = 2;
    cfg.collectSeed = 99;
    return cfg;
}

StreamingResult
runStreaming(const PimConfig &pim, const StreamingConfig &cfg)
{
    PimSystem system(pim);
    return StreamingTrainer(system, cfg).train(makeLake, 16, 4);
}

void
checkStreamingPauseResume(const PimConfig &pim,
                          const StreamingConfig &cfg, int pause_round,
                          const std::string &tag)
{
    SCOPED_TRACE(tag + " pause=" + std::to_string(pause_round));
    const auto full = runStreaming(pim, cfg);

    const std::string path = checkpointPath(tag);
    {
        PimSystem system(pim);
        StreamingTrainer trainer(system, cfg);
        const auto ck =
            trainer.trainUntilRound(makeLake, 16, 4, pause_round);
        swiftrl::saveCheckpoint(ck, path);
    }

    PimSystem system(pim);
    StreamingTrainer trainer(system, cfg);
    const auto ck = swiftrl::loadCheckpoint(path);
    const auto resumed = trainer.resume(makeLake, 16, 4, ck);

    expectBitEq(full.finalQ, resumed.finalQ);
    EXPECT_EQ(full.commRounds, resumed.commRounds);
    EXPECT_EQ(full.policyRefreshes, resumed.policyRefreshes);
    EXPECT_EQ(full.collectSeconds, resumed.collectSeconds);
    EXPECT_EQ(full.endToEnd, resumed.endToEnd);
    expectTimeEq(full.time, resumed.time);
    EXPECT_EQ(full.faultsDetected, resumed.faultsDetected);
    EXPECT_EQ(full.coresLost, resumed.coresLost);
    EXPECT_EQ(full.transitions, resumed.transitions);
}

TEST(SessionStreaming, RestoreBitIdenticalAcrossPoolsCleanMachine)
{
    const auto cfg = streamingConfig();
    for (const unsigned pool : {1u, 2u, 8u}) {
        PimConfig pim;
        pim.numDpus = 8;
        pim.hostThreads = pool;
        // Round 3 pauses mid-generation (generation 1 has run 1 of
        // its 2 rounds); round 4 pauses exactly at the generation 1
        // boundary; round 1 pauses mid-generation 0, before any
        // policy refresh exists.
        for (const int round : {1, 3, 4}) {
            checkStreamingPauseResume(
                pim, cfg, round, "s_clean_p" + std::to_string(pool));
        }
    }
}

TEST(SessionStreaming, RestoreBitIdenticalAfterPolicyRefresh)
{
    // Pause at round 5 (mid generation 2): generation 2's collection
    // used the refreshed epsilon-greedy policy, so the restore path
    // must rebuild that policy to re-collect the same data.
    const auto cfg = streamingConfig();
    PimConfig pim;
    pim.numDpus = 8;
    checkStreamingPauseResume(pim, cfg, 5, "s_refresh");
    // And at round 6 (generation 2 boundary) the checkpoint carries
    // the active policy forward for generation 3's collection.
    checkStreamingPauseResume(pim, cfg, 6, "s_refresh_boundary");
}

TEST(SessionStreaming, RestoreBitIdenticalUnderFaultsAndDropout)
{
    auto cfg = streamingConfig();
    cfg.retry.limit = 4;
    for (const unsigned pool : {1u, 2u, 8u}) {
        PimConfig pim;
        pim.numDpus = 8;
        pim.hostThreads = pool;
        pim.faultPlan.seed = 7;
        pim.faultPlan.transientRate = 0.02;
        pim.faultPlan.corruptRate = 0.02;
        pim.faultPlan.scheduled = {
            {FaultKind::PermanentDropout, /*site=*/2, /*dpu=*/3}};
        for (const int round : {1, 3, 4}) {
            checkStreamingPauseResume(
                pim, cfg, round, "s_fault_p" + std::to_string(pool));
        }
    }
}

TEST(SessionStreaming, SequentialModeRestores)
{
    auto cfg = streamingConfig();
    cfg.overlap = false;
    PimConfig pim;
    pim.numDpus = 4;
    checkStreamingPauseResume(pim, cfg, 3, "s_sequential");
}

// --- checkpoint file format -------------------------------------------

SessionCheckpoint
sampleCheckpoint()
{
    const auto data = offlineData();
    PimConfig pim;
    pim.numDpus = 4;
    PimSystem system(pim);
    PimTrainer trainer(system, offlineConfig());
    return trainer.trainUntilRound(data, 16, 4, 1);
}

TEST(SessionCheckpointIo, FileRoundTripPreservesEveryField)
{
    const auto ck = sampleCheckpoint();
    const std::string path = checkpointPath("roundtrip");
    swiftrl::saveCheckpoint(ck, path);
    const auto back = swiftrl::loadCheckpoint(path);

    EXPECT_EQ(back.streaming, ck.streaming);
    EXPECT_TRUE(back.workload == ck.workload);
    EXPECT_EQ(back.hyper.seed, ck.hyper.seed);
    EXPECT_EQ(back.hyper.epsilon, ck.hyper.epsilon);
    EXPECT_EQ(back.tau, ck.tau);
    EXPECT_EQ(back.blockTransitions, ck.blockTransitions);
    EXPECT_EQ(back.tasklets, ck.tasklets);
    EXPECT_EQ(back.numDpus, ck.numDpus);
    EXPECT_EQ(back.numStates, ck.numStates);
    EXPECT_EQ(back.numActions, ck.numActions);
    EXPECT_EQ(back.episodesRemaining, ck.episodesRemaining);
    EXPECT_EQ(back.commRounds, ck.commRounds);
    EXPECT_EQ(back.generationsStarted, ck.generationsStarted);
    EXPECT_EQ(back.roundDeltas, ck.roundDeltas);
    EXPECT_EQ(back.epsilonNow, ck.epsilonNow);
    EXPECT_EQ(back.aggregated, ck.aggregated);
    EXPECT_EQ(back.lcgStates, ck.lcgStates);
    EXPECT_EQ(back.cursor, ck.cursor);
    EXPECT_EQ(back.faultSites, ck.faultSites);
    EXPECT_EQ(back.deadDpus, ck.deadDpus);
    EXPECT_EQ(back.faultEventsBase, ck.faultEventsBase);
    EXPECT_EQ(back.dpuCycles, ck.dpuCycles);
    EXPECT_EQ(back.streamingHostClock, ck.streamingHostClock);
}

std::vector<char>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeFile(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

TEST(SessionCheckpointIoDeath, CorruptPayloadFailsIntegrityCheck)
{
    const auto ck = sampleCheckpoint();
    const std::string path = checkpointPath("corrupt");
    swiftrl::saveCheckpoint(ck, path);
    auto bytes = readFile(path);
    bytes[bytes.size() / 2] ^= 0x5a; // flip mid-payload bits
    writeFile(path, bytes);
    EXPECT_EXIT((void)swiftrl::loadCheckpoint(path),
                ::testing::ExitedWithCode(1), "integrity");
}

TEST(SessionCheckpointIoDeath, WrongMagicIsRejected)
{
    const auto ck = sampleCheckpoint();
    const std::string path = checkpointPath("magic");
    swiftrl::saveCheckpoint(ck, path);
    auto bytes = readFile(path);
    bytes[0] = 'X';
    writeFile(path, bytes);
    EXPECT_EXIT((void)swiftrl::loadCheckpoint(path),
                ::testing::ExitedWithCode(1), "magic");
}

TEST(SessionCheckpointIoDeath, FutureVersionIsRejected)
{
    const auto ck = sampleCheckpoint();
    const std::string path = checkpointPath("version");
    swiftrl::saveCheckpoint(ck, path);
    // Patch the version word (first payload field, right after the
    // 8-byte magic) and re-seal the checksum so only the version
    // check can fire.
    auto bytes = readFile(path);
    const std::uint32_t future = 999;
    std::memcpy(bytes.data() + 8, &future, sizeof(future));
    const std::size_t payload = bytes.size() - 8 - 8;
    const std::uint64_t checksum =
        fnv1a(bytes.data() + 8, payload);
    std::memcpy(bytes.data() + bytes.size() - 8, &checksum,
                sizeof(checksum));
    writeFile(path, bytes);
    EXPECT_EXIT((void)swiftrl::loadCheckpoint(path),
                ::testing::ExitedWithCode(1), "version");
}

TEST(SessionCheckpointIoDeath, MissingFileIsFatal)
{
    EXPECT_EXIT((void)swiftrl::loadCheckpoint(
                    checkpointPath("does_not_exist")),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(SessionCheckpointIoDeath, MismatchedConfigurationIsRejected)
{
    const auto data = offlineData();
    const auto ck = sampleCheckpoint();

    PimConfig pim;
    pim.numDpus = 4;
    PimSystem system(pim);
    auto other = offlineConfig();
    other.tau = 10; // checkpointed run used tau = 20
    PimTrainer trainer(system, other);
    EXPECT_EXIT((void)trainer.resume(data, 16, 4, ck),
                ::testing::ExitedWithCode(1), "does not match");
}

TEST(SessionCheckpointIoDeath, MismatchedMachineIsRejected)
{
    const auto data = offlineData();
    const auto ck = sampleCheckpoint(); // 4-core machine

    PimConfig pim;
    pim.numDpus = 8;
    PimSystem system(pim);
    PimTrainer trainer(system, offlineConfig());
    EXPECT_EXIT((void)trainer.resume(data, 16, 4, ck),
                ::testing::ExitedWithCode(1), "does not match");
}

// --- config validation ------------------------------------------------

/** One sessionConfigInvalidReason rule, broken on purpose. */
struct InvalidCase
{
    const char *field; ///< the field the reason must name
    void (*breakIt)(SessionConfig &);
    /** Does the broken field exist on StreamingConfig too? */
    bool streamingHasIt;
};

const InvalidCase kInvalidCases[] = {
    {"hyper.alpha", [](SessionConfig &c) { c.hyper.alpha = -1.0f; },
     true},
    {"hyper.alpha",
     [](SessionConfig &c) { c.hyper.alpha = std::nanf(""); }, true},
    {"hyper.gamma", [](SessionConfig &c) { c.hyper.gamma = 2.0f; },
     true},
    {"hyper.epsilon", [](SessionConfig &c) { c.hyper.epsilon = 1e10f; },
     true},
    {"hyper.epsilon",
     [](SessionConfig &c) {
         c.hyper.epsilon = std::numeric_limits<float>::infinity();
     },
     true},
    {"hyper.episodes", [](SessionConfig &c) { c.hyper.episodes = 0; },
     true},
    {"hyper.stride", [](SessionConfig &c) { c.hyper.stride = 0; },
     true},
    {"tau", [](SessionConfig &c) { c.tau = 0; }, true},
    {"blockTransitions",
     [](SessionConfig &c) { c.blockTransitions = 0; }, true},
    {"tasklets", [](SessionConfig &c) { c.tasklets = 0; }, true},
    {"tasklets", [](SessionConfig &c) { c.tasklets = 25; }, true},
    {"epsilonDecay", [](SessionConfig &c) { c.epsilonDecay = 0.0f; },
     true},
    {"epsilonDecay", [](SessionConfig &c) { c.epsilonDecay = 1.5f; },
     true},
    {"weightedAggregation",
     [](SessionConfig &c) {
         c.streaming = true;
         c.weightedAggregation = true;
     },
     false},
    {"shards",
     [](SessionConfig &c) {
         c.streaming = true;
         c.shards = 2;
     },
     false},
    {"shards",
     [](SessionConfig &c) {
         c.shards = 2;
         c.weightedAggregation = true;
     },
     false},
    {"retry.limit", [](SessionConfig &c) { c.retry.limit = -1; }, true},
    {"retry.backoffSec",
     [](SessionConfig &c) { c.retry.backoffSec = -1.0; }, true},
    {"retry.backoffMultiplier",
     [](SessionConfig &c) { c.retry.backoffMultiplier = 0.5; }, true},
};

/** @p text as a POSIX extended regex that matches it literally. */
std::string
literalRegex(const std::string &text)
{
    std::string out;
    for (const char c : text) {
        if (std::string_view(".[]{}()*+?^$|\\").find(c) !=
            std::string_view::npos)
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

TEST(SessionConfigValidation, DefaultsAndRangeEdgesPass)
{
    EXPECT_EQ(swiftrl::sessionConfigInvalidReason(SessionConfig{}), "");
    SessionConfig edges;
    edges.hyper.alpha = 0.0f;
    edges.hyper.gamma = 1.0f;
    edges.hyper.epsilon = 1.0f;
    edges.tasklets = 24;
    edges.epsilonDecay = 1.0f;
    edges.retry.limit = 0;
    edges.retry.backoffSec = 0.0;
    edges.retry.backoffMultiplier = 1.0;
    edges.shards = 1;
    EXPECT_EQ(swiftrl::sessionConfigInvalidReason(edges), "");
}

TEST(SessionConfigValidation, EachRuleNamesItsField)
{
    for (const auto &c : kInvalidCases) {
        SessionConfig cfg;
        c.breakIt(cfg);
        const std::string why = swiftrl::sessionConfigInvalidReason(cfg);
        EXPECT_EQ(why.rfind(c.field, 0), 0u)
            << "case " << c.field << ": reason \"" << why << "\"";
    }
}

TEST(SessionConfigValidationDeath, EveryTrainerDiesWithTheReason)
{
    PimConfig pim;
    pim.numDpus = 2;
    PimSystem system(pim);
    for (const auto &c : kInvalidCases) {
        SCOPED_TRACE(c.field);
        SessionConfig cfg;
        c.breakIt(cfg);
        const std::string why =
            literalRegex(swiftrl::sessionConfigInvalidReason(cfg));
        EXPECT_EXIT((void)swiftrl::TrainerSession(system, cfg),
                    ::testing::ExitedWithCode(1), why);
        EXPECT_EXIT((void)PimTrainer(system, cfg),
                    ::testing::ExitedWithCode(1), why);
        if (!c.streamingHasIt)
            continue;
        StreamingConfig scfg;
        scfg.workload = cfg.workload;
        scfg.hyper = cfg.hyper;
        scfg.tau = cfg.tau;
        scfg.blockTransitions = cfg.blockTransitions;
        scfg.tasklets = cfg.tasklets;
        scfg.retry = cfg.retry;
        scfg.epsilonDecay = cfg.epsilonDecay;
        EXPECT_EXIT((void)StreamingTrainer(system, scfg),
                    ::testing::ExitedWithCode(1), why);
    }
}

TEST(SessionConfigValidationDeath, PimTrainerRefusesStreaming)
{
    PimConfig pim;
    pim.numDpus = 2;
    PimSystem system(pim);
    SessionConfig cfg;
    cfg.streaming = true;
    EXPECT_EXIT((void)PimTrainer(system, cfg),
                ::testing::ExitedWithCode(1), "StreamingTrainer");
}

} // namespace
