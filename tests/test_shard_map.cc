/**
 * @file
 * The sharded Q-table plumbing below TrainerSession: the contiguous
 * state-range ShardMap, replica-group placement, owner routing of
 * transitions, halo discovery, and the localized wire packing. The
 * load-bearing property throughout is that a 1-shard configuration
 * is *byte-identical* to the unsharded code paths.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "rlcore/dataset.hh"
#include "rlcore/qtable.hh"
#include "rlcore/shard_map.hh"
#include "swiftrl/qtable_io.hh"
#include "swiftrl/sharding.hh"
#include "swiftrl/workload.hh"

namespace {

using swiftrl::QTableIo;
using swiftrl::ShardPlan;
using swiftrl::ShardRouting;
using swiftrl::Workload;
using namespace swiftrl::rlcore;

// --- ShardMap ---------------------------------------------------------

TEST(ShardMap, InvalidReasonRejectsBadConfigurations)
{
    EXPECT_NE(ShardMap::invalidReason(0, 1), "");
    EXPECT_NE(ShardMap::invalidReason(-4, 1), "");
    EXPECT_NE(ShardMap::invalidReason(16, 0), "");
    EXPECT_NE(ShardMap::invalidReason(4, 5), "");
    // 5 states on 4 shards: ceil(5/4) = 2 rows per shard puts shard
    // 3's range at [6, 8) — entirely past the table. Must be refused,
    // not silently given an empty shard.
    EXPECT_NE(ShardMap::invalidReason(5, 4), "");
}

TEST(ShardMap, InvalidReasonAcceptsValidConfigurations)
{
    EXPECT_EQ(ShardMap::invalidReason(16, 1), "");
    EXPECT_EQ(ShardMap::invalidReason(16, 4), "");
    EXPECT_EQ(ShardMap::invalidReason(500, 6), "");
    EXPECT_EQ(ShardMap::invalidReason(7, 7), "");
}

TEST(ShardMap, OwnershipIsAContiguousCoveringPartition)
{
    const ShardMap map(10, 3); // rowsPerShard = 4: ranges 4/4/2
    EXPECT_EQ(map.rowsPerShard(), 4);
    EXPECT_EQ(map.ownedRows(0), 4);
    EXPECT_EQ(map.ownedRows(1), 4);
    EXPECT_EQ(map.ownedRows(2), 2);

    std::size_t prev = 0;
    for (StateId s = 0; s < 10; ++s) {
        const std::size_t owner = map.ownerOf(s);
        ASSERT_LT(owner, 3u);
        EXPECT_GE(owner, prev); // monotone in state id
        EXPECT_GE(s, map.firstState(owner));
        EXPECT_LT(s, map.firstState(owner) + map.ownedRows(owner));
        prev = owner;
    }
}

TEST(ShardMap, SingleShardOwnsEverything)
{
    const ShardMap map(500, 1);
    EXPECT_EQ(map.rowsPerShard(), 500);
    EXPECT_EQ(map.ownedRows(0), 500);
    EXPECT_EQ(map.ownerOf(0), 0u);
    EXPECT_EQ(map.ownerOf(499), 0u);
}

TEST(ShardMapDeath, ConstructorIsFatalOnInvalidConfig)
{
    EXPECT_EXIT((ShardMap{5, 4}), ::testing::ExitedWithCode(1),
                "shard");
}

// --- ShardPlan --------------------------------------------------------

TEST(ShardPlan, InvalidReasonCoversCoreCounts)
{
    EXPECT_NE(swiftrl::shardPlanInvalidReason(16, 4, 0), "");
    EXPECT_NE(swiftrl::shardPlanInvalidReason(16, 4, 3), "");
    EXPECT_EQ(swiftrl::shardPlanInvalidReason(16, 4, 4), "");
    EXPECT_EQ(swiftrl::shardPlanInvalidReason(16, 4, 9), "");
    // Map-level failures surface through the same probe.
    EXPECT_NE(swiftrl::shardPlanInvalidReason(5, 4, 8), "");
}

TEST(ShardPlan, ReplicaGroupsAreContiguousWithRemainderLow)
{
    // 8 cores over 3 shards: groups of 3, 3, 2 — extras to the low
    // shards, same determinism rule as partitionDataset.
    const ShardPlan plan = swiftrl::makeShardPlan(100, 3, 8);
    ASSERT_EQ(plan.coresOfShard.size(), 3u);
    EXPECT_EQ(plan.coresOfShard[0],
              (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(plan.coresOfShard[1],
              (std::vector<std::size_t>{3, 4, 5}));
    EXPECT_EQ(plan.coresOfShard[2], (std::vector<std::size_t>{6, 7}));
    ASSERT_EQ(plan.shardOfCore.size(), 8u);
    for (std::size_t s = 0; s < 3; ++s)
        for (const std::size_t core : plan.coresOfShard[s])
            EXPECT_EQ(plan.shardOfCore[core], s);
}

// --- routing ----------------------------------------------------------

Dataset
crossShardData()
{
    // 10 states, 2 shards (rows 0-4 / 5-9). Mix of local, cross-shard
    // and terminal transitions, in a deliberately shuffled order.
    Dataset d;
    d.append({7, 1, -1.0f, 2, false}); // shard 1, remote next
    d.append({1, 0, 0.5f, 6, false});  // shard 0, remote next
    d.append({2, 3, 1.0f, 9, true});   // shard 0, terminal
    d.append({3, 2, 0.0f, 4, false});  // shard 0, local next
    d.append({9, 0, 2.0f, 8, false});  // shard 1, local next
    d.append({0, 1, -0.5f, 5, false}); // shard 0, remote next
    return d;
}

TEST(ShardRouting, GroupsByOwnerStably)
{
    const Dataset d = crossShardData();
    const ShardMap map(10, 2);
    const ShardRouting r = swiftrl::routeByOwner(d, map);

    ASSERT_EQ(r.order.size(), d.size());
    EXPECT_EQ(r.shardCount, (std::vector<std::size_t>{4, 2}));
    EXPECT_EQ(r.shardFirst, (std::vector<std::size_t>{0, 4}));

    // Stable: dataset order preserved within each shard's span.
    EXPECT_EQ(std::vector<std::size_t>(r.order.begin(),
                                       r.order.begin() + 4),
              (std::vector<std::size_t>{1, 2, 3, 5}));
    EXPECT_EQ(std::vector<std::size_t>(r.order.begin() + 4,
                                       r.order.end()),
              (std::vector<std::size_t>{0, 4}));

    // order is a permutation of [0, size).
    auto sorted = r.order;
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::size_t> iota(d.size());
    std::iota(iota.begin(), iota.end(), 0);
    EXPECT_EQ(sorted, iota);
}

TEST(ShardRouting, HaloIsSortedUniqueRemoteNonTerminals)
{
    const Dataset d = crossShardData();
    const ShardMap map(10, 2);
    const ShardRouting r = swiftrl::routeByOwner(d, map);

    // Shard 0's transitions reference remote next states 6 and 5;
    // the terminal next state 9 needs no halo row.
    const auto halo0 = swiftrl::collectHalo(d, r, map, 0,
                                            r.shardFirst[0],
                                            r.shardCount[0]);
    EXPECT_EQ(halo0, (std::vector<StateId>{5, 6}));

    // Shard 1 references remote next state 2.
    const auto halo1 = swiftrl::collectHalo(d, r, map, 1,
                                            r.shardFirst[1],
                                            r.shardCount[1]);
    EXPECT_EQ(halo1, (std::vector<StateId>{2}));
}

// --- localized packing ------------------------------------------------

/** packLocalizedChunk into a fresh buffer. */
std::vector<std::uint8_t>
localized(const Dataset &d, const ShardRouting &r, const ShardMap &map,
          std::size_t shard, std::size_t first, std::size_t count,
          const std::vector<StateId> &halo, bool fp32, std::int32_t scale)
{
    std::vector<std::uint8_t> bytes(count * sizeof(PackedTransition));
    swiftrl::packLocalizedChunk(d, r, map, shard, first, count, halo,
                                fp32, scale, bytes);
    return bytes;
}

/** Dataset::packFp32/packInt32 (scale 0 = FP32) into a fresh buffer. */
std::vector<std::uint8_t>
packed(const Dataset &d, std::size_t first, std::size_t count,
       std::int32_t scale = 0)
{
    std::vector<std::uint8_t> bytes(count * sizeof(PackedTransition));
    if (scale == 0)
        d.packFp32(first, count, bytes);
    else
        d.packInt32(first, count, scale, bytes);
    return bytes;
}

/** packHaloWire into a fresh buffer. */
std::vector<std::uint8_t>
haloWire(const QTableIo &qio, const QTable &q,
         const std::vector<StateId> &halo)
{
    std::vector<std::uint8_t> bytes(
        halo.size() * static_cast<std::size_t>(q.numActions()) *
        swiftrl::rlcore::kQWireBytesPerEntry);
    swiftrl::packHaloWire(qio, q, halo, bytes);
    return bytes;
}

TEST(ShardPacking, LocalizedChunkRewritesIdsAndKeepsRewards)
{
    const Dataset d = crossShardData();
    const ShardMap map(10, 2);
    const ShardRouting r = swiftrl::routeByOwner(d, map);
    const auto halo = swiftrl::collectHalo(d, r, map, 0,
                                           r.shardFirst[0],
                                           r.shardCount[0]);

    const auto bytes = localized(d, r, map, 0, r.shardFirst[0],
                                 r.shardCount[0], halo, true, 0);
    ASSERT_EQ(bytes.size(), 4 * sizeof(PackedTransition));

    std::vector<PackedTransition> recs(4);
    std::memcpy(recs.data(), bytes.data(), bytes.size());

    // Dataset index 1: (1, 0, 0.5, ->6). State 1 is local row 1; next
    // state 6 is remote, halo index of 6 is 1 -> row 5 + 1 = 6.
    EXPECT_EQ(recs[0].state, 1);
    EXPECT_EQ(recs[0].nextStateBits, 6u);

    // Dataset index 2: terminal -> local row 0 with the flag set (the
    // row is never read, but the kernel forms the pointer first).
    EXPECT_EQ(recs[1].state, 2);
    EXPECT_EQ(recs[1].nextStateBits, PackedTransition::kTerminalBit);

    // Dataset index 3: local next 4 stays row 4.
    EXPECT_EQ(recs[2].nextStateBits, 4u);

    // Dataset index 5: next 5 is halo index 0 -> row 5.
    EXPECT_EQ(recs[3].state, 0);
    EXPECT_EQ(recs[3].nextStateBits, 5u);

    // Reward bits match the unsharded FP32 encoding exactly.
    const auto ref = packed(d, 1, 1); // dataset record 1
    PackedTransition ref_rec;
    std::memcpy(&ref_rec, ref.data(), sizeof(ref_rec));
    EXPECT_EQ(recs[0].rewardBits, ref_rec.rewardBits);
}

TEST(ShardPacking, SingleShardLocalizedChunkMatchesDatasetPack)
{
    // With one shard and the identity routing, the localized pack is
    // byte-identical to Dataset::packFp32/packInt32 for non-terminal
    // transitions (terminal next states are rewritten to row 0 in
    // either shard count — their row is never read).
    Dataset d;
    d.append({7, 1, -1.0f, 2, false});
    d.append({1, 0, 0.5f, 6, false});
    d.append({3, 2, 0.0f, 4, false});
    d.append({9, 0, 2.0f, 8, false});
    d.append({0, 1, -0.5f, 5, false});
    const ShardMap map(10, 1);
    const ShardRouting r = swiftrl::routeByOwner(d, map);
    const std::vector<StateId> halo; // single shard: nothing remote

    EXPECT_EQ(localized(d, r, map, 0, 0, d.size(), halo, true, 0),
              packed(d, 0, d.size()));
    EXPECT_EQ(localized(d, r, map, 0, 0, d.size(), halo, false, 1 << 16),
              packed(d, 0, d.size(), 1 << 16));
}

QTable
rampTable(StateId ns, ActionId na)
{
    QTable q(ns, na);
    for (StateId s = 0; s < ns; ++s)
        for (ActionId a = 0; a < na; ++a)
            q.at(s, a) = 0.125f * float(s) - 0.25f * float(a);
    return q;
}

TEST(ShardPacking, SliceWireOfSingleShardMatchesFullPack)
{
    const QTable q = rampTable(10, 4);
    for (const auto format :
         {NumericFormat::Fp32, NumericFormat::Int32}) {
        const Workload w{Algorithm::QLearning, Sampling::Seq, format};
        const QTableIo qio(w, Hyper{});
        const ShardMap map(10, 1);
        EXPECT_EQ(swiftrl::packSliceWire(qio, q, map, 0),
                  qio.packWire(q));
    }
}

TEST(ShardPacking, SliceWirePadsTrailingShardWithZeros)
{
    const QTable q = rampTable(10, 2);
    const Workload w{Algorithm::QLearning, Sampling::Seq,
                     NumericFormat::Fp32};
    const QTableIo qio(w, Hyper{});
    const ShardMap map(10, 3); // rows 4/4/2(+2 padding)

    const auto wire = swiftrl::packSliceWire(qio, q, map, 2);
    ASSERT_EQ(wire.size(), 4u * 2u * sizeof(float));
    std::vector<float> rows(8);
    std::memcpy(rows.data(), wire.data(), wire.size());
    EXPECT_EQ(rows[0], q.at(8, 0));
    EXPECT_EQ(rows[3], q.at(9, 1));
    EXPECT_EQ(rows[4], 0.0f); // padding rows are zero
    EXPECT_EQ(rows[7], 0.0f);
}

TEST(ShardPacking, SliceWireMatchesPackWireOfPaddedSlice)
{
    // Every shard, every wire format: the slice wire is the whole-
    // table encoding of the shard's rows with zero padding rows.
    const QTable q = rampTable(10, 3);
    const ShardMap map(10, 3); // rows 4/4/2(+2 padding)
    for (const auto format :
         {NumericFormat::Fp32, NumericFormat::Int32, NumericFormat::Int8}) {
        const Workload w{Algorithm::QLearning, Sampling::Seq, format};
        const QTableIo qio(w, Hyper{});
        for (std::size_t shard = 0; shard < 3; ++shard) {
            QTable slice(map.rowsPerShard(), 3);
            for (StateId r = 0; r < map.ownedRows(shard); ++r)
                for (ActionId a = 0; a < 3; ++a)
                    slice.at(r, a) = q.at(map.firstState(shard) + r, a);
            EXPECT_EQ(swiftrl::packSliceWire(qio, q, map, shard),
                      qio.packWire(slice))
                << "shard " << shard;
        }
    }
}

TEST(ShardPacking, HaloWirePacksRowsInHaloOrder)
{
    const QTable q = rampTable(10, 3);
    const Workload w{Algorithm::QLearning, Sampling::Seq,
                     NumericFormat::Fp32};
    const QTableIo qio(w, Hyper{});
    const std::vector<StateId> halo{5, 6};

    const auto wire = haloWire(qio, q, halo);
    ASSERT_EQ(wire.size(), 2u * 3u * sizeof(float));
    std::vector<float> rows(6);
    std::memcpy(rows.data(), wire.data(), wire.size());
    for (ActionId a = 0; a < 3; ++a) {
        EXPECT_EQ(rows[std::size_t(a)], q.at(5, a));
        EXPECT_EQ(rows[3 + std::size_t(a)], q.at(6, a));
    }

    EXPECT_TRUE(haloWire(qio, q, {}).empty());
}

TEST(ShardPacking, HaloWireMatchesPackWireOfTheRows)
{
    // The halo rows are encoded exactly as a whole-table broadcast
    // encodes them, in both formats.
    const QTable q = rampTable(10, 3);
    const std::vector<StateId> halo{2, 7, 9};
    for (const auto format :
         {NumericFormat::Fp32, NumericFormat::Int32, NumericFormat::Int8}) {
        const Workload w{Algorithm::QLearning, Sampling::Seq, format};
        const QTableIo qio(w, Hyper{});
        QTable rows(3, 3);
        for (std::size_t i = 0; i < halo.size(); ++i)
            for (ActionId a = 0; a < 3; ++a)
                rows.at(static_cast<StateId>(i), a) = q.at(halo[i], a);
        EXPECT_EQ(haloWire(qio, q, halo), qio.packWire(rows));
    }
}

TEST(ShardPacking, SliceWireDecodesBackThroughQTableIo)
{
    const QTable q = rampTable(6, 2);
    const ShardMap map(6, 2);
    for (const auto format :
         {NumericFormat::Fp32, NumericFormat::Int32}) {
        const Workload w{Algorithm::QLearning, Sampling::Seq, format};
        const QTableIo qio(w, Hyper{});
        // Shard 1's slice is rows 3-5; the sharded aggregation decodes
        // gathered slices with the same QTableIo decoder.
        const auto wire = swiftrl::packSliceWire(qio, q, map, 1);
        const QTable slice = qio.decodeTable(wire, 3, 2);
        for (StateId s = 0; s < 3; ++s) {
            for (ActionId a = 0; a < 2; ++a) {
                if (format == NumericFormat::Fp32)
                    EXPECT_EQ(slice.at(s, a), q.at(s + 3, a));
                else
                    EXPECT_NEAR(slice.at(s, a), q.at(s + 3, a), 1e-4f);
            }
        }
    }
}

// --- MRAM bound -------------------------------------------------------

TEST(ShardPacking, MramDemandBoundShrinksWithMoreShards)
{
    const auto one =
        swiftrl::shardedMramDemandBound(1 << 20, 4, 1, 65536);
    const auto eight =
        swiftrl::shardedMramDemandBound(1 << 20, 4, 8, 65536);
    EXPECT_GT(one, eight);
    // The slice term dominates at this scale: 2^20 * 4 entries * 4B.
    EXPECT_GE(one, std::size_t(1 << 20) * 4 * 4);
}

} // namespace
