/**
 * @file
 * Tests for the per-core state (MRAM bank, cycle counters).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "pimsim/dpu.hh"

namespace {

using swiftrl::pimsim::Dpu;
using swiftrl::pimsim::OpClass;

TEST(Dpu, IdentityAndCapacity)
{
    Dpu dpu(7, 1024);
    EXPECT_EQ(dpu.id(), 7u);
    EXPECT_EQ(dpu.mramCapacity(), 1024u);
    EXPECT_EQ(dpu.cycles(), 0u);
}

TEST(Dpu, MramRoundtrip)
{
    Dpu dpu(0, 4096);
    const std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
    dpu.mramWrite(100, data.data(), data.size());
    std::vector<std::uint8_t> out(data.size());
    dpu.mramRead(100, out.data(), out.size());
    EXPECT_EQ(out, data);
}

TEST(Dpu, UnwrittenMramReadsAsZero)
{
    Dpu dpu(0, 4096);
    std::vector<std::uint8_t> out(16, 0xff);
    dpu.mramRead(0, out.data(), out.size());
    for (const auto b : out)
        EXPECT_EQ(b, 0);
}

TEST(Dpu, PartiallyWrittenReadMixesDataAndZeros)
{
    Dpu dpu(0, 4096);
    const std::uint8_t byte = 0xab;
    dpu.mramWrite(0, &byte, 1);
    std::vector<std::uint8_t> out(4, 0xff);
    dpu.mramRead(0, out.data(), out.size());
    EXPECT_EQ(out[0], 0xab);
    EXPECT_EQ(out[1], 0);
    EXPECT_EQ(out[3], 0);
}

TEST(Dpu, CyclesAccumulate)
{
    Dpu dpu(0, 64);
    dpu.addCycles(10);
    dpu.addCycles(32);
    EXPECT_EQ(dpu.cycles(), 42u);
}

TEST(Dpu, OpCountsAccumulate)
{
    Dpu dpu(0, 64);
    dpu.countOps(OpClass::Fp32Mul, 3);
    dpu.countOps(OpClass::Fp32Mul, 2);
    dpu.countOps(OpClass::IntAlu, 1);
    EXPECT_EQ(dpu.opCounts()[static_cast<std::size_t>(
                  OpClass::Fp32Mul)],
              5u);
    EXPECT_EQ(dpu.opCounts()[static_cast<std::size_t>(
                  OpClass::IntAlu)],
              1u);
}

TEST(Dpu, ResetStatsKeepsMram)
{
    Dpu dpu(0, 64);
    const std::uint8_t byte = 0x5a;
    dpu.mramWrite(8, &byte, 1);
    dpu.addCycles(99);
    dpu.addDmaBytes(16);
    dpu.resetStats();
    EXPECT_EQ(dpu.cycles(), 0u);
    EXPECT_EQ(dpu.dmaBytes(), 0u);
    std::uint8_t out = 0;
    dpu.mramRead(8, &out, 1);
    EXPECT_EQ(out, 0x5a);
}

TEST(DpuDeath, WritePastCapacityIsFatal)
{
    Dpu dpu(3, 64);
    const std::vector<std::uint8_t> data(65, 0);
    EXPECT_EXIT(dpu.mramWrite(0, data.data(), data.size()),
                ::testing::ExitedWithCode(1), "exceeds the 64-byte");
}

TEST(DpuDeath, ReadPastCapacityIsFatal)
{
    Dpu dpu(3, 64);
    std::uint8_t out;
    EXPECT_EXIT(dpu.mramRead(64, &out, 1),
                ::testing::ExitedWithCode(1), "exceeds the 64-byte");
}

TEST(Dpu, WriteUpToCapacityIsAllowed)
{
    Dpu dpu(0, 64);
    const std::vector<std::uint8_t> data(64, 0x11);
    dpu.mramWrite(0, data.data(), data.size());
    std::vector<std::uint8_t> out(64);
    dpu.mramRead(0, out.data(), 64);
    EXPECT_EQ(out, data);
}

TEST(Dpu, IncrementalWritesKeepContentsAndZeroFill)
{
    // The lazy buffer grows geometrically under a long sequence of
    // boundary-crossing writes; growth policy must never change what
    // a read returns — written bytes verbatim, unwritten bytes zero.
    Dpu dpu(0, 1 << 20);
    std::vector<std::uint8_t> expect(1 << 20, 0);
    std::size_t end = 0;
    for (std::size_t i = 0; i < 300; ++i) {
        const std::uint8_t value =
            static_cast<std::uint8_t>(i + 1);
        const std::size_t at = i * 331; // crosses every boundary
        dpu.mramWrite(at, &value, 1);
        expect[at] = value;
        end = std::max(end, at + 1);
    }
    std::vector<std::uint8_t> out(end + 512, 0xff);
    dpu.mramRead(0, out.data(), out.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], expect[i]) << "byte " << i;
}

TEST(Dpu, GrowthClampsToCapacityAtTheTail)
{
    // A write landing in the last bytes of the bank must succeed
    // even though doubling from the current size would overshoot
    // the capacity.
    Dpu dpu(0, 100);
    const std::uint8_t low = 0x01;
    dpu.mramWrite(0, &low, 1);
    const std::vector<std::uint8_t> tail(10, 0xee);
    dpu.mramWrite(90, tail.data(), tail.size());
    std::vector<std::uint8_t> out(100);
    dpu.mramRead(0, out.data(), 100);
    EXPECT_EQ(out[0], 0x01);
    EXPECT_EQ(out[50], 0x00);
    EXPECT_EQ(out[99], 0xee);
}

/**
 * Free a dirty @p bytes block just before a bank grows to that size,
 * so the growth most likely reuses it (glibc hands the last freed
 * chunk of a size back first): a byte the growth fails to zero then
 * reads 0xa5, not the zero of a fresh page.
 */
void
dirtyHeap(std::size_t bytes)
{
    auto *junk = new std::uint8_t[bytes];
    std::memset(junk, 0xa5, bytes);
    // Keep the fill from being dropped as a dead store.
    asm volatile("" : : "r"(junk) : "memory");
    delete[] junk;
}

TEST(Dpu, LandedPayloadHasZerosAroundIt)
{
    // The landing payload's range is not zeroed before the copy-in,
    // but the gap below it and the growth tail past it must be.
    Dpu dpu(0, 4096);
    const std::vector<std::uint8_t> low(64, 0x11);
    dpu.mramWrite(0, low.data(), low.size());
    const std::vector<std::uint8_t> payload(16, 0x22);
    dpu.mramShare(100, std::make_shared<const std::vector<std::uint8_t>>(
                           payload));
    dirtyHeap(128);
    const auto bank = dpu.mram();
    ASSERT_EQ(bank.size(), 128u); // doubled from 64, past the payload
    for (std::size_t i = 0; i < bank.size(); ++i) {
        const std::uint8_t want =
            i < 64 ? 0x11 : (i >= 100 && i < 116 ? 0x22 : 0x00);
        ASSERT_EQ(bank[i], want) << "byte " << i;
    }
}

TEST(Dpu, FillRangeGrowsWithZerosAroundIt)
{
    // mramFill leaves only the range it hands out unzeroed: once the
    // caller has written it, the gap below and the tail past it read
    // zero through every accessor.
    Dpu dpu(0, 4096);
    const std::vector<std::uint8_t> low(64, 0x11);
    dpu.mramWrite(0, low.data(), low.size());
    dirtyHeap(128);
    const auto chunk = dpu.mramFill(80, 20);
    ASSERT_EQ(chunk.size(), 20u);
    std::ranges::fill(chunk, std::uint8_t{0x33});

    const auto expect = [](std::size_t i) -> std::uint8_t {
        return i < 64 ? 0x11 : (i >= 80 && i < 100 ? 0x33 : 0x00);
    };
    const auto bank = dpu.mram();
    ASSERT_EQ(bank.size(), 128u);
    std::vector<std::uint8_t> read(bank.size());
    dpu.mramRead(0, read.data(), read.size());
    const std::uint8_t *view = dpu.mramView(0, bank.size());
    for (std::size_t i = 0; i < bank.size(); ++i) {
        ASSERT_EQ(bank[i], expect(i)) << "mram(), byte " << i;
        ASSERT_EQ(read[i], expect(i)) << "mramRead, byte " << i;
        ASSERT_EQ(view[i], expect(i)) << "mramView, byte " << i;
    }
}

} // namespace
