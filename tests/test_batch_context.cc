/**
 * @file
 * Batch-interpreter bit-identity. Every training launch runs the
 * batch interpreter (runTrainingKernelBatch through
 * CommandStream::launchBatch); the per-core scalar kernel survives
 * only as a test oracle (tests/oracle/scalar_kernel.cc), run lane by
 * lane through the same launch path. The batch interpreter must be
 * observationally identical to the oracle — same per-core cycles,
 * per-class op counts, DMA bytes, Q-table and visit-count MRAM bytes,
 * and LCG streams — across every kernel
 * variant x tasklet counts {1, 2, 3, 24}, visit tracking for
 * weighted aggregation, sharded slices with per-core halo rows, and
 * cohorts with dead cores formed by the launch engine under a fault
 * plan. (Host-pool invariance of whole training runs, which decides
 * how cohorts are chunked, is test_determinism's.) Sharded cases use
 * the session's slice | halo | data bank layout, so the batch lanes
 * train on [slice | halo] in place while the oracle copies both into
 * WRAM; the halo rows must come out untouched.
 */

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "oracle/scalar_kernel.hh"
#include "pimsim/batch_context.hh"
#include "pimsim/command_stream.hh"
#include "pimsim/dpu.hh"
#include "pimsim/kernel_context.hh"
#include "pimsim/pim_system.hh"
#include "rlcore/dataset.hh"
#include "rlcore/seeds.hh"
#include "rlenv/registry.hh"
#include "swiftrl/pim_kernels.hh"
#include "swiftrl/workload.hh"

namespace {

using swiftrl::KernelParams;
using swiftrl::Workload;
using swiftrl::pimsim::BatchKernelContext;
using swiftrl::pimsim::CommandStream;
using swiftrl::pimsim::Cycles;
using swiftrl::pimsim::Dpu;
using swiftrl::pimsim::DpuCostModel;
using swiftrl::pimsim::FaultKind;
using swiftrl::pimsim::kNumOpClasses;
using swiftrl::pimsim::PimConfig;
using swiftrl::pimsim::PimSystem;
using swiftrl::pimsim::TimeBucket;
using swiftrl::rlcore::Algorithm;
using swiftrl::rlcore::NumericFormat;
using swiftrl::rlcore::PackedTransition;
using swiftrl::rlcore::Sampling;

// --- kernel-level parity matrix ---------------------------------------

constexpr std::size_t kQOffset = 0;
constexpr std::size_t kVisitsOffset = 32 * 1024;
constexpr std::size_t kDataOffset = 64 * 1024;
constexpr std::size_t kWramBytes = 64 * 1024;
constexpr int kEpisodes = 3;

/** One launch configuration, applied to a row of cores. */
struct KernelCase
{
    Workload workload;
    unsigned tasklets = 1;
    bool trackVisits = false;
    /** Owned rows per core; 0 = unsharded (whole table). */
    std::size_t sliceRows = 0;
    /** Per-core chunk lengths; an empty chunk charges nothing. */
    std::vector<std::size_t> counts{0, 1, 37, 128, 300};
    /** Per-core halo rows (sharded only). */
    std::vector<std::size_t> halo{0, 3, 5, 2, 8};
    /** Mark every n-th record terminal as well; 0 = the data's own. */
    std::size_t terminalEvery = 0;
    /** Terminal records' next states point far past the table. */
    bool wildTerminals = false;
};

/** Next-state word of a terminal record far past any test table. */
constexpr std::uint32_t kWildNextState = 0x7fff'0000u;

/** Everything observable about one core after the launches. */
struct CoreObs
{
    Cycles cycles = 0;
    std::array<std::uint64_t, kNumOpClasses> ops{};
    std::uint64_t dma = 0;
    std::vector<std::uint8_t> q;
    std::vector<std::uint8_t> visits;
    std::vector<std::uint8_t> halo;
};

struct KernelRun
{
    std::vector<CoreObs> cores;
    std::vector<std::uint32_t> lcg;
};

/** Re-map record state ids into a [slice | halo] local layout. */
void
localise(std::vector<std::uint8_t> &bytes, std::size_t slice_rows,
         std::size_t halo_rows)
{
    for (std::size_t off = 0; off + sizeof(PackedTransition) <= bytes.size();
         off += sizeof(PackedTransition)) {
        PackedTransition rec;
        std::memcpy(&rec, bytes.data() + off, sizeof rec);
        rec.state = static_cast<std::int32_t>(
            static_cast<std::size_t>(rec.state) % slice_rows);
        const std::uint32_t term =
            rec.nextStateBits & PackedTransition::kTerminalBit;
        const std::size_t s2 =
            (rec.nextStateBits & ~PackedTransition::kTerminalBit) %
            (slice_rows + halo_rows);
        rec.nextStateBits = static_cast<std::uint32_t>(s2) | term;
        std::memcpy(bytes.data() + off, &rec, sizeof rec);
    }
}

class KernelParity : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        _env = swiftrl::rlenv::makeEnvironment("frozenlake");
        _data = swiftrl::rlcore::collectRandomDataset(*_env, 600, 7);
        _ns = _env->numStates();
        _na = static_cast<std::size_t>(_env->numActions());
    }

    std::size_t
    ownRows(const KernelCase &c) const
    {
        return c.sliceRows ? c.sliceRows : static_cast<std::size_t>(_ns);
    }

    std::size_t
    haloRows(const KernelCase &c, std::size_t core) const
    {
        return c.sliceRows ? c.halo[core] : 0;
    }

    /** Sharded: the halo directly follows the slice. */
    std::size_t
    haloOffset(const KernelCase &c) const
    {
        return kQOffset + ownRows(c) * _na * 4;
    }

    /**
     * Sharded: slice | halo | data, the data region 8-byte aligned
     * past the largest halo (the session reserves the worst case).
     */
    std::size_t
    dataOffset(const KernelCase &c) const
    {
        if (!c.sliceRows)
            return kDataOffset;
        std::size_t widest = 0;
        for (const std::size_t rows : c.halo)
            widest = std::max(widest, rows);
        return (haloOffset(c) + widest * _na * 4 + 7) / 8 * 8;
    }

    /** The halo rows core @p i starts with. */
    std::vector<std::uint8_t>
    haloWords(const KernelCase &c, std::size_t i) const
    {
        return qWords(c, haloRows(c, i), i + 11);
    }

    /** Small non-zero Q words, valid in every numeric format. */
    std::vector<std::uint8_t>
    qWords(const KernelCase &c, std::size_t rows, std::size_t salt) const
    {
        std::vector<std::uint8_t> out(rows * _na * 4);
        for (std::size_t k = 0; k < rows * _na; ++k) {
            const auto v = static_cast<std::int32_t>((k + salt) % 7) - 3;
            const std::int32_t word =
                c.workload.format == NumericFormat::Fp32
                    ? std::bit_cast<std::int32_t>(
                          static_cast<float>(v) * 0.25f)
                    : v;
            std::memcpy(out.data() + k * 4, &word, 4);
        }
        return out;
    }

    /** The chunk core @p i trains on, packed for the case's format. */
    std::vector<std::uint8_t>
    chunk(const KernelCase &c, std::size_t i) const
    {
        const std::size_t n = c.counts[i];
        const std::size_t first = (i * 53) % (_data.size() - n + 1);
        const swiftrl::rlcore::Hyper hyper;
        const std::int32_t scale =
            c.workload.format == NumericFormat::Int8
                ? (1 << hyper.int8Shift)
                : hyper.scale;
        std::vector<std::uint8_t> bytes(
            n * sizeof(swiftrl::rlcore::PackedTransition));
        if (c.workload.format == NumericFormat::Fp32)
            _data.packFp32(first, n, bytes);
        else
            _data.packInt32(first, n, scale, bytes);
        if (c.sliceRows)
            localise(bytes, c.sliceRows, haloRows(c, i));
        for (std::size_t r = 0; r < n; ++r) {
            PackedTransition rec;
            std::memcpy(&rec, bytes.data() + r * sizeof rec, sizeof rec);
            if (c.terminalEvery && r % c.terminalEvery == 0)
                rec.nextStateBits |= PackedTransition::kTerminalBit;
            if (c.wildTerminals &&
                (rec.nextStateBits & PackedTransition::kTerminalBit)) {
                rec.nextStateBits =
                    (kWildNextState + static_cast<std::uint32_t>(r)) |
                    PackedTransition::kTerminalBit;
            }
            std::memcpy(bytes.data() + r * sizeof rec, &rec, sizeof rec);
        }
        return bytes;
    }

    std::vector<Dpu>
    makeCores(const KernelCase &c) const
    {
        std::vector<Dpu> dpus;
        dpus.reserve(c.counts.size());
        for (std::size_t i = 0; i < c.counts.size(); ++i) {
            dpus.emplace_back(i, 8u << 20);
            Dpu &d = dpus.back();
            const auto q = qWords(c, ownRows(c), i);
            d.mramWrite(kQOffset, q.data(), q.size());
            if (haloRows(c, i) > 0) {
                const auto h = haloWords(c, i);
                d.mramWrite(haloOffset(c), h.data(), h.size());
            }
            const auto bytes = chunk(c, i);
            if (!bytes.empty())
                d.mramWrite(dataOffset(c), bytes.data(), bytes.size());
        }
        return dpus;
    }

    std::vector<std::uint32_t>
    seeds(const KernelCase &c) const
    {
        std::vector<std::uint32_t> lcg(c.counts.size() * c.tasklets);
        for (std::size_t i = 0; i < lcg.size(); ++i)
            lcg[i] = swiftrl::rlcore::deriveLcgSeed(1, i);
        return lcg;
    }

    KernelParams
    params(const KernelCase &c, std::vector<std::size_t> &counts,
           std::vector<std::size_t> &halo,
           std::vector<std::uint32_t> &lcg) const
    {
        KernelParams p;
        p.workload = c.workload;
        p.hyper.episodes = kEpisodes;
        p.numStates = _ns;
        p.numActions = static_cast<swiftrl::rlcore::ActionId>(_na);
        p.qOffset = kQOffset;
        p.dataOffset = dataOffset(c);
        p.trackVisits = c.trackVisits;
        p.visitsOffset = kVisitsOffset;
        p.episodes = kEpisodes;
        p.chunkCounts = &counts;
        p.lcgStates = &lcg;
        p.tasklets = c.tasklets;
        // Small staging blocks: several per chunk, a short tail, and
        // tasklet sub-chunks that straddle block boundaries.
        p.blockTransitions = 32;
        p.sliceRows = c.sliceRows;
        p.haloOffset = haloOffset(c);
        p.haloRows = &halo;
        return p;
    }

    KernelRun
    observe(const KernelCase &c, std::vector<Dpu> &dpus,
            const std::vector<Cycles> &cycles,
            const std::vector<std::uint32_t> &lcg) const
    {
        KernelRun run;
        run.lcg = lcg;
        for (std::size_t i = 0; i < dpus.size(); ++i) {
            CoreObs o;
            o.cycles = cycles[i];
            o.ops = dpus[i].opCounts();
            o.dma = dpus[i].dmaBytes();
            o.q.resize(ownRows(c) * _na * 4);
            dpus[i].mramRead(kQOffset, o.q.data(), o.q.size());
            if (c.trackVisits) {
                o.visits.resize(ownRows(c) * _na * 4);
                dpus[i].mramRead(kVisitsOffset, o.visits.data(),
                                 o.visits.size());
            }
            o.halo.resize(haloRows(c, i) * _na * 4);
            dpus[i].mramRead(haloOffset(c), o.halo.data(), o.halo.size());
            run.cores.push_back(std::move(o));
        }
        return run;
    }

    /**
     * The batch interpreter, or the oracle lane by lane, over @p p
     * (which must outlive the kernel).
     */
    static swiftrl::pimsim::BatchKernel
    kernelOf(const KernelParams &p, bool batch)
    {
        if (!batch)
            return swiftrl::oracle::oracleKernel(p);
        return [&p](BatchKernelContext &bctx) {
            swiftrl::runTrainingKernelBatch(bctx, p);
        };
    }

    /**
     * Two launches (LCG and Q carry over) over one cohort of every
     * core: the batch interpreter, or the oracle lane by lane.
     */
    KernelRun
    runLanes(const KernelCase &c, bool batch) const
    {
        auto dpus = makeCores(c);
        auto counts = c.counts;
        auto halo = c.halo;
        auto lcg = seeds(c);
        const auto p = params(c, counts, halo, lcg);
        const auto kernel = kernelOf(p, batch);
        std::vector<Cycles> cycles(dpus.size(), 0);
        std::vector<Dpu *> lanes;
        for (Dpu &d : dpus)
            lanes.push_back(&d);
        for (int launch = 0; launch < 2; ++launch) {
            BatchKernelContext bctx(lanes, _model, kWramBytes);
            kernel(bctx);
            bctx.flushAll();
            for (std::size_t j = 0; j < bctx.lanes(); ++j)
                cycles[bctx.dpuId(j)] += bctx.lane(j).cycles();
        }
        return observe(c, dpus, cycles, lcg);
    }

    /** Batch == oracle on every core; returns the batch run. */
    KernelRun
    expectParity(const KernelCase &c) const
    {
        const KernelRun oracle = runLanes(c, false);
        const KernelRun batch = runLanes(c, true);
        Cycles total = 0;
        for (std::size_t i = 0; i < c.counts.size(); ++i) {
            SCOPED_TRACE("core " + std::to_string(i));
            const CoreObs &o = oracle.cores[i];
            const CoreObs &b = batch.cores[i];
            EXPECT_EQ(b.cycles, o.cycles);
            EXPECT_EQ(b.ops, o.ops);
            EXPECT_EQ(b.dma, o.dma);
            EXPECT_EQ(b.q, o.q);
            EXPECT_EQ(b.visits, o.visits);
            // Halo rows are read-only: in place, they stay as seeded.
            EXPECT_EQ(b.halo, o.halo);
            EXPECT_EQ(b.halo, haloWords(c, i));
            total += o.cycles;
            // An empty chunk charges nothing at all.
            if (c.counts[i] == 0) {
                EXPECT_EQ(b.cycles, 0u);
                EXPECT_EQ(b.dma, 0u);
            }
        }
        EXPECT_EQ(batch.lcg, oracle.lcg);
        // Parity must be of real work, not of two empty runs.
        EXPECT_GT(total, 0u);
        return batch;
    }

    std::string
    label(const KernelCase &c) const
    {
        return c.workload.name() + " tasklets=" +
               std::to_string(c.tasklets) +
               (c.trackVisits ? " visits" : "") +
               (c.sliceRows ? " sharded" : "");
    }

    DpuCostModel _model;
    std::unique_ptr<swiftrl::rlenv::Environment> _env;
    swiftrl::rlcore::Dataset _data;
    swiftrl::rlcore::StateId _ns = 0;
    std::size_t _na = 0;
};

TEST_F(KernelParity, EveryVariantAndTaskletCountMatchesOracle)
{
    // {QL, SARSA} x {SEQ, RAN, STR} x {FP32, INT32, INT8} x
    // tasklets {1, 2, 3, 24}. With 24 tasklets the 1- and 37-record
    // chunks leave most tasklets idle.
    for (const Workload &w : swiftrl::extendedWorkloads()) {
        for (const unsigned t : {1u, 2u, 3u, 24u}) {
            KernelCase c;
            c.workload = w;
            c.tasklets = t;
            SCOPED_TRACE(label(c));
            expectParity(c);
        }
    }
}

TEST_F(KernelParity, VisitTrackingMatchesOracle)
{
    for (const Workload &w : swiftrl::extendedWorkloads()) {
        for (const unsigned t : {1u, 3u}) {
            KernelCase c;
            c.workload = w;
            c.tasklets = t;
            c.trackVisits = true;
            SCOPED_TRACE(label(c));
            const KernelRun run = expectParity(c);
            // The counters were really written back.
            std::uint64_t visits = 0;
            for (const CoreObs &o : run.cores) {
                for (std::size_t k = 0; k < o.visits.size(); k += 4) {
                    std::uint32_t v;
                    std::memcpy(&v, o.visits.data() + k, 4);
                    visits += v;
                }
            }
            EXPECT_GT(visits, 0u);
        }
    }
}

TEST_F(KernelParity, ShardedHaloRowsMatchOracle)
{
    // Every lane has its own halo row count, so the per-lane
    // [slice | halo] geometry differs across the cohort, and the
    // data region sits past the widest halo.
    for (const Workload &w : swiftrl::extendedWorkloads()) {
        for (const unsigned t : {1u, 3u}) {
            for (const std::size_t rows : {8u, 5u}) {
                KernelCase c;
                c.workload = w;
                c.tasklets = t;
                c.sliceRows = rows;
                SCOPED_TRACE(label(c) + " rows=" + std::to_string(rows));
                expectParity(c);
            }
        }
    }
}

TEST_F(KernelParity, TerminalHeavyChunksMatchOracle)
{
    // About one record in two terminal, against one in eight in the
    // random-policy data: the lanes select the bootstrap by the flag
    // (and SARSA rewinds its epsilon draw on a terminal record) where
    // the priced templates branch. Every rule family, RAN and SEQ.
    for (const Algorithm algo : {Algorithm::QLearning, Algorithm::Sarsa}) {
        for (const NumericFormat fmt :
             {NumericFormat::Fp32, NumericFormat::Int32,
              NumericFormat::Int8}) {
            for (const Sampling sampling : {Sampling::Ran, Sampling::Seq}) {
                for (const unsigned t : {1u, 3u}) {
                    KernelCase c;
                    c.workload = Workload{algo, sampling, fmt};
                    c.tasklets = t;
                    c.terminalEvery = 2;
                    SCOPED_TRACE(label(c));
                    const auto bytes = chunk(c, 4);
                    std::size_t terminal = 0;
                    for (std::size_t off = 0; off < bytes.size();
                         off += sizeof(PackedTransition)) {
                        PackedTransition rec;
                        std::memcpy(&rec, bytes.data() + off, sizeof rec);
                        terminal += (rec.nextStateBits &
                                     PackedTransition::kTerminalBit) != 0;
                    }
                    EXPECT_GE(2 * terminal, c.counts[4]);
                    expectParity(c);
                }
            }
        }
    }
}

TEST_F(KernelParity, WildTerminalNextStatesStayInsideTheBank)
{
    // Terminal records whose next-state word points about 32 GB past
    // the table. The priced templates never read that row; the lanes
    // always scan a next-state row, so they must read row 0 instead —
    // a read of the stored row would leave the bank and fault — and
    // still match the oracle bit for bit.
    for (const Workload &w : swiftrl::extendedWorkloads()) {
        for (const unsigned t : {1u, 3u}) {
            KernelCase c;
            c.workload = w;
            c.tasklets = t;
            c.terminalEvery = 2;
            c.wildTerminals = true;
            SCOPED_TRACE(label(c));
            expectParity(c);
        }
    }
}

// --- launch-engine parity under faults --------------------------------

/** One engine's view of four launches on a faulty system. */
struct StreamRun
{
    std::vector<bool> ok;
    std::vector<std::size_t> dead;
    std::vector<Cycles> cycles;
    std::vector<std::array<std::uint64_t, kNumOpClasses>> ops;
    std::vector<std::uint64_t> dma;
    std::vector<std::vector<std::uint8_t>> q;
    std::vector<std::uint32_t> lcg;
    double clock = 0.0; ///< stream clock after the launches

    bool operator==(const StreamRun &) const = default;
};

class EngineParity : public KernelParity
{
  protected:
    StreamRun
    run(const KernelCase &c, unsigned host_threads, bool batch) const
    {
        PimConfig pim;
        pim.numDpus = c.counts.size();
        pim.hostThreads = host_threads;
        // A transient fault (the launch fails and runs again) and a
        // permanent dropout (the core leaves the cohort for good).
        pim.faultPlan.scheduled = {
            {FaultKind::TransientKernel, /*site=*/0, /*dpu=*/1},
            {FaultKind::PermanentDropout, /*site=*/1, /*dpu=*/3}};
        PimSystem system(pim);
        CommandStream stream(system);

        std::vector<std::vector<std::uint8_t>> q(c.counts.size()),
            data(c.counts.size());
        for (std::size_t i = 0; i < c.counts.size(); ++i) {
            q[i] = qWords(c, ownRows(c), i);
            data[i] = chunk(c, i);
        }
        const auto poke = [&stream](std::size_t offset,
                                    const auto &payloads) {
            stream.poke(
                offset,
                [&](std::size_t i) { return payloads[i].size(); },
                [&](std::size_t i, std::span<std::uint8_t> out) {
                    std::ranges::copy(payloads[i], out.begin());
                });
        };
        poke(kQOffset, q);
        poke(kDataOffset, data);

        auto counts = c.counts;
        auto halo = c.halo;
        auto lcg = seeds(c);
        const auto p = params(c, counts, halo, lcg);
        const auto kernel = kernelOf(p, batch);

        StreamRun r;
        for (int launch = 0; launch < 4; ++launch) {
            const auto status = stream.launchBatch(
                kernel, c.tasklets, TimeBucket::Kernel, "kernel");
            r.ok.push_back(status.ok());
        }
        for (std::size_t i = 0; i < system.numDpus(); ++i) {
            const Dpu &d = system.dpu(i);
            if (stream.isDead(i))
                r.dead.push_back(i);
            r.cycles.push_back(d.cycles());
            r.ops.push_back(d.opCounts());
            r.dma.push_back(d.dmaBytes());
            std::vector<std::uint8_t> bytes(q[i].size());
            d.mramRead(kQOffset, bytes.data(), bytes.size());
            r.q.push_back(std::move(bytes));
        }
        r.lcg = lcg;
        r.clock = stream.now();
        return r;
    }
};

TEST_F(EngineParity, LaunchBatchMatchesPerCoreLaunchUnderFaults)
{
    // launchBatch forms the cohort of live cores and runs either the
    // batch kernel or the oracle lane by lane on it: the engine's
    // fault sites, failed attempts and dead-core exclusion hold for
    // both, and the kernels match bit for bit on what the live cores
    // commit.
    for (const Workload &w :
         {Workload{Algorithm::QLearning, Sampling::Seq,
                   NumericFormat::Fp32},
          Workload{Algorithm::Sarsa, Sampling::Ran,
                   NumericFormat::Int32}}) {
        for (const unsigned t : {1u, 3u}) {
            for (const unsigned pool : {1u, 4u}) {
                KernelCase c;
                c.workload = w;
                c.tasklets = t;
                SCOPED_TRACE(label(c) + " pool=" + std::to_string(pool));
                const StreamRun oracle = run(c, pool, false);
                const StreamRun batch = run(c, pool, true);
                EXPECT_TRUE(batch == oracle);
                EXPECT_EQ(batch.ok,
                          (std::vector<bool>{false, false, true, true}));
                EXPECT_EQ(batch.dead, (std::vector<std::size_t>{3}));
                EXPECT_GT(batch.clock, 0.0);
                // The dead core dropped out before any launch ran:
                // nothing charged, Q image and LCG streams as seeded.
                EXPECT_EQ(batch.cycles[3], 0u);
                EXPECT_EQ(batch.ops[3],
                          (std::array<std::uint64_t, kNumOpClasses>{}));
                EXPECT_EQ(batch.q[3], qWords(c, ownRows(c), 3));
                const auto seeded = seeds(c);
                for (unsigned tl = 0; tl < t; ++tl)
                    EXPECT_EQ(batch.lcg[3 * t + tl], seeded[3 * t + tl]);
            }
        }
    }
}

} // namespace
