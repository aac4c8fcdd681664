/**
 * @file
 * Test oracle: the scalar per-core training kernel.
 *
 * Interprets the kernel once per core, charging every priced op as it
 * executes through the core's CoreOps — the straightforward reading of
 * the DPU program. Production runs use the batch interpreter
 * (swiftrl::runTrainingKernelBatch); this oracle exists so the tests
 * can prove batch == scalar on Q-tables, cycles, op counts, DMA bytes
 * and LCG states, and so the charge-ledger test can drive a real
 * kernel through both the ledger and a write-through sink.
 */

#include "oracle/scalar_kernel.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "rlcore/dataset.hh"
#include "rlcore/sampling.hh"
#include "rlcore/update_rules.hh"

namespace swiftrl::oracle {

namespace {

using rlcore::ActionId;
using rlcore::PackedTransition;
using rlcore::StateId;

/**
 * Experience fetcher. SEQ and STR kernels stream aligned blocks of
 * records through a WRAM staging buffer (one DMA per block); RAN
 * kernels issue one small DMA per record, since consecutive draws land
 * in unrelated MRAM rows — the access pattern PIM tolerates and caches
 * do not.
 */
template <typename Ops>
class TransitionFetcher
{
  public:
    TransitionFetcher(Ops &ctx, std::size_t data_offset,
                      std::size_t count, std::size_t block_transitions,
                      bool block_mode)
        : _ctx(ctx), _dataOffset(data_offset), _count(count),
          _blockTransitions(block_transitions), _blockMode(block_mode)
    {
        SWIFTRL_ASSERT(_blockTransitions > 0, "empty staging block");
        if (_blockMode)
            _buffer.resize(_blockTransitions);
    }

    /** Fetch record @p idx, charging its DMA and WRAM traffic. */
    PackedTransition
    fetch(std::size_t idx)
    {
        SWIFTRL_ASSERT(idx < _count, "record index out of chunk");
        PackedTransition rec;
        if (_blockMode) {
            if (idx < _blockStart ||
                idx >= _blockStart + _blockLen) {
                loadBlock(idx);
            }
            rec = _buffer[idx - _blockStart];
            // Buffer indexing: offset computation on the core.
            _ctx.aluOps(2);
        } else {
            _ctx.mramToWram(_dataOffset + idx * kTransitionBytes, &rec,
                            kTransitionBytes);
        }
        // The update reads all four record words from WRAM.
        _ctx.aluOps(4);
        return rec;
    }

  private:
    void
    loadBlock(std::size_t idx)
    {
        const std::size_t start =
            idx / _blockTransitions * _blockTransitions;
        _blockLen = std::min(_blockTransitions, _count - start);
        _ctx.mramToWram(_dataOffset + start * kTransitionBytes,
                        _buffer.data(), _blockLen * kTransitionBytes);
        _blockStart = start;
    }

    Ops &_ctx;
    std::size_t _dataOffset;
    std::size_t _count;
    std::size_t _blockTransitions;
    bool _blockMode;
    std::vector<PackedTransition> _buffer;
    std::size_t _blockStart = std::numeric_limits<std::size_t>::max();
    std::size_t _blockLen = 0;
};

/** Unpacked record fields common to both formats. */
struct RecordFields
{
    StateId s;
    ActionId a;
    std::int32_t rewardBits;
    StateId s2;
    bool terminal;
};

template <typename Ops>
RecordFields
decodeRecord(Ops &ctx, const PackedTransition &rec)
{
    RecordFields f;
    f.s = rec.state;
    f.a = rec.action;
    f.rewardBits = rec.rewardBits;
    // Terminal flag unmasking: an AND and a shift.
    ctx.aluOps(2);
    f.s2 = static_cast<StateId>(rec.nextStateBits &
                                ~PackedTransition::kTerminalBit);
    f.terminal =
        (rec.nextStateBits & PackedTransition::kTerminalBit) != 0;
    return f;
}

/** Single-tasklet training loop (the paper's configuration). */
template <typename Ops, typename QWord, typename UpdateFn>
void
trainCoreSingleTasklet(Ops &ctx, const KernelParams &p,
                       std::size_t count, QWord *q, UpdateFn &&update)
{
    const std::size_t core = ctx.dpuId();
    const bool block_mode =
        p.workload.sampling != rlcore::Sampling::Ran;
    ctx.wramAlloc(block_mode
                      ? p.blockTransitions * kTransitionBytes
                      : kTransitionBytes);

    ctx.lcgSeed((*p.lcgStates)[core]);

    rlcore::SampleWalker walker(
        count, p.workload.sampling,
        static_cast<std::size_t>(p.hyper.stride));
    TransitionFetcher<Ops> fetcher(ctx, p.dataOffset, count,
                                   p.blockTransitions, block_mode);

    for (int ep = 0; ep < p.episodes; ++ep) {
        walker.startEpisode();
        ctx.branch();
        for (std::size_t k = 0; k < count; ++k) {
            const std::size_t idx =
                walker.next([&](std::size_t bound) {
                    return static_cast<std::size_t>(
                        ctx.lcgNextBounded(
                            static_cast<std::uint32_t>(bound)));
                });
            // Walker bookkeeping + loop counter + record address
            // computation (idx * 16 as a shift).
            ctx.aluOps(3);
            ctx.branch();

            const PackedTransition rec = fetcher.fetch(idx);
            const RecordFields f = decodeRecord(ctx, rec);
            update(ctx, q, f);
        }
    }

    (*p.lcgStates)[core] = ctx.lcgState();
}

/**
 * Multi-tasklet training loop (the paper's future work): the chunk is
 * split into near-equal contiguous sub-chunks, one per tasklet; each
 * tasklet walks its own sub-chunk in the workload's sampling order
 * with its own persistent LCG stream and staging buffer, and all
 * tasklets update the core's shared WRAM Q-table. Execution
 * interleaves round-robin, one update per tasklet per turn, matching
 * the pipeline's fine-grained multithreading order.
 */
template <typename Ops, typename QWord, typename UpdateFn>
void
trainCoreMultiTasklet(Ops &ctx, const KernelParams &p,
                      std::size_t count, QWord *q, UpdateFn &&update)
{
    const std::size_t core = ctx.dpuId();
    const unsigned t = p.tasklets;
    SWIFTRL_ASSERT(p.lcgStates->size() >=
                       (core + 1) * static_cast<std::size_t>(t),
                   "LCG state table too small for ", t,
                   " tasklets on core ", core);
    const bool block_mode =
        p.workload.sampling != rlcore::Sampling::Ran;

    // Sub-chunk split; tasklets beyond the chunk size stay idle.
    std::vector<std::size_t> sub_first(t, 0), sub_count(t, 0);
    {
        const std::size_t base = count / t;
        const std::size_t extra = count % t;
        std::size_t at = 0;
        for (unsigned tl = 0; tl < t; ++tl) {
            sub_first[tl] = at;
            sub_count[tl] = base + (tl < extra ? 1 : 0);
            at += sub_count[tl];
        }
    }

    std::vector<std::unique_ptr<rlcore::SampleWalker>> walkers(t);
    std::vector<std::unique_ptr<TransitionFetcher<Ops>>> fetchers(t);
    std::vector<std::uint32_t> lcg(t);
    std::size_t longest = 0;
    for (unsigned tl = 0; tl < t; ++tl) {
        lcg[tl] = (*p.lcgStates)[core * t + tl];
        if (sub_count[tl] == 0)
            continue;
        // Each tasklet owns a staging buffer in the shared WRAM.
        ctx.wramAlloc(block_mode
                          ? p.blockTransitions * kTransitionBytes
                          : kTransitionBytes);
        walkers[tl] = std::make_unique<rlcore::SampleWalker>(
            sub_count[tl], p.workload.sampling,
            static_cast<std::size_t>(p.hyper.stride));
        fetchers[tl] = std::make_unique<TransitionFetcher<Ops>>(
            ctx, p.dataOffset, count, p.blockTransitions,
            block_mode);
        longest = std::max(longest, sub_count[tl]);
    }

    for (int ep = 0; ep < p.episodes; ++ep) {
        for (unsigned tl = 0; tl < t; ++tl) {
            if (walkers[tl])
                walkers[tl]->startEpisode();
        }
        ctx.branch();
        for (std::size_t k = 0; k < longest; ++k) {
            for (unsigned tl = 0; tl < t; ++tl) {
                if (k >= sub_count[tl])
                    continue;
                // Swap in this tasklet's LCG stream.
                ctx.lcgSeed(lcg[tl]);
                const std::size_t idx =
                    walkers[tl]->next([&](std::size_t bound) {
                        return static_cast<std::size_t>(
                            ctx.lcgNextBounded(
                                static_cast<std::uint32_t>(bound)));
                    });
                ctx.aluOps(3);
                ctx.branch();

                const PackedTransition rec =
                    fetchers[tl]->fetch(sub_first[tl] + idx);
                const RecordFields f = decodeRecord(ctx, rec);
                update(ctx, q, f);
                lcg[tl] = ctx.lcgState();
            }
        }
    }

    for (unsigned tl = 0; tl < t; ++tl)
        (*p.lcgStates)[core * t + tl] = lcg[tl];
}

/** Shared training kernel body, templated on the Q-word type. */
template <typename QWord, typename Ops, typename UpdateFn>
void
trainCore(Ops &ctx, const KernelParams &p, UpdateFn &&update)
{
    const std::size_t core = ctx.dpuId();
    SWIFTRL_ASSERT(p.chunkCounts && core < p.chunkCounts->size(),
                   "missing chunk table for core ", core);
    SWIFTRL_ASSERT(p.lcgStates && core < p.lcgStates->size(),
                   "missing LCG state for core ", core);
    SWIFTRL_ASSERT(p.tasklets >= 1, "at least one tasklet required");
    const std::size_t count = (*p.chunkCounts)[core];
    if (count == 0 || p.episodes <= 0)
        return;

    const bool sharded = p.sliceRows > 0;
    SWIFTRL_ASSERT(!sharded || !p.trackVisits,
                   "visit tracking is incompatible with sharded "
                   "Q-tables");
    SWIFTRL_ASSERT(!sharded ||
                       (p.haloRows && core < p.haloRows->size()),
                   "missing halo table for core ", core);
    // In sharded mode the WRAM table is [owned slice | halo rows]:
    // the slice is read-write and DMA'd back, the halo is a
    // read-only snapshot of remote next-state rows, refreshed by the
    // host each sync round. Record state ids arrive pre-localised to
    // this layout, so the update rules below are oblivious to it.
    const std::size_t own_rows =
        sharded ? p.sliceRows : static_cast<std::size_t>(p.numStates);
    const std::size_t halo_rows =
        sharded ? (*p.haloRows)[core] : 0;
    const std::size_t na = static_cast<std::size_t>(p.numActions);
    const std::size_t own_entries = own_rows * na;
    const std::size_t q_entries = (own_rows + halo_rows) * na;
    const std::size_t own_bytes = own_entries * sizeof(QWord);
    // Shared WRAM Q-table, DMA'd in at entry and out at exit; the
    // inbound DMA overwrites every entry.
    ctx.wramAlloc(q_entries * sizeof(QWord));
    std::vector<QWord> q_image(q_entries);
    QWord *q = q_image.data();
    ctx.mramToWram(p.qOffset, q, own_bytes);
    if (halo_rows > 0) {
        ctx.mramToWram(p.haloOffset, q + own_entries,
                       halo_rows * na * sizeof(QWord));
    }

    // Optional visit counters for weighted aggregation: zeroed each
    // launch (weights reflect the current round's coverage).
    std::vector<std::uint32_t> visit_image;
    std::uint32_t *visits = nullptr;
    if (p.trackVisits) {
        ctx.wramAlloc(q_entries * sizeof(std::uint32_t));
        visit_image.assign(q_entries, 0u);
        visits = visit_image.data();
    }
    auto counted_update = [&](Ops &c, QWord *table,
                              const RecordFields &f) {
        update(c, table, f);
        if (p.trackVisits) {
            // Increment: one address computation + load-modify-store.
            c.aluOps(2);
            ++visits[static_cast<std::size_t>(f.s) *
                         static_cast<std::size_t>(p.numActions) +
                     static_cast<std::size_t>(f.a)];
        }
    };

    if (p.tasklets == 1) {
        trainCoreSingleTasklet(ctx, p, count, q, counted_update);
    } else {
        trainCoreMultiTasklet(ctx, p, count, q, counted_update);
    }

    // Only the owned slice is written back; halo rows are a stale
    // read-only snapshot the host refreshes from the aggregate.
    ctx.wramToMram(p.qOffset, q, own_bytes);
    if (p.trackVisits) {
        ctx.wramToMram(p.visitsOffset, visits,
                       q_entries * sizeof(std::uint32_t));
    }
}

} // namespace

template <typename Sink>
void
runTrainingKernel(CoreOps<Sink> &ctx, const KernelParams &p)
{
    using Ops = CoreOps<Sink>;
    using rlcore::Algorithm;
    using rlcore::NumericFormat;

    SWIFTRL_ASSERT(p.numStates > 0 && p.numActions > 0,
                   "kernel needs a Q-table shape");
    const auto scaled = rlcore::ScaledHyper::fromHyper(p.hyper);
    const auto epsilon_milli = scaled.epsilonMilli;
    const float alpha = p.hyper.alpha;
    const float gamma = p.hyper.gamma;
    const ActionId num_actions = p.numActions;

    if (p.workload.format == NumericFormat::Fp32) {
        if (p.workload.algo == Algorithm::QLearning) {
            trainCore<float>(
                ctx, p,
                [&](Ops &c, float *q, const RecordFields &f) {
                    rlcore::qlearningUpdateFp32(
                        c, q, num_actions, f.s, f.a,
                        std::bit_cast<float>(f.rewardBits), f.s2,
                        f.terminal, alpha, gamma);
                });
        } else {
            trainCore<float>(
                ctx, p,
                [&](Ops &c, float *q, const RecordFields &f) {
                    rlcore::sarsaUpdateFp32(
                        c, q, num_actions, f.s, f.a,
                        std::bit_cast<float>(f.rewardBits), f.s2,
                        f.terminal, alpha, gamma, epsilon_milli);
                });
        }
        return;
    }

    if (p.workload.format == NumericFormat::Int8) {
        const auto pow2 = rlcore::ScaledHyperPow2::fromHyper(p.hyper);
        if (p.workload.algo == Algorithm::QLearning) {
            trainCore<std::int32_t>(
                ctx, p,
                [&](Ops &c, std::int32_t *q,
                    const RecordFields &f) {
                    rlcore::qlearningUpdateInt8(c, q, num_actions,
                                                f.s, f.a,
                                                f.rewardBits, f.s2,
                                                f.terminal, pow2);
                });
        } else {
            trainCore<std::int32_t>(
                ctx, p,
                [&](Ops &c, std::int32_t *q,
                    const RecordFields &f) {
                    rlcore::sarsaUpdateInt8(c, q, num_actions, f.s,
                                            f.a, f.rewardBits, f.s2,
                                            f.terminal, pow2);
                });
        }
        return;
    }

    if (p.workload.algo == Algorithm::QLearning) {
        trainCore<std::int32_t>(
            ctx, p,
            [&](Ops &c, std::int32_t *q, const RecordFields &f) {
                rlcore::qlearningUpdateInt32(c, q, num_actions, f.s,
                                             f.a, f.rewardBits, f.s2,
                                             f.terminal, scaled);
            });
    } else {
        trainCore<std::int32_t>(
            ctx, p,
            [&](Ops &c, std::int32_t *q, const RecordFields &f) {
                rlcore::sarsaUpdateInt32(c, q, num_actions, f.s, f.a,
                                         f.rewardBits, f.s2,
                                         f.terminal, scaled);
            });
    }
}

// Instantiated here so kernel code stays out of the header while the
// tests link either sink.
template void runTrainingKernel(LedgerOps &, const KernelParams &);
template void runTrainingKernel(CoreOps<WriteThroughSink> &,
                                const KernelParams &);

WriteThroughSink::WriteThroughSink(pimsim::Dpu &dpu,
                                   const pimsim::DpuCostModel &model,
                                   std::size_t wram_capacity)
    : _dpu(&dpu), _model(&model), _wramCapacity(wram_capacity)
{
}

void
WriteThroughSink::chargeBulk(pimsim::OpClass op, std::uint64_t count)
{
    _cycles += _model->cyclesFor(op) * count;
    _dpu->countOps(op, count);
}

void
WriteThroughSink::chargeDmaSpanBulk(std::size_t bytes,
                                    std::uint64_t times)
{
    const std::size_t align = _model->mramDmaAlignBytes;
    for (std::uint64_t t = 0; t < times; ++t) {
        for (std::size_t done = 0; done < bytes;) {
            const std::size_t piece = std::min<std::size_t>(
                bytes - done, _model->mramDmaMaxBytes);
            const std::size_t padded =
                (piece + align - 1) / align * align;
            _cycles +=
                _model->dmaCycles(static_cast<std::uint32_t>(padded));
            _dpu->addDmaBytes(padded);
            done += piece;
        }
    }
}

void
WriteThroughSink::wramAlloc(std::size_t bytes)
{
    _wramUsed += bytes;
    if (_wramUsed > _wramCapacity) {
        SWIFTRL_FATAL("DPU ", _dpu->id(), ": kernel WRAM footprint ",
                      _wramUsed, " bytes exceeds the ", _wramCapacity,
                      "-byte scratchpad");
    }
}

pimsim::BatchKernel
perLane(std::function<void(LedgerOps &)> body)
{
    return [body = std::move(body)](pimsim::BatchKernelContext &bctx) {
        for (std::size_t i = 0; i < bctx.lanes(); ++i) {
            LedgerOps ops(bctx.lane(i), bctx.dpu(i));
            body(ops);
        }
    };
}

pimsim::BatchKernel
oracleKernel(const KernelParams &params)
{
    return perLane(
        [&params](LedgerOps &ops) { runTrainingKernel(ops, params); });
}

} // namespace swiftrl::oracle
