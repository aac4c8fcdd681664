#include "swiftrl/pim_kernels.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "common/logging.hh"
#include "rlcore/dataset.hh"
#include "rlcore/sampling.hh"
#include "rlcore/update_rules.hh"

namespace swiftrl {

namespace {

using rlcore::ActionId;
using rlcore::PackedTransition;
using rlcore::StateId;

/** Unpacked record fields common to both formats. */
struct RecordFields
{
    StateId s;
    ActionId a;
    std::int32_t rewardBits;
    StateId s2;
    bool terminal;
};

// --- batch interpreter ------------------------------------------------
//
// A literal interpreter would run the kernel once per core, charging
// each priced op as it executes — ~30 ledger increments per Q-update
// (tests/oracle/scalar_kernel.cc is that interpreter, kept as the
// tests' reference). The batch interpreter exploits that every core
// of a cohort runs the *same* kernel: it executes the update rules
// functionally through a cost-free ops provider (LaneOps) and retires
// the charges wholesale, as per-lane tallies of control-flow *shapes*
// multiplied by probe-calibrated per-shape charge profiles. This is
// exact, not approximate: an update's charge sequence is fully
// determined by its shape — terminal (no bootstrap scan), SARSA
// explore (two extra LCG draws), or the main path — because the
// bootstrap scans have fixed trip count (num_actions) and charge
// identically on either branch outcome. See docs/PERFORMANCE.md,
// "Batch interpretation".

/** Update-charge shapes. One tally per lane per shape. */
enum : std::size_t
{
    /** Terminal record: no bootstrap. */
    kShapeTerminal = 0,
    /** Non-terminal main path (Q-learning max / SARSA exploit). */
    kShapeMain = 1,
    /** SARSA non-terminal explore: epsilon branch taken. */
    kShapeExplore = 2,
    kNumShapes = 3
};

/** Op-class charge counts of one update shape. */
using ShapeProfile = std::array<std::uint64_t, pimsim::kNumOpClasses>;

/**
 * Functional ops provider for batch lanes: computes like HostOps —
 * bit-identical to KernelContext by construction — while counting LCG
 * draws (to classify the SARSA shape) and replicating KernelContext's
 * operand-range assertions, so a batch run dies on exactly the inputs
 * a scalar run would (e.g. INT8 range violations).
 */
struct LaneOps : rlcore::HostOps
{
    /** LCG draws made by the current update; reset per record. */
    unsigned draws = 0;

    std::uint32_t
    lcgNextBounded(std::uint32_t bound)
    {
        SWIFTRL_ASSERT(bound > 0,
                       "lcgNextBounded requires a positive bound");
        ++draws;
        return rlcore::HostOps::lcgNextBounded(bound);
    }

    std::int32_t
    rescale(std::int64_t value, std::int32_t scale)
    {
        SWIFTRL_ASSERT(scale != 0, "rescale by zero");
        return rlcore::HostOps::rescale(value, scale);
    }

    std::int64_t
    imulSmall(std::int32_t a, std::int32_t b)
    {
        SWIFTRL_ASSERT(a >= -32768 && a <= 32767,
                       "imulSmall wide operand ", a,
                       " exceeds 16 bits: the environment's value "
                       "range does not fit the INT8 optimisation");
        SWIFTRL_ASSERT(b >= -128 && b <= 127,
                       "imulSmall narrow operand ", b,
                       " exceeds 8 bits");
        return rlcore::HostOps::imulSmall(a, b);
    }

    std::int32_t
    rescaleShift(std::int64_t value, int shift)
    {
        SWIFTRL_ASSERT(shift >= 0 && shift < 31, "bad shift ", shift);
        return rlcore::HostOps::rescaleShift(value, shift);
    }
};

/**
 * LaneOps variant for the INT32 fixed-point rules, which divide by
 * the same positive scale (the paper's 10,000) twice per update — a
 * 64-bit divide dominates their cost. This override replaces it with
 * a Granlund–Montgomery style magic multiply: for
 * m = ceil(2^63 / d) and err = m*d - 2^63 < d,
 *   floor(uv*m / 2^63) = floor((uv + uv*err/2^63) / d),
 * which equals floor(uv / d) exactly whenever uv*err < 2^63 —
 * checked against a precomputed limit, far above any value imul32
 * can produce for practical scales (plain division covers the rest).
 * Truncation toward zero follows from applying the unsigned floor to
 * |value| and restoring the sign. Kept out of the base LaneOps so
 * variants that never divide (FP32, INT8) don't carry the extra
 * inlined code in their hot loops.
 */
struct LaneOpsFastDiv : LaneOps
{
    std::int32_t
    rescale(std::int64_t value, std::int32_t scale)
    {
        SWIFTRL_ASSERT(scale != 0, "rescale by zero");
#ifdef __SIZEOF_INT128__
        if (scale > 0) {
            if (scale != _divScale)
                setDivisor(scale);
            const std::uint64_t uv =
                value < 0 ? 0 - static_cast<std::uint64_t>(value)
                          : static_cast<std::uint64_t>(value);
            if (uv <= _divLimit) {
                const auto uq = static_cast<std::uint64_t>(
                    (static_cast<unsigned __int128>(uv) * _divMagic)
                    >> 63);
                const auto q = static_cast<std::int64_t>(uq);
                return static_cast<std::int32_t>(value < 0 ? -q : q);
            }
        }
#endif
        return rlcore::HostOps::rescale(value, scale);
    }

#ifdef __SIZEOF_INT128__
  private:
    void
    setDivisor(std::int32_t scale)
    {
        _divScale = scale;
        const auto d = static_cast<std::uint64_t>(scale);
        constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;
        _divMagic = kHalf / d + (kHalf % d != 0 ? 1 : 0);
        const std::uint64_t rem = kHalf % d;
        const std::uint64_t err = rem ? d - rem : 0;
        _divLimit = err ? (kHalf - 1) / err
                        : std::numeric_limits<std::uint64_t>::max();
    }

    std::int32_t _divScale = 0;   ///< divisor the magic was built for
    std::uint64_t _divMagic = 0;  ///< ceil(2^63 / divisor)
    std::uint64_t _divLimit = 0;  ///< largest |value| proven exact
#endif
};

/**
 * Counting ops provider used to calibrate shape profiles: records the
 * exact charge KernelContext makes for each priced helper (the
 * mapping below mirrors pimsim/kernel_context.hh line for line) while
 * computing functionally via HostOps. LCG draws return scripted
 * values so the probe can steer the SARSA epsilon branch.
 */
class ShapeProbe
{
  public:
    ShapeProfile counts{};

    void
    script(std::initializer_list<std::uint32_t> draws)
    {
        _scripted.assign(draws);
        _at = 0;
    }

    float fadd(float a, float b) { add(Fp32Add); return _f.fadd(a, b); }
    float fsub(float a, float b) { add(Fp32Add); return _f.fsub(a, b); }
    float fmul(float a, float b) { add(Fp32Mul); return _f.fmul(a, b); }
    bool fgt(float a, float b) { add(Fp32Cmp); return _f.fgt(a, b); }

    std::int32_t
    iadd(std::int32_t a, std::int32_t b)
    {
        add(IntAlu);
        return _f.iadd(a, b);
    }

    std::int32_t
    isub(std::int32_t a, std::int32_t b)
    {
        add(IntAlu);
        return _f.isub(a, b);
    }

    std::int64_t
    imul32(std::int32_t a, std::int32_t b)
    {
        add(Int32Mul);
        return _f.imul32(a, b);
    }

    std::int32_t
    rescale(std::int64_t value, std::int32_t scale)
    {
        add(Int32Mul);
        add(IntAlu, 2);
        return _f.rescale(value, scale);
    }

    std::int64_t
    imulSmall(std::int32_t a, std::int32_t b)
    {
        add(Int8Mul, 2);
        add(IntAlu, 2);
        return _f.imulSmall(a, b);
    }

    std::int32_t
    rescaleShift(std::int64_t value, int shift)
    {
        add(IntAlu);
        return _f.rescaleShift(value, shift);
    }

    bool igt(std::int32_t a, std::int32_t b) { add(IntAlu); return _f.igt(a, b); }

    float wramLoadF32(const float &slot) { add(WramAccess); return slot; }
    void wramStoreF32(float &slot, float v) { add(WramAccess); slot = v; }
    std::int32_t wramLoadI32(const std::int32_t &slot) { add(WramAccess); return slot; }
    void wramStoreI32(std::int32_t &slot, std::int32_t v) { add(WramAccess); slot = v; }

    void aluOps(std::uint64_t n) { add(IntAlu, n); }
    void branch(std::uint64_t n = 1) { add(Branch, n); }

    /** Scripted draw; charges exactly like the real helper. */
    std::uint32_t
    lcgNextBounded(std::uint32_t)
    {
        // lcgNext (Int32Mul + IntAlu) plus the high-bits reduction
        // (Int32Mul + IntAlu).
        add(Int32Mul, 2);
        add(IntAlu, 2);
        const std::uint32_t v =
            _at < _scripted.size() ? _scripted[_at] : 0u;
        ++_at;
        return v;
    }

  private:
    using enum pimsim::OpClass;

    void
    add(pimsim::OpClass op, std::uint64_t n = 1)
    {
        counts[static_cast<std::size_t>(op)] += n;
    }

    rlcore::HostOps _f;
    std::vector<std::uint32_t> _scripted;
    std::size_t _at = 0;
};

/**
 * Measure the charge profile of each shape by running the real update
 * template against a dummy zeroed two-row table (operands s=0, a=0,
 * r=0, s2 in row 1 for the bootstrap scan — zero values satisfy every
 * operand-range assertion). Exact because the profile depends only on
 * the shape and num_actions, never on table values.
 */
template <typename QWord, typename UpdateFn>
std::array<ShapeProfile, kNumShapes>
calibrateShapes(const KernelParams &p, bool sarsa,
                std::int32_t epsilon_milli, UpdateFn &&update)
{
    const std::size_t na = static_cast<std::size_t>(p.numActions);
    std::vector<QWord> table(2 * na);
    std::array<ShapeProfile, kNumShapes> out{};

    auto run = [&](std::size_t shape, bool terminal,
                   std::initializer_list<std::uint32_t> draws) {
        ShapeProbe probe;
        probe.script(draws);
        std::fill(table.begin(), table.end(), QWord{});
        RecordFields f;
        f.s = 0;
        f.a = 0;
        f.rewardBits = 0;
        f.s2 = terminal ? 0 : 1;
        f.terminal = terminal;
        update(probe, table.data(), f);
        out[shape] = probe.counts;
    };

    run(kShapeTerminal, true, {});
    // Main path: script the epsilon draw to epsilon_milli, which
    // fails `draw < epsilon_milli` and takes the exploit/argmax
    // branch (Q-learning ignores the script — it draws nothing).
    run(kShapeMain, false,
        {static_cast<std::uint32_t>(epsilon_milli)});
    if (sarsa) {
        // Explore path: a zero draw takes the epsilon branch whenever
        // epsilon_milli > 0. With epsilon_milli <= 0 the branch is
        // unreachable in real runs too, so the (then mismeasured)
        // profile is never multiplied by a non-zero tally.
        run(kShapeExplore, false, {0u, 0u});
    }
    return out;
}

/** Shape tallies of one lane. */
using Tally = std::array<std::uint64_t, kNumShapes>;

/** Control-flow shape of the update just applied through @p o. */
template <typename Ops>
std::size_t
shapeOf(const RecordFields &f, const Ops &o)
{
    return f.terminal      ? kShapeTerminal
           : o.draws == 2 ? kShapeExplore
                          : kShapeMain;
}

/**
 * Decode a lane's chunk once into @p recs and return its terminal
 * record count. Transitions are read straight from the lane's bank
 * view: the region is read-only for the whole launch (the lane writes
 * only its Q and visit regions), so the bytes match what per-record
 * DMA would copy and the per-step fetch reduces to an indexed load.
 * Decode is unpriced interpreter work — its charges are retired per
 * record in bulk — so this moves no modelled number.
 */
std::size_t
decodeChunk(const std::uint8_t *data, std::size_t n,
            std::vector<RecordFields> &recs)
{
    recs.resize(n);
    std::size_t terminal_records = 0;
    for (std::size_t r = 0; r < n; ++r) {
        PackedTransition rec;
        std::memcpy(&rec, data + r * kTransitionBytes,
                    kTransitionBytes);
        RecordFields &f = recs[r];
        f.s = rec.state;
        f.a = rec.action;
        f.rewardBits = rec.rewardBits;
        f.s2 = static_cast<StateId>(rec.nextStateBits &
                                    ~PackedTransition::kTerminalBit);
        f.terminal =
            (rec.nextStateBits & PackedTransition::kTerminalBit) != 0;
        terminal_records += f.terminal ? 1 : 0;
    }
    return terminal_records;
}

/**
 * Charge the staging-window DMA of one SEQ/STR walker over a whole
 * launch. The walker visits chunk indices first + local(k), k < len,
 * in an episode-invariant order (local = k for SEQ, order[k] for
 * STR). Its window holds one aligned block of the @p chunk-record
 * chunk, so blocks align against the whole chunk even when a tasklet
 * walks a sub-range of it — only the chunk's last block can be
 * short.
 *
 * Window misses are value-independent, so they are charged up front:
 * walk the window over whole episodes until an episode ends in the
 * state it started from — from then on every episode repeats that
 * miss profile, and the remainder collapses into one bulk charge. In
 * practice the window converges at the first or second episode;
 * convergence is checked, never assumed.
 */
void
chargeBlockMisses(pimsim::KernelContext &ctx, const std::uint32_t *order,
                  std::size_t first, std::size_t len, std::size_t chunk,
                  std::size_t block, std::uint64_t eps)
{
    std::size_t bs = std::numeric_limits<std::size_t>::max(), bl = 0;
    std::uint64_t full = 0, tails = 0;
    std::uint64_t ep_done = 0;
    while (ep_done < eps) {
        const std::size_t bs_in = bs;
        std::uint64_t ep_full = 0, ep_tails = 0;
        for (std::size_t k = 0; k < len; ++k) {
            const std::size_t idx = first + (order ? order[k] : k);
            if (idx >= bs && idx < bs + bl)
                continue;
            bs = idx / block * block;
            bl = std::min(block, chunk - bs);
            ++(bl == block ? ep_full : ep_tails);
        }
        ++ep_done;
        // Steady state: this episode's end window equals its start
        // window, so all remaining episodes repeat this profile.
        const std::uint64_t reps = bs == bs_in ? 1 + (eps - ep_done) : 1;
        full += ep_full * reps;
        tails += ep_tails * reps;
        ep_done += reps - 1;
    }
    ctx.chargeDmaSpanBulk(block * kTransitionBytes, full);
    ctx.chargeDmaSpanBulk(chunk % block * kTransitionBytes, tails);
}

/**
 * The hot path — one tasklet, no visit tracking (the paper's
 * configuration): the lane's records in sampling order through one
 * ops provider, with closed-form shape tallies wherever the shapes do
 * not depend on LCG draws.
 */
template <typename QWord, typename Ops, typename UpdateFn>
void
trainSingle(pimsim::KernelContext &ctx, const KernelParams &p, bool sarsa,
            const std::vector<RecordFields> &recs,
            std::size_t terminal_records, std::vector<std::uint32_t> &order,
            QWord *q, Ops &o, Tally &t, UpdateFn &update)
{
    const std::size_t n = recs.size();
    const auto eps = static_cast<std::uint64_t>(p.episodes);

    if (p.workload.sampling != rlcore::Sampling::Ran) {
        // SEQ and STR visit every index exactly once per episode in
        // an episode-invariant order (SampleWalker rewinds at
        // startEpisode). Materialise the order once — SEQ is the
        // identity and skips the table entirely.
        const bool seq = p.workload.sampling == rlcore::Sampling::Seq;
        if (!seq) {
            order.resize(n);
            rlcore::SampleWalker w(
                n, p.workload.sampling,
                static_cast<std::size_t>(p.hyper.stride));
            for (std::size_t k = 0; k < n; ++k) {
                order[k] = static_cast<std::uint32_t>(
                    w.next([](std::size_t) { return std::size_t{0}; }));
            }
        }
        chargeBlockMisses(ctx, seq ? nullptr : order.data(), 0, n, n,
                          p.blockTransitions, eps);

        if (!sarsa) {
            // Q-learning consumes no LCG draws, so the shape of every
            // visit is the record's terminal flag — and each record
            // is visited exactly once per episode, making the tallies
            // a closed form. The hot loop is just the functional
            // updates.
            for (std::uint64_t ep = 0; ep < eps; ++ep) {
                if (seq) {
                    for (std::size_t k = 0; k < n; ++k)
                        update(o, q, recs[k]);
                } else {
                    for (std::size_t k = 0; k < n; ++k)
                        update(o, q, recs[order[k]]);
                }
            }
            t[kShapeTerminal] += eps * terminal_records;
            t[kShapeMain] += eps * (n - terminal_records);
        } else {
            // SARSA's explore/exploit shape depends on its LCG draws:
            // classify per visit.
            for (std::uint64_t ep = 0; ep < eps; ++ep) {
                for (std::size_t k = 0; k < n; ++k) {
                    const RecordFields &f = recs[seq ? k : order[k]];
                    o.draws = 0;
                    update(o, q, f);
                    ++t[shapeOf(f, o)];
                }
            }
        }
        return;
    }

    // RAN: the sample index is itself an LCG draw, taken before the
    // update's own draws exactly as the scalar fetch-then-update
    // order does.
    const auto bound = static_cast<std::uint32_t>(n);
    if (!sarsa) {
        std::uint64_t term_visits = 0;
        for (std::uint64_t ep = 0; ep < eps; ++ep) {
            for (std::size_t k = 0; k < n; ++k) {
                const RecordFields &f = recs[o.lcg.nextBounded(bound)];
                update(o, q, f);
                term_visits += f.terminal ? 1 : 0;
            }
        }
        t[kShapeTerminal] += term_visits;
        t[kShapeMain] += eps * n - term_visits;
    } else {
        for (std::uint64_t ep = 0; ep < eps; ++ep) {
            for (std::size_t k = 0; k < n; ++k) {
                const RecordFields &f = recs[o.lcg.nextBounded(bound)];
                o.draws = 0;
                update(o, q, f);
                ++t[shapeOf(f, o)];
            }
        }
    }
}

/** One tasklet of a lane in the general path. */
template <typename Ops>
struct Tasklet
{
    std::size_t first = 0; ///< sub-chunk start within the lane's chunk
    std::size_t count = 0; ///< sub-chunk length (0 = idle tasklet)
    Ops ops;               ///< functional provider + its LCG stream
};

/**
 * The general path: any tasklet count, optional visit counting. The
 * chunk splits into near-equal contiguous sub-chunks, one per
 * tasklet; each tasklet walks its own in the workload's sampling
 * order with its own LCG stream and staging window, and updates run
 * round-robin, one per tasklet per turn, over the lane's shared Q
 * region — the multi-tasklet kernel's interleaving, which the shared
 * table makes observable. With one tasklet this is the
 * single-tasklet kernel plus visit counting.
 */
template <typename QWord, typename Ops, typename UpdateFn>
void
trainInterleaved(pimsim::KernelContext &ctx, const KernelParams &p,
                 const std::vector<RecordFields> &recs, std::uint32_t *lcg,
                 std::vector<std::uint32_t> &order,
                 std::vector<Tasklet<Ops>> &tasklets, QWord *q,
                 std::uint32_t *visits, Tally &tally, UpdateFn &update)
{
    const unsigned t = p.tasklets;
    const std::size_t n = recs.size();
    const auto sampling = p.workload.sampling;
    const bool block_mode = sampling != rlcore::Sampling::Ran;
    const bool seq = sampling == rlcore::Sampling::Seq;
    const auto eps = static_cast<std::uint64_t>(p.episodes);
    const std::size_t na = static_cast<std::size_t>(p.numActions);

    // Sub-chunk split; tasklets beyond the chunk size stay idle.
    tasklets.clear();
    tasklets.resize(t);
    order.resize(n);
    std::size_t at = 0, longest = 0;
    for (unsigned tl = 0; tl < t; ++tl) {
        Tasklet<Ops> &k = tasklets[tl];
        k.first = at;
        k.count = n / t + (tl < n % t ? 1 : 0);
        at += k.count;
        k.ops.lcg.seed(lcg[tl]);
        if (k.count == 0)
            continue;
        // Each tasklet owns a staging buffer in the shared WRAM.
        ctx.wramAlloc(block_mode ? p.blockTransitions * kTransitionBytes
                                 : kTransitionBytes);
        longest = std::max(longest, k.count);
        if (sampling == rlcore::Sampling::Str) {
            rlcore::SampleWalker w(
                k.count, sampling,
                static_cast<std::size_t>(p.hyper.stride));
            for (std::size_t j = 0; j < k.count; ++j) {
                order[k.first + j] = static_cast<std::uint32_t>(
                    w.next([](std::size_t) { return std::size_t{0}; }));
            }
        }
        if (block_mode) {
            chargeBlockMisses(ctx, seq ? nullptr : order.data() + k.first,
                              k.first, k.count, n, p.blockTransitions,
                              eps);
        }
    }
    // The single-tasklet kernel seeds its one stream at entry; more
    // tasklets swap theirs in per step (charged with the record).
    if (t == 1)
        ctx.lcgSeed(lcg[0]);

    for (std::uint64_t ep = 0; ep < eps; ++ep) {
        for (std::size_t k = 0; k < longest; ++k) {
            for (Tasklet<Ops> &tk : tasklets) {
                if (k >= tk.count)
                    continue;
                Ops &o = tk.ops;
                const std::size_t local =
                    !block_mode ? o.lcg.nextBounded(
                                      static_cast<std::uint32_t>(tk.count))
                    : seq       ? k
                                : order[tk.first + k];
                const RecordFields &f = recs[tk.first + local];
                o.draws = 0;
                update(o, q, f);
                ++tally[shapeOf(f, o)];
                if (visits) {
                    ++visits[static_cast<std::size_t>(f.s) * na +
                             static_cast<std::size_t>(f.a)];
                }
            }
        }
    }
    for (unsigned tl = 0; tl < t; ++tl)
        lcg[tl] = tasklets[tl].ops.lcg.state();
}

/**
 * Retire a lane's tallied charges: per-shape profiles times tallies,
 * plus the fixed per-record charges outside the update rule, mirrored
 * from the scalar kernel (the parity tests enforce the match):
 *   aluOps(3) + branch   walker/loop bookkeeping
 *   aluOps(4)            record WRAM reads (fetch tail)
 *   aluOps(2)            decode: terminal-flag unmask
 *   block mode: aluOps(2) buffer indexing, every fetch
 *   RAN: lcgNextBounded draw = Int32Mul x2 + IntAlu x2,
 *        plus one 16-byte record DMA
 *   tasklets > 1: lcgSeed (1 IntAlu) swapping in the step's stream
 *   visit tracking: aluOps(2) counter increment
 * Either sampling mode totals 11 IntAlu per record before the last
 * two. Episodes add one branch each (the episode-loop branch).
 */
void
retireTally(pimsim::KernelContext &ctx, const KernelParams &p,
            const std::array<ShapeProfile, kNumShapes> &shapes,
            const Tally &tally)
{
    ShapeProfile total{};
    std::uint64_t records = 0;
    for (std::size_t s = 0; s < kNumShapes; ++s) {
        records += tally[s];
        for (std::size_t c = 0; c < pimsim::kNumOpClasses; ++c)
            total[c] += shapes[s][c] * tally[s];
    }
    using enum pimsim::OpClass;
    const std::uint64_t alu = 11 + (p.tasklets > 1 ? 1 : 0) +
                              (p.trackVisits ? 2 : 0);
    total[static_cast<std::size_t>(IntAlu)] += alu * records;
    total[static_cast<std::size_t>(Branch)] +=
        records + static_cast<std::uint64_t>(p.episodes);
    if (p.workload.sampling == rlcore::Sampling::Ran) {
        total[static_cast<std::size_t>(Int32Mul)] += 2 * records;
        ctx.chargeDmaSpanBulk(kTransitionBytes, records);
    }
    for (std::size_t c = 0; c < pimsim::kNumOpClasses; ++c) {
        if (total[c] != 0)
            ctx.chargeBulk(static_cast<pimsim::OpClass>(c), total[c]);
    }
}

/**
 * Typed in-place view of @p count words at MRAM @p offset of a lane's
 * bank (Dpu::mramLane). The offset must be aligned for T — the bank
 * buffer itself comes from the default allocator, aligned for every
 * word type — and the words must lie inside the bank.
 */
template <typename T>
T *
laneWords(std::span<std::uint8_t> bank, std::size_t offset,
          std::size_t count)
{
    SWIFTRL_ASSERT(offset % alignof(T) == 0 &&
                       reinterpret_cast<std::uintptr_t>(bank.data()) %
                               alignof(T) ==
                           0,
                   "lane view at MRAM offset ", offset,
                   " is not aligned for its ", sizeof(T), "-byte words");
    SWIFTRL_ASSERT(offset + count * sizeof(T) <= bank.size(),
                   "lane view past the bank it was taken from");
    return reinterpret_cast<T *>(bank.data() + offset);
}

/**
 * Batch training body: retires every lane of the cohort chunk, one
 * lane at a time. Each lane runs fused, back to back — preamble
 * charges, training loop, tally retirement, writeback charges, LCG
 * store — directly on its own MRAM bank: the Q region (plus, sharded,
 * the halo right behind it) is trained in place and visits are
 * counted in place, while the DMA the DPU program would do (Q in,
 * halo in, Q out, visits out) is charged piece for piece through
 * chargeDmaSpanBulk. Training in place is exact: the DPU program
 * copies the region into WRAM, updates it and copies the owned part
 * back, and only owned rows are ever updated — the halo rows are
 * read-only. Lanes are independent (own bank, walkers, LCG streams)
 * and charges are integer sums, so this order is bit-identical to
 * per-core interpretation; divergent chunk lengths need no masking,
 * as each lane's loop is simply its own length. Dead cores are
 * already excluded from the cohort by CommandStream::launchBatch.
 * @p Ops picks the functional provider (LaneOps, or LaneOpsFastDiv
 * for the division-heavy INT32 rules).
 */
template <typename QWord, typename Ops, typename UpdateFn>
void
trainBatch(pimsim::BatchKernelContext &bctx, const KernelParams &p,
           bool sarsa, std::int32_t epsilon_milli, UpdateFn &&update)
{
    SWIFTRL_ASSERT(p.tasklets >= 1, "at least one tasklet required");
    const bool sharded = p.sliceRows > 0;
    SWIFTRL_ASSERT(!sharded || !p.trackVisits,
                   "visit tracking is incompatible with sharded "
                   "Q-tables");
    // In sharded mode the lane's table is [owned slice | halo rows]:
    // the slice is read-write and written back, the halo is a
    // read-only snapshot of remote next-state rows, refreshed by the
    // host each sync round. Record state ids arrive pre-localised to
    // this layout, so the update rules are oblivious to it.
    const std::size_t na = static_cast<std::size_t>(p.numActions);
    const std::size_t own_entries =
        (sharded ? p.sliceRows : static_cast<std::size_t>(p.numStates)) *
        na;
    const std::size_t own_bytes = own_entries * sizeof(QWord);
    SWIFTRL_ASSERT(!sharded || p.haloOffset == p.qOffset + own_bytes,
                   "sharded lanes train on [slice | halo] in place: the "
                   "halo must directly follow the slice");

    std::optional<std::array<ShapeProfile, kNumShapes>> shapes;
    const bool hot_path = p.tasklets == 1 && !p.trackVisits;
    std::vector<RecordFields> recs;
    std::vector<std::uint32_t> order;
    std::vector<Tasklet<Ops>> tasklets;

    for (std::size_t i = 0; i < bctx.lanes(); ++i) {
        pimsim::KernelContext &ctx = bctx.lane(i);
        const std::size_t core = ctx.dpuId();
        SWIFTRL_ASSERT(p.chunkCounts && core < p.chunkCounts->size(),
                       "missing chunk table for core ", core);
        SWIFTRL_ASSERT(p.lcgStates &&
                           p.lcgStates->size() >= (core + 1) * p.tasklets,
                       "missing LCG state for core ", core);
        // A core with an empty chunk or a non-positive episode budget
        // returns before charging anything, so such lanes are skipped
        // entirely.
        const std::size_t n = (*p.chunkCounts)[core];
        if (n == 0 || p.episodes <= 0)
            continue;
        SWIFTRL_ASSERT(!sharded ||
                           (p.haloRows && core < p.haloRows->size()),
                       "missing halo table for core ", core);
        if (!shapes)
            shapes = calibrateShapes<QWord>(p, sarsa, epsilon_milli,
                                            update);

        // One bank view covering every region the lane touches, taken
        // before any pointer into it (a later growth would move them).
        const std::size_t halo_rows = sharded ? (*p.haloRows)[core] : 0;
        const std::size_t halo_bytes = halo_rows * na * sizeof(QWord);
        const std::size_t q_entries = own_entries + halo_rows * na;
        const std::size_t visit_bytes = q_entries * sizeof(std::uint32_t);
        const std::size_t data_bytes = n * kTransitionBytes;
        std::size_t end = std::max(p.qOffset + own_bytes + halo_bytes,
                                   p.dataOffset + data_bytes);
        if (p.trackVisits)
            end = std::max(end, p.visitsOffset + visit_bytes);
        const std::span<std::uint8_t> bank = bctx.dpu(i).mramLane(end);
        QWord *const q = laneWords<QWord>(bank, p.qOffset, q_entries);

        // Preamble, charge for charge as the kernel's: Q-table WRAM
        // footprint and inbound DMA, then the zeroed visit counters —
        // weights reflect the current round's coverage.
        ctx.wramAlloc(q_entries * sizeof(QWord));
        ctx.chargeDmaSpanBulk(own_bytes, 1);
        ctx.chargeDmaSpanBulk(halo_bytes, 1);
        std::uint32_t *visits = nullptr;
        if (p.trackVisits) {
            visits = laneWords<std::uint32_t>(bank, p.visitsOffset,
                                              q_entries);
            ctx.wramAlloc(visit_bytes);
            std::fill_n(visits, q_entries, 0u);
        }

        const std::size_t terminal_records =
            decodeChunk(bank.data() + p.dataOffset, n, recs);
        std::uint32_t *const lcg = p.lcgStates->data() + core * p.tasklets;
        Tally tally{};
        if (hot_path) {
            ctx.wramAlloc(p.workload.sampling != rlcore::Sampling::Ran
                              ? p.blockTransitions * kTransitionBytes
                              : kTransitionBytes);
            ctx.lcgSeed(lcg[0]);
            Ops o;
            o.lcg.seed(lcg[0]);
            trainSingle<QWord>(ctx, p, sarsa, recs, terminal_records,
                               order, q, o, tally, update);
            lcg[0] = o.lcg.state();
        } else {
            trainInterleaved<QWord>(ctx, p, recs, lcg, order, tasklets,
                                    q, visits, tally, update);
        }
        retireTally(ctx, p, *shapes, tally);

        // Writeback DMA: only the owned slice goes back (halo rows
        // are a stale read-only snapshot the host refreshes from the
        // aggregate), then the visit counters.
        ctx.chargeDmaSpanBulk(own_bytes, 1);
        if (visits)
            ctx.chargeDmaSpanBulk(visit_bytes, 1);
    }
}

} // namespace

void
runTrainingKernelBatch(pimsim::BatchKernelContext &batch,
                       const KernelParams &p)
{
    using rlcore::Algorithm;
    using rlcore::NumericFormat;

    SWIFTRL_ASSERT(p.numStates > 0 && p.numActions > 0,
                   "kernel needs a Q-table shape");
    const auto scaled = rlcore::ScaledHyper::fromHyper(p.hyper);
    const auto epsilon_milli = scaled.epsilonMilli;
    const float alpha = p.hyper.alpha;
    const float gamma = p.hyper.gamma;

    // The action count parameterises the update rules' inner max /
    // argmax loops. Dispatching it as a compile-time constant for the
    // common environment widths lets those loops fully unroll inside
    // the batch interpreter; the expression tree and its evaluation
    // order are untouched, so results stay bit-identical to the
    // runtime-width path (which remains the fallback).
    const auto run = [&](auto num_actions) {
        if (p.workload.format == NumericFormat::Fp32) {
            if (p.workload.algo == Algorithm::QLearning) {
                trainBatch<float, LaneOps>(
                    batch, p, /*sarsa=*/false, epsilon_milli,
                    [&](auto &ops, float *q, const RecordFields &f) {
                        rlcore::qlearningUpdateFp32(
                            ops, q, num_actions, f.s, f.a,
                            std::bit_cast<float>(f.rewardBits), f.s2,
                            f.terminal, alpha, gamma);
                    });
            } else {
                trainBatch<float, LaneOps>(
                    batch, p, /*sarsa=*/true, epsilon_milli,
                    [&](auto &ops, float *q, const RecordFields &f) {
                        rlcore::sarsaUpdateFp32(
                            ops, q, num_actions, f.s, f.a,
                            std::bit_cast<float>(f.rewardBits), f.s2,
                            f.terminal, alpha, gamma, epsilon_milli);
                    });
            }
            return;
        }

        if (p.workload.format == NumericFormat::Int8) {
            const auto pow2 =
                rlcore::ScaledHyperPow2::fromHyper(p.hyper);
            if (p.workload.algo == Algorithm::QLearning) {
                trainBatch<std::int32_t, LaneOps>(
                    batch, p, /*sarsa=*/false, epsilon_milli,
                    [&](auto &ops, std::int32_t *q,
                        const RecordFields &f) {
                        rlcore::qlearningUpdateInt8(
                            ops, q, num_actions, f.s, f.a,
                            f.rewardBits, f.s2, f.terminal, pow2);
                    });
            } else {
                trainBatch<std::int32_t, LaneOps>(
                    batch, p, /*sarsa=*/true, epsilon_milli,
                    [&](auto &ops, std::int32_t *q,
                        const RecordFields &f) {
                        rlcore::sarsaUpdateInt8(
                            ops, q, num_actions, f.s, f.a,
                            f.rewardBits, f.s2, f.terminal, pow2);
                    });
            }
            return;
        }

        if (p.workload.algo == Algorithm::QLearning) {
            trainBatch<std::int32_t, LaneOpsFastDiv>(
                batch, p, /*sarsa=*/false, epsilon_milli,
                [&](auto &ops, std::int32_t *q,
                    const RecordFields &f) {
                    rlcore::qlearningUpdateInt32(
                        ops, q, num_actions, f.s, f.a, f.rewardBits,
                        f.s2, f.terminal, scaled);
                });
        } else {
            // Plain LaneOps measures faster here: SARSA's update is
            // already branch-heavy (epsilon draw, argmax), and the
            // extra inlined magic-divide code costs more than the
            // divides it saves.
            trainBatch<std::int32_t, LaneOps>(
                batch, p, /*sarsa=*/true, epsilon_milli,
                [&](auto &ops, std::int32_t *q,
                    const RecordFields &f) {
                    rlcore::sarsaUpdateInt32(
                        ops, q, num_actions, f.s, f.a, f.rewardBits,
                        f.s2, f.terminal, scaled);
                });
        }
    };

    switch (p.numActions) {
    case 4: // FrozenLake-class grids
        run(std::integral_constant<ActionId, 4>{});
        break;
    case 6: // Taxi
        run(std::integral_constant<ActionId, 6>{});
        break;
    default:
        run(p.numActions);
        break;
    }
}

} // namespace swiftrl
