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
#include "swiftrl/priced_ops.hh"

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

/**
 * Record @p r of a lane's chunk, read straight from the lane's bank
 * view: the region is read-only for the whole launch (the lane writes
 * only its Q and visit regions), so the bytes match what per-record
 * DMA would copy and a fetch is an indexed load. Reading is unpriced
 * interpreter work — the fetch charges are retired per record in bulk
 * — so it moves no modelled number.
 *
 * A terminal record's next state reads as row 0, as packLocalizedChunk
 * already stores it for sharded chunks: the lanes form the next-state
 * row's address whatever the flag (bootstrapRow), and row 0 keeps it
 * inside the table whatever the dataset holds there.
 */
inline RecordFields
recordAt(const std::uint8_t *data, std::size_t r)
{
    const auto word = [at = data + r * kTransitionBytes](std::size_t k) {
        std::uint32_t w;
        std::memcpy(&w, at + k * sizeof w, sizeof w);
        return w;
    };
    const std::uint32_t next = word(3);
    const bool terminal = (next & PackedTransition::kTerminalBit) != 0;
    // A mask, not a ternary: GCC may compile a ternary into a branch
    // on the (unpredictable) flag.
    const std::uint32_t keep = std::uint32_t{terminal} - 1u;
    return {static_cast<StateId>(word(0)), static_cast<ActionId>(word(1)),
            static_cast<std::int32_t>(word(2)),
            static_cast<StateId>(next & keep), terminal};
}

/** Terminal records among the @p n of a chunk, in one pass. */
std::size_t
countTerminals(const std::uint8_t *data, std::size_t n)
{
    std::size_t terminal_records = 0;
    for (std::size_t r = 0; r < n; ++r)
        terminal_records += recordAt(data, r).terminal ? 1 : 0;
    return terminal_records;
}

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
 * bit-identical to PricedOps by construction — while recording the
 * LCG draws of the last SARSA update (to classify its shape) and
 * replicating PricedOps's operand-range assertions, so a batch run
 * dies on exactly the inputs the DPU program would (e.g. INT8 range
 * violations). The lanes' functional update rules below run through
 * it.
 */
struct LaneOps : rlcore::HostOps
{
    /** LCG draws made by the last SARSA update. */
    unsigned draws = 0;

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

// --- functional update rules of the batch lanes ----------------------
//
// The priced templates in rlcore/update_rules.hh branch on the
// terminal flag and in max / argmax, because that control flow is what
// PricedOps charges for. The lanes retire charges from shape
// tallies instead (calibrateShapes keeps running the priced templates),
// so their updates only have to produce the same bits. They always
// scan a row — the next state's, or a row of zeros for a terminal
// record — and max / argmax select instead of branch: a random-policy
// dataset's terminal flags are unpredictable, and a mispredicted
// branch costs more than a scan of num_actions words. Comparisons keep
// the templates' strict `>`, so ties and signed zeros resolve alike.

/** Row pointer of state @p s in a row-major table of @p na columns. */
template <typename QWord, typename NumActions>
inline QWord *
rowOf(QWord *q, StateId s, NumActions na)
{
    return q + static_cast<std::size_t>(s) * static_cast<std::size_t>(na);
}

/** max over a row, by selects. */
template <typename QWord, typename NumActions>
inline QWord
laneMax(const QWord *row, NumActions na)
{
    QWord best = row[0];
    for (ActionId a = 1; a < na; ++a) {
        const QWord v = row[static_cast<std::size_t>(a)];
        best = v > best ? v : best;
    }
    return best;
}

/** argmax over a row, ties to the lowest index, by selects. */
template <typename QWord, typename NumActions>
inline ActionId
laneArgmax(const QWord *row, NumActions na)
{
    ActionId best = 0;
    QWord best_v = row[0];
    for (ActionId a = 1; a < na; ++a) {
        const QWord v = row[static_cast<std::size_t>(a)];
        const bool gt = v > best_v;
        best_v = gt ? v : best_v;
        best = gt ? a : best;
    }
    return best;
}

/**
 * The row a record bootstraps from: its next state's, or @p zeros (a
 * row of zero words) when terminal. A pointer select, not a select of
 * the bootstrap value, keeps the flag off the float dependency chain.
 * Any max or argmax over a zero row picks +0, the templates' terminal
 * bootstrap.
 */
template <typename QWord, typename NumActions>
inline const QWord *
bootstrapRow(const QWord *q, const std::vector<QWord> &zeros,
             NumActions na, const RecordFields &f)
{
    // By a mask, as in recordAt: a ternary may become a branch.
    const auto next = reinterpret_cast<std::uintptr_t>(rowOf(q, f.s2, na));
    const auto zero = reinterpret_cast<std::uintptr_t>(zeros.data());
    const std::uintptr_t pick = std::uintptr_t{0} - f.terminal;
    return reinterpret_cast<const QWord *>((zero & pick) | (next & ~pick));
}

/** Q-learning's bootstrap: the next row's max, or 0 when terminal. */
template <typename QWord, typename NumActions>
inline QWord
maxBootstrap(const QWord *q, const std::vector<QWord> &zeros,
             NumActions na, const RecordFields &f)
{
    return laneMax(bootstrapRow(q, zeros, na, f), na);
}

/**
 * SARSA's bootstrap: Q(s', a') for the epsilon-greedy a', or 0 when
 * terminal. A terminal record draws nothing, so the epsilon draw is
 * taken whatever the flag and the stream is rewound, by a mask, on a
 * terminal record. The explore branch consumes a second draw, so it
 * stays a branch; @p o's draws count records the shape.
 */
template <typename QWord, typename NumActions>
inline QWord
sarsaBootstrap(LaneOps &o, const QWord *q,
               const std::vector<QWord> &zeros, NumActions na,
               const RecordFields &f, std::int32_t epsilon_milli)
{
    const QWord *row_n = bootstrapRow(q, zeros, na, f);
    ActionId a2 = laneArgmax(row_n, na);
    const std::uint32_t live = std::uint32_t{f.terminal} - 1u;
    const std::uint32_t before = o.lcg.state();
    const bool greedy =
        static_cast<std::int32_t>(o.lcg.nextBounded(1000)) >=
        epsilon_milli;
    const bool explore = !(greedy | f.terminal);
    if (explore) {
        a2 = static_cast<ActionId>(
            o.lcg.nextBounded(static_cast<std::uint32_t>(na)));
    }
    o.lcg.seed((o.lcg.state() & live) | (before & ~live));
    o.draws = (1u + unsigned{explore}) & live;
    return row_n[static_cast<std::size_t>(a2)];
}

/** Charge sink of shape calibration: op counts per class. */
struct ShapeCounter
{
    ShapeProfile counts{};

    void
    chargeBulk(pimsim::OpClass op, std::uint64_t n)
    {
        counts[static_cast<std::size_t>(op)] += n;
    }
};

/**
 * Priced ops over a ShapeCounter whose LCG draws return scripted
 * values, so the probe can steer the SARSA epsilon branch. A draw
 * charges exactly like the real one.
 */
class ShapeProbe : public PricedOps<ShapeCounter>
{
  public:
    ShapeProbe(ShapeCounter &counter,
               std::initializer_list<std::uint32_t> draws)
        : PricedOps(counter), _scripted(draws)
    {
    }

    std::uint32_t
    lcgNextBounded(std::uint32_t bound)
    {
        PricedOps::lcgNextBounded(bound);
        return _at < _scripted.size() ? _scripted[_at++] : 0u;
    }

  private:
    std::vector<std::uint32_t> _scripted;
    std::size_t _at = 0;
};

/**
 * Measure the charge profile of each shape by running the workload's
 * priced update template (rlcore/update_rules.hh — the lanes' own
 * updates are functional and charge nothing) against a dummy zeroed
 * two-row table (operands s=0, a=0, r=0, s2 in row 1 for the bootstrap
 * scan — zero values satisfy every operand-range assertion). Exact
 * because the profile depends only on the shape and num_actions, never
 * on table values.
 */
template <typename QWord>
std::array<ShapeProfile, kNumShapes>
calibrateShapes(const KernelParams &p)
{
    const ActionId num_actions = p.numActions;
    const bool sarsa = p.workload.algo == rlcore::Algorithm::Sarsa;
    const auto scaled = rlcore::ScaledHyper::fromHyper(p.hyper);
    const std::int32_t epsilon_milli = scaled.epsilonMilli;
    const auto priced = [&](ShapeProbe &o, QWord *q,
                            const RecordFields &f) {
        if constexpr (std::is_same_v<QWord, float>) {
            const float r = std::bit_cast<float>(f.rewardBits);
            if (sarsa) {
                rlcore::sarsaUpdateFp32(o, q, num_actions, f.s, f.a, r,
                                        f.s2, f.terminal, p.hyper.alpha,
                                        p.hyper.gamma, epsilon_milli);
            } else {
                rlcore::qlearningUpdateFp32(o, q, num_actions, f.s, f.a,
                                            r, f.s2, f.terminal,
                                            p.hyper.alpha, p.hyper.gamma);
            }
        } else if (p.workload.format == rlcore::NumericFormat::Int8) {
            const auto pow2 = rlcore::ScaledHyperPow2::fromHyper(p.hyper);
            if (sarsa) {
                rlcore::sarsaUpdateInt8(o, q, num_actions, f.s, f.a,
                                        f.rewardBits, f.s2, f.terminal,
                                        pow2);
            } else {
                rlcore::qlearningUpdateInt8(o, q, num_actions, f.s, f.a,
                                            f.rewardBits, f.s2,
                                            f.terminal, pow2);
            }
        } else if (sarsa) {
            rlcore::sarsaUpdateInt32(o, q, num_actions, f.s, f.a,
                                     f.rewardBits, f.s2, f.terminal,
                                     scaled);
        } else {
            rlcore::qlearningUpdateInt32(o, q, num_actions, f.s, f.a,
                                         f.rewardBits, f.s2, f.terminal,
                                         scaled);
        }
    };

    const std::size_t na = static_cast<std::size_t>(num_actions);
    std::vector<QWord> table(2 * na);
    std::array<ShapeProfile, kNumShapes> out{};

    auto run = [&](std::size_t shape, bool terminal,
                   std::initializer_list<std::uint32_t> draws) {
        ShapeCounter counter;
        ShapeProbe probe(counter, draws);
        std::fill(table.begin(), table.end(), QWord{});
        RecordFields f;
        f.s = 0;
        f.a = 0;
        f.rewardBits = 0;
        f.s2 = terminal ? 0 : 1;
        f.terminal = terminal;
        priced(probe, table.data(), f);
        out[shape] = counter.counts;
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

/**
 * Control-flow shape of the update just applied through @p o, by
 * arithmetic rather than a branch on the terminal flag: a terminal
 * update draws nothing, a main one at most one LCG number, and only an
 * explore update two.
 */
template <typename Ops>
std::size_t
shapeOf(const RecordFields &f, const Ops &o)
{
    static_assert(kShapeTerminal == 0 && kShapeMain == 1 &&
                  kShapeExplore == 2);
    return std::size_t{!f.terminal} + std::size_t{o.draws == 2};
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
            const std::uint8_t *data, std::size_t n,
            std::vector<std::uint32_t> &order, QWord *q, Ops &o, Tally &t,
            UpdateFn &update)
{
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
                        update(o, q, recordAt(data, k));
                } else {
                    for (std::size_t k = 0; k < n; ++k)
                        update(o, q, recordAt(data, order[k]));
                }
            }
            const std::size_t terminal_records = countTerminals(data, n);
            t[kShapeTerminal] += eps * terminal_records;
            t[kShapeMain] += eps * (n - terminal_records);
        } else {
            // SARSA's explore/exploit shape depends on its LCG draws:
            // classify per visit.
            for (std::uint64_t ep = 0; ep < eps; ++ep) {
                for (std::size_t k = 0; k < n; ++k) {
                    const RecordFields f =
                        recordAt(data, seq ? k : order[k]);
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
                const RecordFields f =
                    recordAt(data, o.lcg.nextBounded(bound));
                update(o, q, f);
                term_visits += f.terminal ? 1 : 0;
            }
        }
        t[kShapeTerminal] += term_visits;
        t[kShapeMain] += eps * n - term_visits;
    } else {
        for (std::uint64_t ep = 0; ep < eps; ++ep) {
            for (std::size_t k = 0; k < n; ++k) {
                const RecordFields f =
                    recordAt(data, o.lcg.nextBounded(bound));
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
                 const std::uint8_t *data, std::size_t n, std::uint32_t *lcg,
                 std::vector<std::uint32_t> &order,
                 std::vector<Tasklet<Ops>> &tasklets, QWord *q,
                 std::uint32_t *visits, Tally &tally, UpdateFn &update)
{
    const unsigned t = p.tasklets;
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
                const RecordFields f = recordAt(data, tk.first + local);
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
 * A lane's charges outside its update rules, made through PricedOps as
 * the DPU program makes them (the parity tests against the oracle
 * enforce the match):
 *   per record:  aluOps(3) + branch   walker/loop bookkeeping
 *                aluOps(4)            record WRAM reads (fetch tail)
 *                aluOps(2)            decode: terminal-flag unmask
 *                block mode: aluOps(2) buffer indexing, every fetch;
 *                RAN: the sample's lcgNextBounded draw (its 16-byte
 *                record DMA is charged by retireTally)
 *                tasklets > 1: lcgSeed swapping in the step's stream
 *                visit tracking: aluOps(2) counter increment
 *   per episode: branch               the episode loop
 *   per lane:    one tasklet: lcgSeed of its stream at entry
 */
struct FixedProfiles
{
    ShapeProfile record{};
    ShapeProfile episode{};
    ShapeProfile lane{};
};

FixedProfiles
calibrateFixed(const KernelParams &p)
{
    const auto measure = [](auto &&charges) {
        ShapeCounter counter;
        PricedOps<ShapeCounter> o(counter);
        charges(o);
        return counter.counts;
    };
    FixedProfiles out;
    out.record = measure([&p](auto &o) {
        o.aluOps(3);
        o.branch();
        o.aluOps(4);
        o.aluOps(2);
        if (p.workload.sampling == rlcore::Sampling::Ran)
            o.lcgNextBounded(1);
        else
            o.aluOps(2);
        if (p.tasklets > 1)
            o.lcgSeed(0);
        if (p.trackVisits)
            o.aluOps(2);
    });
    out.episode = measure([](auto &o) { o.branch(); });
    if (p.tasklets == 1)
        out.lane = measure([](auto &o) { o.lcgSeed(0); });
    return out;
}

/**
 * Retire a lane's tallied charges: per-shape profiles times tallies,
 * plus the fixed profiles times the lane's records and episodes.
 */
void
retireTally(pimsim::KernelContext &ctx, const KernelParams &p,
            const std::array<ShapeProfile, kNumShapes> &shapes,
            const FixedProfiles &fixed, const Tally &tally)
{
    ShapeProfile total = fixed.lane;
    std::uint64_t records = 0;
    for (std::size_t s = 0; s < kNumShapes; ++s) {
        records += tally[s];
        for (std::size_t c = 0; c < pimsim::kNumOpClasses; ++c)
            total[c] += shapes[s][c] * tally[s];
    }
    const auto episodes = static_cast<std::uint64_t>(p.episodes);
    for (std::size_t c = 0; c < pimsim::kNumOpClasses; ++c)
        total[c] += fixed.record[c] * records + fixed.episode[c] * episodes;
    if (p.workload.sampling == rlcore::Sampling::Ran)
        ctx.chargeDmaSpanBulk(kTransitionBytes, records);
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
 * The bank bytes one lane touches: its Q region (owned rows plus,
 * sharded, the halo right behind them), its visit counters and its
 * record chunk. The lane's own view and the next-lane prefetch both
 * take their bounds from laneExtent, so the two cannot diverge.
 */
struct LaneExtent
{
    std::size_t records = 0;  ///< chunk length; 0 = the lane is skipped
    std::size_t qEntries = 0; ///< Q words, owned and halo
    std::size_t end = 0;      ///< bank bytes covering every region
};

/**
 * Extent of the lane of core @p core, whose owned Q region holds
 * @p own_entries words. A core with an empty chunk or a non-positive
 * episode budget returns before charging anything, so its lane is
 * skipped (records 0) and its bank never touched.
 */
template <typename QWord>
LaneExtent
laneExtent(const KernelParams &p, std::size_t core,
           std::size_t own_entries)
{
    SWIFTRL_ASSERT(p.chunkCounts && core < p.chunkCounts->size(),
                   "missing chunk table for core ", core);
    SWIFTRL_ASSERT(p.lcgStates &&
                       p.lcgStates->size() >= (core + 1) * p.tasklets,
                   "missing LCG state for core ", core);
    LaneExtent e;
    if ((*p.chunkCounts)[core] == 0 || p.episodes <= 0)
        return e;
    e.records = (*p.chunkCounts)[core];
    const bool sharded = p.sliceRows > 0;
    SWIFTRL_ASSERT(!sharded || (p.haloRows && core < p.haloRows->size()),
                   "missing halo table for core ", core);
    const std::size_t halo_rows = sharded ? (*p.haloRows)[core] : 0;
    e.qEntries =
        own_entries + halo_rows * static_cast<std::size_t>(p.numActions);
    e.end = std::max(p.qOffset + e.qEntries * sizeof(QWord),
                     p.dataOffset + e.records * kTransitionBytes);
    if (p.trackVisits) {
        e.end = std::max(e.end, p.visitsOffset +
                                    e.qEntries * sizeof(std::uint32_t));
    }
    return e;
}

/**
 * Start pulling a lane's Q region (halo included) and record chunk
 * into the cache: one prefetch per 64-byte line. A chunk the lane has
 * not read yet is cold — the scatter or the last round's other lanes
 * evicted it — and RAN's random reads would otherwise miss line by
 * line; issued one lane ahead, the fetches overlap the current lane's
 * updates. Prefetches neither fault nor change a byte.
 */
template <typename QWord>
void
prefetchLane(std::span<const std::uint8_t> bank, const KernelParams &p,
             const LaneExtent &e)
{
    constexpr std::uintptr_t kLine = 64;
    const auto lines = [&](std::size_t offset, std::size_t bytes) {
        const auto first =
            reinterpret_cast<std::uintptr_t>(bank.data() + offset);
        for (std::uintptr_t at = first & ~(kLine - 1); at < first + bytes;
             at += kLine)
            __builtin_prefetch(reinterpret_cast<const void *>(at));
    };
    lines(p.qOffset, e.qEntries * sizeof(QWord));
    lines(p.dataOffset, e.records * kTransitionBytes);
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
 * Before a lane trains, the next lane's bank is prefetched
 * (prefetchLane).
 *
 * @p update is the workload's functional update rule. @p Ops picks
 * its provider (LaneOps, or LaneOpsFastDiv for the division-heavy
 * INT32 Q-learning rule).
 */
template <typename QWord, typename Ops, typename UpdateFn>
void
trainBatch(pimsim::BatchKernelContext &bctx, const KernelParams &p,
           UpdateFn &&update)
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
    const FixedProfiles fixed = calibrateFixed(p);
    const bool sarsa = p.workload.algo == rlcore::Algorithm::Sarsa;
    const bool hot_path = p.tasklets == 1 && !p.trackVisits;
    std::vector<std::uint32_t> order;
    std::vector<Tasklet<Ops>> tasklets;

    LaneExtent next;
    if (bctx.lanes() > 0)
        next = laneExtent<QWord>(p, bctx.dpuId(0), own_entries);
    for (std::size_t i = 0; i < bctx.lanes(); ++i) {
        const LaneExtent lane = next;
        if (i + 1 < bctx.lanes()) {
            next = laneExtent<QWord>(p, bctx.dpuId(i + 1), own_entries);
            if (next.records > 0) {
                prefetchLane<QWord>(bctx.dpu(i + 1).mramLane(next.end), p,
                                    next);
            }
        }
        if (lane.records == 0)
            continue;
        pimsim::KernelContext &ctx = bctx.lane(i);
        const std::size_t core = bctx.dpuId(i);
        const std::size_t n = lane.records;
        if (!shapes)
            shapes = calibrateShapes<QWord>(p);

        // One bank view covering every region the lane touches, taken
        // before any pointer into it (a later growth would move them).
        const std::size_t halo_bytes =
            (lane.qEntries - own_entries) * sizeof(QWord);
        const std::size_t visit_bytes =
            lane.qEntries * sizeof(std::uint32_t);
        const std::span<std::uint8_t> bank = bctx.dpu(i).mramLane(lane.end);
        QWord *const q = laneWords<QWord>(bank, p.qOffset, lane.qEntries);
        const std::uint8_t *const data =
            laneWords<const std::uint8_t>(bank, p.dataOffset,
                                          n * kTransitionBytes);

        // Preamble, charge for charge as the kernel's: the WRAM
        // footprint (Q-table, visit counters, staging buffers) and the
        // inbound DMA, then the zeroed visit counters — weights
        // reflect the current round's coverage.
        static_assert(sizeof(QWord) == rlcore::kQWireBytesPerEntry);
        ctx.wramAlloc(laneWramBytes(p, lane.qEntries, n));
        ctx.chargeDmaSpanBulk(own_bytes, 1);
        ctx.chargeDmaSpanBulk(halo_bytes, 1);
        std::uint32_t *visits = nullptr;
        if (p.trackVisits) {
            visits = laneWords<std::uint32_t>(bank, p.visitsOffset,
                                              lane.qEntries);
            std::fill_n(visits, lane.qEntries, 0u);
        }

        std::uint32_t *const lcg = p.lcgStates->data() + core * p.tasklets;
        Tally tally{};
        if (hot_path) {
            Ops o;
            o.lcg.seed(lcg[0]);
            trainSingle<QWord>(ctx, p, sarsa, data, n, order, q, o, tally,
                               update);
            lcg[0] = o.lcg.state();
        } else {
            trainInterleaved<QWord>(ctx, p, data, n, lcg, order, tasklets,
                                    q, visits, tally, update);
        }
        retireTally(ctx, p, *shapes, fixed, tally);

        // Writeback DMA: only the owned slice goes back (halo rows
        // are a stale read-only snapshot the host refreshes from the
        // aggregate), then the visit counters.
        ctx.chargeDmaSpanBulk(own_bytes, 1);
        if (visits)
            ctx.chargeDmaSpanBulk(visit_bytes, 1);
    }
}

} // namespace

std::size_t
laneWramBytes(const KernelParams &p, std::size_t q_entries,
              std::size_t records)
{
    const std::size_t staging =
        p.workload.sampling != rlcore::Sampling::Ran
            ? p.blockTransitions * kTransitionBytes
            : kTransitionBytes;
    const std::size_t tasklets =
        std::min<std::size_t>(p.tasklets, records);
    return q_entries * rlcore::kQWireBytesPerEntry +
           (p.trackVisits ? q_entries * sizeof(std::uint32_t) : 0) +
           tasklets * staging;
}

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
    // The row terminal records bootstrap from (bootstrapRow).
    const auto width = static_cast<std::size_t>(p.numActions);
    const std::vector<float> fzeros(width);
    const std::vector<std::int32_t> izeros(width);

    // The action count parameterises the update rules' inner max /
    // argmax loops. Dispatching it as a compile-time constant for the
    // common environment widths lets those loops fully unroll inside
    // the batch interpreter; the expression tree and its evaluation
    // order are untouched, so results stay bit-identical to the
    // runtime-width path (which remains the fallback).
    const auto run = [&](auto na) {
        // The Q(s, a) word a record updates.
        const auto slot = [na](auto *q, const RecordFields &f) -> auto & {
            return rowOf(q, f.s, na)[static_cast<std::size_t>(f.a)];
        };
        const bool sarsa = p.workload.algo == Algorithm::Sarsa;
        using F = const RecordFields;
        if (p.workload.format == NumericFormat::Fp32) {
            const auto r = [](F &f) {
                return std::bit_cast<float>(f.rewardBits);
            };
            if (!sarsa) {
                trainBatch<float, LaneOps>(
                    batch, p, [&](LaneOps &o, float *q, F &f) {
                        rlcore::stepFp32(o, slot(q, f), r(f),
                                         maxBootstrap(q, fzeros, na, f),
                                         alpha, gamma);
                    });
            } else {
                trainBatch<float, LaneOps>(
                    batch, p, [&](LaneOps &o, float *q, F &f) {
                        rlcore::stepFp32(
                            o, slot(q, f), r(f),
                            sarsaBootstrap(o, q, fzeros, na, f,
                                           epsilon_milli),
                            alpha, gamma);
                    });
            }
            return;
        }

        using I32 = std::int32_t;
        if (p.workload.format == NumericFormat::Int8) {
            const auto pow2 = rlcore::ScaledHyperPow2::fromHyper(p.hyper);
            if (!sarsa) {
                trainBatch<I32, LaneOps>(
                    batch, p, [&](LaneOps &o, I32 *q, F &f) {
                        rlcore::stepInt8(o, slot(q, f), f.rewardBits,
                                         maxBootstrap(q, izeros, na, f),
                                         pow2);
                    });
            } else {
                trainBatch<I32, LaneOps>(
                    batch, p, [&](LaneOps &o, I32 *q, F &f) {
                        rlcore::stepInt8(
                            o, slot(q, f), f.rewardBits,
                            sarsaBootstrap(o, q, izeros, na, f,
                                           pow2.epsilonMilli),
                            pow2);
                    });
            }
            return;
        }

        if (!sarsa) {
            trainBatch<I32, LaneOpsFastDiv>(
                batch, p, [&](LaneOpsFastDiv &o, I32 *q, F &f) {
                    rlcore::stepInt32(o, slot(q, f), f.rewardBits,
                                      maxBootstrap(q, izeros, na, f),
                                      scaled);
                });
        } else {
            // Plain LaneOps measures faster here: SARSA's update is
            // already branch-heavy (epsilon draw, argmax), and the
            // extra inlined magic-divide code costs more than the
            // divides it saves.
            trainBatch<I32, LaneOps>(
                batch, p, [&](LaneOps &o, I32 *q, F &f) {
                    rlcore::stepInt32(
                        o, slot(q, f), f.rewardBits,
                        sarsaBootstrap(o, q, izeros, na, f,
                                       scaled.epsilonMilli),
                        scaled);
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
