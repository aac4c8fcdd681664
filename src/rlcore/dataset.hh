/**
 * @file
 * Offline experience dataset: collection with a behaviour policy,
 * structure-of-arrays storage, and the packed binary layouts the PIM
 * kernels consume from MRAM.
 *
 * The packed record is 16 bytes — four 32-bit words (s, a, r, s') —
 * matching the DMA-friendly layout SwiftRL distributes across DRAM
 * banks. The terminal flag is packed into the top bit of the
 * next-state word — safe at any supported state count, since StateId
 * is a non-negative int32 (the procedural environments cap themselves
 * at INT32_MAX states, so bit 31 is never a state bit).
 */

#ifndef SWIFTRL_RLCORE_DATASET_HH
#define SWIFTRL_RLCORE_DATASET_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/default_init_vector.hh"
#include "common/rng.hh"
#include "rlcore/types.hh"
#include "rlenv/environment.hh"

namespace swiftrl::rlcore {

/** Packed 16-byte experience record (see file comment). */
struct PackedTransition
{
    std::int32_t state;
    std::int32_t action;
    /**
     * Reward bits: an IEEE-754 float for FP32 kernels, or a scaled
     * fixed-point int32 for INT32 kernels. Same width either way.
     */
    std::int32_t rewardBits;
    /** Next state with the terminal flag in bit 31. */
    std::uint32_t nextStateBits;

    /** Bit 31 of nextStateBits marks terminal transitions. */
    static constexpr std::uint32_t kTerminalBit = 0x8000'0000u;
};

static_assert(sizeof(PackedTransition) == 16,
              "PIM record layout must stay 16 bytes");

/**
 * Structure-of-arrays experience store. SoA keeps the host-side
 * trainers bandwidth-friendly and makes the roofline byte counting
 * exact.
 */
class Dataset
{
  public:
    /**
     * One column. resizeColumns leaves new entries unwritten (see
     * there); every other way in writes what it adds.
     */
    template <typename T>
    using Column = common::DefaultInitVector<T>;

    Dataset() = default;

    /** Number of stored transitions. */
    std::size_t size() const { return _states.size(); }

    /** True when empty. */
    bool empty() const { return _states.empty(); }

    /** Append one transition. */
    void append(const Transition &t);

    /** Append every transition of @p other, a whole column at a time. */
    void append(const Dataset &other);

    /** Reserve room for @p n transitions in every column. */
    void reserve(std::size_t n);

    /**
     * Resize to exactly @p n transitions and return the columns for a
     * bulk writer (Environment::rollout, the dataset loader) to fill.
     * New entries are left unwritten (Column), so the caller fills
     * all n.
     */
    rlenv::RolloutColumns resizeColumns(std::size_t n);

    /** Reassemble transition @p i. */
    Transition get(std::size_t i) const;

    /** Column access for the host trainers. */
    const Column<StateId> &states() const { return _states; }
    const Column<ActionId> &actions() const { return _actions; }
    const Column<float> &rewards() const { return _rewards; }
    const Column<StateId> &nextStates() const { return _nextStates; }
    const Column<std::uint8_t> &terminals() const { return _terminals; }

    /**
     * Pack transitions [first, first+count) in the FP32 MRAM layout
     * into @p out, which holds exactly count records — typically a
     * core's chunk in its MRAM bank (CommandStream::scatter).
     */
    void packFp32(std::size_t first, std::size_t count,
                  std::span<std::uint8_t> out) const;

    /**
     * Pack transitions [first, first+count) in the INT32 MRAM layout
     * into @p out: rewards quantised with the given fixed-point
     * @p scale (the paper's scale-up-before-transfer step).
     */
    void packInt32(std::size_t first, std::size_t count,
                   std::int32_t scale, std::span<std::uint8_t> out) const;

    /** Decode one packed record (used by kernels and tests). */
    static Transition unpackFp32(const PackedTransition &p);

    /** Decode one packed INT32 record back to real-valued reward. */
    static Transition unpackInt32(const PackedTransition &p,
                                  std::int32_t scale);

  private:
    Column<StateId> _states;
    Column<ActionId> _actions;
    Column<float> _rewards;
    Column<StateId> _nextStates;
    Column<std::uint8_t> _terminals;
};

/**
 * Why records [@p first, @p first + @p count) of @p data (default:
 * all) cannot train a @p num_states x @p num_actions Q-table: the
 * first whose state or next state lies outside [0, num_states), or
 * whose action lies outside [0, num_actions), named by index and
 * fields. Empty when every record fits. A dataset saved from one
 * environment and loaded for another fails here, before any of its
 * ids indexes past a table.
 */
std::string datasetMisfit(const Dataset &data, StateId num_states,
                          ActionId num_actions, std::size_t first = 0,
                          std::size_t count = SIZE_MAX);

/**
 * Collect an offline dataset by rolling out a uniform-random behaviour
 * policy (SwiftRL collects its frozen lake and taxi logs this way,
 * Sec. 3.2.1). Episodes reset automatically; collection stops at
 * exactly @p num_transitions tuples.
 *
 * @param env environment to roll out in (its state is consumed).
 * @param num_transitions tuples to log.
 * @param seed RNG seed for both the policy and the dynamics.
 *
 * Shares its loop (Environment::rollout) with collectPolicyDataset,
 * next to which it is defined (collection.cc).
 */
Dataset collectRandomDataset(rlenv::Environment &env,
                             std::size_t num_transitions,
                             std::uint64_t seed);

} // namespace swiftrl::rlcore

#endif // SWIFTRL_RLCORE_DATASET_HH
