/**
 * @file
 * Q-table wire I/O shared by the offline (PimTrainer) and streaming
 * (StreamingTrainer) trainers: initialising, gathering, decoding,
 * averaging, and broadcasting Q-tables over a command stream,
 * including the on-core fixed-point<->FP32 conversion the paper
 * describes flanking every transfer ("convert the values back from
 * INT32 to FP32 ... before the PIM cores transfer", Sec. 4.2).
 *
 * Extracting this from PimTrainer keeps the two trainers' transfers
 * byte- and cycle-identical by construction: same packing, same
 * conversion cost formula, same event labels on the timeline.
 */

#ifndef SWIFTRL_SWIFTRL_QTABLE_IO_HH
#define SWIFTRL_SWIFTRL_QTABLE_IO_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

#include "common/fixed_point.hh"
#include "pimsim/command_stream.hh"
#include "pimsim/pim_system.hh"
#include "rlcore/dataset.hh"
#include "rlcore/qtable.hh"
#include "rlcore/types.hh"
#include "swiftrl/retry_policy.hh"
#include "swiftrl/workload.hh"

namespace swiftrl {

/** Q entries per 64-byte cache line: the block alignment of the mean. */
inline constexpr std::size_t kEntriesPerLine =
    64 / rlcore::kQWireBytesPerEntry;

/**
 * Lines each block of a split mean must cover. The split pays a pool
 * dispatch (waking the workers, a few microseconds) and shortens every
 * bank's run of the vectorised addition to one block, so a table
 * splits only as far as each block keeps this many lines; smaller
 * tables (FrozenLake's 4 lines) stay serial on the calling thread.
 */
inline constexpr std::size_t kMinLinesPerBlock = 32;

/**
 * Blocks forEachEntryBlock cuts @p entries into on a pool of
 * @p threads: one per thread, fewer when a block would hold under
 * kMinLinesPerBlock lines, and at least one.
 */
std::size_t entryBlockCount(std::size_t entries, unsigned threads);

/**
 * Run fn(first, last) over contiguous entry ranges covering
 * [0, @p entries): entryBlockCount blocks on @p system's host pool,
 * their bounds on kEntriesPerLine multiples (the last block ends at
 * @p entries). Blocks may run concurrently, so fn must touch only its
 * own entries' outputs; which thread runs a block never matters.
 */
template <typename Fn>
void
forEachEntryBlock(pimsim::PimSystem &system, std::size_t entries,
                  Fn &&fn)
{
    const std::size_t blocks =
        entryBlockCount(entries, system.hostThreadCount());
    if (blocks == 1) {
        fn(std::size_t{0}, entries);
        return;
    }
    const std::size_t lines =
        (entries + kEntriesPerLine - 1) / kEntriesPerLine;
    const auto bound = [&](std::size_t b) {
        return std::min(entries, b * lines / blocks * kEntriesPerLine);
    };
    system.hostParallelFor(blocks, [&](std::size_t b) {
        fn(bound(b), bound(b + 1));
    });
}

/**
 * Stateless helper binding a workload's numeric format (and its
 * fixed-point scale) to the Q-table transfer commands. The Q region
 * always starts at MRAM offset 0.
 */
class QTableIo
{
  public:
    /**
     * @param workload decides the wire format (FP32 bytes vs raw
     *        fixed point with an on-core conversion step).
     * @param hyper supplies the fixed-point scale parameters.
     */
    QTableIo(const Workload &workload, const rlcore::Hyper &hyper)
        : _workload(workload), _hyper(hyper)
    {
    }

    /** MRAM byte offset of the Q-table region (always 0). */
    std::size_t qOffset() const { return 0; }

    /**
     * Fixed-point scale for the active format: hyper.scale for INT32,
     * 1 << hyper.int8Shift for the INT8 optimisation.
     */
    std::int32_t fixedScale() const;

    /**
     * Pack transitions [first, first + count) of @p data into @p out
     * in the workload's MRAM record layout: Dataset::packFp32, or
     * Dataset::packInt32 with fixedScale().
     */
    void packTransitions(const rlcore::Dataset &data, std::size_t first,
                         std::size_t count,
                         std::span<std::uint8_t> out) const;

    /**
     * Modelled on-core cost of converting a Q-table between raw
     * fixed point and FP32 wire format (the descale-before-transfer /
     * requantise-after-broadcast step); zero for FP32 workloads.
     */
    double conversionSeconds(const pimsim::CommandStream &stream,
                             std::size_t q_entries,
                             bool to_float) const;

    /**
     * Broadcast the all-zeros initial Q-table to every core
     * (Algorithm 1's initialisation; both formats share a 4-byte
     * zero encoding). Charged to CpuToPim.
     */
    void initQTables(pimsim::CommandStream &stream,
                     rlcore::StateId num_states,
                     rlcore::ActionId num_actions) const;

    /**
     * Gather every core's @p entries-entry Q wire at qOffset() as
     * bank views (CommandStream::gather: one span per core, empty for
     * a dropped core, valid until the next write to that bank),
     * including the on-core descale-to-FP32 step, charged to
     * @p bucket under @p label.
     *
     * A corrupted gather is retried under @p retry (the on-core
     * conversion is *not* redone — the converted table still sits in
     * the bank, only the wire transfer failed). Once the policy's
     * limit is exhausted the run dies loudly.
     */
    void gatherWires(pimsim::CommandStream &stream, std::size_t entries,
                     pimsim::TimeBucket bucket, std::string_view label,
                     const RetryPolicy &retry,
                     std::vector<std::span<const std::uint8_t>> &views)
        const;

    /**
     * Decode one Q wire entry by entry, calling fn(i, value) in
     * ascending i. FP32 wires are reinterpreted; fixed-point wires
     * are descaled by common::withDescaleToFloat — float(double(raw) /
     * double(scale)), exact for every raw value below 2^53, so a
     * 1-core run roundtrips bit-perfectly (conversionSeconds is what
     * the on-core float conversion would take).
     */
    template <typename Fn>
    void
    decodeWire(std::span<const std::uint8_t> wire, Fn &&fn) const
    {
        const std::size_t entries =
            wire.size() / rlcore::kQWireBytesPerEntry;
        const std::uint8_t *p = wire.data();
        if (_workload.format == rlcore::NumericFormat::Fp32) {
            for (std::size_t i = 0; i < entries; ++i) {
                float v;
                std::memcpy(&v, p + i * sizeof v, sizeof v);
                fn(i, v);
            }
            return;
        }
        common::withDescaleToFloat(fixedScale(), [&](auto descale) {
            for (std::size_t i = 0; i < entries; ++i) {
                std::int32_t raw;
                std::memcpy(&raw, p + i * sizeof raw, sizeof raw);
                fn(i, descale(raw));
            }
        });
    }

    /**
     * Fused decode-and-mean of one gathered core group: adds the
     * decoded entries of the group's live cores (non-empty views) into
     * @p out, eight banks per pass over the entries but in ascending
     * core order per entry, then scales once by 1/live — exactly
     * QTable::average's per-entry operations over the decoded tables,
     * so the result is bit-identical to it, without materialising any
     * table. The entries are split into forEachEntryBlock's blocks
     * over the stream's host pool; every entry gets the same
     * operations whichever block holds it, so the mean is
     * bit-identical for any pool size. Every live view must hold
     * out.size() entries.
     * @return the number of live cores averaged (at least one).
     */
    std::size_t
    meanOfWires(pimsim::CommandStream &stream,
                std::span<const std::span<const std::uint8_t>> group,
                std::span<float> out) const;

    /** Decode one Q wire to a table; an empty view (a dropped core)
     *  decodes to zeros. */
    rlcore::QTable decodeTable(std::span<const std::uint8_t> wire,
                               rlcore::StateId num_states,
                               rlcore::ActionId num_actions) const;

    /**
     * Broadcast one Q-table to every core's MRAM Q region, including
     * the on-core requantise step, charged to @p bucket. The wire is
     * packed once into a payload every live bank shares; each bank
     * copies it in on its next access (Dpu::mramShare).
     */
    void broadcastQTable(pimsim::CommandStream &stream,
                         const rlcore::QTable &q,
                         pimsim::TimeBucket bucket,
                         std::string_view label = "broadcast:q") const;

    /**
     * The exact bytes broadcastQTable would put on the wire for @p q
     * (FP32 copy or the fixed-point encoding). The session restore
     * path pokes these bytes into MRAM functionally, so a restored
     * bank is byte-identical to one the last broadcast wrote.
     */
    std::vector<std::uint8_t> packWire(const rlcore::QTable &q) const;

    /**
     * Encode @p values into @p out (4 bytes per value) exactly as
     * packWire encodes a table's entries: an FP32 copy, or the
     * rounded fixed-point value.
     */
    void encodeWire(std::span<const float> values,
                    std::span<std::uint8_t> out) const;

  private:
    Workload _workload;
    rlcore::Hyper _hyper;
};

} // namespace swiftrl

#endif // SWIFTRL_SWIFTRL_QTABLE_IO_HH
