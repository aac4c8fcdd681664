#include "swiftrl/qtable_io.hh"

#include <algorithm>
#include <cstring>
#include <memory>

#include "pimsim/pim_system.hh"
#include "rlcore/trainers.hh"

namespace swiftrl {

using pimsim::TimeBucket;
using rlcore::ActionId;
using rlcore::NumericFormat;
using rlcore::QTable;
using rlcore::StateId;

std::int32_t
QTableIo::fixedScale() const
{
    if (_workload.format == NumericFormat::Int8)
        return 1 << _hyper.int8Shift;
    return _hyper.scale;
}

void
QTableIo::packTransitions(const rlcore::Dataset &data, std::size_t first,
                          std::size_t count,
                          std::span<std::uint8_t> out) const
{
    if (_workload.format == NumericFormat::Fp32)
        data.packFp32(first, count, out);
    else
        data.packInt32(first, count, fixedScale(), out);
}

double
QTableIo::conversionSeconds(const pimsim::CommandStream &stream,
                            std::size_t q_entries, bool to_float) const
{
    if (_workload.format == NumericFormat::Fp32)
        return 0.0;
    const auto &model = stream.system().config().costModel;
    using pimsim::OpClass;
    // Descale: int divide (or a shift for the power-of-two INT8
    // scale) + int-to-float conversion per entry. Requantise: FP32
    // multiply + float-to-int per entry.
    const bool pow2 = _workload.format == NumericFormat::Int8;
    const pimsim::Cycles descale_op =
        pow2 ? model.cyclesFor(OpClass::IntAlu)
             : model.cyclesFor(OpClass::Int32Div);
    const pimsim::Cycles per_entry =
        to_float ? descale_op + 2 * model.cyclesFor(OpClass::IntAlu)
                 : model.cyclesFor(OpClass::Fp32Mul) +
                       2 * model.cyclesFor(OpClass::IntAlu);
    return model.seconds(per_entry *
                         static_cast<pimsim::Cycles>(q_entries));
}

void
QTableIo::initQTables(pimsim::CommandStream &stream, StateId ns,
                      ActionId na) const
{
    const std::size_t q_bytes = static_cast<std::size_t>(ns) *
                                static_cast<std::size_t>(na) *
                                rlcore::kQWireBytesPerEntry;
    stream.pushBroadcast(
        qOffset(),
        std::make_shared<const std::vector<std::uint8_t>>(q_bytes, 0),
        TimeBucket::CpuToPim, "broadcast:qinit");
}

void
QTableIo::gatherWires(pimsim::CommandStream &stream,
                      std::size_t entries, TimeBucket bucket,
                      std::string_view label, const RetryPolicy &retry,
                      std::vector<std::span<const std::uint8_t>> &views)
    const
{
    // INT32 kernels descale their tables to FP32 on-core before the
    // transfer (Sec. 4.2); the conversion runs in parallel on all
    // cores, so it costs one per-core table pass. Charged once even
    // under retries — a corrupted wire transfer does not un-convert
    // the table sitting in the bank.
    const double convert =
        conversionSeconds(stream, entries, /*to_float=*/true);
    if (convert > 0.0)
        stream.onCoreCompute(convert, bucket, "convert:descale");
    runWithRecovery(
        stream, retry, label,
        [&] {
            return stream.gather(qOffset(),
                                 entries * rlcore::kQWireBytesPerEntry,
                                 views, bucket, label);
        },
        [](const pimsim::CommandError &) {
            SWIFTRL_PANIC("gathers cannot drop cores");
        });
}

std::size_t
entryBlockCount(std::size_t entries, unsigned threads)
{
    const std::size_t lines =
        (entries + kEntriesPerLine - 1) / kEntriesPerLine;
    return std::clamp<std::size_t>(lines / kMinLinesPerBlock, 1,
                                   std::max(1u, threads));
}

namespace {

/** Banks whose entries one pass of the mean adds. */
constexpr std::size_t kBanksPerPass = 8;

/**
 * out[i] += decode(bank, i) for i in [first, last) over every bank of
 * @p banks, in ascending bank order per entry. Each pass over the
 * entries adds up to kBanksPerPass banks in a register, so the entries
 * are loaded and stored once per pass instead of once per bank; the
 * float additions per entry are the same ones in the same order, so
 * the sum is bit-identical to one bank per pass, and independent of
 * the range the entry falls in.
 */
template <typename Decode>
void
addBanks(std::span<const std::uint8_t *const> banks, std::span<float> out,
         std::size_t first, std::size_t last, Decode decode)
{
    std::size_t b = 0;
    for (; b + kBanksPerPass <= banks.size(); b += kBanksPerPass) {
        const std::uint8_t *const *pass = banks.data() + b;
        for (std::size_t i = first; i < last; ++i) {
            float acc = out[i];
            for (std::size_t k = 0; k < kBanksPerPass; ++k)
                acc += decode(pass[k], i);
            out[i] = acc;
        }
    }
    if (b == banks.size())
        return;
    const std::span<const std::uint8_t *const> rest = banks.subspan(b);
    for (std::size_t i = first; i < last; ++i) {
        float acc = out[i];
        for (const std::uint8_t *bank : rest)
            acc += decode(bank, i);
        out[i] = acc;
    }
}

} // namespace

std::size_t
QTableIo::meanOfWires(
    pimsim::CommandStream &stream,
    std::span<const std::span<const std::uint8_t>> group,
    std::span<float> out) const
{
    std::vector<const std::uint8_t *> live;
    live.reserve(group.size());
    for (const auto &wire : group) {
        if (wire.empty())
            continue;
        SWIFTRL_ASSERT(wire.size() ==
                           out.size() * rlcore::kQWireBytesPerEntry,
                       "gathered Q wire size mismatch");
        live.push_back(wire.data());
    }
    SWIFTRL_ASSERT(!live.empty(), "mean over a group with no live core");
    const float inv = 1.0f / static_cast<float>(live.size());
    // The same per-entry decode as decodeWire.
    const auto block = [&](std::size_t first, std::size_t last) {
        std::fill(out.begin() + first, out.begin() + last, 0.0f);
        if (_workload.format == NumericFormat::Fp32) {
            addBanks(live, out, first, last,
                     [](const std::uint8_t *bank, std::size_t i) {
                         float v;
                         std::memcpy(&v, bank + i * sizeof v, sizeof v);
                         return v;
                     });
        } else {
            common::withDescaleToFloat(fixedScale(), [&](auto descale) {
                addBanks(live, out, first, last,
                         [descale](const std::uint8_t *bank,
                                   std::size_t i) {
                             std::int32_t raw;
                             std::memcpy(&raw, bank + i * sizeof raw,
                                         sizeof raw);
                             return descale(raw);
                         });
            });
        }
        for (std::size_t i = first; i < last; ++i)
            out[i] *= inv;
    };
    forEachEntryBlock(stream.system(), out.size(), block);
    return live.size();
}

QTable
QTableIo::decodeTable(std::span<const std::uint8_t> wire, StateId ns,
                      ActionId na) const
{
    QTable t(ns, na);
    if (wire.empty())
        return t;
    SWIFTRL_ASSERT(wire.size() == t.byteSize(),
                   "gathered Q wire size mismatch");
    decodeWire(wire, [&t](std::size_t i, float v) { t.values()[i] = v; });
    return t;
}

std::vector<std::uint8_t>
QTableIo::packWire(const QTable &q) const
{
    std::vector<std::uint8_t> bytes(q.byteSize());
    encodeWire(q.values(), bytes);
    return bytes;
}

void
QTableIo::encodeWire(std::span<const float> values,
                     std::span<std::uint8_t> out) const
{
    SWIFTRL_ASSERT(out.size() == values.size() * rlcore::kQWireBytesPerEntry,
                   "Q wire buffer size mismatch");
    if (_workload.format == NumericFormat::Fp32) {
        std::memcpy(out.data(), values.data(), out.size());
        return;
    }
    // Round to the raw fixed point the INT32 kernels keep in WRAM.
    const std::int32_t scale = fixedScale();
    for (std::size_t i = 0; i < values.size(); ++i) {
        const std::int32_t raw = rlcore::quantizeReward(values[i], scale);
        std::memcpy(out.data() + i * sizeof raw, &raw, sizeof raw);
    }
}

void
QTableIo::broadcastQTable(pimsim::CommandStream &stream,
                          const QTable &q, TimeBucket bucket,
                          std::string_view label) const
{
    const std::size_t entries = q.entryCount();
    // Packed once; every live bank shares this one payload.
    stream.pushBroadcast(
        qOffset(),
        std::make_shared<const std::vector<std::uint8_t>>(packWire(q)),
        bucket, label);
    // Re-quantisation back to raw fixed point happens on-core after
    // the broadcast lands.
    const double convert =
        conversionSeconds(stream, entries, /*to_float=*/false);
    if (convert > 0.0)
        stream.onCoreCompute(convert, bucket, "convert:requantise");
}

} // namespace swiftrl
