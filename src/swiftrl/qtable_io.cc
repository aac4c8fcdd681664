#include "swiftrl/qtable_io.hh"

#include <algorithm>
#include <cstring>

#include "pimsim/pim_system.hh"

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
    const std::vector<std::uint8_t> zeros(q_bytes, 0);
    stream.pushBroadcast(qOffset(), zeros, TimeBucket::CpuToPim,
                         "broadcast:qinit");
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
QTableIo::meanOfWires(
    std::span<const std::span<const std::uint8_t>> group,
    std::span<float> out) const
{
    std::fill(out.begin(), out.end(), 0.0f);
    std::size_t live = 0;
    for (const auto &wire : group) {
        if (wire.empty())
            continue;
        SWIFTRL_ASSERT(wire.size() ==
                           out.size() * rlcore::kQWireBytesPerEntry,
                       "gathered Q wire size mismatch");
        decodeWire(wire, [out](std::size_t i, float v) { out[i] += v; });
        ++live;
    }
    SWIFTRL_ASSERT(live > 0, "mean over a group with no live core");
    const float inv = 1.0f / static_cast<float>(live);
    for (float &v : out)
        v *= inv;
    return live;
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
    if (_workload.format == NumericFormat::Fp32) {
        std::memcpy(bytes.data(), q.values().data(), bytes.size());
    } else {
        const auto fixed = q.toFixed(fixedScale());
        std::memcpy(bytes.data(), fixed.data(), bytes.size());
    }
    return bytes;
}

void
QTableIo::broadcastQTable(pimsim::CommandStream &stream,
                          const QTable &q, TimeBucket bucket,
                          std::string_view label) const
{
    const std::size_t entries = q.entryCount();
    const std::vector<std::uint8_t> bytes = packWire(q);
    stream.pushBroadcast(qOffset(), bytes, bucket, label);
    // Re-quantisation back to raw fixed point happens on-core after
    // the broadcast lands.
    const double convert =
        conversionSeconds(stream, entries, /*to_float=*/false);
    if (convert > 0.0)
        stream.onCoreCompute(convert, bucket, "convert:requantise");
}

} // namespace swiftrl
