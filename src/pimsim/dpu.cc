#include "pimsim/dpu.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace swiftrl::pimsim {

Dpu::Dpu(std::size_t id, std::size_t mram_capacity)
    : _id(id), _mramCapacity(mram_capacity)
{
}

void
Dpu::checkRange(std::size_t end, const char *what) const
{
    if (end > _mramCapacity) {
        SWIFTRL_FATAL("DPU ", _id, ": MRAM ", what, " up to byte ", end,
                      " exceeds the ", _mramCapacity, "-byte bank");
    }
}

std::size_t
Dpu::grownSize(std::size_t size, std::size_t end) const
{
    // Geometric growth (doubling, clamped to the bank) so a sequence
    // of boundary-crossing writes costs amortised O(1) reallocations
    // instead of one per write.
    if (end <= size)
        return size;
    return std::min(std::max(end, size * 2), _mramCapacity);
}

void
Dpu::ensure(std::size_t end, std::size_t overwrite) const
{
    checkRange(end, "access");
    const std::size_t old = _mram.size();
    if (end <= old)
        return;
    // resize() leaves the new bytes unwritten: zero all of them but
    // the range the caller overwrites, so never-written MRAM still
    // reads as zero (mramRead zero-fills past the size anyway).
    _mram.resize(grownSize(old, end));
    std::uint8_t *bytes = _mram.data();
    const std::size_t gap_end = std::max(old, std::min(overwrite, end));
    std::memset(bytes + old, 0, gap_end - old);
    std::memset(bytes + end, 0, _mram.size() - end);
}

const std::uint8_t *
Dpu::reserveLane(std::size_t end)
{
    checkRange(end, "access");
    // mramLane settles a pending payload, then ensures end: reserve
    // the size both growth steps reach.
    std::size_t size = _mram.size();
    if (_pending)
        size = grownSize(size, _pendingOffset + _pending->size());
    _mram.reserve(grownSize(size, end));
    return _mram.data();
}

void
Dpu::settleSlow() const
{
    const std::vector<std::uint8_t> &payload = *_pending;
    _pending = nullptr;
    ensure(_pendingOffset + payload.size(), _pendingOffset);
    std::memcpy(_mram.data() + _pendingOffset, payload.data(),
                payload.size());
}

void
Dpu::mramShare(std::size_t offset, SharedPayload payload)
{
    if (!payload || payload->empty())
        return;
    const std::size_t end = offset + payload->size();
    checkRange(end, "broadcast");
    if (_pending && (_pendingOffset < offset ||
                     _pendingOffset + _pending->size() > end))
        settleSlow();
    _payload = std::move(payload);
    _pending = _payload.get();
    _pendingOffset = offset;
}

void
Dpu::mramWrite(std::size_t offset, const void *src, std::size_t bytes)
{
    settle();
    ensure(offset + bytes, offset);
    std::memcpy(_mram.data() + offset, src, bytes);
}

void
Dpu::mramRead(std::size_t offset, void *dst, std::size_t bytes) const
{
    checkRange(offset + bytes, "read");
    settle();
    // Reads of never-written MRAM return zeros, like fresh DRAM in the
    // functional sense (real DRAM is undefined; zero keeps tests
    // deterministic and surfaces uninitialised-data bugs loudly).
    const std::size_t valid_end = _mram.size();
    std::uint8_t *out = static_cast<std::uint8_t *>(dst);
    const std::size_t copyable =
        offset >= valid_end
            ? 0
            : std::min(bytes, valid_end - offset);
    if (copyable > 0)
        std::memcpy(out, _mram.data() + offset, copyable);
    if (copyable < bytes)
        std::memset(out + copyable, 0, bytes - copyable);
}

void
Dpu::resetStats()
{
    _cycles = 0;
    _opCounts = {};
    _dmaBytes = 0;
}

} // namespace swiftrl::pimsim
