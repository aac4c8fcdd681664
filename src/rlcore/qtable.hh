/**
 * @file
 * The Q-table: a dense numStates x numActions matrix of quality
 * values. One definition is shared by the CPU reference trainers, the
 * PIM kernels (via the raw fixed-point buffer views), and the
 * host-side aggregation step that averages partial Q-tables.
 */

#ifndef SWIFTRL_RLCORE_QTABLE_HH
#define SWIFTRL_RLCORE_QTABLE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "rlcore/types.hh"

namespace swiftrl::rlcore {

/**
 * Bytes per Q-table entry on the wire. Both PIM formats are 4-byte
 * elements — IEEE-754 binary32 for FP32, raw fixed-point int32 for
 * INT32 — and every MRAM offset computation and transfer size in the
 * engine assumes exactly this width.
 */
inline constexpr std::size_t kQWireBytesPerEntry = 4;

static_assert(sizeof(float) == kQWireBytesPerEntry &&
                  sizeof(std::int32_t) == kQWireBytesPerEntry,
              "the Q-table wire format pins 4-byte elements");

/** Dense state-action value table. */
class QTable
{
  public:
    /** Zero-initialised table. */
    QTable(StateId num_states, ActionId num_actions);

    StateId numStates() const { return _numStates; }
    ActionId numActions() const { return _numActions; }

    /** Entries in row-major (state-major) order. */
    std::size_t entryCount() const { return _values.size(); }

    /** Byte size of the FP32/INT32 wire representation. */
    std::size_t byteSize() const
    {
        return entryCount() * kQWireBytesPerEntry;
    }

    /** Mutable access to Q(s, a). */
    float &at(StateId s, ActionId a);

    /** Read access to Q(s, a). */
    float at(StateId s, ActionId a) const;

    /** max_a' Q(s, a'). */
    float maxValue(StateId s) const;

    /** argmax_a Q(s, a); ties break toward the lowest action index. */
    ActionId greedyAction(StateId s) const;

    /** Fill with zeros. */
    void setZero();

    /**
     * Fill with small arbitrary values in [0, 0.01) — the "initialise
     * a Q-table with arbitrary values" step of Algorithm 1 — so ties
     * are broken randomly but reproducibly.
     */
    void initArbitrary(std::uint64_t seed);

    /** Raw row-major storage. */
    const std::vector<float> &values() const { return _values; }

    /** Raw row-major storage (mutable). */
    std::vector<float> &values() { return _values; }

    /**
     * Rebuild from the fixed-point wire format (raw int32 values at
     * @p scale, the representation INT32 kernels keep in WRAM;
     * QTableIo::encodeWire writes it).
     */
    static QTable fromFixed(StateId num_states, ActionId num_actions,
                            const std::vector<std::int32_t> &raw,
                            std::int32_t scale);

    /** Reinterpret a float buffer as a table (PIM gather path). */
    static QTable fromFloats(StateId num_states, ActionId num_actions,
                             const std::vector<float> &values);

    /**
     * Element-wise average of partial Q-tables — the host-side
     * aggregation SwiftRL performs every synchronisation period and
     * at the end of training. All tables must share one shape.
     */
    static QTable average(const std::vector<QTable> &tables);

    /** Largest |Q| entry (overflow guard diagnostics). */
    float maxAbsValue() const;

    /**
     * Largest |difference| between two same-shaped tables (used by
     * the FP32-vs-INT32 equivalence tests).
     */
    static float maxAbsDifference(const QTable &a, const QTable &b);

  private:
    std::size_t index(StateId s, ActionId a) const;

    StateId _numStates;
    ActionId _numActions;
    std::vector<float> _values;
};

} // namespace swiftrl::rlcore

#endif // SWIFTRL_RLCORE_QTABLE_HH
