/**
 * @file
 * The benchmark's own span recorder, used only by traced runs.
 *
 * Spans are taken around calls into the repository's layers from the
 * benchmark's files: name, start, end (host wall seconds since the
 * recorder started) and the id of the span that caused it. Each
 * thread appends to its own buffer; nothing is written until
 * writeJson() at exit. With the recorder disabled, opening a span is
 * one branch and records nothing, so untraced runs pay nothing.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady_clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** One finished span. Names are string literals. */
struct SpanRecord
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    const char *name = "";
    double start = 0.0;
    double end = 0.0;
};

/** Per-name totals of the self-time report. */
struct SelfTimeRow
{
    std::string name;
    std::uint64_t count = 0;
    double totalSec = 0.0;
    double selfSec = 0.0;
};

class SpanRecorder
{
  public:
    SpanRecorder() : _origin(Clock::now()) {}

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** Switch recording on or off; call while no other thread opens
     *  spans, so a span never straddles the switch. */
    void enable(bool on) { _enabled.store(on, std::memory_order_relaxed); }
    bool enabled() const { return _enabled.load(std::memory_order_relaxed); }

    /** Seconds since the recorder was built. */
    double now() const { return secondsBetween(_origin, Clock::now()); }

    double at(Clock::time_point t) const
    {
        return secondsBetween(_origin, t);
    }

    /** A fresh span id (never 0). */
    std::uint64_t nextId() { return ++_lastId; }

    /** Record a finished span, whether or not recording is on. */
    void record(const SpanRecord &span);

    /** Every recorded span, all threads. Call after threads joined. */
    std::vector<SpanRecord> spans() const;

    /**
     * Per-name totals: span time and self time, the span's duration
     * minus the part of it its children's intervals cover.
     */
    std::vector<SelfTimeRow> selfTimes() const;

    /** Write {"spans": [...], "self_time": [...]} to @p out. */
    void writeJson(std::ostream &out) const;

  private:
    const Clock::time_point _origin;
    std::atomic<bool> _enabled{false};
    std::atomic<std::uint64_t> _lastId{0};

    mutable std::mutex _mutex; ///< guards _buffers
    std::vector<std::unique_ptr<std::vector<SpanRecord>>> _buffers;

    std::vector<SpanRecord> &threadBuffer();
};

/** The process-wide recorder. */
SpanRecorder &recorder();

/**
 * RAII span: opens at construction, records at destruction. The
 * parent defaults to the innermost ScopedSpan open on this thread.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name);
    ScopedSpan(const char *name, std::uint64_t parent);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** This span's id (0 while the recorder is disabled). */
    std::uint64_t id() const { return _rec.id; }

  private:
    SpanRecord _rec;
    std::uint64_t _outer = 0; ///< thread's current span before this
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
