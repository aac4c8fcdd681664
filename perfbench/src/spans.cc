#include "spans.hh"

#include <algorithm>
#include <map>
#include <unordered_map>

namespace perfbench {

namespace {

thread_local std::uint64_t tCurrent = 0;
thread_local std::vector<SpanRecord> *tBuffer = nullptr;

} // namespace

SpanRecorder &
recorder()
{
    static SpanRecorder instance;
    return instance;
}

std::vector<SpanRecord> &
SpanRecorder::threadBuffer()
{
    if (!tBuffer) {
        const std::lock_guard<std::mutex> lock(_mutex);
        _buffers.push_back(std::make_unique<std::vector<SpanRecord>>());
        tBuffer = _buffers.back().get();
    }
    return *tBuffer;
}

void
SpanRecorder::record(const SpanRecord &span)
{
    threadBuffer().push_back(span);
}

std::vector<SpanRecord>
SpanRecorder::spans() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    std::vector<SpanRecord> all;
    for (const auto &buffer : _buffers)
        all.insert(all.end(), buffer->begin(), buffer->end());
    std::sort(all.begin(), all.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  return a.id < b.id;
              });
    return all;
}

std::vector<SelfTimeRow>
SpanRecorder::selfTimes() const
{
    const auto all = spans();
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<double, double>>>
        children;
    for (const auto &s : all)
        if (s.parent != 0)
            children[s.parent].emplace_back(s.start, s.end);

    std::map<std::string, SelfTimeRow> rows;
    for (const auto &s : all) {
        // Covered length of the union of child intervals, clipped to
        // this span: children of one parent may overlap (concurrent
        // client threads under one load span).
        double covered = 0.0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            double runStart = 0.0, runEnd = -1.0;
            for (const auto &[b, e] : iv) {
                const double cb = std::max(b, s.start);
                const double ce = std::min(e, s.end);
                if (ce <= cb)
                    continue;
                if (cb > runEnd) {
                    if (runEnd > runStart)
                        covered += runEnd - runStart;
                    runStart = cb;
                    runEnd = ce;
                } else {
                    runEnd = std::max(runEnd, ce);
                }
            }
            if (runEnd > runStart)
                covered += runEnd - runStart;
        }
        auto &row = rows[s.name];
        row.name = s.name;
        row.count += 1;
        row.totalSec += s.end - s.start;
        row.selfSec += std::max(0.0, (s.end - s.start) - covered);
    }
    std::vector<SelfTimeRow> out;
    for (auto &[name, row] : rows)
        out.push_back(row);
    return out;
}

void
SpanRecorder::writeJson(std::ostream &out) const
{
    out.precision(9);
    out << "{\n  \"spans\": [";
    bool first = true;
    for (const auto &s : spans()) {
        out << (first ? "\n" : ",\n") << "    {\"id\": " << s.id
            << ", \"parent\": " << s.parent << ", \"name\": \""
            << s.name << "\", \"start\": " << s.start
            << ", \"end\": " << s.end << "}";
        first = false;
    }
    out << "\n  ],\n  \"self_time\": [";
    first = true;
    for (const auto &row : selfTimes()) {
        out << (first ? "\n" : ",\n") << "    {\"name\": \"" << row.name
            << "\", \"count\": " << row.count
            << ", \"total_s\": " << row.totalSec
            << ", \"self_s\": " << row.selfSec << "}";
        first = false;
    }
    out << "\n  ]\n}\n";
}

ScopedSpan::ScopedSpan(const char *name)
    : ScopedSpan(name, tCurrent)
{
}

ScopedSpan::ScopedSpan(const char *name, std::uint64_t parent)
{
    auto &rec = recorder();
    if (!rec.enabled())
        return;
    _rec.id = rec.nextId();
    _rec.parent = parent;
    _rec.name = name;
    _outer = tCurrent;
    tCurrent = _rec.id;
    _rec.start = rec.now();
}

ScopedSpan::~ScopedSpan()
{
    if (_rec.id == 0)
        return;
    auto &rec = recorder();
    _rec.end = rec.now();
    tCurrent = _outer;
    rec.record(_rec);
}

} // namespace perfbench
