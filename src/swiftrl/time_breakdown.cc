#include "swiftrl/time_breakdown.hh"

namespace swiftrl {

TimeBreakdown
breakdownFromTimeline(const pimsim::Timeline &timeline,
                      const TimeBreakdown &base)
{
    using pimsim::TimeBucket;
    TimeBreakdown time = base;
    for (const auto &event : timeline.events()) {
        const double d = event.duration();
        switch (event.bucket) {
        case TimeBucket::Kernel: time.kernel += d; break;
        case TimeBucket::CpuToPim: time.cpuToPim += d; break;
        case TimeBucket::PimToCpu: time.pimToCpu += d; break;
        case TimeBucket::InterCore: time.interCore += d; break;
        case TimeBucket::HostCollect: time.hostCollect += d; break;
        case TimeBucket::Recovery: time.recovery += d; break;
        }
    }
    return time;
}

} // namespace swiftrl
