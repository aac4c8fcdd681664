/**
 * @file
 * The four-component execution time breakdown SwiftRL reports in its
 * strong-scaling figures (Figures 5 and 6): PIM kernel time, initial
 * CPU->PIM dataset transfer, final PIM->CPU result transfer, and
 * inter-PIM-core communication (the tau-periodic Q-table exchange,
 * which is routed through the host because PIM cores cannot talk to
 * each other directly).
 */

#ifndef SWIFTRL_SWIFTRL_TIME_BREAKDOWN_HH
#define SWIFTRL_SWIFTRL_TIME_BREAKDOWN_HH

#include "pimsim/timeline.hh"

namespace swiftrl {

/** Modelled execution time split, in seconds. */
struct TimeBreakdown
{
    /** Time spent executing kernels on the PIM cores. */
    double kernel = 0.0;

    /** Initial dataset distribution, CPU -> PIM. */
    double cpuToPim = 0.0;

    /** Final result retrieval, PIM -> CPU. */
    double pimToCpu = 0.0;

    /** Q-value exchange between PIM cores (via the host). */
    double interCore = 0.0;

    /**
     * Host-side actor collection busy time (streaming mode only; 0
     * for the paper's offline runs). Deliberately *excluded* from
     * total(): collection overlaps the PIM pipeline in modelled time,
     * so adding it would double-count wall-clock the overlap already
     * hid. The streaming makespan is StreamingResult::endToEnd (the
     * timeline's end), not a sum of busy times.
     */
    double hostCollect = 0.0;

    /**
     * Fault-recovery overhead (failed attempts, retry backoff,
     * checksum verification, dropout redistribution); 0 when the
     * fault plan is inert. Also *excluded* from total(): the four-way
     * split describes the fault-free pipeline of Figures 5/6, and
     * recovery is exactly the overhead on top of it — reported
     * separately so the two remain comparable across fault rates.
     */
    double recovery = 0.0;

    /** Sum of the four Figure 5/6 components (PIM-pipeline time). */
    double
    total() const
    {
        return kernel + cpuToPim + pimToCpu + interCore;
    }

    /** Fraction of total contributed by a component value. */
    double
    fractionOf(double component) const
    {
        const double t = total();
        return t > 0.0 ? component / t : 0.0;
    }

    TimeBreakdown &
    operator+=(const TimeBreakdown &other)
    {
        kernel += other.kernel;
        cpuToPim += other.cpuToPim;
        pimToCpu += other.pimToCpu;
        interCore += other.interCore;
        hostCollect += other.hostCollect;
        recovery += other.recovery;
        return *this;
    }
};

/**
 * Derive the four-way breakdown from a command-stream timeline: each
 * event's duration is added to the component named by its TimeBucket,
 * in enqueue order (so the result is bit-identical across runs and
 * host-pool sizes), starting from @p base. This is how every trainer
 * fills its result's time — the breakdown *is* a view of the timeline,
 * never hand-accumulated.
 *
 * A restored TrainerSession passes the checkpoint's per-bucket partial
 * sums of the pre-restore prefix as @p base, and accumulation
 * continues in event order from there. That is identical to full
 * in-order summation of the uninterrupted run, so restore stays
 * bit-exact (double addition is deterministic for a fixed order).
 */
TimeBreakdown breakdownFromTimeline(const pimsim::Timeline &timeline,
                                    const TimeBreakdown &base = {});

} // namespace swiftrl

#endif // SWIFTRL_SWIFTRL_TIME_BREAKDOWN_HH
