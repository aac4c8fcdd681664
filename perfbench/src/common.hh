/**
 * @file
 * What every workload shares: the command-line options, the result
 * record the runner prints, order statistics and the output digest.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Parsed runner arguments. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Training: run exactly this many sessions, whatever the
     *  seconds; 0 runs sessions until the seconds are used. */
    int sessions = 0;
    /** Print only the output digest for the seed (pinning). */
    bool digestOnly = false;
};

/** One named figure with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Raw samples of an untraced run. run.py pools them across the
 * processes of one benchmark run and computes the end-to-end metrics
 * from the pool.
 */
struct Pool
{
    std::vector<double> setupSec; ///< one per set-up
    std::vector<double> opSec;    ///< one per op
    double workUnits = 0.0;       ///< updates, jobs or queries done
    double workSec = 0.0;         ///< host seconds they took
};

/** Everything one workload run reports. */
struct Result
{
    /** Per-layer metrics BENCHMARK.json names (traced runs). */
    std::vector<Metric> metrics;
    Pool pool;
    /** Every other figure, under the layer name it measures. */
    std::vector<Metric> detail;
    /** Run manifest entries (workload shape and host settings). */
    std::vector<std::pair<std::string, std::string>> manifest;
    /** Output checks that failed, one line each. */
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Digest of the modelled outputs, compared with the pinned one. */
    std::string digest;

    void metric(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void note(std::string name, double value, std::string unit)
    {
        detail.push_back({std::move(name), value, std::move(unit)});
    }
    void shape(std::string key, std::string value)
    {
        manifest.emplace_back(std::move(key), std::move(value));
    }
    void fail(std::string why) { failures.push_back(std::move(why)); }
};

/** Linear-interpolated quantile @p q in [0, 1]; 0 for no samples. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

inline double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

/** FNV-1a over raw bytes, chained through @p h. */
inline std::uint64_t
fnv(std::span<const std::uint8_t> bytes,
    std::uint64_t h = 0xcbf29ce484222325ull)
{
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Chain the bit patterns of trivially copyable values into @p h. */
template <typename T>
std::uint64_t
fnvValues(std::span<const T> values, std::uint64_t h)
{
    return fnv({reinterpret_cast<const std::uint8_t *>(values.data()),
                values.size_bytes()},
               h);
}

inline std::string
hex(std::uint64_t h)
{
    static const char *digits = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 15; i >= 0; --i, h >>= 4)
        s[static_cast<std::size_t>(i)] = digits[h & 0xf];
    return s;
}

/** Host worker pool for the simulation: fixed 2, capped at nproc. */
unsigned hostPoolSize();

Result runTraining(const Options &opts);
Result runFleet(const Options &opts);
/** The fleet's layer figures outside its own workload: a few checked
 *  FleetScheduler::run calls over fleet-preempt's job set for @p seed
 *  and its preemption round trips, as notes on @p res. */
void noteFleetLayers(std::uint64_t seed, Result &res);
Result runServing(const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
