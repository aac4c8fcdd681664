/**
 * @file
 * perfbench_runner: runs one workload and prints its full result as
 * one JSON document on stdout. run.py builds this, runs it once per
 * benchmark run, checks the digest against the pinned one and prints
 * the report.
 *
 *   perfbench_runner --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> [--spans <path>] [--digest-only 1]
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common.hh"
#include "spans.hh"

namespace perfbench {

unsigned
hostPoolSize()
{
    return std::min(2u, std::max(1u, std::thread::hardware_concurrency()));
}

namespace {

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printNumbers(std::ostream &out, const std::vector<double> &values)
{
    out << "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out << (i ? ", " : "") << number(values[i]);
    out << "]";
}

void
printMetrics(std::ostream &out, const std::vector<Metric> &metrics)
{
    out << "[";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        out << (i ? ", " : "") << "{\"name\": " << quoted(metrics[i].name)
            << ", \"value\": " << number(metrics[i].value)
            << ", \"unit\": " << quoted(metrics[i].unit) << "}";
    out << "]";
}

int
usage(const char *why)
{
    std::cerr << "perfbench_runner: " << why
              << "\nusage: perfbench_runner --workload <lake-kernel|"
                 "taxi-sync|fleet-preempt|serve-mixed> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <path>] "
                 "[--sessions <n>] [--digest-only 1]\n";
    return 2;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opts;
    std::string spansPath;
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 >= argc)
            return usage("every flag takes a value");
        const std::string flag = argv[i], value = argv[i + 1];
        try {
            if (flag == "--workload")
                opts.workload = value;
            else if (flag == "--seed")
                opts.seed = std::stoull(value);
            else if (flag == "--seconds")
                opts.seconds = std::stod(value);
            else if (flag == "--trace")
                opts.trace = value == "1";
            else if (flag == "--sessions")
                opts.sessions = std::stoi(value);
            else if (flag == "--spans")
                spansPath = value;
            else if (flag == "--digest-only")
                opts.digestOnly = value == "1";
            else
                return usage(("unknown flag " + flag).c_str());
        } catch (const std::exception &) {
            return usage(("bad value for " + flag).c_str());
        }
    }

    Result res;
    if (opts.workload == "lake-kernel" || opts.workload == "taxi-sync")
        res = runTraining(opts);
    else if (opts.workload == "fleet-preempt")
        res = runFleet(opts);
    else if (opts.workload == "serve-mixed")
        res = runServing(opts);
    else
        return usage("unknown workload");

    rusage self{};
    getrusage(RUSAGE_SELF, &self);
    const double peakMb = static_cast<double>(self.ru_maxrss) / 1024.0;
    res.note("peak_rss_mb", peakMb, "MB");

    if (opts.trace && !spansPath.empty()) {
        std::ofstream spans(spansPath);
        recorder().writeJson(spans);
        if (!spans) {
            std::cerr << "perfbench_runner: cannot write " << spansPath
                      << "\n";
            return 1;
        }
    }

    auto &out = std::cout;
    out << "{\"workload\": " << quoted(opts.workload)
        << ", \"seed\": " << opts.seed
        << ", \"trace\": " << (opts.trace ? 1 : 0)
        << ", \"digest\": " << quoted(res.digest)
        << ", \"attempted\": " << res.attempted
        << ", \"failed\": " << res.failed << ",\n \"metrics\": ";
    printMetrics(out, res.metrics);
    out << ",\n \"detail\": ";
    printMetrics(out, res.detail);
    out << ",\n \"pool\": {\"setup_s\": ";
    printNumbers(out, res.pool.setupSec);
    out << ", \"op_s\": ";
    printNumbers(out, res.pool.opSec);
    out << ", \"work_units\": " << number(res.pool.workUnits)
        << ", \"work_s\": " << number(res.pool.workSec)
        << ", \"peak_rss_mb\": " << number(peakMb) << "}";
    out << ",\n \"manifest\": {\"build_type\": "
        << quoted(PERFBENCH_BUILD_TYPE)
        << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
        << ", \"batch_exec_build\": "
        << (PERFBENCH_BATCH_EXEC_BUILD ? "true" : "false")
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"seed\": " << opts.seed
        << ", \"seconds\": " << number(opts.seconds);
    for (const auto &[key, value] : res.manifest)
        out << ", " << quoted(key) << ": " << quoted(value);
    out << "},\n \"failures\": [";
    for (std::size_t i = 0; i < res.failures.size(); ++i)
        out << (i ? ", " : "") << quoted(res.failures[i]);
    out << "]}\n";
    return res.failures.empty() ? 0 : 1;
}
