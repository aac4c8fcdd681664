/**
 * @file
 * Tests for the telemetry subsystem: registry semantics (labels,
 * histogram bucketing, disabled-mode no-ops), engine-collector
 * counter deltas, export golden files, determinism of the export
 * across host-pool sizes, and — the load-bearing guarantee — that
 * attaching telemetry never moves a modelled number.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "oracle/scalar_kernel.hh"
#include "pimsim/command_stream.hh"
#include "pimsim/device_counters.hh"
#include "swiftrl/swiftrl.hh"
#include "telemetry/engine_collector.hh"
#include "telemetry/export.hh"
#include "telemetry/metric_registry.hh"
#include "telemetry/run_manifest.hh"

namespace {

using namespace swiftrl;
using telemetry::Labels;
using telemetry::MetricKind;
using telemetry::MetricRegistry;
using telemetry::RunManifest;

// Most of these tests exercise *live* telemetry; under
// -DSWIFTRL_DISABLE_TELEMETRY=ON every registry is inert by design,
// so they skip (the Disabled* tests below cover that build too).
#define REQUIRE_TELEMETRY()                                          \
    if (!telemetry::kCompiledIn)                                     \
    GTEST_SKIP() << "built with SWIFTRL_DISABLE_TELEMETRY"

// --- registry semantics ---------------------------------------------

TEST(MetricRegistry, CountersAccumulate)
{
    REQUIRE_TELEMETRY();
    MetricRegistry reg;
    auto &c = reg.counter("events_total");
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    EXPECT_EQ(&reg.counter("events_total"), &c);
}

TEST(MetricRegistry, LabelsDistinguishSeries)
{
    REQUIRE_TELEMETRY();
    MetricRegistry reg;
    auto &a = reg.counter("ops_total", {{"cls", "a"}});
    auto &b = reg.counter("ops_total", {{"cls", "b"}});
    EXPECT_NE(&a, &b);
    a.add(1);
    b.add(2);
    EXPECT_EQ(a.value(), 1u);
    EXPECT_EQ(b.value(), 2u);
    // The registry key is label-order-canonical: permuted label lists
    // resolve to the same metric.
    auto &c = reg.counter("multi", {{"z", "1"}, {"a", "2"}});
    EXPECT_EQ(&reg.counter("multi", {{"a", "2"}, {"z", "1"}}), &c);
    // renderLabels itself renders exactly what it is given.
    EXPECT_EQ(telemetry::renderLabels({{"z", "1"}, {"a", "2"}}),
              "{z=\"1\",a=\"2\"}");
    EXPECT_EQ(telemetry::renderLabels({}), "");
}

TEST(MetricRegistry, HistogramBucketing)
{
    REQUIRE_TELEMETRY();
    MetricRegistry reg;
    auto &h = reg.histogram("lat", {1.0, 2.0, 5.0});
    h.observe(0.5);   // <= 1
    h.observe(1.0);   // <= 1 (bounds are inclusive upper edges)
    h.observe(1.5);   // <= 2
    h.observe(100.0); // +Inf
    ASSERT_EQ(h.bucketCounts().size(), 4u);
    EXPECT_EQ(h.bucketCounts()[0], 2u);
    EXPECT_EQ(h.bucketCounts()[1], 1u);
    EXPECT_EQ(h.bucketCounts()[2], 0u);
    EXPECT_EQ(h.bucketCounts()[3], 1u);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 103.0);
}

TEST(MetricRegistry, SeriesKeepsOrder)
{
    REQUIRE_TELEMETRY();
    MetricRegistry reg;
    auto &s = reg.series("per_round");
    s.append(3.0);
    s.append(1.0);
    s.append(2.0);
    EXPECT_EQ(s.values(), (std::vector<double>{3.0, 1.0, 2.0}));
}

TEST(MetricRegistry, EntriesSortedByNameAndLabels)
{
    REQUIRE_TELEMETRY();
    MetricRegistry reg;
    reg.counter("zeta_total");
    reg.gauge("alpha");
    reg.counter("mid_total", {{"k", "b"}});
    reg.counter("mid_total", {{"k", "a"}});
    const auto entries = reg.entries();
    ASSERT_EQ(entries.size(), 4u);
    EXPECT_EQ(entries[0].name, "alpha");
    EXPECT_EQ(entries[1].name, "mid_total");
    EXPECT_EQ(entries[1].labels, (Labels{{"k", "a"}}));
    EXPECT_EQ(entries[2].labels, (Labels{{"k", "b"}}));
    EXPECT_EQ(entries[3].name, "zeta_total");
}

TEST(MetricRegistry, DisabledRegistryIsInert)
{
    MetricRegistry reg(/*enabled=*/false);
    EXPECT_FALSE(reg.enabled());
    auto &c = reg.counter("x_total");
    c.add(100);
    EXPECT_EQ(c.value(), 0u);
    auto &g = reg.gauge("g");
    g.set(5.0);
    EXPECT_EQ(g.value(), 0.0);
    auto &h = reg.histogram("h", {1.0});
    h.observe(0.5);
    EXPECT_EQ(h.count(), 0u);
    auto &s = reg.series("s");
    s.append(1.0);
    EXPECT_TRUE(s.values().empty());
    EXPECT_EQ(reg.size(), 0u);
    EXPECT_TRUE(reg.entries().empty());
}

// --- engine collector -----------------------------------------------

const telemetry::Histogram *
findHistogram(const MetricRegistry &reg, std::string_view name)
{
    for (const auto &e : reg.entries())
        if (e.kind == MetricKind::Histogram && e.name == name)
            return e.histogram;
    return nullptr;
}

TEST(EngineCollector, CountsMatchDeviceCounters)
{
    REQUIRE_TELEMETRY();
    pimsim::PimConfig pc;
    pc.numDpus = 4;
    pc.mramBytesPerDpu = 1 << 20;
    pimsim::PimSystem system(pc);

    MetricRegistry reg;
    telemetry::EngineCollector collector(reg, system);
    pimsim::CommandStream stream(system);
    stream.setObserver(&collector);

    const auto status = stream.launchBatch(
        oracle::perLane([](oracle::LedgerOps &ctx) {
            ctx.fmul(1.0f, 2.0f);
            ctx.iadd(1, 2);
            ctx.iadd(3, 4);
        }));
    ASSERT_TRUE(status.ok());

    const auto counters = pimsim::DeviceCounters::fromSystem(system);
    EXPECT_EQ(reg.counter("pim_launches_total").value(), 1u);
    EXPECT_EQ(
        reg.counter("pim_ops_total", {{"op_class", "fp32_mul"}})
            .value(),
        4u); // 1 op x 4 cores
    EXPECT_EQ(
        reg.counter("pim_ops_total", {{"op_class", "int_alu"}})
            .value(),
        8u);
    EXPECT_EQ(reg.counter("pim_mram_dma_bytes_total").value(),
              counters.dmaBytes);

    const auto *cycles = findHistogram(reg, "pim_launch_core_cycles");
    ASSERT_NE(cycles, nullptr);
    EXPECT_EQ(cycles->count(), 4u); // one observation per live core

    // Balanced kernel: every core charges the same cycles, so the
    // straggler ratio is exactly 1.
    const auto *straggler =
        findHistogram(reg, "pim_launch_straggler_ratio");
    ASSERT_NE(straggler, nullptr);
    EXPECT_EQ(straggler->count(), 1u);
    EXPECT_DOUBLE_EQ(straggler->sum(), 1.0);

    // Counter samples landed on the stream's timeline for the trace.
    EXPECT_FALSE(stream.timeline().counters().empty());
}

// --- trainer integration --------------------------------------------

const rlcore::Dataset &
sharedDataset()
{
    static const rlcore::Dataset data = [] {
        auto env = rlenv::makeEnvironment("frozenlake");
        return rlcore::collectRandomDataset(*env, 512, 1);
    }();
    return data;
}

PimTrainResult
trainOnce(unsigned host_threads, MetricRegistry *metrics)
{
    auto env = rlenv::makeEnvironment("frozenlake");
    pimsim::PimConfig pc;
    pc.numDpus = 8;
    pc.mramBytesPerDpu = 1 << 20;
    pc.hostThreads = host_threads;
    pimsim::PimSystem system(pc);

    PimTrainConfig cfg;
    cfg.workload = {rlcore::Algorithm::QLearning,
                    rlcore::Sampling::Seq,
                    rlcore::NumericFormat::Fp32};
    cfg.hyper.episodes = 20;
    cfg.tau = 10;
    cfg.metrics = metrics;
    PimTrainer trainer(system, cfg);
    return trainer.train(sharedDataset(), env->numStates(),
                         env->numActions());
}

TEST(Telemetry, AttachingTelemetryNeverMovesModelledNumbers)
{
    REQUIRE_TELEMETRY();
    const auto bare = trainOnce(2, nullptr);
    MetricRegistry reg;
    const auto observed = trainOnce(2, &reg);

    // Bit-identical results and modelled times, with and without.
    EXPECT_EQ(bare.finalQ.values(), observed.finalQ.values());
    EXPECT_EQ(bare.roundDeltas, observed.roundDeltas);
    EXPECT_EQ(bare.time.kernel, observed.time.kernel);
    EXPECT_EQ(bare.time.cpuToPim, observed.time.cpuToPim);
    EXPECT_EQ(bare.time.pimToCpu, observed.time.pimToCpu);
    EXPECT_EQ(bare.time.interCore, observed.time.interCore);
    EXPECT_EQ(bare.time.recovery, observed.time.recovery);
    EXPECT_EQ(bare.timeline.size(), observed.timeline.size());

    // The registry actually collected the run.
    const auto rounds =
        static_cast<std::uint64_t>(observed.commRounds);
    EXPECT_EQ(reg.counter("rl_comm_rounds_total").value(), rounds);
    EXPECT_GE(reg.counter("pim_launches_total").value(), rounds);
    EXPECT_EQ(reg.series("rl_round_max_abs_dq").values().size(),
              observed.roundDeltas.size());
    EXPECT_GT(reg.counter("pim_mram_dma_bytes_total").value(), 0u);

    // Counter tracks are gated on telemetry: without a registry the
    // timeline carries no counter samples (default traces stay
    // byte-identical); with one it does.
    EXPECT_TRUE(bare.timeline.counters().empty());
    EXPECT_FALSE(observed.timeline.counters().empty());
}

TEST(Telemetry, ExportIdenticalAcrossHostPoolSizes)
{
    REQUIRE_TELEMETRY();
    RunManifest manifest; // fixed: the export diff isolates metrics
    manifest.tool = "test_telemetry";
    std::string first;
    for (const unsigned ht : {1u, 2u, 8u}) {
        MetricRegistry reg;
        trainOnce(ht, &reg);
        std::ostringstream json;
        telemetry::writeMetricsJson(json, manifest, reg);
        if (first.empty())
            first = json.str();
        else
            EXPECT_EQ(json.str(), first)
                << "metrics drift at hostThreads=" << ht;
    }
    EXPECT_FALSE(first.empty());
}

TEST(Telemetry, ChromeTraceGainsCounterTracks)
{
    REQUIRE_TELEMETRY();
    MetricRegistry reg;
    const auto result = trainOnce(2, &reg);
    const std::string path = "test_telemetry_trace.json";
    ASSERT_TRUE(result.timeline.writeChromeTrace(path));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_NE(buf.str().find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(buf.str().find("straggler-ratio"), std::string::npos);
    std::remove(path.c_str());
}

// --- export golden files --------------------------------------------

/** Fully pinned manifest so the goldens are test-determined. */
RunManifest
goldenManifest()
{
    RunManifest m;
    m.tool = "golden";
    m.mode = "unit";
    m.environment = "none";
    m.workload = "w";
    m.cores = 2;
    m.hostThreads = 1;
    m.tasklets = 1;
    m.episodes = 4;
    m.tau = 2;
    m.transitions = 8;
    m.alpha = 0.1;
    m.gamma = 0.5;
    m.epsilon = 0.25;
    m.collectSeed = 7;
    m.trainSeed = 9;
    m.retryLimit = 3;
    m.faultPlan.seed = 5;
    m.faultPlan.detectSec = 1e-6;
    m.faultPlan.checksumSecPerByte = 1e-9;
    m.costModel.frequencyHz = 100.0;
    m.costModel.pipelineInterval = 2;
    m.costModel.mramDmaFixedCycles = 3;
    m.costModel.mramDmaCyclesPerByte = 0.5;
    m.costModel.mramDmaMaxBytes = 64;
    m.costModel.mramDmaAlignBytes = 8;
    for (std::size_t i = 0; i < pimsim::kNumOpClasses; ++i)
        m.costModel.instructions[i] = i + 1;
    return m;
}

MetricRegistry &
goldenRegistry()
{
    static MetricRegistry reg;
    static const bool filled = [] {
        reg.counter("a_total", {{"k", "v"}}).add(3);
        reg.gauge("g").set(1.5);
        auto &h = reg.histogram("h", {1.0, 2.0});
        h.observe(0.5);
        h.observe(1.5);
        h.observe(5.0);
        auto &s = reg.series("s");
        s.append(1.0);
        s.append(2.5);
        return true;
    }();
    (void)filled;
    return reg;
}

TEST(TelemetryExport, JsonGolden)
{
    REQUIRE_TELEMETRY();
    std::ostringstream os;
    telemetry::writeMetricsJson(os, goldenManifest(),
                                goldenRegistry());
    const std::string expected = R"({
  "schema": "swiftrl-metrics-v1",
  "manifest": {
    "tool": "golden",
    "mode": "unit",
    "environment": "none",
    "workload": "w",
    "cores": 2,
    "host_threads": 1,
    "tasklets": 1,
    "episodes": 4,
    "tau": 2,
    "transitions": 8,
    "generations": 0,
    "actors": 0,
    "refresh_period": 0,
    "weighted_aggregation": false,
    "alpha": 0.1,
    "gamma": 0.5,
    "epsilon": 0.25,
    "collect_seed": 7,
    "train_seed": 9,
    "retry_limit": 3,
    "fault_plan": {
      "seed": 5,
      "transient_rate": 0,
      "corrupt_rate": 0,
      "dropout_rate": 0,
      "scheduled": 0,
      "detect_sec": 1e-06,
      "checksum_sec_per_byte": 1e-09
    },
    "cost_model": {
      "frequency_hz": 100,
      "pipeline_interval": 2,
      "mram_dma_fixed_cycles": 3,
      "mram_dma_cycles_per_byte": 0.5,
      "mram_dma_max_bytes": 64,
      "mram_dma_align_bytes": 8,
      "instructions": {"int_alu": 1, "int8_mul": 2, "int32_mul": 3, "int32_div": 4, "fp32_add": 5, "fp32_mul": 6, "fp32_div": 7, "fp32_cmp": 8, "wram_access": 9, "branch": 10}
    }
  },
  "counters": [
    {"name": "a_total", "labels": {"k":"v"}, "value": 3}
  ],
  "gauges": [
    {"name": "g", "labels": {}, "value": 1.5}
  ],
  "histograms": [
    {"name": "h", "labels": {}, "bounds": [1, 2], "counts": [1, 1, 1], "count": 3, "sum": 7}
  ],
  "series": [
    {"name": "s", "labels": {}, "values": [1, 2.5]}
  ]
}
)";
    EXPECT_EQ(os.str(), expected);
}

TEST(TelemetryExport, PrometheusGolden)
{
    REQUIRE_TELEMETRY();
    std::ostringstream os;
    telemetry::writeMetricsPrometheus(os, goldenManifest(),
                                      goldenRegistry());
    const std::string expected =
        "# swiftrl-metrics-v1 (Prometheus text exposition)\n"
        "# cost model: frequency_hz=100 pipeline_interval=2\n"
        "# seeds: collect=7 train=9 fault=5\n"
        "# TYPE swiftrl_run_info gauge\n"
        "swiftrl_run_info{tool=\"golden\",mode=\"unit\","
        "environment=\"none\",workload=\"w\",cores=\"2\"} 1\n"
        "# TYPE a_total counter\n"
        "a_total{k=\"v\"} 3\n"
        "# TYPE g gauge\n"
        "g 1.5\n"
        "# TYPE h histogram\n"
        "h_bucket{le=\"1\"} 1\n"
        "h_bucket{le=\"2\"} 2\n"
        "h_bucket{le=\"+Inf\"} 3\n"
        "h_sum 7\n"
        "h_count 3\n"
        "# TYPE s gauge\n"
        "s 2.5\n";
    EXPECT_EQ(os.str(), expected);
}

TEST(TelemetryExport, DisabledRegistryExportsEmptyArrays)
{
    MetricRegistry reg(false);
    reg.counter("x_total").add(7);
    std::ostringstream os;
    telemetry::writeMetricsJson(os, goldenManifest(), reg);
    EXPECT_NE(os.str().find("\"counters\": []"), std::string::npos);
    EXPECT_NE(os.str().find("\"series\": []"), std::string::npos);
}

} // namespace
