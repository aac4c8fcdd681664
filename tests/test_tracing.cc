/**
 * @file
 * Tests for the causal-tracing layer (src/telemetry/tracing).
 *
 * The load-bearing property is the observation-only contract: a run
 * with span retention enabled must be bit-identical — Q-tables,
 * modelled times, device cycle clocks, event-by-event timelines — to
 * the same run untraced, for both trainers and any host-pool size.
 * Around that, the span tree itself is checked (every session /
 * engine / serving span of a fleet run parents up to its fleet.job
 * span), along with the flight ring's wrap behaviour and the JSON
 * dumps' shape (parsed back with common/json).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "fleet/scheduler.hh"
#include "serving/policy_server.hh"
#include "swiftrl/swiftrl.hh"
#include "telemetry/tracing.hh"

namespace {

using swiftrl::PimTrainConfig;
using swiftrl::PimTrainer;
using swiftrl::PimTrainResult;
using swiftrl::StreamingConfig;
using swiftrl::StreamingResult;
using swiftrl::StreamingTrainer;
using swiftrl::Workload;
using swiftrl::pimsim::Cycles;
using swiftrl::pimsim::PimConfig;
using swiftrl::pimsim::PimSystem;
using swiftrl::rlcore::Algorithm;
using swiftrl::rlcore::collectRandomDataset;
using swiftrl::rlcore::Dataset;
using swiftrl::rlcore::NumericFormat;
using swiftrl::rlcore::QTable;
using swiftrl::rlcore::Sampling;
using swiftrl::telemetry::ScopedSpanParent;
using swiftrl::telemetry::Span;
using swiftrl::telemetry::SpanRecord;
using swiftrl::telemetry::Tracer;
using swiftrl::telemetry::tracer;

namespace fleet = swiftrl::fleet;
namespace serving = swiftrl::serving;

/** RAII guard: spans retained inside the scope, tracer state wiped
 *  (or just wiped, for untraced reference runs) on both ends. */
class TracingScope
{
  public:
    explicit TracingScope(bool enable)
    {
        tracer().enableExport(false);
        tracer().resetForTest();
        tracer().enableExport(enable);
    }
    ~TracingScope()
    {
        tracer().enableExport(false);
        tracer().resetForTest();
    }
};

constexpr std::size_t kCores = 8;

Dataset
lakeData()
{
    swiftrl::rlenv::FrozenLake env(true);
    return collectRandomDataset(env, 2000, 11);
}

PimTrainConfig
offlineConfig()
{
    PimTrainConfig cfg;
    cfg.workload = Workload{Algorithm::QLearning, Sampling::Seq,
                            NumericFormat::Int32};
    cfg.hyper.episodes = 20;
    cfg.hyper.seed = 42;
    cfg.tau = 5;
    return cfg;
}

/** One offline run plus the device clocks it left behind. */
struct OfflineOutcome
{
    PimTrainResult result;
    Cycles maxCycles = 0;
    Cycles totalCycles = 0;
};

OfflineOutcome
runOffline(unsigned host_threads, bool traced)
{
    TracingScope scope(traced);
    PimConfig pim;
    pim.numDpus = kCores;
    pim.mramBytesPerDpu = 8u << 20;
    pim.hostThreads = host_threads;
    PimSystem system(pim);

    OfflineOutcome out;
    out.result =
        PimTrainer(system, offlineConfig()).train(lakeData(), 16, 4);
    out.maxCycles = system.maxCycles();
    out.totalCycles = system.totalCycles();
    return out;
}

StreamingResult
runStreaming(unsigned host_threads, bool traced)
{
    TracingScope scope(traced);
    StreamingConfig cfg;
    cfg.workload = Workload{Algorithm::QLearning, Sampling::Seq,
                            NumericFormat::Int32};
    cfg.hyper.episodes = 10;
    cfg.hyper.seed = 42;
    cfg.tau = 5;
    cfg.generations = 4;
    cfg.transitionsPerGeneration = 1024;
    cfg.refreshPeriod = 2;
    cfg.actors = 2;

    PimConfig pim;
    pim.numDpus = kCores;
    pim.mramBytesPerDpu = 8u << 20;
    pim.hostThreads = host_threads;
    PimSystem system(pim);
    return StreamingTrainer(system, cfg).train(
        [] {
            return std::make_unique<swiftrl::rlenv::FrozenLake>(
                true);
        },
        16, 4);
}

/** Bitwise equality of every modelled observable of two runs. */
void
expectIdenticalTimelines(const swiftrl::pimsim::Timeline &a,
                         const swiftrl::pimsim::Timeline &b)
{
    const auto &ea = a.events();
    const auto &eb = b.events();
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].start, eb[i].start) << "event " << i;
        EXPECT_EQ(ea[i].end, eb[i].end) << "event " << i;
        EXPECT_EQ(ea[i].label, eb[i].label) << "event " << i;
    }
}

class TracedOfflineIdentity
    : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(TracedOfflineIdentity, TracedRunBitIdenticalToUntraced)
{
    const unsigned pool = GetParam();
    const auto plain = runOffline(pool, false);
    const auto traced = runOffline(pool, true);

    EXPECT_EQ(QTable::maxAbsDifference(plain.result.finalQ,
                                       traced.result.finalQ),
              0.0f);
    EXPECT_EQ(plain.maxCycles, traced.maxCycles);
    EXPECT_EQ(plain.totalCycles, traced.totalCycles);
    EXPECT_EQ(plain.result.commRounds, traced.result.commRounds);
    EXPECT_EQ(plain.result.time.kernel, traced.result.time.kernel);
    EXPECT_EQ(plain.result.time.cpuToPim,
              traced.result.time.cpuToPim);
    EXPECT_EQ(plain.result.time.pimToCpu,
              traced.result.time.pimToCpu);
    EXPECT_EQ(plain.result.time.interCore,
              traced.result.time.interCore);
    expectIdenticalTimelines(plain.result.timeline,
                             traced.result.timeline);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, TracedOfflineIdentity,
                         ::testing::Values(1u, 2u, 8u));

class TracedStreamingIdentity
    : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(TracedStreamingIdentity, TracedRunBitIdenticalToUntraced)
{
    const unsigned pool = GetParam();
    const auto plain = runStreaming(pool, false);
    const auto traced = runStreaming(pool, true);

    EXPECT_EQ(QTable::maxAbsDifference(plain.finalQ, traced.finalQ),
              0.0f);
    EXPECT_EQ(plain.commRounds, traced.commRounds);
    EXPECT_EQ(plain.transitions, traced.transitions);
    EXPECT_EQ(plain.time.kernel, traced.time.kernel);
    EXPECT_EQ(plain.time.cpuToPim, traced.time.cpuToPim);
    EXPECT_EQ(plain.time.pimToCpu, traced.time.pimToCpu);
    EXPECT_EQ(plain.time.interCore, traced.time.interCore);
    expectIdenticalTimelines(plain.timeline, traced.timeline);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, TracedStreamingIdentity,
                         ::testing::Values(1u, 2u, 8u));

/** A StreamingConfig is a SessionConfig, so its traceParent reaches
 *  the streaming session's span as it does an offline session's. */
TEST(TracingStreaming, TraceParentReachesTheSessionSpan)
{
    TracingScope scope(true);
    StreamingConfig cfg;
    cfg.hyper.episodes = 4;
    cfg.tau = 2;
    cfg.generations = 2;
    cfg.transitionsPerGeneration = 256;
    cfg.traceParent = 4242;

    PimConfig pim;
    pim.numDpus = 2;
    pim.hostThreads = 1;
    PimSystem system(pim);
    (void)StreamingTrainer(system, cfg).train(
        [] {
            return std::make_unique<swiftrl::rlenv::FrozenLake>(true);
        },
        16, 4);

    int runs = 0;
    for (const auto &span : tracer().snapshot()) {
        if (span.name != "session.run")
            continue;
        ++runs;
        EXPECT_EQ(span.parent, 4242u);
    }
    EXPECT_GE(runs, 1);
}

/** The fleet acceptance property: every session/engine/serving span
 *  of a two-tenant fleet run transitively parents up to a fleet.job
 *  span. */
TEST(TracingFleet, EverySpanReachesItsFleetJobSpan)
{
    TracingScope scope(true);

    fleet::FleetConfig config;
    config.totalRanks = 2;
    config.dpusPerRank = 2;
    config.quantumRounds = 2;
    config.tenantWeights = {{"research", 2.0}, {"prod", 1.0}};

    auto make = [](const char *id, const char *tenant,
                   std::uint64_t seed) {
        fleet::JobSpec job;
        job.id = id;
        job.tenant = tenant;
        job.env = "frozenlake";
        job.ranks = 1;
        job.hyper.episodes = 10;
        job.tau = 5;
        job.transitions = 1'000;
        job.collectSeed = seed;
        job.hyper.seed = seed + 41;
        return job;
    };
    const std::vector<fleet::JobSpec> jobs = {
        make("r1", "research", 3), make("p1", "prod", 5)};

    fleet::FleetScheduler scheduler(config);
    const auto result = scheduler.run(jobs);
    ASSERT_EQ(result.jobs.size(), 2u);

    // Serve a few queries per job, parented on its fleet.job span —
    // the same wiring the CLI's fleet --serve path uses.
    for (const auto &job : result.jobs) {
        ASSERT_NE(job.traceSpanId, 0u);
        serving::ServingConfig serve_cfg;
        serve_cfg.traceParent = job.traceSpanId;
        serving::PolicyServer server(job.finalQ, serve_cfg);
        for (int i = 0; i < 4; ++i)
            EXPECT_GE(server.act(i % job.finalQ.numStates(),
                                 job.tenant),
                      0);
    }

    const auto spans = tracer().snapshot();
    std::map<std::uint64_t, const SpanRecord *> by_id;
    for (const auto &span : spans)
        by_id[span.id] = &span;

    std::set<std::uint64_t> job_span_ids;
    for (const auto &span : spans)
        if (span.name == "fleet.job")
            job_span_ids.insert(span.id);
    EXPECT_EQ(job_span_ids.size(), 2u);
    for (const auto &job : result.jobs)
        EXPECT_TRUE(job_span_ids.count(job.traceSpanId));

    std::size_t scoped = 0;
    for (const auto &span : spans) {
        if (span.category != "session" && span.category != "engine" &&
            span.category != "serving")
            continue;
        ++scoped;
        bool reached = false;
        std::uint64_t parent = span.parent;
        for (int hops = 0; parent != 0 && hops < 64; ++hops) {
            const auto it = by_id.find(parent);
            ASSERT_NE(it, by_id.end())
                << span.name << " has dangling parent " << parent;
            if (job_span_ids.count(parent)) {
                reached = true;
                break;
            }
            parent = it->second->parent;
        }
        EXPECT_TRUE(reached) << span.name << " (id " << span.id
                             << ") never reaches a fleet.job span";
    }
    // The property must have had teeth: all three categories showed.
    EXPECT_GT(scoped, 10u);
}

TEST(TracingFlightRing, WrapKeepsNewestEventsInOrder)
{
    TracingScope scope(false);
    const std::size_t total = Tracer::kFlightCapacity + 40;
    for (std::size_t i = 0; i < total; ++i)
        tracer().note("wrap event " + std::to_string(i));

    std::ostringstream text;
    tracer().dumpFlightText(text);
    // The oldest surviving event is total - capacity; everything
    // before it was overwritten.
    EXPECT_EQ(text.str().find("wrap event 39"), std::string::npos);
    EXPECT_NE(text.str().find("wrap event 40"), std::string::npos);
    EXPECT_NE(text.str().find(
                  "wrap event " + std::to_string(total - 1)),
              std::string::npos);

    const std::string path = ::testing::TempDir() + "flight_wrap.json";
    ASSERT_TRUE(tracer().writeFlightJson(path));
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    const auto doc = swiftrl::json::parseJson(buffer.str(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(doc->stringOr("schema", ""), "swiftrl-flight-v1");
    const auto *events = doc->find("events");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_EQ(events->elements.size(), Tracer::kFlightCapacity);
    double last_seq = -1.0;
    double last_t = -1.0;
    for (const auto &event : events->elements) {
        EXPECT_GT(event.numberOr("seq", -1.0), last_seq);
        EXPECT_GE(event.numberOr("t", -1.0), last_t);
        last_seq = event.numberOr("seq", -1.0);
        last_t = event.numberOr("t", -1.0);
    }
    std::remove(path.c_str());
}

TEST(TracingSpans, JsonDumpRoundTripsThroughTheParser)
{
    TracingScope scope(true);
    auto parent = tracer().begin("unit.parent", "session", "modelled",
                                 1.0);
    parent.attr("tenant", "quote\"and\\slash").attr("round", 3);
    auto child = tracer().begin("unit.child", "engine", "modelled",
                                1.25, parent.id());
    child.finish(1.5, "retried");
    parent.finish(2.0);

    const std::string path = ::testing::TempDir() + "spans_unit.json";
    ASSERT_TRUE(tracer().writeSpansJson(path));
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    const auto doc = swiftrl::json::parseJson(buffer.str(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(doc->stringOr("schema", ""), "swiftrl-trace-v1");
    const auto *spans = doc->find("spans");
    ASSERT_NE(spans, nullptr);
    ASSERT_TRUE(spans->isArray());
    ASSERT_EQ(spans->elements.size(), 2u);

    // Spans are retained in finish order: the child closes first.
    const auto &c = spans->elements[0];
    const auto &p = spans->elements[1];
    EXPECT_EQ(p.stringOr("name", ""), "unit.parent");
    EXPECT_EQ(p.stringOr("clock", ""), "modelled");
    EXPECT_EQ(p.numberOr("parent", -1.0), 0.0);
    EXPECT_EQ(p.numberOr("start", -1.0), 1.0);
    EXPECT_EQ(p.numberOr("end", -1.0), 2.0);
    EXPECT_EQ(p.stringOr("outcome", ""), "ok");
    const auto *attrs = p.find("attrs");
    ASSERT_NE(attrs, nullptr);
    EXPECT_EQ(attrs->stringOr("tenant", ""), "quote\"and\\slash");
    EXPECT_EQ(attrs->stringOr("round", ""), "3");

    EXPECT_EQ(c.stringOr("name", ""), "unit.child");
    EXPECT_EQ(c.numberOr("parent", -1.0),
              p.numberOr("id", -2.0));
    EXPECT_EQ(c.stringOr("outcome", ""), "retried");
    std::remove(path.c_str());
}

TEST(TracingSpans, LifecycleSemantics)
{
    TracingScope scope(true);

    // finish() is idempotent; the record is submitted exactly once.
    auto span = tracer().begin("unit.once", "session", "wall", 0.0);
    span.finish(1.0);
    span.finish(2.0, "retried");
    auto snap = tracer().snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].end, 1.0);
    EXPECT_EQ(snap[0].outcome, "ok");

    // A destroyed-unfinished span is dropped silently.
    {
        auto dropped =
            tracer().begin("unit.dropped", "session", "wall", 0.0);
        (void)dropped;
    }
    EXPECT_EQ(tracer().snapshot().size(), 1u);

    // Moving transfers ownership: only the destination submits.
    auto a = tracer().begin("unit.moved", "session", "wall", 0.0);
    Span b = std::move(a);
    EXPECT_FALSE(a.active());
    EXPECT_TRUE(b.active());
    b.finish(3.0);
    EXPECT_EQ(tracer().snapshot().size(), 2u);

    // Ambient parent propagation nests and restores.
    EXPECT_EQ(swiftrl::telemetry::currentSpanParent(), 0u);
    {
        ScopedSpanParent outer(7);
        EXPECT_EQ(swiftrl::telemetry::currentSpanParent(), 7u);
        {
            ScopedSpanParent inner(9);
            EXPECT_EQ(swiftrl::telemetry::currentSpanParent(), 9u);
        }
        EXPECT_EQ(swiftrl::telemetry::currentSpanParent(), 7u);
    }
    EXPECT_EQ(swiftrl::telemetry::currentSpanParent(), 0u);
}

TEST(TracingSpans, RetentionGateDropsRecordsButKeepsIds)
{
    TracingScope scope(false);
    auto span =
        tracer().begin("unit.gated", "session", "wall", 0.0);
    const auto first_id = span.id();
    EXPECT_GT(first_id, 0u);
    span.finish(1.0);
    EXPECT_TRUE(tracer().snapshot().empty());

    tracer().enableExport(true);
    auto kept =
        tracer().begin("unit.kept", "session", "wall", 0.0);
    EXPECT_GT(kept.id(), first_id);
    kept.finish(1.0);
    EXPECT_EQ(tracer().snapshot().size(), 1u);
}

} // namespace
