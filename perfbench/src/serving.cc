/**
 * @file
 * serve-mixed: the default-configured PolicyServer over a seeded
 * 1,000,000-state x 4-action Q-table, whose greedy vector is larger
 * than one core's L2.
 *
 * The load is a closed loop, because act/actBatch callers block:
 * nproc - 1 client threads, each sending its next request when the
 * last returns. Three requests in four are single queries, one in
 * four is a 16-query batch; requests alternate between two tenants;
 * states are uniform random from the seed. One op is one request.
 * Every answer is checked against QTable::greedyAction; a false
 * return or a wrong answer counts as a failed op.
 *
 * Traced runs serve an untraced phase, then a traced phase, on the
 * same server.
 */

#include <memory>
#include <random>
#include <string>
#include <thread>

#include "common.hh"
#include "rlcore/qtable.hh"
#include "serving/policy_server.hh"
#include "spans.hh"

namespace perfbench {

namespace {

using namespace swiftrl;

constexpr rlcore::StateId kStates = 1'000'000;
constexpr rlcore::ActionId kActions = 4;
constexpr std::size_t kBatch = 16;
constexpr int kBuildReps = 40;

/** One client thread's samples. */
struct ClientLog
{
    std::vector<double> singleSec;
    std::vector<double> batchSec;
    std::uint64_t queries = 0;
    std::uint64_t failed = 0;
};

void
client(serving::PolicyServer &server,
       const std::vector<rlcore::ActionId> &expected, std::uint64_t seed,
       unsigned index, Clock::time_point deadline, std::uint64_t parent,
       ClientLog &log)
{
    std::mt19937_64 rng(seed * 1'000'003 + index);
    std::uniform_int_distribution<rlcore::StateId> pick(0, kStates - 1);
    rlcore::StateId states[kBatch];
    rlcore::ActionId actions[kBatch];
    for (std::uint64_t i = 0; Clock::now() < deadline; ++i) {
        const std::size_t n = i % 4 == 3 ? kBatch : 1;
        const char *tenant = (i + index) % 2 ? "tenant-b" : "tenant-a";
        for (std::size_t k = 0; k < n; ++k)
            states[k] = pick(rng);
        bool ok;
        const auto a = Clock::now();
        {
            ScopedSpan span("serving.request", parent);
            if (n == 1) {
                actions[0] = server.act(states[0], tenant);
                ok = actions[0] >= 0;
            } else {
                ok = server.actBatch(states, actions, n, tenant);
            }
        }
        const double sec = secondsBetween(a, Clock::now());
        (n == 1 ? log.singleSec : log.batchSec).push_back(sec);
        for (std::size_t k = 0; ok && k < n; ++k)
            ok = actions[k] == expected[static_cast<std::size_t>(states[k])];
        log.queries += ok ? n : 0;
        log.failed += ok ? 0 : 1;
    }
}

/** One load phase over the server: all clients, then joined. */
struct Phase
{
    std::vector<double> all, single, batch;
    std::uint64_t queries = 0;
    std::uint64_t failed = 0;
    double wallSec = 0.0;
    serving::ServingStats stats; ///< counters moved by this phase
};

Phase
runPhase(serving::PolicyServer &server,
         const std::vector<rlcore::ActionId> &expected, std::uint64_t seed,
         unsigned clients, double seconds, bool traced)
{
    recorder().enable(traced);
    Phase p;
    const auto before = server.stats();
    std::vector<ClientLog> logs(clients);
    const auto start = Clock::now();
    {
        ScopedSpan load("serving.load");
        const auto deadline =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < clients; ++c)
            threads.emplace_back(client, std::ref(server),
                                 std::cref(expected), seed, c, deadline,
                                 load.id(), std::ref(logs[c]));
        for (auto &t : threads)
            t.join();
    }
    p.wallSec = secondsBetween(start, Clock::now());
    recorder().enable(false);
    for (const auto &log : logs) {
        p.single.insert(p.single.end(), log.singleSec.begin(),
                        log.singleSec.end());
        p.batch.insert(p.batch.end(), log.batchSec.begin(),
                       log.batchSec.end());
        p.queries += log.queries;
        p.failed += log.failed;
    }
    p.all = p.single;
    p.all.insert(p.all.end(), p.batch.begin(), p.batch.end());
    const auto after = server.stats();
    p.stats.queries = after.queries - before.queries;
    p.stats.batches = after.batches - before.batches;
    p.stats.timeoutBatches = after.timeoutBatches - before.timeoutBatches;
    return p;
}

} // namespace

Result
runServing(const Options &opts)
{
    Result res;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const unsigned clients = hw > 1 ? hw - 1 : 1;

    // Input: the seeded table, built several times for a median.
    std::vector<double> input;
    rlcore::QTable table(1, 1);
    recorder().enable(opts.trace);
    for (int rep = 0; rep < 3; ++rep) {
        ScopedSpan span("rlcore.table_build");
        const auto t0 = Clock::now();
        rlcore::QTable t(kStates, kActions);
        t.initArbitrary(opts.seed);
        input.push_back(secondsBetween(t0, Clock::now()));
        table = std::move(t);
    }
    recorder().enable(false);

    // Reference answers, outside every timed region.
    std::vector<rlcore::ActionId> expected(kStates);
    for (rlcore::StateId s = 0; s < kStates; ++s)
        expected[static_cast<std::size_t>(s)] = table.greedyAction(s);
    res.digest = hex(fnvValues<rlcore::ActionId>(
        expected, 0xcbf29ce484222325ull));
    if (opts.digestOnly)
        return res;

    // Set-up: building the server from a copy of the table, repeated
    // for a median; the last build serves the load.
    recorder().enable(opts.trace);
    std::vector<double> build;
    std::unique_ptr<serving::PolicyServer> server;
    for (int rep = 0; rep < kBuildReps; ++rep) {
        server.reset();
        rlcore::QTable copy = table;
        ScopedSpan span("serving.build");
        const auto t0 = Clock::now();
        server = std::make_unique<serving::PolicyServer>(std::move(copy));
        build.push_back(secondsBetween(t0, Clock::now()));
    }
    recorder().enable(false);

    const Phase plain = runPhase(*server, expected, opts.seed, clients,
                                 opts.trace ? opts.seconds / 2 : opts.seconds,
                                 false);
    res.attempted += plain.all.size();
    res.failed += plain.failed;
    const double qps = static_cast<double>(plain.queries) / plain.wallSec;
    res.note("queries_per_s", qps, "1/s");
    res.note("samples.requests", static_cast<double>(plain.all.size()),
             "count");

    const Phase *shown = &plain;
    Phase traced;
    if (!opts.trace) {
        res.pool.setupSec = build;
        res.pool.opSec = plain.all;
        res.pool.workUnits = static_cast<double>(plain.queries);
        res.pool.workSec = plain.wallSec;
        res.note("op_ms_p99", quantile(plain.all, 0.99) * 1e3, "ms");
    } else {
        traced = runPhase(*server, expected, opts.seed + 1, clients,
                          opts.seconds / 2, true);
        res.attempted += traced.all.size();
        res.failed += traced.failed;
        shown = &traced;
        const double singleP50 = median(traced.single) * 1e3;
        res.metric("rlcore.input_ms", median(input) * 1e3, "ms");
        res.metric("frontend.build_ms", median(build) * 1e3, "ms");
        res.metric("focus_ms_p50", singleP50, "ms");
        res.metric("focus_share", singleP50 / (median(traced.all) * 1e3),
                   "frac");
        res.metric("op_ms_p99", quantile(traced.all, 0.99) * 1e3, "ms");
        res.metric("telemetry.trace_overhead_frac",
                   median(traced.all) / median(plain.all) - 1.0, "frac");
        res.note("samples.traced_requests",
                 static_cast<double>(traced.all.size()), "count");
    }
    if (plain.failed + traced.failed > 0)
        res.fail(std::to_string(plain.failed + traced.failed) +
                 " requests returned false or a wrong action");

    const auto &st = shown->stats;
    res.note("serving.build_ms", median(build) * 1e3, "ms");
    res.note("serving.single_ms_p50", median(shown->single) * 1e3, "ms");
    res.note("serving.batch16_ms_p50", median(shown->batch) * 1e3, "ms");
    res.note("serving.queries_per_batch",
             static_cast<double>(st.queries) / st.batches, "count");
    res.note("serving.timeout_batch_frac",
             static_cast<double>(st.timeoutBatches) / st.batches, "frac");

    const auto &cfg = server->config();
    res.shape("states", std::to_string(kStates));
    res.shape("actions", std::to_string(kActions));
    res.shape("request_mix", "3 single : 1 x16, 2 tenants, uniform states");
    res.shape("max_batch", std::to_string(cfg.maxBatch));
    res.shape("max_wait_s", std::to_string(cfg.maxWaitSec));
    res.shape("host_pool", "0");
    res.shape("client_threads", std::to_string(clients));
    return res;
}

} // namespace perfbench
