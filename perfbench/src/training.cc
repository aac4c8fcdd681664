/**
 * @file
 * lake-kernel and taxi-sync: offline training driven round by round
 * through TrainerSession with the default SessionConfig.
 *
 * One op is one tau-round (TrainerSession::step). A run repeats
 * whole sessions — set-up, a fixed number of rounds, final
 * retrieval — until its time is up or, with --sessions, a fixed
 * number of times, so every session's final Q-table and modelled
 * TimeBreakdown can be checked: against PimTrainer::train on the same
 * inputs (computed once, outside the timed region) and, by run.py,
 * against the digest pinned for the seed.
 *
 * All sessions run one after another in the runner process, as they
 * would in a user's long-lived training process, so any drift from
 * session to session (the simulator's heap reuse) is part of the
 * figures; drift.slowest_session_ratio and op_ms_p90 show it.
 *
 * Traced runs alternate traced and untraced sessions. A traced
 * session attaches a StreamObserver whose onLaunch stamp splits each
 * round into kernel (step start to the stamp) and sync (the stamp to
 * step's return: gather, average, reduce, broadcast). taxi-sync's
 * traced run then also notes the fleet's layer figures
 * (noteFleetLayers).
 */

#include <algorithm>
#include <memory>
#include <string>

#include "common.hh"
#include "pimsim/command_stream.hh"
#include "pimsim/device_counters.hh"
#include "pimsim/pim_system.hh"
#include "rlcore/dataset.hh"
#include "rlcore/qtable.hh"
#include "rlenv/registry.hh"
#include "spans.hh"
#include "swiftrl/pim_trainer.hh"
#include "swiftrl/session.hh"

namespace perfbench {

namespace {

using namespace swiftrl;

struct TrainShape
{
    const char *env;
    Workload workload;
    std::size_t cores;
    std::size_t transitionsPerCore;
    int tau;
    int rounds; ///< per session; fixes the pinned digest
    bool kernelFocus; ///< the layer the workload isolates
};

TrainShape
shapeFor(const std::string &name)
{
    using rlcore::Algorithm;
    using rlcore::NumericFormat;
    using rlcore::Sampling;
    if (name == "lake-kernel")
        return {"frozenlake",
                {Algorithm::QLearning, Sampling::Ran, NumericFormat::Fp32},
                2000, 500, 2, 10, true};
    return {"taxi",
            {Algorithm::QLearning, Sampling::Seq, NumericFormat::Fp32},
            2000, 50, 1, 20, false};
}

/** Stamps the host time of each successful launch. */
class LaunchStamp : public pimsim::StreamObserver
{
  public:
    void onLaunch(pimsim::CommandStream &,
                  const pimsim::LaunchStats &stats) override
    {
        at = Clock::now();
        launches += 1;
        liveCores = stats.liveCount;
    }

    Clock::time_point at;
    std::uint64_t launches = 0;
    std::size_t liveCores = 0;
};

std::uint64_t
digestOf(const rlcore::QTable &q, const TimeBreakdown &t)
{
    const double parts[] = {t.kernel,     t.cpuToPim,    t.pimToCpu,
                            t.interCore,  t.hostCollect, t.recovery};
    std::uint64_t h = fnvValues<float>(q.values(), 0xcbf29ce484222325ull);
    return fnvValues<double>(parts, h);
}

rlcore::Hyper
hyperFor(const TrainShape &shape, std::uint64_t seed)
{
    rlcore::Hyper h;
    h.episodes = shape.tau * shape.rounds;
    h.seed = seed + 41;
    return h;
}

/** Timings and outputs of one whole session. */
struct SessionRun
{
    double collectSec = 0.0;
    double buildSec = 0.0;
    double beginSec = 0.0;
    std::vector<double> roundSec;
    std::vector<double> kernelSec; ///< traced sessions only
    std::vector<double> syncSec;   ///< traced sessions only
    std::uint64_t digest = 0;
    bool stepsOk = true;
    pimsim::DeviceCounters counters;
    std::uint64_t launches = 0;
    std::size_t liveCores = 0;
    unsigned hostThreads = 0;
};

SessionRun
runSession(const TrainShape &shape, std::uint64_t seed, bool traced)
{
    recorder().enable(traced);
    SessionRun run;
    ScopedSpan sessionSpan("bench.session");

    auto t0 = Clock::now();
    rlcore::Dataset data;
    std::unique_ptr<rlenv::Environment> env;
    {
        ScopedSpan span("rlcore.collect");
        env = rlenv::makeEnvironment(shape.env);
        data = rlcore::collectRandomDataset(
            *env, shape.cores * shape.transitionsPerCore, seed);
    }
    auto t1 = Clock::now();
    std::unique_ptr<pimsim::PimSystem> system;
    {
        ScopedSpan span("pimsim.system_build");
        pimsim::PimConfig cfg;
        cfg.numDpus = shape.cores;
        cfg.hostThreads = hostPoolSize();
        system = std::make_unique<pimsim::PimSystem>(cfg);
    }
    auto t2 = Clock::now();
    SessionConfig scfg;
    scfg.workload = shape.workload;
    scfg.hyper = hyperFor(shape, seed);
    scfg.tau = shape.tau;
    std::unique_ptr<TrainerSession> session;
    {
        ScopedSpan span("swiftrl.begin");
        session = std::make_unique<TrainerSession>(*system, scfg);
        session->beginOffline(data, env->numStates(), env->numActions());
    }
    auto t3 = Clock::now();
    run.collectSec = secondsBetween(t0, t1);
    run.buildSec = secondsBetween(t1, t2);
    run.beginSec = secondsBetween(t2, t3);
    run.hostThreads = system->hostThreadCount();

    LaunchStamp stamp;
    if (traced)
        session->stream().setObserver(&stamp);
    for (int r = 0; r < shape.rounds; ++r) {
        ScopedSpan roundSpan("swiftrl.round");
        const auto a = Clock::now();
        const bool ok = session->step();
        const auto b = Clock::now();
        run.stepsOk = run.stepsOk && ok;
        run.roundSec.push_back(secondsBetween(a, b));
        if (traced) {
            auto &rec = recorder();
            rec.record({rec.nextId(), roundSpan.id(), "pimsim.kernel",
                        rec.at(a), rec.at(stamp.at)});
            rec.record({rec.nextId(), roundSpan.id(), "swiftrl.sync",
                        rec.at(stamp.at), rec.at(b)});
            run.kernelSec.push_back(secondsBetween(a, stamp.at));
            run.syncSec.push_back(secondsBetween(stamp.at, b));
        }
    }
    session->stream().setObserver(nullptr);
    {
        ScopedSpan span("swiftrl.finish");
        session->finishRetrieval();
    }
    run.digest = digestOf(session->aggregated(), session->currentTime());
    run.counters = pimsim::DeviceCounters::fromSystem(*system);
    run.launches = stamp.launches;
    run.liveCores = stamp.liveCores;
    return run;
}

/** The same inputs through PimTrainer::train: the reference digest. */
std::uint64_t
referenceDigest(const TrainShape &shape, std::uint64_t seed)
{
    auto env = rlenv::makeEnvironment(shape.env);
    const auto data = rlcore::collectRandomDataset(
        *env, shape.cores * shape.transitionsPerCore, seed);
    pimsim::PimConfig cfg;
    cfg.numDpus = shape.cores;
    cfg.hostThreads = hostPoolSize();
    pimsim::PimSystem system(cfg);
    PimTrainConfig tcfg;
    tcfg.workload = shape.workload;
    tcfg.hyper = hyperFor(shape, seed);
    tcfg.tau = shape.tau;
    PimTrainer trainer(system, tcfg);
    const auto result =
        trainer.train(data, env->numStates(), env->numActions());
    return digestOf(result.finalQ, result.time);
}

} // namespace

Result
runTraining(const Options &opts)
{
    const TrainShape shape = shapeFor(opts.workload);
    Result res;
    const std::uint64_t reference = referenceDigest(shape, opts.seed);
    res.digest = hex(reference);
    if (opts.digestOnly)
        return res;

    std::vector<SessionRun> plain, traced;
    const auto start = Clock::now();
    // A fixed count when asked for: which sessions of a process run
    // slow is fixed (see run.py), so a fixed count fixes their share.
    // Otherwise at least three sessions, four when traced (two of each
    // kind), so set-up has a median and a traced run compares like
    // with like.
    for (int i = 0;; ++i) {
        const bool tracedSession = opts.trace && i % 2 == 1;
        SessionRun run = runSession(shape, opts.seed, tracedSession);
        if (!run.stepsOk)
            res.fail("step() returned false before the episode budget "
                     "ran out");
        if (run.digest != reference)
            res.fail("session digest " + hex(run.digest) +
                     " != PimTrainer reference " + hex(reference) +
                     (tracedSession ? " (traced)" : " (untraced)"));
        const bool bad = !run.stepsOk || run.digest != reference;
        res.attempted += run.roundSec.size();
        res.failed += bad ? run.roundSec.size() : 0;
        (tracedSession ? traced : plain).push_back(std::move(run));
        const int minSessions = opts.trace ? 4 : 3;
        if (opts.sessions > 0 ? i + 1 >= opts.sessions
                              : i + 1 >= minSessions &&
                                    secondsBetween(start, Clock::now()) >=
                                        opts.seconds)
            break;
    }

    const double updatesPerRound =
        static_cast<double>(shape.cores * shape.transitionsPerCore) *
        shape.tau;

    auto collect = [](const std::vector<SessionRun> &runs, auto field) {
        std::vector<double> out;
        for (const auto &r : runs)
            for (double x : r.*field)
                out.push_back(x);
        return out;
    };
    auto perSession = [](const std::vector<SessionRun> &runs,
                         auto fn) {
        std::vector<double> out;
        for (const auto &r : runs)
            out.push_back(fn(r));
        return out;
    };
    // Set-up is timed on every session, traced or not: the spans
    // cost nothing next to tens of milliseconds of set-up work.
    std::vector<SessionRun> all = plain;
    all.insert(all.end(), traced.begin(), traced.end());
    const auto setup = perSession(all, [](const SessionRun &r) {
        return r.collectSec + r.buildSec + r.beginSec;
    });
    const auto collectS =
        perSession(all, [](const SessionRun &r) { return r.collectSec; });
    const auto buildS =
        perSession(all, [](const SessionRun &r) { return r.buildSec; });
    const auto beginS =
        perSession(all, [](const SessionRun &r) { return r.beginSec; });

    const auto rounds = collect(plain, &SessionRun::roundSec);
    const double roundP50 = median(rounds) * 1e3;
    res.note("samples.rounds", static_cast<double>(rounds.size()),
             "count");
    res.note("samples.setups", static_cast<double>(setup.size()), "count");
    // Drift across sessions of one process: the slowest session's
    // median round against the median session's.
    const auto sessionP50 = perSession(plain, [](const SessionRun &r) {
        return median(r.roundSec);
    });
    res.note("drift.slowest_session_ratio",
             *std::max_element(sessionP50.begin(), sessionP50.end()) /
                 median(sessionP50),
             "x");

    if (!opts.trace) {
        res.pool.setupSec = setup;
        res.pool.opSec = rounds;
        res.pool.workUnits = updatesPerRound * static_cast<double>(rounds.size());
        res.pool.workSec = sum(rounds);
    } else {
        const auto trounds = collect(traced, &SessionRun::roundSec);
        const auto kernel = collect(traced, &SessionRun::kernelSec);
        const auto sync = collect(traced, &SessionRun::syncSec);
        const double troundP50 = median(trounds) * 1e3;
        const double kernelP50 = median(kernel) * 1e3;
        const double syncP50 = median(sync) * 1e3;
        const double focus = shape.kernelFocus ? kernelP50 : syncP50;

        std::uint64_t simOps = 0, dmaBytes = 0, launches = 0;
        std::size_t liveCores = 0;
        for (const auto &r : traced) {
            simOps += r.counters.totalOps();
            dmaBytes += r.counters.dmaBytes;
            launches += r.launches;
            liveCores = r.liveCores;
        }
        // Computed, not measured: each round gathers and re-broadcasts
        // one Q-table per live core.
        const auto env = rlenv::makeEnvironment(shape.env);
        const double syncBytesPerRound =
            2.0 * static_cast<double>(liveCores) *
            static_cast<double>(env->numStates()) * env->numActions() *
            rlcore::kQWireBytesPerEntry;

        res.metric("rlcore.input_ms", median(collectS) * 1e3, "ms");
        res.metric("frontend.build_ms",
                   (median(buildS) + median(beginS)) * 1e3, "ms");
        res.metric("focus_ms_p50", focus, "ms");
        res.metric("focus_share", focus / troundP50, "frac");
        res.metric("op_ms_p99", quantile(trounds, 0.99) * 1e3, "ms");
        res.metric("telemetry.trace_overhead_frac", troundP50 / roundP50 - 1.0,
                   "frac");

        res.note("rlcore.collect_s", median(collectS), "s");
        res.note("pimsim.system_build_ms", median(buildS) * 1e3, "ms");
        res.note("swiftrl.begin_ms", median(beginS) * 1e3, "ms");
        res.note("pimsim.kernel_ms_p50", kernelP50, "ms");
        res.note("swiftrl.sync_ms_p50", syncP50, "ms");
        res.note("split.kernel_share", kernelP50 / troundP50, "frac");
        res.note("split.sync_share", syncP50 / troundP50, "frac");
        res.note("split.covered_frac", (kernelP50 + syncP50) / troundP50,
                 "frac");
        res.note("traced.op_ms_p50", troundP50, "ms");
        res.note("samples.traced_rounds",
                 static_cast<double>(trounds.size()), "count");
        res.note("pimsim.sim_ops", static_cast<double>(simOps), "count");
        res.note("pimsim.dma_bytes", static_cast<double>(dmaBytes),
                 "bytes");
        res.note("pimsim.launches", static_cast<double>(launches),
                 "count");
        res.note("pimsim.ns_per_sim_op",
                 sum(kernel) * 1e9 / static_cast<double>(simOps), "ns");
        res.note("swiftrl.sync_gb_per_s_computed",
                 syncBytesPerRound / (syncP50 * 1e-3) / 1e9, "GB/s");
        // fleet-preempt is not among the benchmark's workloads (see
        // run.py), so taxi-sync's traced run carries its layers.
        if (!shape.kernelFocus)
            noteFleetLayers(opts.seed, res);
    }
    res.note("updates_per_s", updatesPerRound * rounds.size() / sum(rounds),
             "1/s");

    res.shape("env", shape.env);
    res.shape("algorithm", shape.workload.name());
    res.shape("cores", std::to_string(shape.cores));
    res.shape("transitions", std::to_string(shape.cores *
                                            shape.transitionsPerCore));
    res.shape("tau", std::to_string(shape.tau));
    res.shape("rounds_per_session", std::to_string(shape.rounds));
    res.shape("host_pool", std::to_string(all.front().hostThreads));
    res.shape("client_threads", "0");
    return res;
}

} // namespace perfbench
