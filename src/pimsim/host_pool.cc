#include "pimsim/host_pool.hh"

#include <algorithm>

#include "common/logging.hh"

namespace swiftrl::pimsim {

HostPool::HostPool(unsigned threads) : _threads(threads)
{
    SWIFTRL_ASSERT(threads >= 1,
                   "a host pool needs at least the calling thread");
    _workers.reserve(threads - 1);
    for (unsigned i = 0; i + 1 < threads; ++i)
        _workers.emplace_back([this] { workerLoop(); });
}

HostPool::~HostPool()
{
    {
        std::lock_guard lock(_mutex);
        _stop = true;
    }
    _wake.notify_all();
    for (auto &worker : _workers)
        worker.join();
}

std::size_t
HostPool::runShare(Job &job)
{
    std::size_t did = 0;
    for (;;) {
        const std::size_t start =
            job.next.fetch_add(job.grain, std::memory_order_relaxed);
        if (start >= job.n)
            break;
        const std::size_t end =
            std::min(start + job.grain, job.n);
        for (std::size_t i = start; i < end; ++i)
            job.fn(job.ctx, i);
        did += end - start;
    }
    return did;
}

void
HostPool::workerLoop()
{
    std::uint64_t seen = 0;
    std::unique_lock lock(_mutex);
    for (;;) {
        _wake.wait(lock,
                   [&] { return _stop || _generation != seen; });
        if (_stop)
            return;
        seen = _generation;
        // Hold a reference: a worker late to a drained job must not
        // steal indices from the next one. The caller may even have
        // drained *and retired* the job before this worker woke — the
        // pointer is null then, and there is nothing left to share.
        const auto job = _job;
        if (!job)
            continue;
        lock.unlock();
        const std::size_t did = runShare(*job);
        lock.lock();
        job->finished += did;
        if (job->finished == job->n)
            _done.notify_all();
    }
}

void
HostPool::run(std::size_t n, RawFn fn, void *ctx)
{
    if (n == 0)
        return;
    if (_workers.empty() || n == 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(ctx, i);
        return;
    }
    const auto job = std::make_shared<Job>();
    job->fn = fn;
    job->ctx = ctx;
    job->n = n;
    // Oversubscribe ~4 chunks per thread: large enough that a full
    // launch costs O(threads) atomics, small enough to rebalance
    // when per-index costs are skewed. Ceil-divide and cap the chunk
    // count at the range length: the old truncating `n / (4*threads)`
    // degenerated to grain 1 for any n < 8*threads, paying one atomic
    // per index on exactly the small ranges where that overhead shows.
    const std::size_t target_chunks = std::min<std::size_t>(
        n, static_cast<std::size_t>(_threads) * 4);
    job->grain = (n + target_chunks - 1) / target_chunks;
    {
        std::lock_guard lock(_mutex);
        _job = job;
        ++_generation;
    }
    _wake.notify_all();
    // The caller works too; it then waits for stragglers.
    const std::size_t did = runShare(*job);
    std::unique_lock lock(_mutex);
    job->finished += did;
    _done.wait(lock, [&] { return job->finished == job->n; });
    if (_job == job)
        _job.reset();
}

} // namespace swiftrl::pimsim
