/**
 * @file
 * HostPool dispatch invariants: chunked claiming must visit every
 * index exactly once for any (n, threads) shape, a launch runs on at
 * most threadCount() distinct threads, the caller included, and the
 * serial path must run inline on the caller.
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "pimsim/host_pool.hh"

namespace {

using swiftrl::pimsim::HostPool;

TEST(HostPool, VisitsEveryIndexExactlyOnce)
{
    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
        HostPool pool(threads);
        // Cover the chunking edges: n smaller than the pool, n not
        // divisible by the grain, n equal to 1, and a large launch.
        for (const std::size_t n :
             {std::size_t{0}, std::size_t{1}, std::size_t{2},
              std::size_t{7}, std::size_t{64}, std::size_t{2000},
              std::size_t{2001}}) {
            std::vector<std::atomic<std::uint32_t>> hits(n);
            pool.parallelFor(n, [&](std::size_t i) {
                hits[i].fetch_add(1, std::memory_order_relaxed);
            });
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(hits[i].load(), 1u)
                    << "index " << i << " with n=" << n
                    << " threads=" << threads;
            }
        }
    }
}

TEST(HostPool, RunsOnAtMostThePoolsThreads)
{
    for (const unsigned threads : {1u, 2u, 4u}) {
        HostPool pool(threads);
        EXPECT_EQ(pool.threadCount(), threads);
        std::mutex mutex;
        std::set<std::thread::id> seen;
        pool.parallelFor(512, [&](std::size_t) {
            std::lock_guard lock(mutex);
            seen.insert(std::this_thread::get_id());
        });
        EXPECT_GE(seen.size(), 1u);
        EXPECT_LE(seen.size(), threads) << "threads=" << threads;
    }
}

TEST(HostPool, SerialPoolRunsInlineOnTheCaller)
{
    HostPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1u);
    const auto caller = std::this_thread::get_id();
    std::size_t sum = 0; // no atomics needed: everything is inline
    pool.parallelFor(100, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        sum += i;
    });
    EXPECT_EQ(sum, 4950u);
}

TEST(HostPool, OneElementRangeRunsInlineEvenWithWorkers)
{
    // n == 1 must never pay dispatch: a single index runs inline on
    // the caller even when the pool has idle workers.
    HostPool pool(4);
    const auto caller = std::this_thread::get_id();
    int runs = 0;
    pool.parallelFor(1, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(i, 0u);
        ++runs;
    });
    EXPECT_EQ(runs, 1);
}

TEST(HostPool, RangeShorterThanThePoolVisitsEveryIndexOnce)
{
    // Ranges shorter than the pool are the shape where the old
    // truncating grain computation degenerated; the clamped chunking
    // must still cover every index exactly once.
    HostPool pool(8);
    for (const std::size_t n :
         {std::size_t{2}, std::size_t{3}, std::size_t{5},
          std::size_t{7}}) {
        std::vector<std::atomic<std::uint32_t>> hits(n);
        pool.parallelFor(n, [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1u)
                << "index " << i << " with n=" << n;
    }
}

TEST(HostPool, CallableIsBorrowedNotCopied)
{
    // A mutable callable's state must survive the dispatch — the
    // pool erases to a pointer, it never copies the callable.
    HostPool pool(2);
    std::atomic<std::uint64_t> total{0};
    auto fn = [&total](std::size_t i) {
        total.fetch_add(i, std::memory_order_relaxed);
    };
    pool.parallelFor(1000, fn);
    EXPECT_EQ(total.load(), 499500u);
}

TEST(HostPool, BackToBackLaunchesDoNotLeakIndices)
{
    HostPool pool(3);
    for (int round = 0; round < 50; ++round) {
        const std::size_t n = 17 + static_cast<std::size_t>(round);
        std::vector<std::atomic<std::uint8_t>> hits(n);
        pool.parallelFor(n, [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1u) << "round " << round;
    }
}

} // namespace
