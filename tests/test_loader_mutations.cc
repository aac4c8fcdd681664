/**
 * @file
 * Hostile-input mutation tests for the dataset, Q-table and checkpoint
 * loaders: from a small valid file, every truncation length and 256
 * seeded single-bit flips, plus checkpoints whose payload is malformed
 * but carries a correct checksum. Every mutant must come back as an
 * error from the non-fatal loader, and no load may make an allocation
 * larger than the file (or the file stream's own buffer).
 *
 * The binary replaces the global operator new to record the largest
 * single request made while a load runs.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <new>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "rlcore/dataset.hh"
#include "rlcore/serialization.hh"
#include "rlenv/frozen_lake.hh"
#include "swiftrl/session.hh"

namespace {

/** Record requests in g_largest while true. */
bool g_watching = false;
std::size_t g_largest = 0;

} // namespace

// Out of line, so GCC does not inline a delete's free() into a caller
// that got the pointer from new and warn of a mismatched pair.
[[gnu::noinline]] void *
operator new(std::size_t n)
{
    if (g_watching && n > g_largest)
        g_largest = n;
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using Bytes = std::vector<char>;

/** Self-deleting temp file path. */
class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : _path((std::filesystem::temp_directory_path() /
                 ("swiftrl_test_mut_" + name +
                  std::to_string(::getpid())))
                    .string())
    {
    }

    ~TempFile() { std::remove(_path.c_str()); }

    const std::string &path() const { return _path; }

  private:
    std::string _path;
};

Bytes
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return Bytes(std::istreambuf_iterator<char>(in), {});
}

void
writeBytes(const std::string &path, const Bytes &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/**
 * The largest allocation a load of @p size bytes may make: the file
 * itself, or the file stream's buffer (BUFSIZ) when that is larger.
 */
std::size_t
allocationBound(std::size_t size)
{
    return std::max<std::size_t>(size, BUFSIZ);
}

/**
 * Write @p mutant to @p file and load it with @p load (path, error
 * out) -> bool loaded. The load must fail with a reason and stay
 * within allocationBound. Returns the reason.
 */
template <typename Load>
std::string
expectRejected(const TempFile &file, const Bytes &mutant, Load load)
{
    writeBytes(file.path(), mutant);
    std::string error;
    g_largest = 0;
    g_watching = true;
    const bool loaded = load(file.path(), &error);
    g_watching = false;
    EXPECT_FALSE(loaded);
    EXPECT_FALSE(error.empty());
    EXPECT_LE(g_largest, allocationBound(mutant.size()));
    return error;
}

/** Every truncation of @p valid, then 256 single-bit flips of it. */
template <typename Load>
void
mutateEveryWay(const TempFile &file, const Bytes &valid,
               std::uint64_t seed, Load load)
{
    for (std::size_t length = 0; length < valid.size(); ++length) {
        SCOPED_TRACE(testing::Message() << "truncated to " << length);
        expectRejected(file,
                       Bytes(valid.begin(),
                             valid.begin() +
                                 static_cast<std::ptrdiff_t>(length)),
                       load);
    }
    swiftrl::common::XorShift128 rng(seed);
    for (int k = 0; k < 256; ++k) {
        const auto bit = rng.nextBounded(valid.size() * 8);
        SCOPED_TRACE(testing::Message() << "bit " << bit << " flipped");
        Bytes mutant = valid;
        mutant[bit / 8] =
            static_cast<char>(mutant[bit / 8] ^ (1 << (bit % 8)));
        expectRejected(file, mutant, load);
    }
}

TEST(LoaderMutations, DatasetTruncationsAndBitFlipsAreErrors)
{
    swiftrl::rlenv::FrozenLake env(true);
    TempFile file("dataset");
    swiftrl::rlcore::saveDataset(
        swiftrl::rlcore::collectRandomDataset(env, 12, 19), file.path());
    const Bytes valid = readBytes(file.path());
    const auto load = [](const std::string &path, std::string *error) {
        return swiftrl::rlcore::tryLoadDataset(path, error).has_value();
    };
    std::string error;
    ASSERT_TRUE(load(file.path(), &error)) << error;
    mutateEveryWay(file, valid, 17, load);
}

TEST(LoaderMutations, QTableTruncationsAndBitFlipsAreErrors)
{
    swiftrl::rlcore::QTable q(5, 3);
    q.initArbitrary(11);
    TempFile file("qtable");
    swiftrl::rlcore::saveQTable(q, file.path());
    const Bytes valid = readBytes(file.path());
    const auto load = [](const std::string &path, std::string *error) {
        return swiftrl::rlcore::tryLoadQTable(path, error).has_value();
    };
    std::string error;
    ASSERT_TRUE(load(file.path(), &error)) << error;
    mutateEveryWay(file, valid, 21, load);
}

/** A small checkpoint with every array field non-empty. */
swiftrl::SessionCheckpoint
smallCheckpoint()
{
    swiftrl::SessionCheckpoint ck;
    ck.streaming = true;
    ck.tau = 4;
    ck.blockTransitions = 64;
    ck.numDpus = 2;
    ck.shards = 1;
    ck.numStates = 4;
    ck.numActions = 2;
    ck.episodesRemaining = 3;
    ck.commRounds = 2;
    ck.generationsStarted = 1;
    ck.roundDeltas = {0.5f, 0.25f};
    ck.epsilonNow = 0.1f;
    ck.aggregated = {1, 2, 3, 4, 5, 6, 7, 8};
    ck.lcgStates = {7u, 9u};
    ck.cursor = 1.5;
    ck.faultSites = 3;
    ck.deadDpus = {1};
    ck.dpuCycles = {100, 200};
    ck.streamingHostClock = 0.75;
    ck.streamingPolicyRefreshes = 1;
    ck.streamingCollectSeconds = 0.5;
    ck.streamingTrainEndTail = {0.25, 0.5};
    ck.streamingQAfterTail = {{1, 2, 3, 4, 5, 6, 7, 8}};
    ck.streamingPolicyActive = true;
    ck.streamingPolicyEpsilon = 0.2f;
    ck.streamingPolicySource = {8, 7, 6, 5, 4, 3, 2, 1};
    return ck;
}

TEST(LoaderMutations, CheckpointTruncationsAndBitFlipsAreErrors)
{
    TempFile file("checkpoint");
    swiftrl::saveCheckpoint(smallCheckpoint(), file.path());
    const Bytes valid = readBytes(file.path());
    const auto load = [](const std::string &path, std::string *error) {
        return swiftrl::tryLoadCheckpoint(path, error).has_value();
    };
    std::string error;
    const auto loaded = swiftrl::tryLoadCheckpoint(file.path(), &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(loaded->streamingPolicySource,
              smallCheckpoint().streamingPolicySource);
    mutateEveryWay(file, valid, 23, load);
}

TEST(LoaderMutations, CheckpointPayloadsWithValidChecksumsAreErrors)
{
    // What a buggy or hostile writer could produce: the checksum
    // matches, yet the payload cannot be a checkpoint. Each must be an
    // error return, not an exit of the host process.
    TempFile file("crafted");
    swiftrl::saveCheckpoint(smallCheckpoint(), file.path());
    const Bytes valid = readBytes(file.path());
    constexpr std::size_t kMagic = 8, kChecksum = 8;
    const Bytes payload(valid.begin() + kMagic, valid.end() - kChecksum);
    // Frame @p body as a file: the magic, @p body, its checksum.
    const auto frame = [&](const Bytes &body) {
        Bytes out(kMagic + body.size() + kChecksum);
        std::copy_n(valid.begin(), kMagic, out.begin());
        std::ranges::copy(body, out.begin() + kMagic);
        const std::uint64_t sum =
            swiftrl::rlcore::fnv1a(body.data(), body.size());
        std::memcpy(out.data() + kMagic + body.size(), &sum, sizeof sum);
        return out;
    };
    const auto load = [](const std::string &path, std::string *error) {
        return swiftrl::tryLoadCheckpoint(path, error).has_value();
    };
    ASSERT_EQ(frame(payload), valid);

    // The version and nothing else.
    EXPECT_NE(expectRejected(file, frame(Bytes(payload.begin(),
                                               payload.begin() + 4)),
                             load)
                  .find("truncated mid-field"),
              std::string::npos);
    // The last array (the policy source) one float short.
    EXPECT_NE(expectRejected(file, frame(Bytes(payload.begin(),
                                               payload.end() - 4)),
                             load)
                  .find("truncated mid-array"),
              std::string::npos);
    // algo = 7: the byte after the version and the streaming flag.
    Bytes bad_algo = payload;
    bad_algo[5] = 7;
    EXPECT_NE(expectRejected(file, frame(bad_algo), load)
                  .find("out-of-range algo byte 7"),
              std::string::npos);
}

TEST(LoaderMutations, CheckpointThatIsADirectoryIsAnError)
{
    // A directory has no size to trust; the loader must refuse it
    // rather than size a buffer by it.
    std::string error;
    g_largest = 0;
    g_watching = true;
    const bool loaded =
        swiftrl::tryLoadCheckpoint(
            std::filesystem::temp_directory_path().string(), &error)
            .has_value();
    g_watching = false;
    EXPECT_FALSE(loaded);
    EXPECT_NE(error.find("cannot open checkpoint"), std::string::npos)
        << error;
    EXPECT_LE(g_largest, allocationBound(0));
}

} // namespace
