/**
 * @file
 * Tests for dataset/Q-table persistence: roundtrips, corruption
 * detection, and format validation.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "rlcore/serialization.hh"
#include "rlcore/trainers.hh"
#include "rlenv/frozen_lake.hh"
#include "rlenv/taxi.hh"

namespace {

using namespace swiftrl::rlcore;

/** Self-deleting temp file path. */
class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : _path((std::filesystem::temp_directory_path() /
                 ("swiftrl_test_" + name +
                  std::to_string(::getpid())))
                    .string())
    {
    }

    ~TempFile() { std::remove(_path.c_str()); }

    const std::string &path() const { return _path; }

  private:
    std::string _path;
};

TEST(Serialization, DatasetRoundtripExact)
{
    swiftrl::rlenv::FrozenLake env(true);
    const auto original = collectRandomDataset(env, 5000, 1);

    TempFile file("dataset_roundtrip");
    saveDataset(original, file.path());
    const auto loaded = loadDataset(file.path());

    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i)
        ASSERT_EQ(loaded.get(i), original.get(i));
}

TEST(Serialization, TaxiDatasetRoundtrip)
{
    swiftrl::rlenv::Taxi env;
    const auto original = collectRandomDataset(env, 2000, 2);
    TempFile file("taxi_roundtrip");
    saveDataset(original, file.path());
    const auto loaded = loadDataset(file.path());
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i)
        ASSERT_EQ(loaded.get(i), original.get(i));
}

TEST(Serialization, DatasetRoundtripKeepsEveryColumn)
{
    // The loader unpacks straight into the columns: each one must come
    // back whole — negative and fractional rewards bit for bit, the
    // terminal flags as 0/1 bytes, the state ids without the flag bit.
    swiftrl::rlenv::Taxi taxi;
    swiftrl::rlenv::FrozenLake lake(false);
    Dataset original = collectRandomDataset(taxi, 3000, 7);
    original.append(collectRandomDataset(lake, 3000, 8));
    ASSERT_GT(std::count(original.terminals().begin(),
                         original.terminals().end(), 1),
              0);

    TempFile file("dataset_columns");
    saveDataset(original, file.path());
    const auto loaded = loadDataset(file.path());

    ASSERT_EQ(loaded.size(), original.size());
    EXPECT_EQ(loaded.states(), original.states());
    EXPECT_EQ(loaded.actions(), original.actions());
    EXPECT_EQ(loaded.nextStates(), original.nextStates());
    EXPECT_EQ(loaded.terminals(), original.terminals());
    ASSERT_EQ(loaded.rewards().size(), original.rewards().size());
    EXPECT_EQ(std::memcmp(loaded.rewards().data(),
                          original.rewards().data(),
                          original.rewards().size() * sizeof(float)),
              0);
}

TEST(Serialization, EmptyDatasetRoundtrip)
{
    Dataset empty;
    TempFile file("empty_dataset");
    saveDataset(empty, file.path());
    const auto loaded = loadDataset(file.path());
    EXPECT_TRUE(loaded.empty());
}

TEST(Serialization, QTableRoundtripExact)
{
    QTable q(500, 6);
    q.initArbitrary(7);
    q.at(3, 2) = -8.6f;
    q.at(499, 5) = 20.0f;

    TempFile file("qtable_roundtrip");
    saveQTable(q, file.path());
    const auto loaded = loadQTable(file.path());
    EXPECT_EQ(loaded.numStates(), 500);
    EXPECT_EQ(loaded.numActions(), 6);
    EXPECT_EQ(QTable::maxAbsDifference(loaded, q), 0.0f);
}

TEST(Serialization, Fnv1aKnownValues)
{
    // Published FNV-1a test vectors.
    EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a("foobar", 6), 0x85944171f73967e8ull);
}

TEST(SerializationDeath, MissingFileIsFatal)
{
    EXPECT_EXIT((void)loadDataset("/nonexistent/path/data.bin"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(SerializationDeath, WrongMagicIsFatal)
{
    TempFile file("wrong_magic");
    {
        std::ofstream out(file.path(), std::ios::binary);
        out << "NOTADATASETFILE_PADDING_PADDING";
    }
    EXPECT_EXIT((void)loadDataset(file.path()),
                ::testing::ExitedWithCode(1),
                "not a SwiftRL dataset");
    EXPECT_EXIT((void)loadQTable(file.path()),
                ::testing::ExitedWithCode(1),
                "not a SwiftRL Q-table");
}

TEST(SerializationDeath, BitFlipFailsChecksum)
{
    swiftrl::rlenv::FrozenLake env(true);
    const auto data = collectRandomDataset(env, 100, 3);
    TempFile file("bitflip");
    saveDataset(data, file.path());

    // Flip one payload byte in place.
    {
        std::fstream f(file.path(), std::ios::binary | std::ios::in |
                                        std::ios::out);
        f.seekp(8 + 8 + 40); // past magic + count, into records
        char byte;
        f.seekg(8 + 8 + 40);
        f.get(byte);
        f.seekp(8 + 8 + 40);
        f.put(static_cast<char>(byte ^ 0x01));
    }
    EXPECT_EXIT((void)loadDataset(file.path()),
                ::testing::ExitedWithCode(1), "checksum");
}

TEST(SerializationDeath, TruncatedFileIsFatal)
{
    swiftrl::rlenv::FrozenLake env(true);
    const auto data = collectRandomDataset(env, 100, 3);
    TempFile file("truncated");
    saveDataset(data, file.path());
    std::filesystem::resize_file(file.path(), 100);
    EXPECT_EXIT((void)loadDataset(file.path()),
                ::testing::ExitedWithCode(1), "truncated");
}

/** Overwrite @p bytes of @p path at @p offset with @p value. */
template <typename T>
void
patchFile(const std::string &path, std::streamoff offset, T value)
{
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(offset);
    f.write(reinterpret_cast<const char *>(&value), sizeof value);
}

/**
 * Cap this (death-test child) process's address space at 256 MB above
 * what it maps now, so an allocation sized by a hostile length field
 * fails loudly (std::bad_alloc, an abort) instead of passing unseen.
 * Sanitizer runtimes reserve terabytes of shadow memory up front and
 * cannot run under the cap; there the huge cases still abort on their
 * own.
 */
void
capAddressSpace()
{
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
    std::ifstream statm("/proc/self/statm");
    std::uint64_t pages = 0;
    if (statm >> pages) {
        const auto mapped = pages * static_cast<std::uint64_t>(
                                        ::sysconf(_SC_PAGESIZE));
        const rlimit cap{mapped + (256u << 20), mapped + (256u << 20)};
        ::setrlimit(RLIMIT_AS, &cap);
    }
#endif
}

/** A valid 100-record dataset file, seeded. */
void
writeSeededDataset(const std::string &path)
{
    swiftrl::rlenv::FrozenLake env(true);
    saveDataset(collectRandomDataset(env, 100, 5), path);
}

// File layouts (serialization.hh): the dataset's u64 record count and
// the Q-table's i32 shape both sit right after the 8-byte magic.
constexpr std::streamoff kCountOffset = 8;

TEST(SerializationDeath, InflatedRecordCountIsFatalBeforeAllocating)
{
    TempFile file("inflated_count");
    writeSeededDataset(file.path());
    // 2^40 records (16 TB), and 2^26 (1 GiB: small enough to allocate
    // unchecked, which the address-space cap turns into an abort).
    for (const std::uint64_t count : {std::uint64_t{1} << 40,
                                      std::uint64_t{1} << 26}) {
        SCOPED_TRACE(count);
        patchFile(file.path(), kCountOffset, count);
        EXPECT_EXIT(
            {
                capAddressSpace();
                (void)loadDataset(file.path());
            },
            ::testing::ExitedWithCode(1), "declares [0-9]+ records");
    }
}

TEST(SerializationDeath, WrappedRecordCountIsFatal)
{
    // 2^60 + 100 records: times 16 bytes the size wraps to exactly the
    // 100 records the file holds, so an unchecked load would read them,
    // pass the checksum, and then unpack 2^60 records.
    TempFile file("wrapped_count");
    writeSeededDataset(file.path());
    patchFile(file.path(), kCountOffset,
              (std::uint64_t{1} << 60) + 100);
    EXPECT_EXIT(
        {
            capAddressSpace();
            (void)loadDataset(file.path());
        },
        ::testing::ExitedWithCode(1), "declares [0-9]+ records");
}

TEST(SerializationDeath, InflatedQTableShapeReturnsAnError)
{
    QTable q(16, 4);
    q.initArbitrary(11);
    TempFile file("inflated_shape");
    saveQTable(q, file.path());
    // 2e9 x 2e9 entries (16 EB), and 16384 x 16384 (1 GiB).
    for (const std::int32_t side : {2'000'000'000, 16384}) {
        SCOPED_TRACE(side);
        patchFile(file.path(), kCountOffset, side);
        patchFile(file.path(), kCountOffset + 4, side);
        EXPECT_EXIT(
            {
                capAddressSpace();
                std::string error;
                const bool loaded =
                    tryLoadQTable(file.path(), &error).has_value();
                std::fprintf(stderr, "%s\n", error.c_str());
                std::exit(loaded ? 2 : 1);
            },
            ::testing::ExitedWithCode(1), "declares a [0-9]+x[0-9]+ table");
    }
}

TEST(Serialization, TrainedPolicySurvivesDeployment)
{
    // End-to-end: train, checkpoint, reload, deploy.
    swiftrl::rlenv::FrozenLake env(false);
    const auto data = collectRandomDataset(env, 20000, 1);
    Hyper h;
    h.episodes = 50;
    const auto trained = trainCpuReference(
        Algorithm::QLearning, data, 16, 4, h, Sampling::Seq,
        NumericFormat::Fp32);

    TempFile file("deploy");
    saveQTable(trained, file.path());
    const auto deployed = loadQTable(file.path());

    for (StateId s = 0; s < 16; ++s)
        ASSERT_EQ(deployed.greedyAction(s), trained.greedyAction(s));
}

} // namespace
