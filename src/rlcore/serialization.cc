#include "rlcore/serialization.hh"

#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/default_init_vector.hh"
#include "common/logging.hh"

namespace swiftrl::rlcore {

namespace {

constexpr char kDatasetMagic[8] = {'S', 'W', 'R', 'L',
                                   'D', 'S', '0', '1'};
constexpr char kQTableMagic[8] = {'S', 'W', 'R', 'L',
                                  'Q', 'T', '0', '1'};

void
writeAll(std::ofstream &out, const void *bytes, std::size_t length,
         const std::string &path)
{
    out.write(static_cast<const char *>(bytes),
              static_cast<std::streamsize>(length));
    if (!out)
        SWIFTRL_FATAL("write to '", path, "' failed");
}

/** Read exactly @p length bytes; false when the file ran short. */
bool
readExact(std::ifstream &in, void *bytes, std::size_t length)
{
    in.read(static_cast<char *>(bytes),
            static_cast<std::streamsize>(length));
    return bool(in) && in.gcount() == static_cast<std::streamsize>(length);
}

/**
 * Bytes between @p in's read position and the end of its file, so a
 * declared length can be checked before anything is sized by it.
 * 0 when the stream cannot seek.
 */
std::uint64_t
remainingBytes(std::ifstream &in)
{
    const std::streampos at = in.tellg();
    in.seekg(0, std::ios::end);
    const std::streampos end = in.tellg();
    in.seekg(at);
    if (!in || at < 0 || end < at)
        return 0;
    return static_cast<std::uint64_t>(end - at);
}

} // namespace

std::uint64_t
fnv1a(const void *bytes, std::size_t length)
{
    const auto *p = static_cast<const std::uint8_t *>(bytes);
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < length; ++i) {
        hash ^= p[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

void
saveDataset(const Dataset &data, const std::string &path)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        SWIFTRL_FATAL("cannot open '", path, "' for writing");

    std::vector<std::uint8_t> payload(data.size() *
                                      sizeof(PackedTransition));
    data.packFp32(0, data.size(), payload);
    const std::uint64_t count = data.size();
    const std::uint64_t checksum =
        fnv1a(payload.data(), payload.size());

    writeAll(out, kDatasetMagic, sizeof(kDatasetMagic), path);
    writeAll(out, &count, sizeof(count), path);
    writeAll(out, payload.data(), payload.size(), path);
    writeAll(out, &checksum, sizeof(checksum), path);
}

std::optional<Dataset>
tryLoadDataset(const std::string &path, std::string *error)
{
    const auto fail = [&](std::string reason) {
        if (error)
            *error = std::move(reason);
        return std::nullopt;
    };
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return fail("cannot open '" + path + "' for reading");

    char magic[8];
    std::uint64_t count = 0;
    if (!readExact(in, magic, sizeof(magic)))
        return fail("'" + path + "' is truncated or unreadable");
    if (std::memcmp(magic, kDatasetMagic, sizeof(magic)) != 0)
        return fail("'" + path + "' is not a SwiftRL dataset file");
    if (!readExact(in, &count, sizeof(count)))
        return fail("'" + path + "' is truncated or unreadable");
    // The records and the checksum must fill what is left of the
    // file; dividing, not multiplying, keeps a huge count from wrapping.
    const std::uint64_t left = remainingBytes(in);
    if (left < sizeof(std::uint64_t) ||
        count > (left - sizeof(std::uint64_t)) / sizeof(PackedTransition))
        return fail("'" + path + "' declares " + std::to_string(count) +
                    " records but holds only " + std::to_string(left) +
                    " more bytes; the file is truncated or corrupt");
    if (left != count * sizeof(PackedTransition) + sizeof(std::uint64_t))
        return fail("'" + path + "' holds " + std::to_string(left) +
                    " bytes past its header for " + std::to_string(count) +
                    " records; the file is corrupt");

    // Left unwritten until readExact fills it (or the load fails).
    common::DefaultInitVector<std::uint8_t> payload(
        count * sizeof(PackedTransition));
    std::uint64_t checksum = 0;
    if (!readExact(in, payload.data(), payload.size()) ||
        !readExact(in, &checksum, sizeof(checksum)))
        return fail("'" + path + "' is truncated or unreadable");
    if (checksum != fnv1a(payload.data(), payload.size()))
        return fail("'" + path + "' failed its checksum; the file is "
                    "corrupt");

    // Straight into the columns, sized once: no per-record push_back.
    Dataset data;
    const rlenv::RolloutColumns columns = data.resizeColumns(count);
    for (std::size_t i = 0; i < count; ++i) {
        PackedTransition p;
        std::memcpy(&p,
                    payload.data() + i * sizeof(PackedTransition),
                    sizeof(p));
        const Transition t = Dataset::unpackFp32(p);
        columns.states[i] = t.state;
        columns.actions[i] = t.action;
        columns.rewards[i] = t.reward;
        columns.nextStates[i] = t.nextState;
        columns.terminals[i] = t.terminal ? 1 : 0;
    }
    return data;
}

Dataset
loadDataset(const std::string &path)
{
    std::string error;
    auto data = tryLoadDataset(path, &error);
    if (!data)
        SWIFTRL_FATAL(error);
    return *std::move(data);
}

bool
trySaveQTable(const QTable &q, const std::string &path,
              std::string *error)
{
    const auto fail = [&](std::string reason) {
        if (error)
            *error = std::move(reason);
        return false;
    };
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return fail("cannot open '" + path + "' for writing");

    const std::int32_t ns = q.numStates();
    const std::int32_t na = q.numActions();
    const auto &values = q.values();
    const std::uint64_t checksum =
        fnv1a(values.data(), values.size() * sizeof(float));

    out.write(kQTableMagic, sizeof(kQTableMagic));
    out.write(reinterpret_cast<const char *>(&ns), sizeof(ns));
    out.write(reinterpret_cast<const char *>(&na), sizeof(na));
    out.write(reinterpret_cast<const char *>(values.data()),
              static_cast<std::streamsize>(values.size() *
                                           sizeof(float)));
    out.write(reinterpret_cast<const char *>(&checksum),
              sizeof(checksum));
    if (!out)
        return fail("write to '" + path + "' failed");
    return true;
}

void
saveQTable(const QTable &q, const std::string &path)
{
    std::string error;
    if (!trySaveQTable(q, path, &error))
        SWIFTRL_FATAL(error);
}

std::optional<QTable>
tryLoadQTable(const std::string &path, std::string *error)
{
    const auto fail = [&](std::string reason) {
        if (error)
            *error = std::move(reason);
        return std::nullopt;
    };

    std::ifstream in(path, std::ios::binary);
    if (!in)
        return fail("cannot open '" + path + "' for reading");

    char magic[8];
    if (!readExact(in, magic, sizeof(magic)))
        return fail("'" + path + "' is truncated or unreadable");
    if (std::memcmp(magic, kQTableMagic, sizeof(magic)) != 0)
        return fail("'" + path + "' is not a SwiftRL Q-table file");

    std::int32_t ns = 0, na = 0;
    if (!readExact(in, &ns, sizeof(ns)) ||
        !readExact(in, &na, sizeof(na)))
        return fail("'" + path + "' is truncated or unreadable");
    if (ns <= 0 || na <= 0)
        return fail("'" + path + "' declares an invalid shape " +
                    std::to_string(ns) + "x" + std::to_string(na));
    // Bound the declared shape by the file before sizing anything by
    // it (ns * na fits 64 bits; the division keeps the byte count from
    // wrapping).
    const std::uint64_t entries =
        static_cast<std::uint64_t>(ns) * static_cast<std::uint64_t>(na);
    const std::uint64_t left = remainingBytes(in);
    if (left < sizeof(std::uint64_t) ||
        entries > (left - sizeof(std::uint64_t)) / sizeof(float))
        return fail("'" + path + "' declares a " + std::to_string(ns) +
                    "x" + std::to_string(na) + " table but holds only " +
                    std::to_string(left) +
                    " more bytes; the file is truncated or corrupt");

    std::vector<float> values(static_cast<std::size_t>(ns) *
                              static_cast<std::size_t>(na));
    if (!readExact(in, values.data(), values.size() * sizeof(float)))
        return fail("'" + path + "' is truncated or unreadable");

    std::uint64_t checksum = 0;
    if (!readExact(in, &checksum, sizeof(checksum)))
        return fail("'" + path + "' is truncated or unreadable");
    if (checksum != fnv1a(values.data(),
                          values.size() * sizeof(float))) {
        return fail("'" + path + "' failed its checksum; the file "
                    "is corrupt");
    }
    // A table and checksum that agree, with bytes after them: a corrupt
    // file or a newer writer, refused as the other loaders do.
    const std::uint64_t extra =
        left - sizeof(checksum) - values.size() * sizeof(float);
    if (extra != 0)
        return fail("'" + path + "' holds " + std::to_string(extra) +
                    " bytes after its checksum; the file is corrupt");
    return QTable::fromFloats(ns, na, values);
}

QTable
loadQTable(const std::string &path)
{
    std::string error;
    auto q = tryLoadQTable(path, &error);
    if (!q)
        SWIFTRL_FATAL(error);
    return *std::move(q);
}

} // namespace swiftrl::rlcore
