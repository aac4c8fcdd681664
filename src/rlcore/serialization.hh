/**
 * @file
 * Binary persistence for offline datasets and trained Q-tables.
 *
 * Datasets are the expensive artefact of the offline-RL pipeline
 * (Figure 1's one-time collection step) and Q-tables are the deployed
 * policy; both need durable, versioned, integrity-checked files.
 *
 * Formats (little-endian):
 *   dataset: magic "SWRLDS01" | u64 count | count x 16-byte packed
 *            records (the FP32 MRAM layout) | u64 FNV-1a checksum
 *   q-table: magic "SWRLQT01" | i32 states | i32 actions |
 *            states*actions x f32 | u64 FNV-1a checksum
 *
 * All loads validate magic, length, and checksum and never accept a
 * mismatch (a corrupt dataset silently training a wrong policy is
 * the worst failure mode): the try* loaders return the reason, the
 * others are fatal with it.
 */

#ifndef SWIFTRL_RLCORE_SERIALIZATION_HH
#define SWIFTRL_RLCORE_SERIALIZATION_HH

#include <optional>
#include <string>

#include "rlcore/dataset.hh"
#include "rlcore/qtable.hh"

namespace swiftrl::rlcore {

/** Write @p data to @p path; fatal on I/O failure. */
void saveDataset(const Dataset &data, const std::string &path);

/** Read a dataset; fatal on I/O failure or corruption. */
Dataset loadDataset(const std::string &path);

/**
 * Non-fatal loadDataset: nullopt on failure with the reason in
 * @p error (when non-null). Nothing is sized by the file's record
 * count before the count is checked against the file's length.
 */
std::optional<Dataset> tryLoadDataset(const std::string &path,
                                      std::string *error);

/** Write @p q to @p path; fatal on I/O failure. */
void saveQTable(const QTable &q, const std::string &path);

/** Read a Q-table; fatal on I/O failure or corruption. */
QTable loadQTable(const std::string &path);

/**
 * Non-fatal loadQTable for embedders (the C API): nullopt on
 * failure with the reason in @p error (when non-null) instead of
 * aborting the host process.
 */
std::optional<QTable> tryLoadQTable(const std::string &path,
                                    std::string *error);

/** Non-fatal saveQTable: false + reason instead of aborting. */
bool trySaveQTable(const QTable &q, const std::string &path,
                   std::string *error);

/** FNV-1a 64-bit checksum (exposed for tests). */
std::uint64_t fnv1a(const void *bytes, std::size_t length);

} // namespace swiftrl::rlcore

#endif // SWIFTRL_RLCORE_SERIALIZATION_HH
