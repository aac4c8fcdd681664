/**
 * @file
 * Host-side machinery for sharded Q-tables: replica-group placement,
 * transition routing, halo discovery, and the localized wire packing
 * that lets the unmodified update rules run against a Q-table slice.
 *
 * Design (docs/ARCHITECTURE.md section 13): the state space is cut
 * into contiguous ranges by rlcore::ShardMap; each shard's slice is
 * replicated over a contiguous group of cores; every transition is
 * routed to the shard owning its *current* state; and remote
 * next-state rows — the only cross-shard reads a tabular update
 * makes — are satisfied by a per-core read-only "halo" region the
 * host refreshes from the aggregate every sync round. DPUs cannot
 * talk to each other (the paper's constraint), so all of this is
 * batched host-mediated exchange on the existing CommandStream.
 *
 * Everything here is pure host-side computation over plain inputs,
 * so TrainerSession's checkpoint only needs the shard *count*: the
 * plan, routing, and halos are re-derived bit-identically from
 * (numStates, shards, numDpus, dataset, live set) on restore.
 */

#ifndef SWIFTRL_SWIFTRL_SHARDING_HH
#define SWIFTRL_SWIFTRL_SHARDING_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "rlcore/dataset.hh"
#include "rlcore/qtable.hh"
#include "rlcore/shard_map.hh"
#include "swiftrl/qtable_io.hh"

namespace swiftrl {

/** Shard-to-core placement: contiguous replica groups. */
struct ShardPlan
{
    /** The state-range partition. */
    rlcore::ShardMap map;

    /** Owning shard of each core (size numDpus). */
    std::vector<std::size_t> shardOfCore;

    /** Replica cores of each shard, ascending core ids. */
    std::vector<std::vector<std::size_t>> coresOfShard;
};

/**
 * Empty when (num_states, num_shards, num_dpus) admits a valid plan,
 * else the human-readable reason. Embedder-facing callers (the C
 * ABI, the CLI) precheck with this; makeShardPlan is fatal on the
 * same conditions.
 */
std::string shardPlanInvalidReason(rlcore::StateId num_states,
                                   std::size_t num_shards,
                                   std::size_t num_dpus);

/**
 * Build the placement: cores are split into numShards contiguous
 * replica groups of near-equal size (remainder to the low shards,
 * mirroring partitionDataset's determinism).
 */
ShardPlan makeShardPlan(rlcore::StateId num_states,
                        std::size_t num_shards, std::size_t num_dpus);

/**
 * Dataset indices grouped by owning shard. `order` is a permutation
 * of [0, data.size()): shard s's transitions are
 * order[shardFirst[s] .. shardFirst[s] + shardCount[s]), in dataset
 * order within the shard (a stable counting sort, so the routing is
 * a pure function of the dataset and the map).
 */
struct ShardRouting
{
    std::vector<std::size_t> order;
    std::vector<std::size_t> shardFirst;
    std::vector<std::size_t> shardCount;
};

/** Route every transition to the shard owning its current state. */
ShardRouting routeByOwner(const rlcore::Dataset &data,
                          const rlcore::ShardMap &map);

/**
 * Sorted unique remote next states of routing.order[first ..
 * first + count) for a core of @p shard: the non-terminal next
 * states owned by *other* shards, i.e. the rows this core's halo
 * region must carry. Terminal next states need no row (the update
 * rules never read their value).
 */
std::vector<rlcore::StateId>
collectHalo(const rlcore::Dataset &data, const ShardRouting &routing,
            const rlcore::ShardMap &map, std::size_t shard,
            std::size_t first, std::size_t count);

/**
 * Wire-pack routing.order[first .. first + count) into @p out (exactly
 * count records) for a core of @p shard with state ids localized to
 * its Q layout
 * [slice rows | halo rows]: an owned state s becomes row
 * s - map.firstState(shard); a remote non-terminal next state
 * becomes rowsPerShard + its index in @p halo; a terminal next
 * state becomes row 0 (its value is never read, but the update
 * rules form the row pointer before branching on the flag, so the
 * row must stay in bounds). Reward encoding matches
 * Dataset::packFp32/packInt32 exactly.
 */
void packLocalizedChunk(const rlcore::Dataset &data,
                        const ShardRouting &routing,
                        const rlcore::ShardMap &map, std::size_t shard,
                        std::size_t first, std::size_t count,
                        const std::vector<rlcore::StateId> &halo,
                        bool fp32, std::int32_t scale,
                        std::span<std::uint8_t> out);

/**
 * Wire bytes of @p shard's slice of @p aggregated, padded with zero
 * rows to map.rowsPerShard(), in @p qio's format. With one shard
 * this is byte-identical to qio.packWire(aggregated).
 */
std::vector<std::uint8_t>
packSliceWire(const QTableIo &qio, const rlcore::QTable &aggregated,
              const rlcore::ShardMap &map, std::size_t shard);

/**
 * Wire bytes of the @p halo rows of @p aggregated, in halo order
 * (the localized ids packLocalizedChunk assigned), written into
 * @p out, which holds exactly those rows.
 */
void packHaloWire(const QTableIo &qio, const rlcore::QTable &aggregated,
                  const std::vector<rlcore::StateId> &halo,
                  std::span<std::uint8_t> out);

/**
 * Per-core MRAM layout of a sharded run: slice | halo | data, the same
 * offsets on every core. The halo directly follows the slice, so the
 * kernel lanes train on [slice | halo] in place; it is reserved at its
 * worst case (every transition naming a distinct remote row). The
 * data region starts at the next 8-byte boundary and is reserved for
 * the whole dataset: after dropouts a lone surviving replica can
 * inherit its shard's entire routing share.
 */
struct ShardedMramLayout
{
    /** Halo region offset: the slice's byte size. */
    std::size_t haloOffset = 0;

    /** Transition region offset. */
    std::size_t dataOffset = 0;

    /** End of the transition region: the per-core MRAM demand. */
    std::size_t end = 0;
};

/** The layout of a sharded run over @p transitions transitions. */
ShardedMramLayout shardedMramLayout(rlcore::StateId num_states,
                                    rlcore::ActionId num_actions,
                                    std::size_t num_shards,
                                    std::size_t transitions);

/**
 * Conservative per-core MRAM demand upper bound for a sharded run:
 * shardedMramLayout(...).end. Embedder-facing callers compare this
 * against PimConfig::mramBytesPerDpu before constructing a session.
 */
std::size_t shardedMramDemandBound(rlcore::StateId num_states,
                                   rlcore::ActionId num_actions,
                                   std::size_t num_shards,
                                   std::size_t transitions);

} // namespace swiftrl

#endif // SWIFTRL_SWIFTRL_SHARDING_HH
