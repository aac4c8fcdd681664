#include "swiftrl/sharding.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.hh"
#include "rlcore/trainers.hh"

namespace swiftrl {

using rlcore::ActionId;
using rlcore::Dataset;
using rlcore::PackedTransition;
using rlcore::QTable;
using rlcore::ShardMap;
using rlcore::StateId;

namespace {

std::size_t
align8(std::size_t bytes)
{
    return (bytes + 7) / 8 * 8;
}

} // namespace

std::string
shardPlanInvalidReason(StateId num_states, std::size_t num_shards,
                       std::size_t num_dpus)
{
    std::string reason = ShardMap::invalidReason(num_states, num_shards);
    if (!reason.empty())
        return reason;
    if (num_dpus == 0)
        return "no cores to place shards on";
    if (num_dpus < num_shards)
        return "more shards (" + std::to_string(num_shards) +
               ") than cores (" + std::to_string(num_dpus) +
               "); every shard needs at least one replica core";
    return "";
}

ShardPlan
makeShardPlan(StateId num_states, std::size_t num_shards,
              std::size_t num_dpus)
{
    const std::string reason =
        shardPlanInvalidReason(num_states, num_shards, num_dpus);
    if (!reason.empty())
        SWIFTRL_FATAL("invalid shard plan: ", reason);

    ShardPlan plan{ShardMap(num_states, num_shards), {}, {}};
    plan.shardOfCore.resize(num_dpus);
    plan.coresOfShard.resize(num_shards);
    // Near-equal contiguous replica groups, remainder to the low
    // shards — the same determinism rule as partitionDataset.
    const std::size_t base = num_dpus / num_shards;
    const std::size_t extra = num_dpus % num_shards;
    std::size_t core = 0;
    for (std::size_t s = 0; s < num_shards; ++s) {
        const std::size_t replicas = base + (s < extra ? 1 : 0);
        for (std::size_t r = 0; r < replicas; ++r, ++core) {
            plan.shardOfCore[core] = s;
            plan.coresOfShard[s].push_back(core);
        }
    }
    SWIFTRL_ASSERT(core == num_dpus, "replica groups must cover all cores");
    return plan;
}

ShardRouting
routeByOwner(const Dataset &data, const ShardMap &map)
{
    const std::size_t shards = map.numShards();
    ShardRouting routing;
    routing.shardCount.assign(shards, 0);
    for (const StateId s : data.states())
        ++routing.shardCount[map.ownerOf(s)];
    routing.shardFirst.assign(shards, 0);
    for (std::size_t s = 1; s < shards; ++s) {
        routing.shardFirst[s] =
            routing.shardFirst[s - 1] + routing.shardCount[s - 1];
    }
    routing.order.resize(data.size());
    std::vector<std::size_t> cursor = routing.shardFirst;
    for (std::size_t i = 0; i < data.size(); ++i)
        routing.order[cursor[map.ownerOf(data.states()[i])]++] = i;
    return routing;
}

std::vector<StateId>
collectHalo(const Dataset &data, const ShardRouting &routing,
            const ShardMap &map, std::size_t shard, std::size_t first,
            std::size_t count)
{
    SWIFTRL_ASSERT(first + count <= routing.order.size(),
                   "halo range out of bounds");
    std::vector<StateId> halo;
    for (std::size_t k = first; k < first + count; ++k) {
        const std::size_t idx = routing.order[k];
        SWIFTRL_ASSERT(map.ownerOf(data.states()[idx]) == shard,
                       "routed transition landed on the wrong shard");
        if (data.terminals()[idx] != 0)
            continue;
        const StateId next = data.nextStates()[idx];
        if (map.ownerOf(next) != shard)
            halo.push_back(next);
    }
    std::sort(halo.begin(), halo.end());
    halo.erase(std::unique(halo.begin(), halo.end()), halo.end());
    return halo;
}

void
packLocalizedChunk(const Dataset &data, const ShardRouting &routing,
                   const ShardMap &map, std::size_t shard,
                   std::size_t first, std::size_t count,
                   const std::vector<StateId> &halo, bool fp32,
                   std::int32_t scale, std::span<std::uint8_t> out)
{
    SWIFTRL_ASSERT(first + count <= routing.order.size(),
                   "pack range out of bounds");
    SWIFTRL_ASSERT(out.size() == count * sizeof(PackedTransition),
                   "pack buffer size mismatch");
    SWIFTRL_ASSERT(fp32 || scale > 0, "scale factor must be positive");
    const StateId base = map.firstState(shard);
    const StateId slice_rows = map.rowsPerShard();
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t idx = routing.order[first + i];
        const StateId s = data.states()[idx];
        SWIFTRL_ASSERT(map.ownerOf(s) == shard,
                       "routed transition landed on the wrong shard");
        PackedTransition p;
        p.state = s - base;
        p.action = data.actions()[idx];
        const float reward = data.rewards()[idx];
        p.rewardBits = fp32 ? std::bit_cast<std::int32_t>(reward)
                            : rlcore::quantizeReward(reward, scale);
        const bool terminal = data.terminals()[idx] != 0;
        const StateId next = data.nextStates()[idx];
        StateId local_next = 0;
        if (!terminal) {
            if (map.ownerOf(next) == shard) {
                local_next = next - base;
            } else {
                const auto it = std::lower_bound(halo.begin(),
                                                 halo.end(), next);
                SWIFTRL_ASSERT(it != halo.end() && *it == next,
                               "remote next state ", next,
                               " missing from the halo");
                local_next = slice_rows +
                             static_cast<StateId>(it - halo.begin());
            }
        }
        // Terminal records keep local row 0: the update rules form
        // the next-state row pointer before branching on the flag,
        // so the id must stay inside the [slice | halo] table even
        // though its value is never read.
        std::uint32_t bits = static_cast<std::uint32_t>(local_next);
        SWIFTRL_ASSERT((bits & PackedTransition::kTerminalBit) == 0,
                       "local row collides with the terminal flag bit");
        if (terminal)
            bits |= PackedTransition::kTerminalBit;
        p.nextStateBits = bits;
        std::memcpy(out.data() + i * sizeof(PackedTransition), &p,
                    sizeof(PackedTransition));
    }
}

std::vector<std::uint8_t>
packSliceWire(const QTableIo &qio, const QTable &aggregated,
              const ShardMap &map, std::size_t shard)
{
    SWIFTRL_ASSERT(aggregated.numStates() == map.numStates(),
                   "aggregate and shard map disagree on shape");
    const auto row_entries =
        static_cast<std::size_t>(aggregated.numActions());
    const auto base = static_cast<std::size_t>(map.firstState(shard));
    const auto owned = static_cast<std::size_t>(map.ownedRows(shard));
    // Padding rows (past ownedRows) stay zero on the wire forever: a
    // zero encodes to zero bytes in every wire format.
    std::vector<std::uint8_t> wire(
        static_cast<std::size_t>(map.rowsPerShard()) * row_entries *
        rlcore::kQWireBytesPerEntry);
    const std::size_t owned_entries = owned * row_entries;
    qio.encodeWire(
        std::span<const float>(aggregated.values())
            .subspan(base * row_entries, owned_entries),
        std::span<std::uint8_t>(wire).first(
            owned_entries * rlcore::kQWireBytesPerEntry));
    return wire;
}

void
packHaloWire(const QTableIo &qio, const QTable &aggregated,
             const std::vector<StateId> &halo, std::span<std::uint8_t> out)
{
    const auto row_entries =
        static_cast<std::size_t>(aggregated.numActions());
    const std::size_t row_bytes =
        row_entries * rlcore::kQWireBytesPerEntry;
    SWIFTRL_ASSERT(out.size() == halo.size() * row_bytes,
                   "halo wire buffer size mismatch");
    const std::span<const float> values = aggregated.values();
    for (std::size_t i = 0; i < halo.size(); ++i) {
        qio.encodeWire(
            values.subspan(static_cast<std::size_t>(halo[i]) * row_entries,
                           row_entries),
            out.subspan(i * row_bytes, row_bytes));
    }
}

ShardedMramLayout
shardedMramLayout(StateId num_states, ActionId num_actions,
                  std::size_t num_shards, std::size_t transitions)
{
    SWIFTRL_ASSERT(num_states > 0 && num_actions > 0 && num_shards > 0,
                   "sharded layout needs a real shape");
    const std::size_t ns = static_cast<std::size_t>(num_states);
    const std::size_t na = static_cast<std::size_t>(num_actions);
    const std::size_t rows = (ns + num_shards - 1) / num_shards;
    ShardedMramLayout layout;
    layout.haloOffset = rows * na * rlcore::kQWireBytesPerEntry;
    // Worst-case halo: every transition names a distinct remote row.
    const std::size_t halo_bytes =
        std::min(transitions, ns) * na * rlcore::kQWireBytesPerEntry;
    layout.dataOffset = align8(layout.haloOffset + halo_bytes);
    layout.end =
        layout.dataOffset + transitions * sizeof(PackedTransition);
    return layout;
}

std::size_t
shardedMramDemandBound(StateId num_states, ActionId num_actions,
                       std::size_t num_shards, std::size_t transitions)
{
    return shardedMramLayout(num_states, num_actions, num_shards,
                             transitions)
        .end;
}

} // namespace swiftrl
