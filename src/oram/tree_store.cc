/**
 * @file
 * Lazy bucket materialization so the 16 GB Table III geometry is
 * constructible without allocating 2^25 nodes up front, plus the
 * level-by-level bulk build of prefilled trees.
 */

#include "oram/tree_store.hh"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/log.hh"
#include "oram/posmap.hh"

namespace palermo {

TreeStore::TreeStore(const OramParams &params)
    : params_(params), tail_(&pool_)
{
    params_.check();
    directLimit_ = std::min(params_.numNodes, kDirectNodes);
    direct_.assign(directLimit_, kNoBucket);
    levelCapacity_.resize(params_.levels);
    levelSlots_.resize(params_.levels);
    for (unsigned level = 0; level < params_.levels; ++level) {
        levelCapacity_[level] = params_.capacityAt(level);
        levelSlots_[level] = params_.slotsAt(level);
    }
}

std::uint32_t
TreeStore::materialize(NodeId id)
{
    const unsigned level = params_.levelOf(id);
    const std::uint32_t index = static_cast<std::uint32_t>(level_.size());
    const unsigned slots = levelSlots_[level];

    level_.push_back(static_cast<std::uint8_t>(level));
    accessed_.push_back(0);
    slotBase_.push_back(slotBlock_.size());
    slotBlock_.insert(slotBlock_.end(), slots, kDummySlot);
    slotPayload_.insert(slotPayload_.end(), slots, 0);
    slotLeaf_.insert(slotLeaf_.end(), slots, 0);

    if (id < directLimit_)
        direct_[id] = index;
    else
        tail_.emplace(id, index);
    return index;
}

std::vector<BlockId>
TreeStore::build(const PosMap &posmap, bool sibling_pairs)
{
    palermo_assert(level_.empty(), "build() needs an untouched tree");
    palermo_assert(posmap.numBlocks() == params_.numBlocks &&
                   posmap.numLeaves() == params_.numLeaves,
                   "posmap does not match the tree");
    palermo_assert(params_.numBlocks <= kMaxBuildBlocks,
                   "tree too large for 32-bit build ids");
    const BuildId blocks = static_cast<BuildId>(params_.numBlocks);
    const unsigned leaf_level = params_.leafLevel();

    // Reserve room for every node up front: untouched capacity costs no
    // resident memory, and buckets the run materializes later never
    // reallocate (and so never copy) the slot arrays.
    std::uint64_t all_slots = 0;
    for (unsigned level = 0; level < params_.levels; ++level)
        all_slots += (std::uint64_t{1} << level) * levelSlots_[level];
    level_.reserve(params_.numNodes);
    accessed_.reserve(params_.numNodes);
    slotBase_.reserve(params_.numNodes);
    slotBlock_.reserve(all_slots);
    slotPayload_.reserve(all_slots);
    slotLeaf_.reserve(all_slots);
    if (params_.numNodes > directLimit_)
        tail_.reserve(params_.numNodes - directLimit_);

    // Stable counting sort of block ids by leaf: node i of the leaf
    // level receives ids[offsets[i], offsets[i + 1]). Each leaf is
    // looked up once. The scatter runs in two passes so its writes stay
    // in cache: (id, leaf) pairs are first partitioned by the leaf's top
    // bits, then each partition is scattered within its own window. The
    // temporaries are gone before the slot arrays are written.
    std::vector<BuildId> ids(blocks);
    std::vector<BuildId> offsets(params_.numLeaves + 1, 0);
    {
        std::vector<BuildId> leaf_of(blocks);
        for (BuildId block = 0; block < blocks; ++block) {
            leaf_of[block] = static_cast<BuildId>(posmap.get(block));
            ++offsets[leaf_of[block] + 1];
        }
        std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());

        const unsigned shift =
            leaf_level > kSortRadixBits ? leaf_level - kSortRadixBits : 0;
        std::vector<std::pair<BuildId, BuildId>> staged(blocks);
        std::vector<BuildId> cursor(params_.numLeaves >> shift);
        for (std::size_t part = 0; part < cursor.size(); ++part)
            cursor[part] = offsets[part << shift];
        for (BuildId block = 0; block < blocks; ++block) {
            const BuildId leaf = leaf_of[block];
            staged[cursor[leaf >> shift]++] = {block, leaf};
        }
        std::vector<BuildId>().swap(leaf_of);

        cursor.assign(offsets.begin(), offsets.end() - 1);
        for (const auto &[block, leaf] : staged)
            ids[cursor[leaf]++] = block;
    }

    // Bottom-up: `ids`/`offsets` hold each node's arrivals at `level`
    // (node i's ids are ids[offsets[i], offsets[i + 1])). Each level
    // places them and hands the overflow to the parents; the sorted
    // leaf-level buffer is freed as soon as the leaves are written.
    for (unsigned level = leaf_level; level > 0; --level) {
        const std::uint64_t pairs = std::uint64_t{1} << (level - 1);
        std::vector<BuildId> up_ids;
        std::vector<BuildId> up_offsets(pairs + 1, 0);
        for (std::uint64_t pair = 0; pair < pairs; ++pair) {
            const BuildId *base = ids.data();
            placePair(level, pair, sibling_pairs,
                      base + offsets[2 * pair], base + offsets[2 * pair + 1],
                      base + offsets[2 * pair + 1],
                      base + offsets[2 * pair + 2], posmap, &up_ids);
            up_offsets[pair + 1] = static_cast<BuildId>(up_ids.size());
        }
        ids.swap(up_ids);
        offsets.swap(up_offsets);
    }

    // The root keeps its first capacity arrivals; the rest overflow.
    const std::size_t arrivals = offsets[1];
    const std::size_t keep =
        std::min<std::size_t>(arrivals, levelCapacity_[0]);
    if (arrivals > 0) {
        const std::uint32_t index = materialize(0);
        for (std::size_t i = 0; i < keep; ++i) {
            const Leaf leaf = leaf_level == 0 ? 0 : posmap.get(ids[i]);
            placeAt(index, static_cast<unsigned>(i), ids[i], leaf);
        }
    }
    return std::vector<BlockId>(ids.begin() + keep,
                                ids.begin() + arrivals);
}

void
TreeStore::placePair(unsigned level, std::uint64_t pair, bool sibling_pairs,
                     const BuildId *left, const BuildId *left_end,
                     const BuildId *right, const BuildId *right_end,
                     const PosMap &posmap, std::vector<BuildId> *up)
{
    const unsigned capacity = levelCapacity_[level];
    const std::size_t left_count = left_end - left;
    const std::size_t right_count = right_end - right;
    const NodeId left_node = params_.nodeAt(level, 2 * pair);
    // At the leaves an arrival's leaf is its node's; above, look it up.
    const bool at_leaves = level == params_.leafLevel();
    auto leafOf = [&](BuildId id, bool from_left) -> Leaf {
        if (at_leaves)
            return 2 * pair + (from_left ? 0 : 1);
        return posmap.get(id);
    };

    // Walk both arrival lists in id order. A block takes its own
    // bucket, else (sibling pairs only) the sibling, else moves up. A
    // bucket is materialized iff some block tried it: one of its own
    // side, or one of the other side once that side's bucket was full.
    std::uint32_t index[2] = {kNoBucket, kNoBucket};
    if (left_count > 0 || (sibling_pairs && right_count > capacity))
        index[0] = materialize(left_node);
    if (right_count > 0 || (sibling_pairs && left_count > capacity))
        index[1] = materialize(left_node + 1);
    unsigned fill[2] = {0, 0};
    while (left != left_end || right != right_end) {
        const bool from_left =
            right == right_end || (left != left_end && *left < *right);
        const BuildId id = from_left ? *left++ : *right++;
        int side = from_left ? 0 : 1;
        if (sibling_pairs && fill[side] == capacity)
            side = 1 - side;
        if (fill[side] == capacity) {
            up->push_back(id);
            continue;
        }
        placeAt(index[side], fill[side]++, id, leafOf(id, from_left));
    }
}

std::uint64_t
TreeStore::totalValidBlocks() const
{
    std::uint64_t total = 0;
    for (const std::uint64_t block : slotBlock_)
        total += block < kUsedSlot;
    return total;
}

} // namespace palermo
