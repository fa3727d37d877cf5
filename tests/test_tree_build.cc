/**
 * @file
 * The bulk tree build (TreeStore::build via the engines' prefill())
 * against the per-block greedy fill it replaced: every block, in id
 * order, takes the deepest bucket of its residence set with a free real
 * slot (own bucket before its sibling in PageORAM's sibling mode), else
 * the stash. The two must leave identical trees and stashes.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "oram/level_engine.hh"
#include "oram/palermo.hh"
#include "oram/path_engine.hh"
#include "oram/posmap.hh"

namespace palermo {
namespace {

/**
 * The greedy oracle, written against the public TreeStore/Stash API.
 * Nodes materialize on every placement attempt, as the old path walk
 * did; a bucket's placements fill slots 0, 1, ... in arrival order,
 * which resetWith() reproduces once all blocks are placed.
 */
template <typename Engine>
void
greedyFill(Engine &engine, const PosMap &posmap, bool sibling_pairs)
{
    const OramParams &params = engine.params();
    TreeStore &tree = engine.tree();
    std::map<NodeId, std::vector<BlockContent>> placed;
    auto tryPlace = [&](NodeId node, const BlockContent &content) {
        const unsigned capacity = tree.node(node).capacity();
        std::vector<BlockContent> &bucket = placed[node];
        if (bucket.size() >= capacity)
            return false;
        bucket.push_back(content);
        return true;
    };
    for (BlockId block = 0; block < params.numBlocks; ++block) {
        const Leaf leaf = posmap.get(block);
        const BlockContent content{block, 0, leaf};
        bool done = false;
        for (unsigned level = params.levels; level-- > 0 && !done;) {
            const NodeId node = params.ancestorOfLeaf(leaf, level);
            done = tryPlace(node, content);
            if (!done && sibling_pairs && node != 0) {
                const NodeId sibling = node % 2 == 1 ? node + 1 : node - 1;
                done = tryPlace(sibling, content);
            }
        }
        if (!done)
            engine.stash().put(block, leaf, 0);
    }
    for (const auto &[node, blocks] : placed)
        tree.node(node).resetWith(blocks);
}

::testing::AssertionResult
sameTree(const TreeStore &built, const TreeStore &oracle)
{
    if (built.touchedCount() != oracle.touchedCount())
        return ::testing::AssertionFailure()
            << "touched " << built.touchedCount() << " vs "
            << oracle.touchedCount();
    for (NodeId node = 0; node < oracle.params().numNodes; ++node) {
        const auto a = built.peek(node);
        const auto b = oracle.peek(node);
        if (static_cast<bool>(a) != static_cast<bool>(b))
            return ::testing::AssertionFailure()
                << "node " << node << " materialized " << !!a << " vs "
                << !!b;
        if (!a)
            continue;
        if (a.accessed() != b.accessed())
            return ::testing::AssertionFailure()
                << "node " << node << " accessed " << a.accessed();
        for (unsigned slot = 0; slot < b.slots(); ++slot) {
            const BlockContent x = a.slotContent(slot);
            const BlockContent y = b.slotContent(slot);
            if (x.block != y.block || x.payload != y.payload ||
                x.leaf != y.leaf)
                return ::testing::AssertionFailure()
                    << "node " << node << " slot " << slot << ": block "
                    << x.block << " vs " << y.block << ", leaf " << x.leaf
                    << " vs " << y.leaf;
        }
    }
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
sameStash(const Stash &built, const Stash &oracle)
{
    const auto &a = built.items();
    const auto &b = oracle.items();
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
            << "stash " << a.size() << " vs " << b.size();
    for (std::size_t i = 0; i < b.size(); ++i) {
        if (a[i].block != b[i].block || a[i].entry.leaf != b[i].entry.leaf ||
            a[i].entry.payload != b[i].entry.payload)
            return ::testing::AssertionFailure()
                << "stash item " << i << ": " << a[i].block << " vs "
                << b[i].block;
    }
    if (built.highWatermark() != oracle.highWatermark() ||
        built.windowWatermark() != oracle.windowWatermark() ||
        built.overflowed() != oracle.overflowed())
        return ::testing::AssertionFailure() << "stash watermarks differ";
    return ::testing::AssertionSuccess();
}

/** One geometry under test; `group` is the posmap's default group. */
struct Case
{
    OramParams params;
    unsigned group = 1;
    std::uint64_t key = 7;
};

std::size_t
checkRing(const Case &c)
{
    const PosMap posmap(c.params.numBlocks, c.params.numLeaves, c.key,
                        c.group);
    RingEngine built(c.params, 0, ReshuffleMode::Post, 0, 5);
    RingEngine oracle(c.params, 0, ReshuffleMode::Post, 0, 5);
    built.prefill(posmap);
    greedyFill(oracle, posmap, false);
    EXPECT_TRUE(sameTree(built.tree(), oracle.tree()));
    EXPECT_TRUE(sameStash(built.stash(), oracle.stash()));
    return oracle.stash().occupancy();
}

std::size_t
checkPath(const Case &c, bool sibling)
{
    const PosMap posmap(c.params.numBlocks, c.params.numLeaves, c.key,
                        c.group);
    PathEngine built(c.params, 0, 0, sibling, 5);
    PathEngine oracle(c.params, 0, 0, sibling, 5);
    built.prefill(posmap);
    greedyFill(oracle, posmap, sibling);
    EXPECT_TRUE(sameTree(built.tree(), oracle.tree()));
    EXPECT_TRUE(sameStash(built.stash(), oracle.stash()));
    return oracle.stash().occupancy();
}

/** Ring (S = 3) or Path geometry with exactly `depth` levels. */
OramParams
geometry(bool ring, unsigned depth, unsigned z)
{
    const std::uint64_t blocks = (std::uint64_t{1} << (depth - 1)) * z;
    OramParams params = ring ? OramParams::ring(blocks, z, 3, 2)
                             : OramParams::path(blocks, z);
    EXPECT_EQ(params.levels, depth);
    return params;
}

/** Raise the block count to the tree's whole real capacity. */
OramParams
full(OramParams params)
{
    std::uint64_t capacity = 0;
    for (unsigned level = 0; level < params.levels; ++level)
        capacity += (std::uint64_t{1} << level) * params.capacityAt(level);
    params.numBlocks = capacity;
    params.check();
    return params;
}

constexpr unsigned kZs[] = {1, 2, 4, 16};

TEST(TreeBuild, RingMatchesGreedyAcrossDepthsAndZ)
{
    for (const unsigned z : kZs) {
        for (unsigned depth = 1; depth <= 13; ++depth) {
            SCOPED_TRACE(::testing::Message()
                         << "z " << z << " depth " << depth);
            checkRing({geometry(true, depth, z)});
        }
    }
}

TEST(TreeBuild, PathMatchesGreedyAcrossDepthsAndZ)
{
    for (const unsigned z : kZs) {
        for (unsigned depth = 1; depth <= 13; ++depth) {
            SCOPED_TRACE(::testing::Message()
                         << "z " << z << " depth " << depth);
            checkPath({geometry(false, depth, z)}, false);
        }
    }
}

TEST(TreeBuild, SiblingPairsMatchGreedy)
{
    for (const unsigned z : kZs) {
        for (unsigned depth = 1; depth <= 13; ++depth) {
            SCOPED_TRACE(::testing::Message()
                         << "z " << z << " depth " << depth);
            checkPath({geometry(false, depth, z)}, true);
        }
    }
}

TEST(TreeBuild, UnevenBlockCountsMatchGreedy)
{
    // Block counts that are not a multiple of the leaf count.
    for (const std::uint64_t blocks : {1ull, 3ull, 37ull, 1000ull, 5001ull}) {
        SCOPED_TRACE(::testing::Message() << "blocks " << blocks);
        checkRing({OramParams::ring(blocks, 4, 5, 3), 1, blocks});
        checkPath({OramParams::path(blocks, 2), 1, blocks}, false);
        checkPath({OramParams::path(blocks, 2), 1, blocks}, true);
    }
}

TEST(TreeBuild, PerLevelCapacitiesMatchGreedy)
{
    for (const unsigned z : kZs) {
        for (const unsigned depth : {1u, 2u, 5u, 9u, 12u}) {
            SCOPED_TRACE(::testing::Message()
                         << "z " << z << " depth " << depth);
            OramParams fat = geometry(false, depth, z);
            applyFatTree(fat);
            checkPath({fat}, false);
            checkPath({fat}, true);
            OramParams shrunk = geometry(false, depth, z);
            applyIrTreeShrink(shrunk);
            checkPath({shrunk}, false);
            OramParams ring = geometry(true, depth, z);
            applyIrTreeShrink(ring);
            checkRing({ring});
        }
    }
}

TEST(TreeBuild, GroupedDefaultLeavesMatchGreedy)
{
    // PrORAM/LAORAM: consecutive blocks share a default leaf, so leaf
    // buckets overflow in runs.
    for (const unsigned group : {2u, 4u, 8u}) {
        for (const unsigned depth : {3u, 8u, 12u}) {
            SCOPED_TRACE(::testing::Message()
                         << "group " << group << " depth " << depth);
            OramParams params = geometry(false, depth, 4);
            checkPath({params, group}, false);
            applyFatTree(params);
            checkPath({params, group}, false);
        }
    }
}

TEST(TreeBuild, FullCapacityOverflowsIntoStashInIdOrder)
{
    std::size_t most = 0;
    for (const unsigned z : kZs) {
        for (const unsigned depth : {1u, 4u, 10u}) {
            SCOPED_TRACE(::testing::Message()
                         << "z " << z << " depth " << depth);
            most = std::max(most, checkRing({full(geometry(true, depth, z))}));
            most = std::max(most,
                            checkPath({full(geometry(false, depth, z))},
                                      false));
            most = std::max(most,
                            checkPath({full(geometry(false, depth, z))},
                                      true));
            OramParams fat = geometry(false, depth, z);
            applyFatTree(fat);
            most = std::max(most, checkPath({full(fat), 4}, false));
        }
    }
    // The geometry is meant to push hundreds of blocks into the stash.
    EXPECT_GT(most, 200u);
}

TEST(TreeBuild, RefusesATouchedTree)
{
    const OramParams params = OramParams::ring(64, 4, 3, 2);
    const PosMap posmap(params.numBlocks, params.numLeaves, 1);
    TreeStore store(params);
    store.node(0);
    EXPECT_DEATH(store.build(posmap, false), "untouched");
}

/** FNV-1a over 64-bit words. */
struct Digest
{
    std::uint64_t value = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            value ^= (word >> (8 * i)) & 0xff;
            value *= 0x100000001b3ull;
        }
    }
};

TEST(TreeBuild, PalermoHierarchyDigestIsPinned)
{
    // All three prefilled trees of a 2^16-block Palermo hierarchy and
    // their stashes. The pinned value was computed with the per-block
    // greedy fill that predates the bulk build.
    ProtocolConfig config;
    config.numBlocks = 1 << 16;
    PalermoOram oram(config);
    Digest digest;
    for (unsigned level = 0; level < kHierLevels; ++level) {
        const RingEngine &engine = oram.engine(level);
        const TreeStore &tree = engine.tree();
        digest.add(tree.touchedCount());
        for (NodeId node = 0; node < tree.params().numNodes; ++node) {
            const auto bucket = tree.peek(node);
            digest.add(bucket ? 1 : 0);
            if (!bucket)
                continue;
            digest.add(bucket.accessed());
            for (unsigned slot = 0; slot < bucket.slots(); ++slot) {
                const BlockContent content = bucket.slotContent(slot);
                digest.add(content.block);
                digest.add(content.payload);
                digest.add(content.leaf);
            }
        }
        const Stash &stash = engine.stash();
        digest.add(stash.highWatermark());
        for (const StashItem &item : stash.items()) {
            digest.add(item.block);
            digest.add(item.entry.leaf);
            digest.add(item.entry.payload);
        }
    }
    EXPECT_EQ(digest.value, 0x3310e07eeca01417ull);
}

} // namespace
} // namespace palermo
