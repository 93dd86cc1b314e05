/** @file Tests for LSD loop detection and the misalignment rule. */

#include <gtest/gtest.h>

#include "frontend/loop_monitor.hh"

namespace lf {
namespace {

FrontendParams
params()
{
    return FrontendParams{};
}

LoopMonitor::ChunkRecord
rec(Addr key, int uops = 5, bool from_dsb = true,
    bool block_start = true)
{
    return {key, uops, from_dsb, block_start};
}

/** Drive one loop iteration over the given block keys. */
bool
iterate(LoopMonitor &monitor, const std::vector<Addr> &keys)
{
    for (Addr key : keys)
        monitor.recordChunk(rec(key));
    // Closing backward branch from the last block back to the first.
    return monitor.recordTakenBranch(keys.back() + 20, keys.front());
}

TEST(LoopMonitor, EngagesAfterWarmupIterations)
{
    FrontendParams p = params();
    LoopMonitor monitor(p);
    const std::vector<Addr> keys = {0x1000, 0x1400, 0x1800};
    // Establish the head (first backward branch).
    monitor.recordTakenBranch(0x1814, 0x1000);
    EXPECT_FALSE(iterate(monitor, keys)); // stable = 1
    EXPECT_TRUE(iterate(monitor, keys));  // stable = 2 -> engage
    EXPECT_EQ(monitor.bodyKeys(), keys);
    EXPECT_EQ(monitor.bodyUops(), 15);
}

TEST(LoopMonitor, StableCountSaturatesAtWarmupThreshold)
{
    // The stable-iteration count stops at lsdWarmupIters: a loop that
    // keeps closing identical iterations leaves the monitor in one
    // repeating state, and it keeps engaging on every iteration.
    FrontendParams p = params();
    LoopMonitor monitor(p);
    const std::vector<Addr> keys = {0x1000, 0x1400, 0x1800};
    monitor.recordTakenBranch(0x1814, 0x1000);
    EXPECT_FALSE(iterate(monitor, keys));
    EXPECT_EQ(monitor.stableIters(), 1);
    for (int it = 0; it < 10; ++it) {
        EXPECT_TRUE(iterate(monitor, keys)) << it;
        EXPECT_EQ(monitor.stableIters(), p.lsdWarmupIters) << it;
    }
    // A different body restarts the count from one, as before.
    const std::vector<Addr> other = {0x1000, 0x1800};
    EXPECT_FALSE(iterate(monitor, other));
    EXPECT_EQ(monitor.stableIters(), 1);
    EXPECT_TRUE(iterate(monitor, other));
    EXPECT_EQ(monitor.stableIters(), p.lsdWarmupIters);
}

TEST(LoopMonitor, MiteDeliveredBodyDoesNotQualify)
{
    FrontendParams p = params();
    LoopMonitor monitor(p);
    monitor.recordTakenBranch(0x1014, 0x1000);
    for (int it = 0; it < 5; ++it) {
        monitor.recordChunk(rec(0x1000, 5, /*from_dsb=*/false));
        EXPECT_FALSE(monitor.recordTakenBranch(0x1014, 0x1000));
    }
}

TEST(LoopMonitor, OversizedLoopDoesNotQualify)
{
    FrontendParams p = params();
    LoopMonitor monitor(p);
    std::vector<Addr> keys;
    for (int i = 0; i < 13; ++i) // 13 x 5 = 65 > 64
        keys.push_back(0x1000 + static_cast<Addr>(i) * 1024);
    monitor.recordTakenBranch(keys.back() + 20, keys.front());
    EXPECT_FALSE(iterate(monitor, keys));
    EXPECT_FALSE(iterate(monitor, keys));
    EXPECT_FALSE(iterate(monitor, keys));
}

TEST(LoopMonitor, ForwardBranchKeepsAccumulating)
{
    FrontendParams p = params();
    LoopMonitor monitor(p);
    monitor.recordTakenBranch(0x1814, 0x1000); // head = 0x1000
    monitor.recordChunk(rec(0x1000));
    // Forward jump inside the body must not reset the candidate.
    EXPECT_FALSE(monitor.recordTakenBranch(0x1014, 0x1400));
    EXPECT_EQ(monitor.head(), 0x1000u);
}

TEST(LoopMonitor, NewBackwardTargetResets)
{
    FrontendParams p = params();
    LoopMonitor monitor(p);
    monitor.recordTakenBranch(0x1814, 0x1000);
    monitor.recordChunk(rec(0x1000));
    monitor.recordTakenBranch(0x2814, 0x2000); // different backward
    EXPECT_EQ(monitor.head(), 0x2000u);
    EXPECT_EQ(monitor.stableIters(), 0);
}

TEST(LoopMonitor, ResetClearsBody)
{
    FrontendParams p = params();
    LoopMonitor monitor(p);
    const std::vector<Addr> keys = {0x1000, 0x1400};
    monitor.recordTakenBranch(0x1414, 0x1000);
    iterate(monitor, keys);
    iterate(monitor, keys);
    EXPECT_TRUE(monitor.bodyContains(0x1000));
    monitor.reset();
    EXPECT_FALSE(monitor.bodyContains(0x1000));
    EXPECT_EQ(monitor.head(), 0u);
}

// ---- Sec. IV-G alignment rule: every case the paper lists. ----

struct AlignmentCase
{
    int aligned;
    int misaligned;
    bool collides;
};

class AlignmentRule : public ::testing::TestWithParam<AlignmentCase>
{
};

TEST_P(AlignmentRule, MatchesPaper)
{
    const AlignmentCase c = GetParam();
    EXPECT_EQ(LoopMonitor::alignmentCollides(c.aligned, c.misaligned),
              c.collides)
        << c.aligned << " aligned + " << c.misaligned << " misaligned";
}

INSTANTIATE_TEST_SUITE_P(PaperCases, AlignmentRule, ::testing::Values(
    // Positive cases (Sec. IV-G): LSD collision.
    AlignmentCase{7, 1, true},   // "7 aligned, 8th misaligned"
    AlignmentCase{5, 2, true},
    AlignmentCase{6, 2, true},
    AlignmentCase{3, 3, true},
    AlignmentCase{4, 3, true},
    AlignmentCase{5, 3, true},
    AlignmentCase{0, 4, true},   // "4 chained misaligned blocks"
    // Negative cases: loop stays in the LSD.
    AlignmentCase{8, 0, false},  // 8 aligned blocks fit (Sec. IV-F)
    AlignmentCase{4, 0, false},
    AlignmentCase{5, 1, false},
    AlignmentCase{6, 1, false},
    AlignmentCase{4, 2, false},
    AlignmentCase{2, 3, false},
    AlignmentCase{0, 3, false},
    AlignmentCase{1, 0, false}));

TEST(AlignmentRule, MonotoneInMisalignment)
{
    // Adding misaligned blocks never un-collides a colliding loop.
    for (int a = 0; a <= 8; ++a) {
        for (int m = 0; m < 8; ++m) {
            if (LoopMonitor::alignmentCollides(a, m)) {
                EXPECT_TRUE(LoopMonitor::alignmentCollides(a, m + 1));
            }
        }
    }
}

} // namespace
} // namespace lf
