/**
 * @file
 * Runner observation hooks: setTrialProbe() and setMetricsSink().
 * These are the diagnostic surface the throughput
 * bench and lf_run's --metrics export sit on, so the contract — every
 * trial observed exactly once, sinks overwritten (not accumulated) at
 * the end of each run, totals that add up — gets pinned here.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <vector>

#include "obs/metrics.hh"
#include "run/runner.hh"

namespace lf {
namespace {

/** A small mixed batch: mostly ok trials, one error row (d=0 is
 *  rejected by config validation), one skipped row (an MT channel on
 *  the SMT-disabled E-2288G). */
std::vector<ExperimentSpec>
mixedBatch(int trials)
{
    ExperimentSpec base;
    base.channel = "nonmt-fast-eviction";
    base.cpu = "Gold 6226";
    base.seed = 29;
    base.messageBits = 4;
    base.preambleBits = 4;
    std::vector<ExperimentSpec> specs = expandTrials(base, trials - 2);

    ExperimentSpec error = base;
    error.overrides["d"] = 0;
    specs.insert(specs.begin() + 1, error);

    ExperimentSpec skipped = base;
    skipped.channel = "mt-eviction";
    skipped.cpu = "E-2288G";
    specs.push_back(skipped);
    return specs;
}

TEST(TrialProbe, SeesEveryIndexExactlyOnceAtEveryThreadCount)
{
    const auto specs = mixedBatch(12);
    for (const int threads : {1, 4}) {
        ExperimentRunner runner(threads);
        std::mutex mutex;
        std::multiset<std::size_t> seen;
        runner.setTrialProbe(
            [&](std::size_t index, std::size_t delivered) {
                std::lock_guard<std::mutex> lock(mutex);
                EXPECT_LT(index,
                          delivered + runner.reorderWindow())
                    << "threads=" << threads;
                seen.insert(index);
            });
        runner.run(specs);
        ASSERT_EQ(seen.size(), specs.size()) << "threads=" << threads;
        for (std::size_t i = 0; i < specs.size(); ++i)
            EXPECT_EQ(seen.count(i), 1u)
                << "index " << i << ", threads=" << threads;
    }
}

TEST(TrialProbe, SingleThreadRunsInOrderWithDeliveredEqualToIndex)
{
    const auto specs = mixedBatch(8);
    ExperimentRunner runner(1);
    std::vector<std::size_t> order;
    runner.setTrialProbe(
        [&](std::size_t index, std::size_t delivered) {
            EXPECT_EQ(delivered, index);
            order.push_back(index);
        });
    runner.run(specs);
    std::vector<std::size_t> expected(specs.size());
    std::iota(expected.begin(), expected.end(), 0u);
    EXPECT_EQ(order, expected);
}

TEST(MetricsSink, SingleThreadNeverParksAndSinkIsOverwritten)
{
    const auto specs = mixedBatch(6);
    ExperimentRunner runner(1);
    obs::RunMetrics m;
    m.workerParks = 999; // sentinel: run() must overwrite
    m.consumerParks = 999;
    m.wakeBroadcasts = 999;
    runner.setMetricsSink(&m);
    runner.run(specs);
    EXPECT_EQ(m.workerParks, 0u);
    EXPECT_EQ(m.consumerParks, 0u);
    EXPECT_EQ(m.wakeBroadcasts, 0u);
}

TEST(MetricsSink, SubWindowBatchNeedsNoWorkerParksOrBroadcasts)
{
    // A batch smaller than the reorder window can never block a
    // worker on slot recycling, so no slot-free broadcast is ever
    // needed either (broadcasts are only sent while a worker parks).
    ExperimentRunner runner(4);
    const auto specs = mixedBatch(8);
    ASSERT_LT(specs.size(), runner.reorderWindow());
    obs::RunMetrics m;
    runner.setMetricsSink(&m);
    runner.run(specs);
    EXPECT_EQ(m.workerParks, 0u);
    EXPECT_EQ(m.wakeBroadcasts, 0u);
}

TEST(MetricsSink, TotalsAddUpAndHistogramCoversEveryTrial)
{
    const auto specs = mixedBatch(20);
    for (const int threads : {1, 4}) {
        ExperimentRunner runner(threads);
        obs::RunMetrics m;
        runner.setMetricsSink(&m);
        runner.run(specs);

        EXPECT_EQ(m.trials, specs.size()) << "threads=" << threads;
        EXPECT_EQ(m.okTrials + m.errorTrials + m.skippedTrials,
                  m.trials)
            << "threads=" << threads;
        EXPECT_EQ(m.errorTrials, 1u) << "threads=" << threads;
        EXPECT_EQ(m.skippedTrials, 1u) << "threads=" << threads;
        EXPECT_GE(m.workers, 1);
        EXPECT_LE(m.workers, threads);
        EXPECT_GT(m.seconds, 0.0);
        EXPECT_GT(m.trialsPerSec, 0.0);
        EXPECT_EQ(m.reorderWindow,
                  ExperimentRunner::reorderWindowFor(m.workers));
        std::uint64_t histogram_total = 0;
        for (const std::uint64_t bucket : m.windowOccupancy)
            histogram_total += bucket;
        EXPECT_EQ(histogram_total, m.trials)
            << "threads=" << threads;
        EXPECT_GT(m.preparedCacheHits + m.preparedCacheMisses, 0u)
            << "threads=" << threads;
    }
}

TEST(MetricsSink, EmptyBatchLeavesTheSinkUntouched)
{
    ExperimentRunner runner(4);
    obs::RunMetrics m;
    m.trials = 123; // sentinel: the empty-batch early return must
                    // not report
    runner.setMetricsSink(&m);
    runner.run(std::vector<ExperimentSpec>{});
    EXPECT_EQ(m.trials, 123u);
}

TEST(MetricsSink, SinkIsOverwrittenNotAccumulatedAcrossRuns)
{
    ExperimentRunner runner(2);
    obs::RunMetrics m;
    runner.setMetricsSink(&m);
    runner.run(mixedBatch(12));
    EXPECT_EQ(m.trials, 12u);
    runner.run(mixedBatch(6));
    EXPECT_EQ(m.trials, 6u);
}

} // namespace
} // namespace lf
