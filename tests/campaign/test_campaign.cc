/**
 * @file
 * End-to-end campaign tests for the determinism contract: an N-shard
 * campaign merged through mergeCampaign() must be byte-identical to
 * the unsharded SweepAccumulator summary of the same SweepSpec —
 * including after a mid-shard kill and resume, and on a warm-cache
 * rerun where almost nothing executes. The result cache holds one
 * entry per cell, and a killed shard still stores its partial cell.
 * Also covers merge refusing incomplete campaigns with an actionable
 * diagnostic, and status rendering.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "campaign/cache.hh"
#include "campaign/campaign.hh"
#include "campaign/files.hh"
#include "campaign/grid_hash.hh"
#include "campaign/manifest.hh"
#include "run/runner.hh"
#include "run/sinks.hh"
#include "run/sweep.hh"
#include "sim/cpu_model.hh"

namespace lf {
namespace {

namespace fs = std::filesystem;

constexpr int kShards = 4;

std::string
scratchDir(const std::string &name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / ("lf_campaign_e2e_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** The reference: the plain unsharded streaming sweep summary. */
std::string
unshardedSummary(const SweepSpec &sweep)
{
    const ExperimentRunner runner(1);
    SweepSummarySink sink;
    std::ostringstream os;
    sink.writeHeader(os);
    runner.run(expandSweep(sweep), [&](const ExperimentResult &res) {
        sink.writeRow(res, os);
    });
    sink.writeFooter(os);
    return os.str();
}

SweepSpec
testSweep()
{
    SweepSpec sweep;
    sweep.channels = {"nonmt-fast-eviction", "slow-switch"};
    sweep.cpus = {gold6226().name};
    sweep.axes = {{"rounds", {5, 10}}};
    sweep.trials = 3;
    sweep.seed = 4242;
    sweep.messageBits = 12;
    return sweep;
}

void
runShardOrFail(const std::string &dir, int shard,
               const ShardRunOptions &options,
               ShardRunStats *stats = nullptr)
{
    const std::string error =
        runCampaignShard(dir, shard, options, stats);
    ASSERT_EQ(error, "") << "shard " << shard;
}

/** Number of cache entry files under @p root. */
std::size_t
countEntryFiles(const std::string &root)
{
    std::size_t files = 0;
    for (const auto &entry : fs::recursive_directory_iterator(root))
        files += entry.path().extension() == ".rec" ? 1 : 0;
    return files;
}

std::string
mergeOrFail(const std::string &dir)
{
    std::string summary;
    const std::string error = mergeCampaign(dir, summary);
    EXPECT_EQ(error, "");
    return summary;
}

TEST(CampaignEndToEnd, FourShardMergeIsByteIdentical)
{
    const SweepSpec sweep = testSweep();
    const std::string reference = unshardedSummary(sweep);
    const std::string dir = scratchDir("merge_identity");

    ASSERT_EQ(planCampaign(sweep, kShards, dir), "");
    ShardRunOptions options;
    options.threads = 1;
    for (int shard = 0; shard < kShards; ++shard)
        runShardOrFail(dir, shard, options);

    EXPECT_EQ(mergeOrFail(dir), reference);
    // merge also persists the summary next to the shard files.
    std::string onDisk;
    ASSERT_EQ(readFileText(campaignSummaryPath(dir), onDisk), "");
    EXPECT_EQ(onDisk, reference);
}

TEST(CampaignEndToEnd, KillAndResumeReRunsOnlyMissingRows)
{
    const SweepSpec sweep = testSweep();
    const std::string reference = unshardedSummary(sweep);
    const std::string dir = scratchDir("kill_resume");
    ASSERT_EQ(planCampaign(sweep, kShards, dir), "");

    // "Kill" shard 1 after a single row.
    ShardRunOptions killed;
    killed.threads = 1;
    killed.maxNewRows = 1;
    ShardRunStats killedStats;
    runShardOrFail(dir, 1, killed, &killedStats);
    EXPECT_EQ(killedStats.executed, 1u);
    EXPECT_LT(killedStats.doneRows(), killedStats.totalRows);

    // Merging an incomplete campaign must refuse, naming the shard
    // to resume — not silently fold partial rows.
    std::string summary;
    const std::string mergeError = mergeCampaign(dir, summary);
    EXPECT_NE(mergeError, "");
    EXPECT_NE(mergeError.find("resume"), std::string::npos);

    // Resume everything; shard 1 must only execute what it misses.
    ShardRunOptions options;
    options.threads = 1;
    for (int shard = 0; shard < kShards; ++shard) {
        ShardRunStats stats;
        runShardOrFail(dir, shard, options, &stats);
        if (shard == 1) {
            EXPECT_EQ(stats.resumedRows, 1u);
            EXPECT_EQ(stats.executed, stats.totalRows - 1);
        }
        EXPECT_EQ(stats.doneRows(), stats.totalRows);
    }
    EXPECT_EQ(mergeOrFail(dir), reference);
}

TEST(CampaignEndToEnd, WarmCacheRerunIsByteIdentical)
{
    const SweepSpec sweep = testSweep();
    const std::string reference = unshardedSummary(sweep);
    const std::string root = scratchDir("warm_cache");
    const std::string cacheDir = root + "/cache";

    ShardRunOptions options;
    options.threads = 1;
    options.cacheDir = cacheDir;

    // Cold pass populates the cache: one entry file per cell.
    const std::string coldDir = root + "/cold";
    CampaignManifest manifest;
    ASSERT_EQ(planCampaign(sweep, kShards, coldDir, &manifest), "");
    for (int shard = 0; shard < kShards; ++shard)
        runShardOrFail(coldDir, shard, options);
    EXPECT_EQ(mergeOrFail(coldDir), reference);
    EXPECT_EQ(countEntryFiles(cacheDir), manifest.cells);

    // Warm pass: fresh campaign dir, different shard count, same
    // grid — every row must come from the cache.
    const std::string warmDir = root + "/warm";
    ASSERT_EQ(planCampaign(sweep, 2, warmDir), "");
    for (int shard = 0; shard < 2; ++shard) {
        ShardRunStats stats;
        runShardOrFail(warmDir, shard, options, &stats);
        EXPECT_EQ(stats.executed, 0u);
        EXPECT_EQ(stats.cacheHits, stats.totalRows);
        EXPECT_EQ(stats.cacheHitRate(), 1.0);
    }
    EXPECT_EQ(mergeOrFail(warmDir), reference);
}

TEST(CampaignEndToEnd, CachedKillAndResumeStoresWholeCells)
{
    const SweepSpec sweep = testSweep();
    const std::string reference = unshardedSummary(sweep);
    const std::string root = scratchDir("cached_kill_resume");
    const std::string cacheDir = root + "/cache";
    const std::string coldDir = root + "/cold";
    ASSERT_EQ(planCampaign(sweep, kShards, coldDir), "");

    // Kill shard 1 after one row: the cut-short cell is flushed.
    ShardRunOptions options;
    options.threads = 1;
    options.cacheDir = cacheDir;
    ShardRunOptions killed = options;
    killed.maxNewRows = 1;
    runShardOrFail(coldDir, 1, killed);
    const ResultCache cache(cacheDir);
    const std::vector<ExperimentSpec> shardOne =
        expandSweep(sweep, {1, kShards});
    ResultCache::CellRows rows;
    ASSERT_EQ(cache.loadCell(shardOne[0], rows), "");
    EXPECT_EQ(rows.size(), 1u);

    // Resume: every cell's entry then holds all of its trials.
    for (int shard = 0; shard < kShards; ++shard)
        runShardOrFail(coldDir, shard, options);
    EXPECT_EQ(mergeOrFail(coldDir), reference);
    const std::vector<ExperimentSpec> batch = expandSweep(sweep);
    for (std::size_t row = 0; row < batch.size();
         row += static_cast<std::size_t>(sweep.trials)) {
        ASSERT_EQ(cache.loadCell(batch[row], rows), "");
        EXPECT_EQ(rows.size(), static_cast<std::size_t>(sweep.trials))
            << "cell of row " << row;
    }

    // A warm re-plan hits on every row and merges to the same bytes.
    const std::string warmDir = root + "/warm";
    ASSERT_EQ(planCampaign(sweep, 2, warmDir), "");
    for (int shard = 0; shard < 2; ++shard) {
        ShardRunStats stats;
        runShardOrFail(warmDir, shard, options, &stats);
        EXPECT_EQ(stats.executed, 0u);
        EXPECT_EQ(stats.cacheHitRate(), 1.0);
    }
    EXPECT_EQ(mergeOrFail(warmDir), reference);
}

TEST(CampaignEndToEnd, PlanValidatesAndStatusTracksProgress)
{
    const SweepSpec sweep = testSweep(); // 4 cells.
    const std::string dir = scratchDir("status");

    // More shards than cells is a planning error, not a crash.
    EXPECT_NE(planCampaign(sweep, 5, dir), "");

    ASSERT_EQ(planCampaign(sweep, kShards, dir), "");
    const std::string plan = renderCampaignPlan(sweep, kShards);
    EXPECT_NE(plan.find("Campaign plan"), std::string::npos);

    CampaignManifest manifest;
    ASSERT_EQ(loadManifestFile(campaignManifestPath(dir), manifest),
              "");
    EXPECT_NE(plan.find(manifest.gridHash), std::string::npos);

    std::string status;
    ASSERT_EQ(campaignStatus(dir, status), "");
    EXPECT_NE(status.find("fresh"), std::string::npos);

    ShardRunOptions options;
    options.threads = 1;
    runShardOrFail(dir, 0, options);
    ASSERT_EQ(campaignStatus(dir, status), "");
    EXPECT_NE(status.find("done"), std::string::npos);
    EXPECT_NE(status.find("fresh"), std::string::npos);

    for (int shard = 1; shard < kShards; ++shard)
        runShardOrFail(dir, shard, options);
    mergeOrFail(dir);
    ASSERT_EQ(campaignStatus(dir, status), "");
    EXPECT_NE(status.find("merged"), std::string::npos);
}

TEST(CampaignEndToEnd, RowIndexMappingMatchesSpecOrder)
{
    // campaignRowIndex must enumerate exactly the global indices the
    // unsharded expansion assigns to this shard's rows, ascending.
    const SweepSpec sweep = testSweep();
    CampaignManifest manifest;
    ASSERT_EQ(planManifest(sweep, 3, manifest), "");
    const auto full = expandSweep(sweep);
    ASSERT_EQ(full.size(), manifest.rows);
    std::vector<bool> seen(manifest.rows, false);
    for (int shard = 0; shard < manifest.shards; ++shard) {
        const auto specs =
            expandSweep(sweep, {shard, manifest.shards});
        std::size_t previous = 0;
        for (std::size_t local = 0; local < specs.size(); ++local) {
            const std::size_t global =
                campaignRowIndex(manifest, shard, local);
            ASSERT_LT(global, manifest.rows);
            EXPECT_FALSE(seen[global]);
            seen[global] = true;
            if (local > 0) {
                EXPECT_GT(global, previous);
            }
            previous = global;
            // The spec at that global index in the full expansion is
            // this shard-local spec.
            EXPECT_EQ(canonicalTrialText(specs[local]),
                      canonicalTrialText(full[global]));
        }
    }
    for (std::size_t index = 0; index < manifest.rows; ++index)
        EXPECT_TRUE(seen[index]) << "row " << index << " unassigned";
}

} // namespace
} // namespace lf
