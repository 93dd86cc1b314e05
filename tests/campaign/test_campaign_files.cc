/**
 * @file
 * Campaign file-format tests: grid-hash canonicalization, the result
 * record codec (exact double round-trips, string escaping), and the
 * hardening contract — corrupt or truncated manifests, checkpoints,
 * shard results, and cache entries must fail with a diagnostic naming
 * the path and reason, never crash or silently drop rows. The only
 * tolerated damage is an *unterminated* trailing line in the
 * append-only shard files (what a kill leaves behind), which is
 * dropped and re-run.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "campaign/cache.hh"
#include "campaign/campaign.hh"
#include "campaign/files.hh"
#include "campaign/grid_hash.hh"
#include "campaign/manifest.hh"
#include "campaign/record.hh"
#include "campaign/shard_log.hh"

namespace lf {
namespace {

namespace fs = std::filesystem;

/** Fresh per-test scratch directory. */
std::string
scratchDir(const std::string &name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / ("lf_campaign_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

std::string
readAll(const std::string &path)
{
    std::string text;
    EXPECT_EQ(readFileText(path, text), "");
    return text;
}

void
writeAll(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
    ASSERT_TRUE(os.good());
}

SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.channels = {"nonmt-fast-eviction", "slow-switch"};
    spec.cpus = {"Gold 6226"};
    spec.axes = {{"rounds", {5, 10}}};
    spec.baseOverrides = {{"d", 40}};
    spec.trials = 3;
    spec.seed = 99;
    spec.messageBits = 16;
    return spec;
}

ExperimentResult
sampleResult()
{
    ExperimentResult res;
    res.spec.label = "label with spaces, commas: and %";
    res.spec.channel = "nonmt-fast-eviction";
    res.spec.cpu = "Gold 6226";
    res.spec.seed = 0xdeadbeefcafef00dULL;
    res.spec.trial = 7;
    res.spec.pattern = MessagePattern::Random;
    res.spec.messageBits = 48;
    res.spec.preambleBits = -1;
    res.spec.overrides = {{"rounds", 10.0},
                          {"model.jitterPerKcycle", 0.125}};
    res.ok = true;
    res.result.errorRate = 1.0 / 3.0; // Not exactly representable.
    res.result.transmissionKbps = 419.67000000000002;
    res.result.seconds = 2.3283064365386963e-10;
    return res;
}

// ---- Grid hash ----

TEST(GridHash, StableAndSensitive)
{
    const SweepSpec spec = smallSpec();
    const std::string hash = gridHash(spec);
    EXPECT_EQ(hash.size(), 16u);
    EXPECT_EQ(hash, gridHash(spec)); // Deterministic.

    // Every identity-relevant field moves the hash.
    SweepSpec other = spec;
    other.seed = 100;
    EXPECT_NE(gridHash(other), hash);
    other = spec;
    other.trials = 4;
    EXPECT_NE(gridHash(other), hash);
    other = spec;
    other.axes[0].values.push_back(20);
    EXPECT_NE(gridHash(other), hash);
    other = spec;
    other.channels.pop_back();
    EXPECT_NE(gridHash(other), hash);
    other = spec;
    other.baseOverrides["d"] = 41;
    EXPECT_NE(gridHash(other), hash);

    // Field boundaries cannot be confused: moving a character across
    // adjacent list entries changes the serialization.
    SweepSpec glued = spec;
    glued.channels = {"nonmt-fast-evictions", "low-switch"};
    EXPECT_NE(gridHash(glued), hash);
}

TEST(GridHash, TrialKeyCoversSeedAndOverrides)
{
    const ExperimentResult res = sampleResult();
    const std::string key = trialKey(res.spec);
    EXPECT_EQ(key.size(), 16u);

    ExperimentSpec other = res.spec;
    other.seed ^= 1;
    EXPECT_NE(trialKey(other), key);
    other = res.spec;
    other.overrides["rounds"] = 11.0;
    EXPECT_NE(trialKey(other), key);
    other = res.spec;
    other.trial = 8;
    EXPECT_NE(trialKey(other), key);
}

// ---- Record codec ----

TEST(ResultRecord, RoundTripsExactly)
{
    const ExperimentResult res = sampleResult();
    const std::string line = encodeResultRecord(12345, res);
    EXPECT_EQ(line.find('\n'), std::string::npos);

    std::size_t index = 0;
    ExperimentResult back;
    ASSERT_EQ(decodeResultRecord(line, index, back), "");
    EXPECT_EQ(index, 12345u);
    EXPECT_EQ(back.spec.label, res.spec.label);
    EXPECT_EQ(back.spec.channel, res.spec.channel);
    EXPECT_EQ(back.spec.cpu, res.spec.cpu);
    EXPECT_EQ(back.spec.seed, res.spec.seed);
    EXPECT_EQ(back.spec.trial, res.spec.trial);
    EXPECT_EQ(back.spec.pattern, res.spec.pattern);
    EXPECT_EQ(back.spec.messageBits, res.spec.messageBits);
    EXPECT_EQ(back.spec.preambleBits, res.spec.preambleBits);
    EXPECT_EQ(back.spec.overrides, res.spec.overrides);
    EXPECT_EQ(back.ok, res.ok);
    EXPECT_EQ(back.skipped, res.skipped);
    // Bit-exact doubles — the merged summary depends on it.
    EXPECT_EQ(back.result.errorRate, res.result.errorRate);
    EXPECT_EQ(back.result.transmissionKbps,
              res.result.transmissionKbps);
    EXPECT_EQ(back.result.seconds, res.result.seconds);
    // The canonical trial text (the cache address) survives too.
    EXPECT_EQ(canonicalTrialText(back.spec),
              canonicalTrialText(res.spec));
}

TEST(ResultRecord, ErrorRowsRoundTrip)
{
    ExperimentResult res = sampleResult();
    res.ok = false;
    res.error = "unknown override key \"bogus\" = 1";
    const std::string line = encodeResultRecord(0, res);
    std::size_t index = 0;
    ExperimentResult back;
    ASSERT_EQ(decodeResultRecord(line, index, back), "");
    EXPECT_FALSE(back.ok);
    EXPECT_EQ(back.error, res.error);
}

TEST(ResultRecord, CorruptRecordsDiagnose)
{
    const std::string line =
        encodeResultRecord(3, sampleResult());
    std::size_t index = 0;
    ExperimentResult back;

    // Truncation mid-field.
    EXPECT_NE(decodeResultRecord(line.substr(0, line.size() / 2),
                                 index, back), "");
    // A field renamed.
    std::string renamed = line;
    renamed.replace(renamed.find("seed="), 5, "sead=");
    const std::string error = decodeResultRecord(renamed, index, back);
    EXPECT_NE(error, "");
    EXPECT_NE(error.find("seed"), std::string::npos);
    // A non-numeric number.
    std::string bad = line;
    bad.replace(bad.find("error_rate=") + 11, 1, "x");
    EXPECT_NE(decodeResultRecord(bad, index, back), "");
    // Trailing junk.
    EXPECT_NE(decodeResultRecord(line + " extra=1", index, back), "");
}

TEST(PercentEncoding, RoundTripsAndRejects)
{
    const std::string nasty =
        "a b%c,d:e=f\n\tg\x1f\x7f";
    std::string out;
    ASSERT_TRUE(percentDecode(percentEncode(nasty), out));
    EXPECT_EQ(out, nasty);
    EXPECT_EQ(percentEncode(nasty).find(' '), std::string::npos);

    EXPECT_FALSE(percentDecode("%2", out));  // Truncated escape.
    EXPECT_FALSE(percentDecode("%zz", out)); // Bad hex.
}

// ---- Manifest ----

TEST(Manifest, RoundTripsThroughText)
{
    CampaignManifest manifest;
    ASSERT_EQ(planManifest(smallSpec(), 3, manifest), "");
    EXPECT_EQ(manifest.cells, 4u);
    EXPECT_EQ(manifest.rows, 12u);

    CampaignManifest back;
    ASSERT_EQ(parseManifest(renderManifest(manifest), "mem", back),
              "");
    EXPECT_EQ(back.gridHash, manifest.gridHash);
    EXPECT_EQ(back.shards, manifest.shards);
    EXPECT_EQ(back.cells, manifest.cells);
    EXPECT_EQ(back.rows, manifest.rows);
    EXPECT_EQ(gridHash(back.spec), gridHash(manifest.spec));
    EXPECT_EQ(renderManifest(back), renderManifest(manifest));
}

TEST(Manifest, TruncationAndCorruptionDiagnose)
{
    CampaignManifest manifest;
    ASSERT_EQ(planManifest(smallSpec(), 2, manifest), "");
    const std::string text = renderManifest(manifest);

    CampaignManifest back;
    // Truncated: missing the end sentinel (and its line).
    std::string error = parseManifest(
        text.substr(0, text.size() - 4), "camp/manifest.txt", back);
    EXPECT_NE(error.find("camp/manifest.txt"), std::string::npos);
    EXPECT_NE(error.find("truncated"), std::string::npos);

    // A spec field edited after planning: parses, but the recomputed
    // grid hash disagrees with the pinned one.
    std::string tampered = text;
    const std::size_t pos = tampered.find("seed 99");
    ASSERT_NE(pos, std::string::npos);
    tampered.replace(pos, 7, "seed 98");
    error = parseManifest(tampered, "m", back);
    EXPECT_NE(error.find("grid hash mismatch"), std::string::npos);

    // Garbage line.
    error = parseManifest("lfcampaign-manifest v1\nwat 3\nend\n", "m",
                          back);
    EXPECT_NE(error.find("unknown manifest line"), std::string::npos);

    // Wrong version.
    error = parseManifest("lfcampaign-manifest v9\nend\n", "m", back);
    EXPECT_NE(error.find("unsupported manifest version"),
              std::string::npos);
}

TEST(Manifest, FileRoundTripAndMissingFile)
{
    const std::string dir = scratchDir("manifest_file");
    CampaignManifest manifest;
    ASSERT_EQ(planManifest(smallSpec(), 2, manifest), "");
    ASSERT_EQ(writeManifestFile(manifest, dir + "/manifest.txt"), "");

    CampaignManifest back;
    EXPECT_EQ(loadManifestFile(dir + "/manifest.txt", back), "");
    EXPECT_EQ(back.gridHash, manifest.gridHash);

    const std::string error =
        loadManifestFile(dir + "/absent.txt", back);
    EXPECT_NE(error.find("absent.txt"), std::string::npos);
    EXPECT_NE(error.find("cannot open"), std::string::npos);
}

// ---- Shard log ----

class ShardLogTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = scratchDir("shard_log");
        ASSERT_EQ(planManifest(smallSpec(), 2, manifest_), "");
    }

    /** Write rows [0, n) of shard 0 through a fresh writer. */
    void writeRows(int n)
    {
        ShardLogState state;
        ASSERT_EQ(loadShardLog(dir_, 0, manifest_.gridHash, 2,
                               manifest_.rows, state), "");
        ShardLogWriter writer;
        ASSERT_EQ(writer.open(dir_, 0, manifest_.gridHash, 2, state),
                  "");
        for (int i = 0; i < n; ++i) {
            ExperimentResult res = sampleResult();
            res.spec.trial = i;
            ASSERT_EQ(writer.append(
                          campaignRowIndex(manifest_, 0,
                                           static_cast<std::size_t>(i)),
                          res), "");
        }
    }

    std::string dir_;
    CampaignManifest manifest_;
};

TEST_F(ShardLogTest, RoundTripsRowsAndCheckpoints)
{
    writeRows(3);
    ShardLogState state;
    ASSERT_EQ(loadShardLog(dir_, 0, manifest_.gridHash, 2,
                           manifest_.rows, state), "");
    EXPECT_EQ(state.rows.size(), 3u);
    EXPECT_EQ(state.checkpointed.size(), 3u);
    for (const auto &[index, res] : state.rows) {
        EXPECT_EQ(state.checkpointed.count(index), 1u);
        EXPECT_TRUE(res.ok);
    }
}

TEST_F(ShardLogTest, KillTruncatedTailIsDroppedNotFatal)
{
    writeRows(3);
    // Simulate a kill mid-row-write: the last results line is cut in
    // half (no newline) and its checkpoint line — which is only
    // written after the row flushes — does not exist yet.
    const std::string resultsPath = shardResultsPath(dir_, 0);
    const std::string results = readAll(resultsPath);
    writeAll(resultsPath, results.substr(0, results.size() - 20));
    const std::string checkpointPath = shardCheckpointPath(dir_, 0);
    const std::string checkpoint = readAll(checkpointPath);
    const std::size_t lastDone =
        checkpoint.rfind("done", checkpoint.size() - 2);
    ASSERT_NE(lastDone, std::string::npos);
    writeAll(checkpointPath, checkpoint.substr(0, lastDone));

    ShardLogState state;
    ASSERT_EQ(loadShardLog(dir_, 0, manifest_.gridHash, 2,
                           manifest_.rows, state), "");
    // The damaged row is dropped (to be re-run); rows 0-1 survive.
    EXPECT_EQ(state.rows.size(), 2u);
    EXPECT_EQ(state.checkpointed.size(), 2u);
    EXPECT_LT(state.resultsValidBytes, results.size());

    // And a resumed writer truncates the damaged tails before
    // appending, so the files heal.
    ShardLogWriter writer;
    ASSERT_EQ(writer.open(dir_, 0, manifest_.gridHash, 2, state), "");
    ExperimentResult res = sampleResult();
    res.spec.trial = 2;
    ASSERT_EQ(writer.append(campaignRowIndex(manifest_, 0, 2), res),
              "");
    ShardLogState healed;
    ASSERT_EQ(loadShardLog(dir_, 0, manifest_.gridHash, 2,
                           manifest_.rows, healed), "");
    EXPECT_EQ(healed.rows.size(), 3u);
    EXPECT_EQ(healed.checkpointed.size(), 3u);
}

TEST_F(ShardLogTest, CheckpointTailDropRunsRowUncheckpointed)
{
    writeRows(3);
    const std::string path = shardCheckpointPath(dir_, 0);
    const std::string text = readAll(path);
    // Cut the last checkpoint line in half (kill between row flush
    // and checkpoint flush): the row stays, `done` is lost.
    writeAll(path, text.substr(0, text.size() - 3));

    ShardLogState state;
    ASSERT_EQ(loadShardLog(dir_, 0, manifest_.gridHash, 2,
                           manifest_.rows, state), "");
    EXPECT_EQ(state.rows.size(), 3u);
    EXPECT_EQ(state.checkpointed.size(), 2u);
    EXPECT_LT(state.checkpointValidBytes, text.size());
}

TEST_F(ShardLogTest, MalformedTerminatedLinesDiagnose)
{
    writeRows(2);
    const std::string path = shardResultsPath(dir_, 0);
    writeAll(path, readAll(path) + "row garbage here\n");

    ShardLogState state;
    const std::string error = loadShardLog(
        dir_, 0, manifest_.gridHash, 2, manifest_.rows, state);
    EXPECT_NE(error.find(path), std::string::npos);
    EXPECT_NE(error.find("line 4"), std::string::npos);
}

TEST_F(ShardLogTest, WrongCampaignOrShardHeaderRejected)
{
    writeRows(1);
    ShardLogState state;
    // Wrong grid hash.
    std::string error = loadShardLog(
        dir_, 0, std::string(16, '0'), 2, manifest_.rows, state);
    EXPECT_NE(error.find("different campaign"), std::string::npos);

    // Same files presented as another shard.
    const std::string other = shardResultsPath(dir_, 1);
    std::error_code ec;
    std::filesystem::copy_file(shardResultsPath(dir_, 0), other, ec);
    ASSERT_FALSE(ec);
    error = loadShardLog(dir_, 1, manifest_.gridHash, 2,
                         manifest_.rows, state);
    EXPECT_NE(error.find("different campaign or shard"),
              std::string::npos);
}

TEST_F(ShardLogTest, CheckpointWithoutResultIsCorruption)
{
    writeRows(1);
    const std::string path = shardCheckpointPath(dir_, 0);
    writeAll(path, readAll(path) + "done 2\n");

    ShardLogState state;
    const std::string error = loadShardLog(
        dir_, 0, manifest_.gridHash, 2, manifest_.rows, state);
    EXPECT_NE(error.find("checkpointed but missing"),
              std::string::npos);
}

// ---- Cache ----

TEST(ResultCacheTest, StoreLookupRoundTrip)
{
    const std::string root = scratchDir("cache");
    const ResultCache cache(root);
    const ExperimentResult res = sampleResult();

    ExperimentResult back;
    std::string error;
    EXPECT_FALSE(cache.lookup(res.spec, back, error)); // Cold miss.
    EXPECT_EQ(error, "");

    ASSERT_EQ(cache.store(res.spec, res), "");
    ASSERT_TRUE(cache.lookup(res.spec, back, error)) << error;
    EXPECT_EQ(back.result.errorRate, res.result.errorRate);
    EXPECT_EQ(back.result.transmissionKbps,
              res.result.transmissionKbps);

    // A different seed is a different content address.
    ExperimentSpec other = res.spec;
    other.seed ^= 1;
    EXPECT_FALSE(cache.lookup(other, back, error));
    EXPECT_EQ(error, "");
}

TEST(ResultCacheTest, DisabledCacheIsInert)
{
    const ResultCache cache;
    ExperimentResult back;
    std::string error;
    EXPECT_FALSE(cache.enabled());
    EXPECT_FALSE(cache.lookup(sampleResult().spec, back, error));
    EXPECT_EQ(error, "");
    EXPECT_EQ(cache.store(sampleResult().spec, sampleResult()), "");
}

TEST(ResultCacheTest, CorruptEntriesDiagnoseNotMiss)
{
    const std::string root = scratchDir("cache_corrupt");
    const ResultCache cache(root);
    const ExperimentResult res = sampleResult();
    ASSERT_EQ(cache.store(res.spec, res), "");
    const std::string path = cache.entryPath(res.spec);

    // Truncated entry.
    const std::string text = readAll(path);
    writeAll(path, text.substr(0, text.size() / 2));
    ExperimentResult back;
    std::string error;
    EXPECT_FALSE(cache.lookup(res.spec, back, error));
    EXPECT_EQ(error.rfind(path + ": ", 0), 0u) << error; // path: reason
    EXPECT_NE(error.find("corrupt"), std::string::npos);

    // An entry whose stored spec is a *different* trial (misfiled /
    // bit rot): must refuse, not serve the wrong result.
    ExperimentResult other = res;
    other.spec.seed ^= 1;
    std::string swapped =
        std::string("lfcampaign-cache v1\nkey ") +
        trialKey(res.spec) + "\nrow " +
        encodeResultRecord(0, other) + "\nend\n";
    writeAll(path, swapped);
    EXPECT_FALSE(cache.lookup(res.spec, back, error));
    EXPECT_NE(error.find("does not match"), std::string::npos);
}

} // namespace
} // namespace lf
