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

#include <atomic>
#include <filesystem>
#include <fstream>
#include <random>
#include <thread>
#include <vector>

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

/** Six trials of one cell: two seeds, three trial indices each, one
 *  of them an error row and one skipped. */
std::vector<ExperimentResult>
cellTrials()
{
    std::vector<ExperimentResult> trials;
    for (const std::uint64_t seed : {11ULL, 12ULL}) {
        for (int trial = 0; trial < 3; ++trial) {
            ExperimentResult res = sampleResult();
            res.spec.seed = seed;
            res.spec.trial = trial;
            res.result.errorRate =
                static_cast<double>(seed * 3 + trial) / 97.0;
            res.result.transmissionKbps += trial;
            trials.push_back(res);
        }
    }
    trials[1].ok = false;
    trials[1].error = "run guard tripped";
    trials[4].skipped = true;
    return trials;
}

/** A cache entry for @p spec's cell holding @p rows (lines without
 *  their newline) in the given order, with a matching checksum. */
std::string
sealedEntry(const ExperimentSpec &spec,
            const std::vector<std::string> &rows)
{
    std::string text = "lfcampaign-cache v2\ncell " + cellKey(spec) + "\n";
    for (const std::string &row : rows)
        text += row + "\n";
    return text + "end " + hashHex(fnv1a64(text)) + "\n";
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

TEST(GridHash, CellKeyIgnoresOnlySeedAndTrial)
{
    const ExperimentSpec spec = sampleResult().spec;
    const std::string key = cellKey(spec);
    EXPECT_EQ(key.size(), 16u);

    ExperimentSpec other = spec;
    other.seed ^= 1;
    other.trial = 8;
    EXPECT_EQ(cellKey(other), key);
    other = spec;
    other.overrides["rounds"] = 11.0;
    EXPECT_NE(cellKey(other), key);
    other = spec;
    other.label += "x";
    EXPECT_NE(cellKey(other), key);
    other = spec;
    other.messageBits = 49;
    EXPECT_NE(cellKey(other), key);
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

TEST_F(ShardLogTest, EditedOrFlippedRowsFailTheirChecksum)
{
    writeRows(3);
    const std::string path = shardResultsPath(dir_, 0);
    const std::string pristine = readAll(path);
    const auto load = [&](const std::string &text) {
        writeAll(path, text);
        ShardLogState state;
        return loadShardLog(dir_, 0, manifest_.gridHash, 2,
                            manifest_.rows, state);
    };
    ASSERT_EQ(load(pristine), "");

    // An edited outcome field that still decodes as a record.
    std::string edited = pristine;
    const std::size_t errorRate = edited.find("error_rate=0");
    ASSERT_NE(errorRate, std::string::npos);
    edited[errorRate + std::string("error_rate=").size()] = '5';
    EXPECT_EQ(load(edited), path + ": line 2: row checksum mismatch");

    // Byte flips at fixed-seed positions inside the row lines.
    const std::size_t rowsBegin = pristine.find('\n') + 1;
    std::mt19937_64 rng(0x6c6673686172646cULL);
    for (int flip = 0; flip < 300; ++flip) {
        std::size_t at = 0;
        do {
            at = rowsBegin + rng() % (pristine.size() - rowsBegin);
        } while (pristine[at] == '\n');
        std::string mutant = pristine;
        mutant[at] ^= static_cast<char>(1 + rng() % 255);
        const std::string error = load(mutant);
        EXPECT_EQ(error.rfind(path + ": line ", 0), 0u)
            << "flip at byte " << at << ": \"" << error << "\"";
    }

    // A results file of the previous format is refused, not misread.
    std::string v1 = pristine;
    v1[pristine.find(" v2") + 2] = '1';
    EXPECT_NE(load(v1).find("not a lfcampaign-results v2 file"),
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

    // A row misfiled from another seed: its record is a different
    // trial than the key it is filed under. The entry is otherwise
    // well formed, checksum included, so only the content-address
    // check stands between it and a wrong result.
    ExperimentResult other = res;
    other.spec.seed ^= 1;
    writeAll(path, sealedEntry(res.spec,
                               {"row " + trialKey(res.spec) + " " +
                                encodeResultRecord(0, other)}));
    EXPECT_FALSE(cache.lookup(res.spec, back, error));
    EXPECT_NE(error.find("does not match"), std::string::npos);
    EXPECT_NE(error.find("corrupt"), std::string::npos);

    // A well-keyed row of another cell filed in this cell's entry.
    other = res;
    other.spec.overrides["rounds"] = 11.0;
    writeAll(path, sealedEntry(res.spec,
                               {"row " + trialKey(other.spec) + " " +
                                encodeResultRecord(0, other)}));
    EXPECT_FALSE(cache.lookup(res.spec, back, error));
    EXPECT_NE(error.find("does not match the cell"), std::string::npos);
}

TEST(ResultCacheTest, OneEntryPerCellMergesDeterministically)
{
    const std::vector<ExperimentResult> trials = cellTrials();
    const std::vector<ExperimentResult> seedA(trials.begin(),
                                              trials.begin() + 3);
    const std::vector<ExperimentResult> seedB(trials.begin() + 3,
                                              trials.end());
    const ResultCache cache(scratchDir("cache_merge"));
    ASSERT_EQ(cache.storeCell(seedA), "");
    ASSERT_EQ(cache.storeCell(seedB), "");
    for (const ExperimentResult &want : trials) {
        ExperimentResult back;
        std::string error;
        ASSERT_TRUE(cache.lookup(want.spec, back, error)) << error;
        EXPECT_EQ(encodeResultRecord(0, back),
                  encodeResultRecord(0, want));
        EXPECT_EQ(cache.entryPath(want.spec),
                  cache.entryPath(trials[0].spec));
    }
    ResultCache::CellRows rows;
    ASSERT_EQ(cache.loadCell(trials[0].spec, rows), "");
    EXPECT_EQ(rows.size(), trials.size());

    // Rows sort by trial key: any store order gives the same bytes.
    const ResultCache reversed(scratchDir("cache_merge_reversed"));
    for (auto it = trials.rbegin(); it != trials.rend(); ++it)
        ASSERT_EQ(reversed.store(it->spec, *it), "");
    EXPECT_EQ(readAll(reversed.entryPath(trials[0].spec)),
              readAll(cache.entryPath(trials[0].spec)));

    // A new row of a stored trial replaces it; the others stay.
    ExperimentResult updated = trials[1];
    updated.result.errorRate = 0.5;
    ASSERT_EQ(cache.storeCell({updated}), "");
    ASSERT_EQ(cache.loadCell(trials[0].spec, rows), "");
    EXPECT_EQ(rows.size(), trials.size());
    EXPECT_EQ(rows.at(canonicalTrialText(updated.spec))
                  .result.errorRate, 0.5);

    // Trials of another cell, or a result stored under another
    // trial's spec, are refused without touching the entry.
    const std::string before = readAll(cache.entryPath(updated.spec));
    ExperimentResult stranger = trials[0];
    stranger.spec.overrides["rounds"] = 11.0;
    EXPECT_NE(cache.storeCell({trials[0], stranger}), "");
    EXPECT_NE(cache.store(trials[0].spec, trials[2]), "");
    EXPECT_EQ(readAll(cache.entryPath(updated.spec)), before);
}

TEST(ResultCacheTest, OneTrialPerFileEntriesAreIgnored)
{
    // The older layout filed one trial per file under its trial key;
    // the cell-keyed layout never opens those files.
    const std::string root = scratchDir("cache_v1");
    const ResultCache cache(root);
    const ExperimentResult res = sampleResult();
    const std::string key = trialKey(res.spec);
    fs::create_directories(root + "/" + key.substr(0, 2));
    writeAll(root + "/" + key.substr(0, 2) + "/" + key + ".rec",
             "lfcampaign-cache v1\nkey " + key + "\nrow " +
                 encodeResultRecord(0, res) + "\nend\n");
    ExperimentResult back;
    std::string error;
    EXPECT_FALSE(cache.lookup(res.spec, back, error));
    EXPECT_EQ(error, "");
}

TEST(ResultCacheTest, MutatedEntriesServeExactRowsOrDiagnose)
{
    const std::string root = scratchDir("cache_fuzz");
    const ResultCache cache(root);
    const std::vector<ExperimentResult> trials = cellTrials();
    ASSERT_EQ(cache.storeCell(trials), "");
    const std::string path = cache.entryPath(trials[0].spec);
    const std::string pristine = readAll(path);

    std::vector<std::string> lines; // Newline-terminated.
    for (std::size_t at = 0; at < pristine.size();) {
        const std::size_t end = pristine.find('\n', at) + 1;
        lines.push_back(pristine.substr(at, end - at));
        at = end;
    }
    ASSERT_EQ(lines.size(), trials.size() + 3);
    const auto join = [](const std::vector<std::string> &parts) {
        std::string out;
        for (const std::string &part : parts)
            out += part;
        return out;
    };

    std::vector<std::string> mutants;
    // Truncation at every line boundary and inside every line.
    std::size_t at = 0;
    for (const std::string &line : lines) {
        mutants.push_back(pristine.substr(0, at));
        mutants.push_back(pristine.substr(0, at + line.size() / 2));
        mutants.push_back(pristine.substr(0, at + line.size() - 1));
        at += line.size();
    }
    // Byte flips at fixed-seed positions.
    std::mt19937_64 rng(0x6c66636163686531ULL);
    for (int flip = 0; flip < 400; ++flip) {
        std::string mutant = pristine;
        mutant[rng() % mutant.size()] ^=
            static_cast<char>(1 + rng() % 255);
        mutants.push_back(mutant);
    }
    // Row lines duplicated, swapped with the next, and dropped.
    const std::size_t firstRow = 2;
    const std::size_t lastRow = lines.size() - 2;
    for (std::size_t row = firstRow; row <= lastRow; ++row) {
        std::vector<std::string> edited = lines;
        edited.insert(edited.begin() + row, lines[row]);
        mutants.push_back(join(edited));
        if (row < lastRow) {
            edited = lines;
            std::swap(edited[row], edited[row + 1]);
            mutants.push_back(join(edited));
        }
        edited = lines;
        edited.erase(edited.begin() + row);
        mutants.push_back(join(edited));
    }

    std::size_t diagnosed = 0;
    for (const std::string &mutant : mutants) {
        ASSERT_NE(mutant, pristine);
        writeAll(path, mutant);
        for (const ExperimentResult &want : trials) {
            ExperimentResult back;
            std::string error;
            if (cache.lookup(want.spec, back, error)) {
                EXPECT_EQ(encodeResultRecord(0, back),
                          encodeResultRecord(0, want))
                    << "served another row from:\n" << mutant;
                continue;
            }
            ASSERT_NE(error, "") << "damage read as a miss:\n" << mutant;
            EXPECT_EQ(error.rfind(path + ": ", 0), 0u) << error;
            EXPECT_NE(error.find("corrupt"), std::string::npos) << error;
            ++diagnosed;
        }
    }
    EXPECT_GT(diagnosed, 0u);

    // Behind the checksum, the row checks hold on their own: row edits
    // that re-seal the checksum are still refused, except a dropped
    // row, which leaves a smaller but sound entry.
    const std::vector<std::string> rowLines(lines.begin() + firstRow,
                                            lines.begin() + lastRow + 1);
    const auto strip = [](std::vector<std::string> parts) {
        for (std::string &part : parts)
            part.pop_back();
        return parts;
    };
    std::vector<std::string> edited = rowLines;
    edited.push_back(rowLines.back());
    writeAll(path, sealedEntry(trials[0].spec, strip(edited)));
    ExperimentResult back;
    std::string error;
    EXPECT_FALSE(cache.lookup(trials[0].spec, back, error));
    EXPECT_NE(error.find("order"), std::string::npos) << error;
    edited = rowLines;
    std::swap(edited[0], edited[1]);
    writeAll(path, sealedEntry(trials[0].spec, strip(edited)));
    EXPECT_FALSE(cache.lookup(trials[0].spec, back, error));
    EXPECT_NE(error.find("order"), std::string::npos) << error;
    edited = rowLines;
    edited.erase(edited.begin());
    writeAll(path, sealedEntry(trials[0].spec, strip(edited)));
    std::size_t misses = 0;
    for (const ExperimentResult &want : trials) {
        if (cache.lookup(want.spec, back, error)) {
            EXPECT_EQ(encodeResultRecord(0, back),
                      encodeResultRecord(0, want));
        } else {
            EXPECT_EQ(error, "");
            ++misses;
        }
    }
    EXPECT_EQ(misses, 1u);
}

// ---- Atomic writes ----

TEST(AtomicWrite, ConcurrentWritersOfOnePathNeverCollide)
{
    const std::string dir = scratchDir("atomic_race");
    const std::string path = dir + "/entry.rec";
    const std::string bodies[2] = {std::string(4000, 'a') + "\n",
                                   std::string(3000, 'b') + "\n"};
    ASSERT_EQ(writeFileAtomic(path, bodies[0]), "");
    std::atomic<int> errors{0};
    std::atomic<int> torn{0};
    const auto writer = [&](int which) {
        for (int i = 0; i < 300; ++i) {
            if (!writeFileAtomic(path, bodies[which]).empty())
                ++errors;
            std::string text;
            if (!readFileText(path, text).empty() ||
                (text != bodies[0] && text != bodies[1])) {
                ++torn;
            }
        }
    };
    std::thread first(writer, 0);
    std::thread second(writer, 1);
    first.join();
    second.join();
    EXPECT_EQ(errors.load(), 0);
    EXPECT_EQ(torn.load(), 0);
    // No temporary file is left behind.
    std::size_t files = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        (void)entry;
        ++files;
    }
    EXPECT_EQ(files, 1u);
}

} // namespace
} // namespace lf
