#include "campaign/shard_log.hh"

#include <filesystem>
#include <system_error>

#include "campaign/files.hh"
#include "campaign/grid_hash.hh"
#include "campaign/record.hh"
#include "run/cli.hh"

namespace lf {

namespace {

constexpr const char *kResultsMagic = "lfcampaign-results v2";
/** Separates a results row from the FNV-1a checksum of its text. */
constexpr const char *kRowSum = " sum=";
constexpr const char *kCheckpointMagic = "lfcampaign-checkpoint v1";

std::string
headerLine(const char *magic, const std::string &gridHash,
           const SweepShard &shard)
{
    return std::string(magic) + " " + gridHash + " shard " +
        std::to_string(shard.index) + "/" +
        std::to_string(shard.count);
}

/**
 * Walk @p text line by line, calling @p onLine(lineNo, line) for each
 * *terminated* line; @p validBytes ends up at the start of an
 * unterminated trailing partial line (== size() when none) — the only
 * kind of damage a kill can cause, and the only kind tolerated.
 * onLine returns an error string to abort.
 */
template <typename OnLine>
std::string
scanLines(const std::string &text, std::size_t &validBytes,
          const OnLine &onLine)
{
    std::size_t start = 0;
    std::size_t lineNo = 0;
    validBytes = 0;
    while (start < text.size()) {
        const std::size_t end = text.find('\n', start);
        if (end == std::string::npos)
            break; // Partial trailing line: drop, validBytes stays.
        ++lineNo;
        const std::string error =
            onLine(lineNo, text.substr(start, end - start));
        if (!error.empty())
            return error;
        start = end + 1;
        validBytes = start;
    }
    return "";
}

/** Validate a header line against the expected magic/hash/shard. */
std::string
checkHeader(const std::string &line, const char *magic,
            const std::string &gridHash, const SweepShard &shard)
{
    const std::string expected = headerLine(magic, gridHash, shard);
    if (line == expected)
        return "";
    if (line.compare(0, std::string(magic).size(), magic) != 0)
        return "not a " + std::string(magic) + " file";
    return "header mismatch (want \"" + expected + "\", found \"" +
        line + "\") — file belongs to a different campaign or shard";
}

} // namespace

std::string
shardResultsPath(const std::string &dir, int shard)
{
    return dir + "/shard-" + std::to_string(shard) + ".results";
}

std::string
shardCheckpointPath(const std::string &dir, int shard)
{
    return dir + "/shard-" + std::to_string(shard) + ".checkpoint";
}

std::string
loadShardResults(const std::string &path, const std::string &gridHash,
                 const SweepShard &shard, std::size_t totalRows,
                 ShardLogState &state)
{
    std::string text;
    std::string error = readFileText(path, text);
    if (!error.empty())
        return error;

    error = scanLines(text, state.resultsValidBytes,
        [&](std::size_t lineNo, const std::string &line) {
            const auto fail = [&](const std::string &reason) {
                return path + ": line " + std::to_string(lineNo) +
                    ": " + reason;
            };
            if (lineNo == 1) {
                const std::string bad = checkHeader(
                    line, kResultsMagic, gridHash, shard);
                return bad.empty() ? std::string() : fail(bad);
            }
            if (line.compare(0, 4, "row ") != 0)
                return fail("expected a \"row\" line");
            const std::size_t sum = line.rfind(kRowSum);
            if (sum == std::string::npos ||
                line.substr(sum + std::string(kRowSum).size()) !=
                    hashHex(fnv1a64(line.substr(0, sum)))) {
                return fail("row checksum mismatch");
            }
            std::size_t index = 0;
            ExperimentResult res;
            const std::string bad =
                decodeResultRecord(line.substr(4, sum - 4), index, res);
            if (!bad.empty())
                return fail(bad);
            if (index >= totalRows) {
                return fail("row index " + std::to_string(index) +
                            " out of range (campaign has " +
                            std::to_string(totalRows) + " rows)");
            }
            if (!state.rows.emplace(index, std::move(res)).second) {
                return fail("duplicate row index " +
                            std::to_string(index));
            }
            return std::string();
        });
    return error;
}

namespace {

std::string
loadShardCheckpoint(const std::string &path,
                    const std::string &gridHash,
                    const SweepShard &shard, std::size_t totalRows,
                    ShardLogState &state)
{
    std::string text;
    std::string error = readFileText(path, text);
    if (!error.empty())
        return error;

    return scanLines(text, state.checkpointValidBytes,
        [&](std::size_t lineNo, const std::string &line) {
            const auto fail = [&](const std::string &reason) {
                return path + ": line " + std::to_string(lineNo) +
                    ": " + reason;
            };
            if (lineNo == 1) {
                const std::string bad = checkHeader(
                    line, kCheckpointMagic, gridHash, shard);
                return bad.empty() ? std::string() : fail(bad);
            }
            if (line.compare(0, 5, "done ") != 0)
                return fail("expected a \"done\" line");
            std::uint64_t index = 0;
            if (!parseStrictUint64(line.substr(5), index)) {
                return fail("bad row index \"" + line.substr(5) +
                            "\"");
            }
            if (index >= totalRows) {
                return fail("row index " + std::to_string(index) +
                            " out of range (campaign has " +
                            std::to_string(totalRows) + " rows)");
            }
            if (!state.checkpointed
                     .insert(static_cast<std::size_t>(index))
                     .second) {
                return fail("duplicate row index " +
                            std::to_string(index));
            }
            return std::string();
        });
}

} // namespace

std::string
loadShardLog(const std::string &dir, int shard,
             const std::string &gridHash, int shardCount,
             std::size_t totalRows, ShardLogState &state)
{
    state = ShardLogState{};
    SweepShard selector;
    selector.index = shard;
    selector.count = shardCount;

    const std::string resultsPath = shardResultsPath(dir, shard);
    const std::string checkpointPath = shardCheckpointPath(dir, shard);
    if (pathExists(resultsPath)) {
        const std::string error = loadShardResults(
            resultsPath, gridHash, selector, totalRows, state);
        if (!error.empty())
            return error;
    }
    if (pathExists(checkpointPath)) {
        const std::string error = loadShardCheckpoint(
            checkpointPath, gridHash, selector, totalRows, state);
        if (!error.empty())
            return error;
    }
    // Write ordering guarantees checkpoint ⊆ results; the converse
    // gap (row landed, `done` lost to a kill) is healed by the
    // runner, but a checkpointed row with no result is corruption.
    for (const std::size_t index : state.checkpointed) {
        if (state.rows.count(index) == 0) {
            return checkpointPath + ": row " + std::to_string(index) +
                " is checkpointed but missing from " + resultsPath +
                " — shard state corrupt (delete both files to re-run"
                " the shard)";
        }
    }
    return "";
}

std::string
ShardLogWriter::open(const std::string &dir, int shard,
                     const std::string &gridHash, int shardCount,
                     const ShardLogState &state)
{
    SweepShard selector;
    selector.index = shard;
    selector.count = shardCount;
    resultsPath_ = shardResultsPath(dir, shard);
    checkpointPath_ = shardCheckpointPath(dir, shard);

    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return dir + ": cannot create directory (" + ec.message() + ")";

    const auto prepare = [&](const std::string &path,
                             std::size_t validBytes,
                             const char *magic, std::ofstream &os) {
        const bool fresh = validBytes == 0;
        if (!fresh && pathExists(path)) {
            // Cut off a kill-truncated partial tail before appending.
            std::error_code resizeEc;
            std::filesystem::resize_file(path, validBytes, resizeEc);
            if (resizeEc) {
                return path + ": cannot truncate damaged tail (" +
                    resizeEc.message() + ")";
            }
        }
        os.open(path, fresh ? (std::ios::out | std::ios::trunc)
                            : (std::ios::out | std::ios::app));
        if (!os)
            return path + ": cannot open for appending";
        if (fresh) {
            os << headerLine(magic, gridHash, selector) << "\n";
            os.flush();
            if (!os.good())
                return path + ": header write failed";
        }
        return std::string();
    };

    std::string error = prepare(resultsPath_, state.resultsValidBytes,
                                kResultsMagic, results_);
    if (!error.empty())
        return error;
    return prepare(checkpointPath_, state.checkpointValidBytes,
                   kCheckpointMagic, checkpoint_);
}

std::string
ShardLogWriter::append(std::size_t index, const ExperimentResult &res)
{
    // Row first, flushed, *then* the checkpoint line: a kill between
    // the two leaves a row without `done`, which resume heals; the
    // reverse order could checkpoint a row that never landed.
    const std::string row = "row " + encodeResultRecord(index, res);
    results_ << row << kRowSum << hashHex(fnv1a64(row)) << "\n";
    results_.flush();
    if (!results_.good())
        return resultsPath_ + ": write failed";
    return appendCheckpoint(index);
}

std::string
ShardLogWriter::appendCheckpoint(std::size_t index)
{
    checkpoint_ << "done " << index << "\n";
    checkpoint_.flush();
    if (!checkpoint_.good())
        return checkpointPath_ + ": write failed";
    return "";
}

} // namespace lf
