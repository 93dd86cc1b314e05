/**
 * @file
 * Per-shard on-disk state: the append-only results file and the
 * checkpoint.
 *
 * A shard writes two files, both headed by the campaign's grid hash
 * and the shard's i/n selector (so state can never be replayed into a
 * different campaign or shard):
 *
 *   shard-<i>.results     "row <record> sum=<checksum>" lines — one
 *                         encoded ExperimentResult per completed
 *                         trial, in completion order, each carrying
 *                         its global row index (see record.hh) and
 *                         the FNV-1a hash of the text before " sum=";
 *   shard-<i>.checkpoint  "done <index>" lines — appended *after* the
 *                         row is durably in the results file.
 *
 * Crash contract: each row is written and flushed before its `done`
 * line, so on reload `checkpoint ⊆ results` always holds; a violation
 * means external corruption and is a hard error. A kill can leave at
 * most one *unterminated* trailing line in either file — that is the
 * only damage tolerated silently: the partial tail is dropped (and
 * truncated away before appending resumes) and its trial simply
 * re-runs. Any malformed *terminated* line, in either file, is a
 * diagnosed error naming the path, line, and reason — corruption is
 * never skipped over, because a skipped row would silently change the
 * merged summary.
 */

#ifndef LF_CAMPAIGN_SHARD_LOG_HH
#define LF_CAMPAIGN_SHARD_LOG_HH

#include <cstddef>
#include <fstream>
#include <map>
#include <set>
#include <string>

#include "run/experiment.hh"
#include "run/sweep.hh"

namespace lf {

/** Everything reloaded from one shard's files. */
struct ShardLogState
{
    /** Completed rows by global index (results-file content). */
    std::map<std::size_t, ExperimentResult> rows;
    /** Indices the checkpoint records (always a subset of rows). */
    std::set<std::size_t> checkpointed;
    /** Byte length of the valid prefix of each file; anything past it
     *  is a kill-truncated partial line the writer must cut off. */
    std::size_t resultsValidBytes = 0;
    std::size_t checkpointValidBytes = 0;
};

/** The shard-state file names inside a campaign directory. */
std::string shardResultsPath(const std::string &dir, int shard);
std::string shardCheckpointPath(const std::string &dir, int shard);

/**
 * Load the results file at @p path (it must exist). Validates the
 * header against @p gridHash / @p shard, checks every terminated row
 * line's checksum and decodes it strictly, rejects duplicate and
 * out-of-range (>= @p totalRows) indices, and drops an unterminated
 * trailing line.
 * @return an error message ("path: line N: reason") or "".
 */
std::string loadShardResults(const std::string &path,
                             const std::string &gridHash,
                             const SweepShard &shard,
                             std::size_t totalRows,
                             ShardLogState &state);

/**
 * Load both shard files into @p state. Missing files mean a fresh
 * shard (empty state, no error); a checkpoint entry without its
 * results row is corruption and fails.
 */
std::string loadShardLog(const std::string &dir, int shard,
                         const std::string &gridHash, int shardCount,
                         std::size_t totalRows, ShardLogState &state);

/**
 * Append-side handle: opens (creating + writing headers, or resuming
 * — truncating kill-damaged tails to the valid prefix recorded in
 * @p state) and appends row/checkpoint pairs with the crash-ordering
 * contract above.
 */
class ShardLogWriter
{
  public:
    /** Open for appending. @return an error message or "". */
    std::string open(const std::string &dir, int shard,
                     const std::string &gridHash, int shardCount,
                     const ShardLogState &state);

    /** Write one completed row (results line, flush, checkpoint line,
     *  flush). @return an error message or "". */
    std::string append(std::size_t index, const ExperimentResult &res);

    /** Append a checkpoint line only — used on resume for rows whose
     *  result landed but whose `done` line was lost to a kill. */
    std::string appendCheckpoint(std::size_t index);

  private:
    std::ofstream results_;
    std::ofstream checkpoint_;
    std::string resultsPath_;
    std::string checkpointPath_;
};

} // namespace lf

#endif // LF_CAMPAIGN_SHARD_LOG_HH
