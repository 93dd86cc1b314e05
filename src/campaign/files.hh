/**
 * @file
 * Tiny filesystem helpers shared by the campaign file formats.
 *
 * Everything reports failure as a returned error string naming the
 * path and the reason — campaign code never throws or aborts on bad
 * input files, it diagnoses them (the CLI prints the string and
 * exits; tests assert on it).
 *
 * writeFileAtomic() is the one write primitive for whole-file
 * artifacts (manifest, cache entries): content lands under a
 * temporary name in the target directory and is renamed into place,
 * so readers never observe a half-written file even if the writer is
 * killed. Append-mode artifacts (shard results, checkpoints) instead
 * use the shard log's truncation-tolerant loader.
 */

#ifndef LF_CAMPAIGN_FILES_HH
#define LF_CAMPAIGN_FILES_HH

#include <string>

namespace lf {

/** Read all of @p path into @p out.
 *  @return an error message ("path: reason") or the empty string. */
std::string readFileText(const std::string &path, std::string &out);

/** Write @p content to @p path atomically (temp file in the same
 *  directory, then rename). Creates parent directories. Concurrent
 *  calls on one path, from threads or processes, each use their own
 *  temp file; the last rename wins.
 *  @return an error message or the empty string. */
std::string writeFileAtomic(const std::string &path,
                            const std::string &content);

/** Does @p path exist (as any kind of file)? */
bool pathExists(const std::string &path);

} // namespace lf

#endif // LF_CAMPAIGN_FILES_HH
