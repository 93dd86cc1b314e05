/**
 * @file
 * Content-addressed result cache: repeated campaigns are incremental.
 *
 * Every trial is a pure function of its fully-expanded spec, so its
 * result can be cached under trialKey(spec) — a content address that
 * covers the channel, CPU, overrides, message parameters, seed, and
 * trial index. Overlapping or re-planned campaigns (same cells,
 * different sharding; a grid grown by one axis value; a straight
 * re-run) then skip every trial they share with history.
 *
 * One entry holds one sweep cell: `<root>/<c[0:2]>/<c>.rec`, where c
 * is cellKey(spec), lists every stored trial of that cell (any seed,
 * any trial index) as one row under its trial key, sorted by key so
 * equal contents give equal bytes. A campaign reads each cell's entry
 * once and writes it once (storeCell(): read, merge, rewrite), so a
 * cold campaign creates one file per cell, not one per trial.
 *
 * Entries are written atomically (writeFileAtomic), so a kill never
 * leaves a partial entry. Two processes storing the same cell at once
 * can lose each other's rows (the last rename wins); that costs later
 * misses, never a wrong row. Within one campaign shards never share a
 * cell. On read an entry must parse exactly, its closing checksum must
 * match, and every row's stored spec must hash back to its own trial
 * key and to the entry's cell key — a corrupt, truncated, or misfiled
 * entry is a diagnosed error (path + reason), never a silent wrong
 * result and never treated as a mere miss (per the file-hardening
 * contract; delete the named file to recover). Entries of the older
 * one-trial-per-file layout (`lfcampaign-cache v1`) are filed under
 * trial keys, so no lookup ever opens them: they are ignored.
 */

#ifndef LF_CAMPAIGN_CACHE_HH
#define LF_CAMPAIGN_CACHE_HH

#include <map>
#include <string>
#include <vector>

#include "run/experiment.hh"

namespace lf {

class ResultCache
{
  public:
    /** One cell's stored trials, keyed by canonicalTrialText(). */
    using CellRows = std::map<std::string, ExperimentResult>;

    /** @param root Cache directory; empty disables the cache (every
     *  lookup misses, every store is a no-op). */
    explicit ResultCache(std::string root = "");

    bool enabled() const { return !root_.empty(); }
    const std::string &root() const { return root_; }

    /** Entry file of @p spec's cell (valid only when enabled). */
    std::string entryPath(const ExperimentSpec &spec) const;

    /**
     * Read the entry of @p spec's cell into @p rows (cleared first; a
     * missing entry leaves it empty).
     * @return "" or the corrupt-entry diagnostic (path and reason).
     */
    std::string loadCell(const ExperimentSpec &spec,
                         CellRows &rows) const;

    /**
     * Merge @p results, trials of one cell, into that cell's entry and
     * rewrite it with one atomic write. Stored rows of other trials
     * (other seeds, larger grids) are kept; a stored row of the same
     * trial is replaced. @return an error message or "".
     */
    std::string storeCell(const std::vector<ExperimentResult> &results)
        const;

    /**
     * Look @p spec up. Outcomes: hit (@return true, @p res filled),
     * miss (@return false, @p error empty), or corrupt entry
     * (@return false, @p error names the path and reason).
     */
    bool lookup(const ExperimentSpec &spec, ExperimentResult &res,
                std::string &error) const;

    /** Store @p res, the result of @p spec, into its cell's entry
     *  (storeCell() of one row). @return an error message or "". */
    std::string store(const ExperimentSpec &spec,
                      const ExperimentResult &res) const;

  private:
    std::string root_;
};

} // namespace lf

#endif // LF_CAMPAIGN_CACHE_HH
