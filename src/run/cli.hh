/**
 * @file
 * Argument-parsing helpers shared by the lf_run CLI and its tests.
 *
 * Everything here is strict on purpose: numbers must consume their
 * whole token ("40x" is rejected, std::stod would silently read 40),
 * duplicate keys are an error (silently keeping the last --set d=...
 * hid typos), and every function reports failures as returned error
 * strings so the CLI can print them without exiting from library
 * code.
 */

#ifndef LF_RUN_CLI_HH
#define LF_RUN_CLI_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>

#include "run/sweep.hh"

namespace lf {

/** Parse a double consuming the entire token; rejects empty input,
 *  trailing garbage, and non-finite values. */
bool parseStrictDouble(const std::string &text, double &out);

/** Parse a non-negative integer consuming the entire token. */
bool parseStrictUint64(const std::string &text, std::uint64_t &out);

/** Parse an int consuming the entire token. */
bool parseStrictInt(const std::string &text, int &out);

/**
 * Parse one --set argument ("KEY=VALUE") into @p overrides. Rejects
 * malformed tokens, unparsable values, and keys already present from
 * an earlier --set. The grammar is key-agnostic — ChannelConfig,
 * "model.*", and "env.*" keys all pass through here; key *existence*
 * (and a key that is also a sweep axis) is rejected later by
 * validateSweepSpec().
 * @return an error message or the empty string.
 */
std::string parseSetArg(const std::string &text,
                        std::map<std::string, double> &overrides);

/**
 * Parse one --sweep argument into @p axes. Grammar, comma-separated:
 *
 *   KEY=LO:HI:STEP   inclusive range (STEP > 0, LO <= HI, at most
 *                    kMaxSweepTrials points)
 *   KEY=V1|V2|...    explicit value list
 *   KEY=VALUE        single value
 *
 * e.g. "d=20:200:20" or "d=1:8:1,rounds=5|10|20". Duplicate keys
 * across all --sweep arguments are rejected.
 * @return an error message or the empty string.
 */
std::string parseSweepArg(const std::string &text,
                          std::vector<SweepAxis> &axes);

/**
 * The flags that define a sweep grid, shared by lf_run and `lf_campaign
 * plan` so one command line builds the same grid in both: --channel
 * and --cpu (repeatable), --trials, --seed, --bits, --pattern,
 * --preamble, --set and --sweep. parseGridFlag() applies one of them
 * (isGridFlag()) with its value to @p sweep and returns an error
 * message or the empty string. expandGridNames() finishes the grid: a
 * lone "all" channel becomes every registered channel, and no CPU or
 * a lone "all" every CPU model.
 */
bool isGridFlag(const std::string &flag);
std::string parseGridFlag(const std::string &flag,
                          const std::string &value, SweepSpec &sweep);
void expandGridNames(SweepSpec &sweep);

/** Parse an "i/n" shard selector (0 <= i < n). */
std::string parseShardArg(const std::string &text, SweepShard &shard);

/**
 * Rate-limited live progress line on stderr, shared by `lf_run
 * --progress` and `lf_campaign run-shard --progress`: carriage-
 * return-overwritten "done/total, trials/sec, ETA" plus an optional
 * caller extra (the campaign appends its cache-hit rate). Purely
 * observational — it never touches stdout, so piped output stays
 * clean.
 */
class ProgressMeter
{
  public:
    /** @param label Tag printed as "[label]"; @param total Work-item
     *  count the ETA is computed against. */
    ProgressMeter(std::string label, std::size_t total);

    /** Injectable time source for tests (default: steady_clock).
     *  Install before the first update(); installing one restarts
     *  the meter. */
    using Clock =
        std::function<std::chrono::steady_clock::time_point()>;
    void setClock(Clock clock);

    /** Redirect the drawn line (default: stderr). Tests point this
     *  at a tmpfile; null suppresses drawing entirely (the rate/ETA
     *  getters still update). */
    void setSink(std::FILE *sink);

    /**
     * Report @p done items complete (monotonic). Redraws at most
     * every 0.1 s, plus exactly one unthrottled final redraw when
     * @p done first reaches the total (repeat final updates fall
     * back to the throttle instead of spamming the line). @p extra
     * is appended verbatim to the line.
     *
     * The displayed rate is a moving-window average (~5 s of recent
     * samples), not the lifetime mean: after a burst — e.g. a
     * resumed campaign replaying thousands of cached rows in
     * milliseconds — a lifetime rate would keep promising an
     * absurdly near ETA for the rest of the run. Every call feeds
     * the window, throttled or not, so bursts between redraws still
     * shape the next drawn rate.
     */
    void update(std::size_t done, const std::string &extra = "");

    /** Terminate the progress line (newline) if anything was drawn. */
    void finish();

    /** Terminate by overwriting the progress line with @p line (the
     *  final frame becomes a durable summary — `lf_run --progress`
     *  ends on the RunMetrics one-liner instead of a stale ETA). The
     *  replacement is padded to cover the old frame, then newline-
     *  terminated. If nothing was ever drawn the line still prints,
     *  so short runs get their summary too. */
    void finishWith(const std::string &line);

    /** @name Last computed values (for tests and callers) */
    /// @{
    /** Windowed trials/s as of the last update (0 until the window
     *  spans any time). */
    double rate() const { return rate_; }
    /** Remaining-work estimate in seconds from the windowed rate
     *  (0 while the rate is 0). */
    double etaSeconds() const { return eta_; }
    /// @}

  private:
    std::chrono::steady_clock::time_point now() const;
    void recomputeRate(std::chrono::steady_clock::time_point t,
                       std::size_t done);

    std::string label_;
    std::size_t total_;
    std::FILE *sink_;
    Clock clock_; //!< Null: use steady_clock directly.
    bool drew_ = false;
    bool finalDrawn_ = false;
    double rate_ = 0.0;
    double eta_ = 0.0;
    std::chrono::steady_clock::time_point lastUpdate_;
    /** (time, done) samples covering the rate window. */
    std::deque<std::pair<std::chrono::steady_clock::time_point,
                         std::size_t>>
        samples_;
};

/**
 * The registry catalog the CLI prints for --list-channels: every
 * registered channel (name, constraints, defaults, description) plus
 * the CPU-model names. Rendered from the registry itself, so the
 * listing cannot drift from what --channel accepts.
 */
std::string renderChannelCatalog();

/**
 * The override-key catalog the CLI prints for --list-axes: every key
 * --set/--sweep accepts, grouped by family (ChannelConfig/extras,
 * "model." CPU knobs, "env." environment knobs, "defense."
 * mitigation knobs). Sourced from the same key tables the override
 * appliers use, so the listing cannot drift from the parser.
 */
std::string renderOverrideKeyCatalog();

/**
 * The counter catalog the CLI prints for --list-counters: every
 * obs::CounterSet field (name and description), rendered from
 * obs::counterCatalog() itself so the listing cannot drift from what
 * the counters actually record. scripts/check_docs.sh diffs this
 * against docs/OBSERVABILITY.md.
 */
std::string renderCounterCatalog();

} // namespace lf

#endif // LF_RUN_CLI_HH
