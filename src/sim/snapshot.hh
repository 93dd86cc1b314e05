/**
 * @file
 * Warm-state snapshot cache: amortize per-trial calibration across
 * the trials of one sweep cell.
 *
 * Every CovertChannel::transmit() replays the Sec. VI-B calibration
 * preamble on a freshly built Core, yet all trials of a cell share
 * one resolved config — and under a quiet environment the whole
 * warmup + preamble trajectory is bit-identical across seeds. The
 * PreparedChain cache (frontend/prepared.hh) already shares the
 * *program* side of that repeated work; this module shares the
 * *state* side: after the first trial of a cell calibrates, its full
 * deterministic core state (frontend pipeline/DSB/L1i/BPU/LSD state,
 * backend, RAPL energy state, environment/defense slot state) plus
 * the calibrated decoding reference is captured into an immutable
 * WarmSnapshot, and later trials of the same cell restore it and run
 * straight into the message phase.
 *
 * Correctness is never config-dependent guesswork:
 *
 *  - The RNG-draw tripwire (rngThreadDraws()): a snapshot is captured
 *    only when the whole setup + warmup + preamble consumed zero RNG
 *    draws on the worker thread — which proves the post-calibration
 *    state is independent of the trial seed. Noisy environments,
 *    stochastic defenses and non-zero model noise all trip it, and
 *    those cells transparently fall back to the cold path (a negative
 *    cache entry remembers the verdict).
 *  - Pointer pinning: a core image holds pointers into shared
 *    PreparedChains; capture fails (and the cell bypasses) unless
 *    every bound decode is owned by the prepared-chain cache, and the
 *    snapshot then pins those chains alive for its own lifetime.
 *  - RNG/seed state is never captured or restored: per-trial seeds
 *    stay per-trial, and the tripwire guarantees the restored state
 *    never depended on one.
 *
 * The cache is process-wide and shared across runner workers (same
 * build-then-publish pattern as the prepared cache); snapshot-on vs
 * snapshot-off results are bit-identical at any thread count — the
 * registry-wide contract tests/run/test_streaming.cc enforces.
 */

#ifndef LF_SIM_SNAPSHOT_HH
#define LF_SIM_SNAPSHOT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/channel.hh"
#include "defense/defense.hh"
#include "frontend/prepared.hh"
#include "noise/environment.hh"
#include "sim/core.hh"

namespace lf {

class TrialContext;

/** One cell's post-calibration machine state. Immutable once
 *  published; shared across worker threads by shared_ptr. */
struct WarmSnapshot
{
    /** Core::stateImage(): every field its visitState() lists. */
    std::vector<std::uint64_t> core;
    Environment::WarmState environment;
    Defense::WarmState defense;
    CovertChannel::Calibration calibration;
    /** Keeps the core image's interior pointers (programs, chunk
     *  tables, chunk successor links) alive even if the prepared
     *  cache is cleared underneath us. */
    std::vector<PreparedChainPtr> pins;
};

using WarmSnapshotPtr = std::shared_ptr<const WarmSnapshot>;

/** @name Cache switch (test/bench instrumentation)
 * Process-global, default on; flip only while no runner or
 * fingerprint study is active.
 * Snapshots additionally require the prepared-chain cache
 * (frontend/prepared.hh) to be enabled — a decode it does not own
 * cannot be pinned. */
/// @{
void setSnapshotCacheEnabled(bool on);
bool snapshotCacheEnabled();

/** True when snapshots can engage at all right now: the snapshot
 *  switch and the prepared-chain cache are on. */
bool warmSnapshotsApplicable();
/// @}

/** What lookupWarmSnapshot() found for a cell key. */
enum class SnapshotOutcome
{
    Hit,      //!< Snapshot returned; restore instead of calibrating.
    Miss,     //!< Unknown cell: calibrate, then publish or mark bypass.
    Bypass,   //!< Known non-snapshottable cell: always calibrate.
    Disabled, //!< Cache switched off (or prepared cache off).
};

/**
 * Look up the snapshot for cell @p key. On Hit, @p out is set to the
 * shared snapshot. Hits/misses/bypasses are tallied process-wide and
 * thread-locally (snapshotCache*() below); Disabled tallies nothing.
 */
SnapshotOutcome lookupWarmSnapshot(const std::string &key,
                                   WarmSnapshotPtr &out);

/** Publish the first-calibrator's snapshot for @p key. Racing
 *  publishers are benign: the tripwire guarantees every candidate is
 *  identical, and the first one in wins. */
void publishWarmSnapshot(const std::string &key, WarmSnapshotPtr snapshot);

/** Record that @p key's calibration is not snapshottable (RNG draws
 *  or unpinnable decode): later trials get SnapshotOutcome::Bypass
 *  without re-deriving the verdict. */
void markWarmSnapshotBypass(const std::string &key);

/**
 * Capture the context's post-calibration state, or null when a bound
 * thread's decode is not owned by the prepared-chain cache (the
 * caller should then mark the cell bypassed). The caller must have
 * verified @p calib.rngUntouched first.
 */
WarmSnapshotPtr captureWarmSnapshot(TrialContext &ctx,
                                    const CovertChannel::Calibration &calib);

/** Overwrite the context's core/environment/defense state with
 *  @p snap. Precondition: the context was resolved for the same cell
 *  key and the channel has run prepareMachine() (setup + defense
 *  arm), so restore lands on a configured machine. */
void restoreWarmSnapshot(TrialContext &ctx, const WarmSnapshot &snap);

/** @name Statistics and maintenance
 * Hit = trial served by restore; miss = first sight of a cell (the
 * trial calibrates and tries to publish); bypass = known
 * non-snapshottable cell calibrating cold. Thread-local variants
 * attribute traffic to a single trial (runner workers execute trials
 * serially), mirroring the prepared-cache accounting. */
/// @{
std::uint64_t snapshotCacheHits();
std::uint64_t snapshotCacheMisses();
std::uint64_t snapshotCacheBypasses();
std::uint64_t snapshotCacheThreadHits();
std::uint64_t snapshotCacheThreadMisses();
std::uint64_t snapshotCacheThreadBypasses();

/** Entries currently cached (positive and negative). */
std::size_t snapshotCacheSize();

/** Drop every entry (outstanding shared_ptrs stay valid). */
void clearWarmSnapshotCache();
/// @}

/** RAII guard: run a scope with the snapshot cache forced to @p on,
 *  restoring the previous switch on exit (the identity tests and the
 *  bench's cold-baseline sections). */
class SnapshotCacheScope
{
  public:
    explicit SnapshotCacheScope(bool on) : prev_(snapshotCacheEnabled())
    {
        setSnapshotCacheEnabled(on);
    }
    ~SnapshotCacheScope() { setSnapshotCacheEnabled(prev_); }
    SnapshotCacheScope(const SnapshotCacheScope &) = delete;
    SnapshotCacheScope &operator=(const SnapshotCacheScope &) = delete;

  private:
    bool prev_;
};

} // namespace lf

#endif // LF_SIM_SNAPSHOT_HH
