#include "sim/snapshot.hh"

#include <atomic>
#include <mutex>
#include <unordered_map>

#include "common/logging.hh"
#include "core/trial_context.hh"

namespace lf {

namespace {

/** Construct-on-first-use: experiment code runs from static-lifetime
 *  test fixtures, so the cache must outlive any static user. A null
 *  mapped value is a negative entry (cell known non-snapshottable). */
struct SnapshotCache
{
    std::mutex mutex;
    std::unordered_map<std::string, WarmSnapshotPtr> entries;
};

SnapshotCache &
cache()
{
    static SnapshotCache *c = new SnapshotCache();
    return *c;
}

std::atomic<bool> g_snapshotCacheEnabled{true};

std::atomic<std::uint64_t> g_snapshotHits{0};
std::atomic<std::uint64_t> g_snapshotMisses{0};
std::atomic<std::uint64_t> g_snapshotBypasses{0};

thread_local std::uint64_t t_snapshotHits = 0;
thread_local std::uint64_t t_snapshotMisses = 0;
thread_local std::uint64_t t_snapshotBypasses = 0;

} // namespace

void
setSnapshotCacheEnabled(bool on)
{
    g_snapshotCacheEnabled.store(on, std::memory_order_relaxed);
}

bool
snapshotCacheEnabled()
{
    return g_snapshotCacheEnabled.load(std::memory_order_relaxed);
}

bool
warmSnapshotsApplicable()
{
    // With program caching off, a trial's decode is memoised by the
    // engine itself and cannot be pinned by a snapshot.
    return snapshotCacheEnabled() && programCacheEnabled();
}

SnapshotOutcome
lookupWarmSnapshot(const std::string &key, WarmSnapshotPtr &out)
{
    if (!warmSnapshotsApplicable())
        return SnapshotOutcome::Disabled;

    SnapshotCache &c = cache();
    std::lock_guard<std::mutex> lock(c.mutex);
    const auto it = c.entries.find(key);
    if (it == c.entries.end()) {
        g_snapshotMisses.fetch_add(1, std::memory_order_relaxed);
        ++t_snapshotMisses;
        return SnapshotOutcome::Miss;
    }
    if (!it->second) {
        g_snapshotBypasses.fetch_add(1, std::memory_order_relaxed);
        ++t_snapshotBypasses;
        return SnapshotOutcome::Bypass;
    }
    g_snapshotHits.fetch_add(1, std::memory_order_relaxed);
    ++t_snapshotHits;
    out = it->second;
    return SnapshotOutcome::Hit;
}

void
publishWarmSnapshot(const std::string &key, WarmSnapshotPtr snapshot)
{
    lf_assert(snapshot != nullptr,
              "publishing a null snapshot; use markWarmSnapshotBypass");
    SnapshotCache &c = cache();
    std::lock_guard<std::mutex> lock(c.mutex);
    // emplace: racing first-calibrators produce identical snapshots
    // (the tripwire proved seed-independence), so the first in wins
    // and the rest are dropped.
    c.entries.emplace(key, std::move(snapshot));
}

void
markWarmSnapshotBypass(const std::string &key)
{
    SnapshotCache &c = cache();
    std::lock_guard<std::mutex> lock(c.mutex);
    c.entries.emplace(key, nullptr);
}

WarmSnapshotPtr
captureWarmSnapshot(TrialContext &ctx,
                    const CovertChannel::Calibration &calib)
{
    lf_assert(calib.rngUntouched,
              "capturing a snapshot of seed-dependent state");

    // Pin every bound decode. The core image holds raw pointers into
    // PreparedChains (program, chunk table, chunk successor links); a
    // thread whose decode is not owned by the prepared cache
    // (hand-bound program, memoised caller table) makes the whole
    // cell non-snapshottable.
    const FrontendEngine &engine = ctx.core().frontend();
    std::vector<PreparedChainPtr> pins;
    for (ThreadId tid = 0; tid < FrontendEngine::kNumThreads; ++tid) {
        const Program *program = engine.boundProgram(tid);
        if (program == nullptr)
            continue;
        PreparedChainPtr pin =
            findPreparedChain(program, engine.boundTable(tid));
        if (!pin)
            return nullptr;
        pins.push_back(std::move(pin));
    }

    return std::make_shared<const WarmSnapshot>(WarmSnapshot{
        ctx.core().stateImage(), ctx.environment().warmState(),
        ctx.defense().warmState(), calib, std::move(pins)});
}

void
restoreWarmSnapshot(TrialContext &ctx, const WarmSnapshot &snap)
{
    ctx.core().loadStateImage(snap.core);
    ctx.environment().loadWarmState(snap.environment);
    ctx.defense().loadWarmState(snap.defense);
}

std::uint64_t
snapshotCacheHits()
{
    return g_snapshotHits.load(std::memory_order_relaxed);
}

std::uint64_t
snapshotCacheMisses()
{
    return g_snapshotMisses.load(std::memory_order_relaxed);
}

std::uint64_t
snapshotCacheBypasses()
{
    return g_snapshotBypasses.load(std::memory_order_relaxed);
}

std::uint64_t
snapshotCacheThreadHits()
{
    return t_snapshotHits;
}

std::uint64_t
snapshotCacheThreadMisses()
{
    return t_snapshotMisses;
}

std::uint64_t
snapshotCacheThreadBypasses()
{
    return t_snapshotBypasses;
}

std::size_t
snapshotCacheSize()
{
    SnapshotCache &c = cache();
    std::lock_guard<std::mutex> lock(c.mutex);
    return c.entries.size();
}

void
clearWarmSnapshotCache()
{
    SnapshotCache &c = cache();
    std::lock_guard<std::mutex> lock(c.mutex);
    c.entries.clear();
}

} // namespace lf
