/**
 * @file
 * Decoded Stream Buffer (micro-op cache) model.
 *
 * Lines are keyed by the *entry address* of a decoded instruction run
 * (a "chunk", see chunk.hh): the address of the first instruction that
 * starts inside one 32-byte window. The set index is addr[9:5] of the
 * key in single-thread mode. When both hardware threads are active the
 * DSB is set-partitioned (Sec. IV of the paper): each thread indexes
 * with addr[8:5] into its own half. Changing the partition state
 * invalidates every line whose index under the new mapping differs
 * from its resident position — this is the mechanism behind the MT
 * attacks, where activating the second thread forces evictions of the
 * first thread's micro-ops.
 *
 * The DSB is inclusive of the LSD: an eviction callback lets the owner
 * flush the LSD when a loop-body line is lost.
 */

#ifndef LF_FRONTEND_DSB_HH
#define LF_FRONTEND_DSB_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"
#include "frontend/params.hh"

namespace lf {

class Dsb
{
  public:
    /** Callback invoked for every evicted/invalidated line. */
    using EvictFn = std::function<void(ThreadId tid, Addr key)>;

    explicit Dsb(const FrontendParams &params);

    void setEvictCallback(EvictFn fn) { evictFn_ = std::move(fn); }

    /**
     * Look up the line keyed by @p key for thread @p tid.
     * Updates LRU on a hit. Returns the micro-op count of the line,
     * or -1 on a miss.
     */
    int lookup(ThreadId tid, Addr key);

    /** Non-updating residency probe. */
    bool contains(ThreadId tid, Addr key) const;

    /**
     * Insert a line (after a MITE decode of the chunk at @p key).
     * Evicts the LRU way of the target set when full, firing the
     * eviction callback.
     */
    void insert(ThreadId tid, Addr key, int uops);

    /** Invalidate one thread's lines (e.g. enclave teardown). */
    void flushThread(ThreadId tid);

    /** Invalidate a single line by key (clflush of code drops the
     *  derived micro-op cache line as well). No-op when absent. */
    void flushKey(ThreadId tid, Addr key);

    /** Invalidate everything. */
    void flushAll();

    /**
     * Reinitialize to the pristine post-construction state for
     * @p params, reusing the line storage (no reallocation when the
     * geometry is unchanged — the per-trial core-reuse fast path).
     * The eviction callback is kept: it belongs to the owning engine,
     * which outlives the reset.
     */
    void reset(const FrontendParams &params);

    /**
     * Switch between shared (32-set) and partitioned (2 x 16-set)
     * indexing. Lines whose position is wrong under the new mapping
     * are invalidated (with callback). No-op if state is unchanged.
     */
    void setPartitioned(bool partitioned);
    bool partitioned() const { return partitioned_; }

    /**
     * Install a keyed (CEASER-style) set-index mapping: with a
     * non-zero @p salt the index mixes the line's tag bits with the
     * salt, so equal-index/different-tag addresses no longer collide
     * in one set. Salt 0 restores the plain addr[9:5] mapping. Lines
     * whose index moved under the new key are invalidated (with
     * callback). No-op if the salt is unchanged.
     */
    void setIndexSalt(std::uint64_t salt);
    std::uint64_t indexSalt() const { return salt_; }

    /** Set index of @p key for @p tid under the current mode. */
    int setOf(ThreadId tid, Addr key) const;

    /** Number of valid lines currently mapping to @p tid's set of
     *  @p key (used by tests to check way pressure). */
    int occupancy(ThreadId tid, Addr key) const;

    /** @name Statistics */
    /// @{
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }
    std::uint64_t inserts() const { return inserts_; }
    std::uint64_t partitionTransitions() const
    {
        return partitionTransitions_;
    }
    void resetStats();
    /// @}

    int numSets() const { return numSets_; }
    int numWays() const { return numWays_; }

    /**
     * List every state field once for the steady-state visitors
     * (sim/period_skip.hh): mapping flags and line contents are
     * exact, each valid line's LRU stamp enters the key as its rank
     * within the set, and the LRU clock and statistics are monotone.
     * The eviction callback is wiring, not state.
     */
    template <class V>
    void visitState(V &v)
    {
        v.exact(numSets_);
        v.exact(numWays_);
        v.exact(partitioned_);
        v.exact(salt_);
        for (int set = 0; set < numSets_; ++set) {
            for (int way = 0; way < numWays_; ++way) {
                Line &line = *lineAt(set, way);
                v.exact(line.valid);
                v.exact(line.key);
                v.exact(line.tid);
                v.exact(line.uops);
                v.stamp(line.lru, lruRank(set, line));
            }
        }
        v.monotone(lruClock_);
        v.monotone(hits_);
        v.monotone(misses_);
        v.monotone(evictions_);
        v.monotone(inserts_);
        v.monotone(partitionTransitions_);
    }

  private:
    struct Line
    {
        bool valid = false;
        Addr key = 0;
        ThreadId tid = kInvalidThread;
        int uops = 0;
        std::uint64_t lru = 0;
    };

    Line *lineAt(int set, int way);
    const Line *lineAt(int set, int way) const;
    Line *findLine(ThreadId tid, Addr key);
    const Line *findLine(ThreadId tid, Addr key) const;
    void invalidate(Line &line);
    /** Valid lines of @p set older than @p line (LRU order is all
     *  that replacement reads); kNoRank for an invalid line. */
    std::uint64_t lruRank(int set, const Line &line) const;

    int numSets_;
    int numWays_;
    bool partitioned_ = false;
    std::uint64_t salt_ = 0;
    std::vector<Line> lines_;
    std::uint64_t lruClock_ = 0;
    EvictFn evictFn_;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t inserts_ = 0;
    std::uint64_t partitionTransitions_ = 0;
};

} // namespace lf

#endif // LF_FRONTEND_DSB_HH
