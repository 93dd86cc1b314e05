/**
 * @file
 * L1 instruction cache model: set-associative, LRU, shared between the
 * two hardware threads (as on Intel SMT cores).
 *
 * The paper's attacks are designed to leave *no* L1I footprint
 * (mix blocks aliasing in the DSB map to distinct L1I sets); this
 * model exists to verify that property and to measure the L1 miss
 * rates reported in Table VII.
 */

#ifndef LF_FRONTEND_L1I_CACHE_HH
#define LF_FRONTEND_L1I_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "frontend/params.hh"

namespace lf {

/** Outcome of one L1I access. */
struct L1iAccessResult
{
    bool hit = false;
    Cycles latency = 0;   //!< Extra cycles charged (0 on a hit).
};

class L1iCache
{
  public:
    explicit L1iCache(const FrontendParams &params);

    /** Access the line containing @p addr; fills on miss. */
    L1iAccessResult access(Addr addr);

    /** True if the line containing @p addr is resident. */
    bool contains(Addr addr) const;

    /** Invalidate the line containing @p addr (clflush analogue). */
    void flushLine(Addr addr);

    /** Invalidate everything. */
    void flushAll();

    /** @name Statistics */
    /// @{
    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    double missRate() const;
    /// @}

    int numSets() const { return numSets_; }
    int numWays() const { return numWays_; }
    int lineBytes() const { return lineBytes_; }

    /** Set index of @p addr. */
    int setOf(Addr addr) const;

    /** List every state field once for the steady-state visitors
     *  (sim/period_skip.hh); same scheme as Dsb::visitState(). */
    template <class V>
    void visitState(V &v)
    {
        v.exact(numSets_);
        v.exact(numWays_);
        v.exact(lineBytes_);
        v.exact(missLatency_);
        for (int set = 0; set < numSets_; ++set) {
            for (int way = 0; way < numWays_; ++way) {
                Line &line = lines_[static_cast<std::size_t>(
                    set * numWays_ + way)];
                v.exact(line.valid);
                v.exact(line.tag);
                v.stamp(line.lru, lruRank(set, line), lruClock_);
            }
        }
        v.monotone(lruClock_);
        v.monotone(accesses_);
        v.monotone(misses_);
    }

  private:
    struct Line
    {
        bool valid = false;
        Addr tag = 0;
        std::uint64_t lru = 0;
    };

    Addr tagOf(Addr addr) const;
    Line *findLine(Addr addr);
    const Line *findLine(Addr addr) const;
    /** Valid lines of @p set older than @p line; kNoRank when
     *  @p line is invalid. */
    std::uint64_t lruRank(int set, const Line &line) const;

    int numSets_;
    int numWays_;
    int lineBytes_;
    Cycles missLatency_;
    std::vector<Line> lines_;
    std::uint64_t lruClock_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace lf

#endif // LF_FRONTEND_L1I_CACHE_HH
