/**
 * @file
 * Per-thread performance counters.
 *
 * These mirror the hardware events the paper reads (IDQ.MITE_UOPS,
 * IDQ.DSB_UOPS, LSD.UOPS, ILD_STALL.LCP, DSB2MITE_SWITCHES.
 * PENALTY_CYCLES, ...) and are also the ground truth the power model
 * integrates over.
 */

#ifndef LF_FRONTEND_PERF_COUNTERS_HH
#define LF_FRONTEND_PERF_COUNTERS_HH

#include <cstdint>

namespace lf {

struct PerfCounters
{
    /** @name Micro-op delivery attribution */
    /// @{
    std::uint64_t uopsMite = 0;
    std::uint64_t uopsDsb = 0;
    std::uint64_t uopsLsd = 0;
    /// @}

    /** @name Frontend events */
    /// @{
    std::uint64_t lcpStallCycles = 0;
    std::uint64_t switchPenaltyCycles = 0;
    std::uint64_t dsbToMiteSwitches = 0;
    std::uint64_t miteToDsbSwitches = 0;
    std::uint64_t lsdEngagements = 0;
    std::uint64_t lsdFlushes = 0;
    std::uint64_t blocksDelivered = 0;
    /// @}

    /** @name Stall attribution (cycles charged per cause) */
    /// @{
    std::uint64_t mispredictStallCycles = 0;
    std::uint64_t btbMissStallCycles = 0;
    std::uint64_t l1iMissStallCycles = 0;
    /// @}

    /** @name IDQ traffic
     * One "push" is a bulk delivery (a DSB line, MITE chunk, or LSD
     * replay burst); occupancyAtPush accumulates the queue depth right
     * after each push, so occupancyAtPush / idqPushes is the mean
     * delivery-time backlog. */
    /// @{
    std::uint64_t idqPushes = 0;
    std::uint64_t idqPushedUops = 0;
    std::uint64_t idqPops = 0;
    std::uint64_t idqOccupancyAtPush = 0;
    /// @}

    /** @name Cache / prediction events */
    /// @{
    std::uint64_t l1iAccesses = 0;
    std::uint64_t l1iMisses = 0;
    std::uint64_t btbMisses = 0;
    std::uint64_t condMispredicts = 0;
    /// @}

    /** @name Retirement */
    /// @{
    std::uint64_t retiredInsts = 0;
    std::uint64_t retiredUops = 0;
    /// @}

    /** @name Speculative (transient) frontend activity */
    /// @{
    std::uint64_t specChunks = 0;
    /// @}

    std::uint64_t totalUops() const
    {
        return uopsMite + uopsDsb + uopsLsd;
    }

    /**
     * Call @p f with a pointer to every counter member, in
     * declaration order: the one list delta() and the steady-state
     * state visitors (sim/period_skip.hh) walk.
     */
    template <class F>
    static void forEachMember(F f)
    {
        f(&PerfCounters::uopsMite);
        f(&PerfCounters::uopsDsb);
        f(&PerfCounters::uopsLsd);
        f(&PerfCounters::lcpStallCycles);
        f(&PerfCounters::switchPenaltyCycles);
        f(&PerfCounters::dsbToMiteSwitches);
        f(&PerfCounters::miteToDsbSwitches);
        f(&PerfCounters::lsdEngagements);
        f(&PerfCounters::lsdFlushes);
        f(&PerfCounters::blocksDelivered);
        f(&PerfCounters::mispredictStallCycles);
        f(&PerfCounters::btbMissStallCycles);
        f(&PerfCounters::l1iMissStallCycles);
        f(&PerfCounters::idqPushes);
        f(&PerfCounters::idqPushedUops);
        f(&PerfCounters::idqPops);
        f(&PerfCounters::idqOccupancyAtPush);
        f(&PerfCounters::l1iAccesses);
        f(&PerfCounters::l1iMisses);
        f(&PerfCounters::btbMisses);
        f(&PerfCounters::condMispredicts);
        f(&PerfCounters::retiredInsts);
        f(&PerfCounters::retiredUops);
        f(&PerfCounters::specChunks);
    }

    /** Element-wise difference (this - earlier). */
    PerfCounters delta(const PerfCounters &earlier) const
    {
        PerfCounters d;
        forEachMember([&](std::uint64_t PerfCounters::*m) {
            d.*m = this->*m - earlier.*m;
        });
        return d;
    }

    /** Every counter only ever counts up: all of them are monotone
     *  state fields. */
    template <class V>
    void visitState(V &v)
    {
        forEachMember([&](std::uint64_t PerfCounters::*m) {
            v.monotone(this->*m);
        });
    }
};

// A new counter must also join forEachMember().
static_assert(sizeof(PerfCounters) == 24 * sizeof(std::uint64_t),
              "PerfCounters::forEachMember() is missing a counter");

} // namespace lf

#endif // LF_FRONTEND_PERF_COUNTERS_HH
