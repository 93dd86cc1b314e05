/**
 * @file
 * Simplified execution backend.
 *
 * The paper's workloads are deliberately frontend-bound (Sec. IV-D:
 * the mix blocks avoid loads, stores and port contention), so the
 * backend model is a shared in-order consumer: it drains up to
 * issueWidth micro-ops per cycle from the two threads' IDQs in
 * round-robin order and retires them immediately. Per-thread retired
 * instruction counts come from the IDQ's end-of-instruction markers.
 */

#ifndef LF_BACKEND_BACKEND_HH
#define LF_BACKEND_BACKEND_HH

#include "common/types.hh"
#include "frontend/engine.hh"

namespace lf {

class Backend
{
  public:
    explicit Backend(FrontendEngine *engine);

    /** Consume micro-ops for one cycle. */
    void tick();

    /**
     * Account for @p cycles ticks in which both IDQs were empty (the
     * caller's claim): no micro-op moves, but the round-robin start
     * still alternates every cycle, so parity must advance for the
     * first post-skip contended cycle to pick the same thread a
     * ticked execution would.
     */
    void skip(Cycles cycles)
    {
        if (cycles & 1)
            rrStart_ ^= 1;
    }

    /** @name Retire-slot accounting (observability)
     * Each ticked cycle offers issueWidth retire slots; slotsUsed is
     * how many actually carried a micro-op, so utilisation is
     * retireSlotsUsed / (retireSlotCycles * issueWidth). Skipped
     * (fast-forwarded) cycles retire nothing and are not counted
     * here — see FrontendEngine::fastForwardedCycles(). */
    /// @{
    std::uint64_t retireSlotCycles() const { return tickCycles_; }
    std::uint64_t retireSlotsUsed() const { return slotsUsed_; }
    /// @}

    /** List every state field once for the steady-state visitors
     *  (sim/period_skip.hh): the round-robin start is exact; the
     *  slot tallies are monotone. */
    template <class V>
    void visitState(V &v)
    {
        v.exact(issueWidth_);
        v.exact(rrStart_);
        v.monotone(tickCycles_);
        v.monotone(slotsUsed_);
    }

  private:
    FrontendEngine *engine_;
    int issueWidth_;
    int rrStart_ = 0;
    std::uint64_t tickCycles_ = 0;
    std::uint64_t slotsUsed_ = 0;
};

} // namespace lf

#endif // LF_BACKEND_BACKEND_HH
