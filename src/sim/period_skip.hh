/**
 * @file
 * Exact steady-state period skipping for the channels' per-bit round
 * loops.
 *
 * The power channels run 20,000 encode/decode rounds per bit (RAPL
 * refreshes only every ~50 us, Sec. VII), the SGX non-MT channels
 * thousands inside one enclave entry (Sec. VIII), and the MT/SGX-MT
 * channels repeat one encode step per receiver batch. Every round
 * starts from deterministic machine state and draws nothing from any
 * Rng, and the programs are loops whose control flow closes on itself.
 * So after a short warm-up the whole core's state at a round boundary
 * repeats with a small period, and from then on every period does
 * exactly what the last one did.
 *
 * runRounds() exploits that without changing a single result:
 *
 *  - At round boundaries it hashes the core's canonical key
 *    (Core::canonicalKey(): every behaviour-affecting field, LRU
 *    stamps as ranks, deadlines relative to their clock).
 *  - A hash equal to the one p boundaries back (p <= kMaxSkipPeriod)
 *    makes p a candidate. The driver keeps the full key and the raw
 *    monotone fields, runs p more rounds, and compares the key once,
 *    exactly. Equal keys prove the state repeats with period p.
 *  - It then jumps all remaining whole periods in one step: every
 *    monotone field (clocks, counters, statistics, LRU stamps and
 *    deadlines touched in the period, ring positions) advances by
 *    the periods times its change over the confirmed period. The
 *    < p leftover rounds run normally. The result is the same core,
 *    field for field, as running every round.
 *  - Rounds record true cycle counts into the caller's vector; the
 *    driver repeats the confirmed period's records for the skipped
 *    periods. Callers apply measurement noise afterwards in record
 *    order, so the RNG stream and float summation order match the
 *    round-by-round run.
 *
 * Exactness rules:
 *  - The confirmed period must draw nothing (rngThreadDraws()); a
 *    period that draws ends probing for the loop.
 *  - Skipping is off while a domain-switch hook is installed
 *    (Core::periodSkipAllowed()): the flush-on-switch defense counts
 *    switches in state the core cannot list.
 *  - Slot-level events (environment, defense epochs, RAPL reads) sit
 *    outside the round loops and are never skipped over.
 *  - Each runUntilRetired() call in a skipped period has the elapsed
 *    cycles of the simulated call it replays, so no replayed call can
 *    trip the deadlock guard.
 *
 * Probing is bounded by a fixed rule derived from kMaxSkipPeriod:
 * loops shorter than kMinSkipRounds run plainly, probes come in
 * windows of 2 * kMaxSkipPeriod boundaries with doubling gaps, and
 * only kMaxSkipPeriod hashes are kept.
 */

#ifndef LF_SIM_PERIOD_SKIP_HH
#define LF_SIM_PERIOD_SKIP_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"
#include "sim/core.hh"

namespace lf {

/** Longest state period, in rounds, the driver looks for. */
constexpr std::uint64_t kMaxSkipPeriod = 8;

/** Loops with fewer rounds run plainly: a first probe window, a
 *  confirmation period and a skipped period must all fit. */
constexpr std::uint64_t kMinSkipRounds = 4 * kMaxSkipPeriod;

/** One round of machine work. What it does may depend only on the
 *  core's state (skipped rounds are extrapolated, not run). It may
 *  append true cycle counts to its argument (the same number every
 *  round) and must not draw from any Rng. */
using RoundBody = std::function<void(std::vector<Cycles> &records)>;

/**
 * Run @p rounds repetitions of @p round on @p core, skipping whole
 * state periods once they provably repeat. @p records receives every
 * round's records in round order, exactly as a plain loop would.
 */
void runRounds(Core &core, std::uint64_t rounds,
               std::vector<Cycles> &records, const RoundBody &round);

/** @name Skip switch (test instrumentation)
 * Process-global, default on; flip only while no runner is active.
 * On and off give bit-identical results. */
/// @{
void setPeriodSkipEnabled(bool on);
bool periodSkipEnabled();

/** RAII guard: run a scope with period skipping forced to @p on. */
class PeriodSkipScope
{
  public:
    explicit PeriodSkipScope(bool on) : prev_(periodSkipEnabled())
    {
        setPeriodSkipEnabled(on);
    }
    ~PeriodSkipScope() { setPeriodSkipEnabled(prev_); }
    PeriodSkipScope(const PeriodSkipScope &) = delete;
    PeriodSkipScope &operator=(const PeriodSkipScope &) = delete;

  private:
    bool prev_;
};
/// @}

} // namespace lf

#endif // LF_SIM_PERIOD_SKIP_HH
