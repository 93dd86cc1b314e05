#include "sim/period_skip.hh"

#include <algorithm>
#include <array>
#include <atomic>

#include "common/rng.hh"

namespace lf {

namespace {

std::atomic<bool> g_periodSkipEnabled{true};

/** The probe schedule: windows of 2 * kMaxSkipPeriod consecutive
 *  boundaries, the gap after each failed window twice the last. */
class ProbeSchedule
{
  public:
    /** True when boundary @p done is probed. Leaving a window clears
     *  the hash history (it must cover consecutive boundaries). */
    bool probes(std::uint64_t done)
    {
        if (done >= start_ + kWindow) {
            start_ += kWindow + gap_;
            gap_ *= 2;
            historyLen_ = 0;
        }
        return done >= start_;
    }

    /** Record the hash of boundary @p done; return the smallest
     *  period whose boundary hashed the same, or 0. */
    std::uint64_t record(std::uint64_t done, std::uint64_t hash)
    {
        std::uint64_t period = 0;
        const std::uint64_t span = std::min(historyLen_, kMaxSkipPeriod);
        for (std::uint64_t p = 1; p <= span; ++p) {
            if (history_[(done - p) % kMaxSkipPeriod] == hash) {
                period = p;
                break;
            }
        }
        history_[done % kMaxSkipPeriod] = hash;
        ++historyLen_;
        return period;
    }

    /** Forget the history (after a failed confirmation). */
    void restart() { historyLen_ = 0; }

  private:
    static constexpr std::uint64_t kWindow = 2 * kMaxSkipPeriod;

    std::uint64_t start_ = 0;
    std::uint64_t gap_ = kWindow;
    std::array<std::uint64_t, kMaxSkipPeriod> history_{};
    std::uint64_t historyLen_ = 0;
};

} // namespace

void
setPeriodSkipEnabled(bool on)
{
    g_periodSkipEnabled.store(on, std::memory_order_relaxed);
}

bool
periodSkipEnabled()
{
    return g_periodSkipEnabled.load(std::memory_order_relaxed);
}

void
runRounds(Core &core, std::uint64_t rounds, std::vector<Cycles> &records,
          const RoundBody &round)
{
    std::uint64_t done = 0;
    if (periodSkipEnabled() && rounds >= kMinSkipRounds &&
        core.periodSkipAllowed()) {
        ProbeSchedule schedule;
        std::vector<std::uint64_t> key;
        std::vector<std::uint64_t> monotone;
        while (done < rounds) {
            std::uint64_t period = 0;
            if (schedule.probes(done))
                period = schedule.record(done, core.canonicalHash());
            if (period == 0 || rounds - done < 2 * period) {
                round(records);
                ++done;
                continue;
            }

            // Candidate: run one period from here and compare the
            // full key at its end.
            core.canonicalKey(key);
            core.monotoneState(monotone);
            const std::size_t firstRecord = records.size();
            const std::uint64_t draws = rngThreadDraws();
            for (std::uint64_t r = 0; r < period; ++r)
                round(records);
            done += period;
            if (rngThreadDraws() != draws)
                break; // not a pure machine loop: never skip it
            if (!core.hasCanonicalKey(key)) {
                schedule.restart();
                continue;
            }

            const std::uint64_t periods = (rounds - done) / period;
            core.advancePeriods(monotone, periods);
            const std::size_t lastRecord = records.size();
            records.reserve(lastRecord +
                            periods * (lastRecord - firstRecord));
            for (std::uint64_t n = 0; n < periods; ++n) {
                for (std::size_t i = firstRecord; i < lastRecord; ++i)
                    records.push_back(records[i]);
            }
            done += periods * period;
            break;
        }
    }
    for (; done < rounds; ++done)
        round(records);
}

} // namespace lf
