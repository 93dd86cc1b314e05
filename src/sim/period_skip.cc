#include "sim/period_skip.hh"

#include <algorithm>
#include <atomic>

#include "common/logging.hh"
#include "common/rng.hh"

namespace lf {

namespace {

std::atomic<bool> g_periodSkipEnabled{true};

/** Longest state period, in loop boundaries, runSpan() looks for.
 *  The fingerprint victims' phases repeat within 152. */
constexpr std::uint64_t kMaxSpanPeriod = 256;

/** The probe schedule: windows of 2 * maxPeriod consecutive
 *  boundaries, the gap after each failed window twice the last. It
 *  keeps the hashes of the last maxPeriod boundaries with where each
 *  was reached (a round count, or a cycle offset in a span). */
class ProbeSchedule
{
  public:
    explicit ProbeSchedule(std::uint64_t maxPeriod)
        : window_(2 * maxPeriod), gap_(window_), ring_(maxPeriod)
    {
    }

    /** True when boundary @p index is probed. Leaving a window clears
     *  the history (it must cover consecutive boundaries). */
    bool probes(std::uint64_t index)
    {
        while (index >= start_ + window_) {
            start_ += window_ + gap_;
            gap_ *= 2;
            restart();
        }
        return index >= start_;
    }

    /** Record the hash of boundary @p index, reached at @p at; return
     *  how far before @p at the nearest earlier boundary with the same
     *  hash was reached, or 0. */
    std::uint64_t record(std::uint64_t index, std::uint64_t hash,
                         std::uint64_t at)
    {
        if (fresh_) {
            fresh_ = false;
            first_ = index;
            firstAt_ = at;
        }
        std::uint64_t period = 0;
        const std::uint64_t kept = std::min<std::uint64_t>(
            index - first_, ring_.size());
        for (std::uint64_t p = 1; p <= kept; ++p) {
            const Probe &probe = ring_[(index - p) % ring_.size()];
            if (probe.index == index - p && probe.hash == hash) {
                period = at - probe.at;
                break;
            }
        }
        ring_[index % ring_.size()] = {index, hash, at};
        return period;
    }

    /** How far before @p at the history's first boundary was reached:
     *  about the longest period it could still report. */
    std::uint64_t reach(std::uint64_t at) const
    {
        return fresh_ ? 0 : at - firstAt_;
    }

    /** Forget the history (after a failed confirmation). */
    void restart() { fresh_ = true; }

  private:
    struct Probe
    {
        std::uint64_t index;
        std::uint64_t hash;
        std::uint64_t at;
    };

    std::uint64_t window_;
    std::uint64_t start_ = 0;
    std::uint64_t gap_;
    std::vector<Probe> ring_;
    bool fresh_ = true;
    std::uint64_t first_ = 0;
    std::uint64_t firstAt_ = 0;
};

/** runSpan()'s cursor: the cycles run so far and the observation
 *  points passed on the way. */
class SpanCursor
{
  public:
    SpanCursor(Core &core, ThreadId observed,
               const std::vector<Cycles> &points,
               std::vector<std::uint64_t> &counts)
        : core_(core), observed_(observed), points_(points),
          counts_(counts)
    {
    }

    Cycles done() const { return done_; }

    /** The next point not yet read, or @p end when none is left
     *  before it. */
    Cycles nextStop(Cycles end) const
    {
        return next_ < points_.size() ? std::min(end, points_[next_])
                                      : end;
    }

    std::uint64_t observed() const
    {
        return core_.retiredInsts(observed_);
    }

    /** Account @p ran more cycles; read the point they reached. */
    void advance(Cycles ran)
    {
        done_ += ran;
        if (next_ < points_.size() && points_[next_] == done_) {
            counts_.push_back(observed());
            ++next_;
        }
    }

    /** Run plainly to offset @p to. */
    void runTo(Cycles to)
    {
        while (done_ < to) {
            const Cycles stop = nextStop(to);
            core_.runCycles(stop - done_);
            advance(stop - done_);
        }
    }

    /**
     * The core just confirmed @p period cycles starting at offset
     * @p start, over which the observed count rose from @p base by
     * @p delta; @p offsets / @p rec hold the rise at each offset the
     * points need. Fill every point up to @p end = start + (n + 1) *
     * period, the end of the n periods skipped.
     */
    void fillSkipped(Cycles start, Cycles period, Cycles end,
                     std::uint64_t base, std::uint64_t delta,
                     const std::vector<Cycles> &offsets,
                     const std::vector<std::uint64_t> &rec)
    {
        for (; next_ < points_.size() && points_[next_] <= end; ++next_) {
            const Cycles at = points_[next_] - start;
            const std::size_t i = static_cast<std::size_t>(
                std::lower_bound(offsets.begin(), offsets.end(),
                                 at % period) -
                offsets.begin());
            counts_.push_back(base + (at / period) * delta + rec[i]);
        }
        done_ = end;
    }

    /** Sorted distinct offsets into a period starting at @p start that
     *  the points in (start + period, end] fall on. */
    std::vector<Cycles> offsetsUpTo(Cycles start, Cycles period,
                                    Cycles end) const
    {
        std::vector<Cycles> offsets;
        for (std::size_t i = next_;
             i < points_.size() && points_[i] <= end; ++i) {
            if (points_[i] > start + period)
                offsets.push_back((points_[i] - start) % period);
        }
        std::sort(offsets.begin(), offsets.end());
        offsets.erase(std::unique(offsets.begin(), offsets.end()),
                      offsets.end());
        return offsets;
    }

  private:
    Core &core_;
    ThreadId observed_;
    const std::vector<Cycles> &points_;
    std::vector<std::uint64_t> &counts_;
    Cycles done_ = 0;
    std::size_t next_ = 0;
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
    if (periodSkipEnabled() && rounds >= kMinSkipRounds) {
        ProbeSchedule schedule(kMaxSkipPeriod);
        std::vector<std::uint64_t> key;
        std::vector<std::uint64_t> monotone;
        while (done < rounds) {
            std::uint64_t period = 0;
            if (schedule.probes(done))
                period = schedule.record(done, core.canonicalHash(), done);
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

void
runSpan(Core &core, Cycles cycles, const SpanWatch &watch,
        const std::vector<Cycles> &points,
        std::vector<std::uint64_t> &counts)
{
    lf_assert(std::is_sorted(points.begin(), points.end()) &&
                  std::adjacent_find(points.begin(), points.end()) ==
                      points.end() &&
                  (points.empty() ||
                   (points.front() > 0 && points.back() <= cycles)),
              "span points must ascend strictly within the span");
    SpanCursor cursor(core, watch.observedThread, points, counts);
    if (periodSkipEnabled() && watch.loopInsts > 0) {
        const std::uint64_t base = core.retiredInsts(watch.loopThread);
        ProbeSchedule schedule(kMaxSpanPeriod);
        std::vector<std::uint64_t> key;
        std::vector<std::uint64_t> monotone;
        std::uint64_t boundary = 1;
        while (cursor.done() < cycles) {
            // Probing pays only while a period the history could
            // still find fits twice into what is left.
            const Cycles left = cycles - cursor.done();
            if (left < 2 * schedule.reach(cursor.done()))
                break;
            const std::uint64_t target = base + boundary * watch.loopInsts;
            const Cycles stop = cursor.nextStop(cycles);
            cursor.advance(core.runCyclesUntilRetired(
                watch.loopThread, target, stop - cursor.done()));
            const std::uint64_t retired =
                core.retiredInsts(watch.loopThread);
            if (retired < target)
                continue; // stopped at a point, not a boundary
            const std::uint64_t index = (retired - base) / watch.loopInsts;
            boundary = index + 1;
            if (!schedule.probes(index))
                continue;
            const Cycles start = cursor.done();
            const Cycles period =
                schedule.record(index, core.canonicalHash(), start);
            if (period == 0 || cycles - start < 2 * period)
                continue;

            // Candidate: run one period from here, reading the
            // observed count at every offset a skipped point needs,
            // and compare the full key at its end.
            core.canonicalKey(key);
            core.monotoneState(monotone);
            const std::uint64_t draws = rngThreadDraws();
            const std::uint64_t observed0 = cursor.observed();
            const std::uint64_t periods = (cycles - start) / period - 1;
            const Cycles end = start + (periods + 1) * period;
            const std::vector<Cycles> offsets =
                cursor.offsetsUpTo(start, period, end);
            std::vector<std::uint64_t> rec;
            rec.reserve(offsets.size());
            for (const Cycles offset : offsets) {
                cursor.runTo(start + offset);
                rec.push_back(cursor.observed() - observed0);
            }
            cursor.runTo(start + period);
            boundary = (core.retiredInsts(watch.loopThread) - base) /
                    watch.loopInsts + 1;
            if (rngThreadDraws() != draws)
                break; // not a pure machine loop: never skip it
            if (!core.hasCanonicalKey(key)) {
                schedule.restart();
                continue;
            }

            const std::uint64_t delta = cursor.observed() - observed0;
            core.advancePeriods(monotone, periods);
            cursor.fillSkipped(start, period, end, observed0, delta,
                               offsets, rec);
            break;
        }
    }
    cursor.runTo(cycles);
}

} // namespace lf
