#include "frontend/dsb.hh"

#include "common/logging.hh"
#include "common/rng.hh"

namespace lf {

Dsb::Dsb(const FrontendParams &params)
    : numSets_(params.dsbSets), numWays_(params.dsbWays),
      lines_(static_cast<std::size_t>(numSets_) *
             static_cast<std::size_t>(numWays_))
{
    lf_assert(numSets_ > 0 && (numSets_ & (numSets_ - 1)) == 0,
              "DSB sets must be a power of two");
    lf_assert(numSets_ >= 2, "partitioning needs at least two sets");
    lf_assert(numWays_ > 0, "DSB needs at least one way");
}

int
Dsb::setOf(ThreadId tid, Addr key) const
{
    auto window_index =
        static_cast<int>((key >> 5) & static_cast<Addr>(numSets_ - 1));
    if (salt_ != 0) {
        // Keyed mapping: fold the tag bits (above set + offset) and
        // the epoch salt into the index so same-index/different-tag
        // lines scatter to different sets.
        window_index = static_cast<int>(
            (static_cast<Addr>(window_index) ^
             splitmix64((key >> 10) ^ salt_)) &
            static_cast<Addr>(numSets_ - 1));
    }
    if (!partitioned_)
        return window_index;
    const int half = numSets_ / 2;
    const int base_index = window_index & (half - 1);
    return base_index + (tid == 0 ? 0 : half);
}

Dsb::Line *
Dsb::lineAt(int set, int way)
{
    return &lines_[static_cast<std::size_t>(set * numWays_ + way)];
}

const Dsb::Line *
Dsb::lineAt(int set, int way) const
{
    return &lines_[static_cast<std::size_t>(set * numWays_ + way)];
}

Dsb::Line *
Dsb::findLine(ThreadId tid, Addr key)
{
    const int set = setOf(tid, key);
    for (int w = 0; w < numWays_; ++w) {
        Line *line = lineAt(set, w);
        if (line->valid && line->key == key && line->tid == tid)
            return line;
    }
    return nullptr;
}

const Dsb::Line *
Dsb::findLine(ThreadId tid, Addr key) const
{
    return const_cast<Dsb *>(this)->findLine(tid, key);
}

std::uint64_t
Dsb::lruRank(int set, const Line &line) const
{
    if (!line.valid)
        return kNoRank;
    std::uint64_t rank = 0;
    for (int w = 0; w < numWays_; ++w) {
        const Line *other = lineAt(set, w);
        if (other->valid && other->lru < line.lru)
            ++rank;
    }
    return rank;
}

int
Dsb::lookup(ThreadId tid, Addr key)
{
    if (Line *line = findLine(tid, key)) {
        line->lru = ++lruClock_;
        ++hits_;
        return line->uops;
    }
    ++misses_;
    return -1;
}

bool
Dsb::contains(ThreadId tid, Addr key) const
{
    return findLine(tid, key) != nullptr;
}

void
Dsb::invalidate(Line &line)
{
    if (!line.valid)
        return;
    line.valid = false;
    ++evictions_;
    if (evictFn_)
        evictFn_(line.tid, line.key);
}

void
Dsb::insert(ThreadId tid, Addr key, int uops)
{
    if (Line *existing = findLine(tid, key)) {
        existing->uops = uops;
        existing->lru = ++lruClock_;
        return;
    }
    const int set = setOf(tid, key);
    Line *victim = nullptr;
    for (int w = 0; w < numWays_; ++w) {
        Line *line = lineAt(set, w);
        if (!line->valid) {
            victim = line;
            break;
        }
        if (!victim || line->lru < victim->lru)
            victim = line;
    }
    invalidate(*victim);
    victim->valid = true;
    victim->key = key;
    victim->tid = tid;
    victim->uops = uops;
    victim->lru = ++lruClock_;
    ++inserts_;
}

void
Dsb::flushThread(ThreadId tid)
{
    for (auto &line : lines_) {
        if (line.valid && line.tid == tid)
            invalidate(line);
    }
}

void
Dsb::flushKey(ThreadId tid, Addr key)
{
    if (Line *line = findLine(tid, key))
        invalidate(*line);
}

void
Dsb::flushAll()
{
    for (auto &line : lines_)
        invalidate(line);
}

void
Dsb::setPartitioned(bool partitioned)
{
    if (partitioned_ == partitioned)
        return;
    partitioned_ = partitioned;
    ++partitionTransitions_;
    // Re-derive every line's index under the new mapping; lines that
    // are no longer where the index function says they should be are
    // lost (the hardware analogue: the repartition reshuffles the
    // storage assignment and stale entries cannot be found again).
    for (int set = 0; set < numSets_; ++set) {
        for (int way = 0; way < numWays_; ++way) {
            Line *line = lineAt(set, way);
            if (line->valid && setOf(line->tid, line->key) != set)
                invalidate(*line);
        }
    }
}

void
Dsb::setIndexSalt(std::uint64_t salt)
{
    if (salt_ == salt)
        return;
    salt_ = salt;
    // Same mechanism as a repartition: lines that are not where the
    // new index function says they should be cannot be found again.
    for (int set = 0; set < numSets_; ++set) {
        for (int way = 0; way < numWays_; ++way) {
            Line *line = lineAt(set, way);
            if (line->valid && setOf(line->tid, line->key) != set)
                invalidate(*line);
        }
    }
}

int
Dsb::occupancy(ThreadId tid, Addr key) const
{
    const int set = setOf(tid, key);
    int count = 0;
    for (int w = 0; w < numWays_; ++w) {
        if (lineAt(set, w)->valid)
            ++count;
    }
    return count;
}

void
Dsb::resetStats()
{
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
    inserts_ = 0;
    partitionTransitions_ = 0;
}

void
Dsb::reset(const FrontendParams &params)
{
    numSets_ = params.dsbSets;
    numWays_ = params.dsbWays;
    lf_assert(numSets_ > 0 && (numSets_ & (numSets_ - 1)) == 0,
              "DSB sets must be a power of two");
    lf_assert(numSets_ >= 2, "partitioning needs at least two sets");
    lf_assert(numWays_ > 0, "DSB needs at least one way");
    partitioned_ = false;
    salt_ = 0;
    // assign() re-zeroes in place; only a geometry change reallocates.
    lines_.assign(static_cast<std::size_t>(numSets_) *
                      static_cast<std::size_t>(numWays_),
                  Line{});
    lruClock_ = 0;
    resetStats();
}

} // namespace lf
