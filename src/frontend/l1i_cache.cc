#include "frontend/l1i_cache.hh"

#include "common/logging.hh"

namespace lf {

L1iCache::L1iCache(const FrontendParams &params)
    : numSets_(params.l1iSets), numWays_(params.l1iWays),
      lineBytes_(params.l1iLineBytes), missLatency_(params.l1iMissLatency),
      lines_(static_cast<std::size_t>(numSets_) *
             static_cast<std::size_t>(numWays_))
{
    lf_assert(numSets_ > 0 && (numSets_ & (numSets_ - 1)) == 0,
              "L1I sets must be a power of two");
    lf_assert(lineBytes_ > 0 && (lineBytes_ & (lineBytes_ - 1)) == 0,
              "L1I line size must be a power of two");
    lf_assert(numWays_ > 0, "L1I needs at least one way");
}

int
L1iCache::setOf(Addr addr) const
{
    return static_cast<int>((addr / static_cast<Addr>(lineBytes_)) &
                            static_cast<Addr>(numSets_ - 1));
}

Addr
L1iCache::tagOf(Addr addr) const
{
    return addr / static_cast<Addr>(lineBytes_) /
        static_cast<Addr>(numSets_);
}

L1iCache::Line *
L1iCache::findLine(Addr addr)
{
    const int set = setOf(addr);
    const Addr tag = tagOf(addr);
    for (int w = 0; w < numWays_; ++w) {
        Line &line = lines_[static_cast<std::size_t>(set * numWays_ + w)];
        if (line.valid && line.tag == tag)
            return &line;
    }
    return nullptr;
}

const L1iCache::Line *
L1iCache::findLine(Addr addr) const
{
    return const_cast<L1iCache *>(this)->findLine(addr);
}

std::uint64_t
L1iCache::lruRank(int set, const Line &line) const
{
    if (!line.valid)
        return kNoRank;
    std::uint64_t rank = 0;
    for (int w = 0; w < numWays_; ++w) {
        const Line &other =
            lines_[static_cast<std::size_t>(set * numWays_ + w)];
        if (other.valid && other.lru < line.lru)
            ++rank;
    }
    return rank;
}

L1iAccessResult
L1iCache::access(Addr addr)
{
    ++accesses_;
    if (Line *line = findLine(addr)) {
        line->lru = ++lruClock_;
        return {true, 0};
    }
    ++misses_;
    // Choose the LRU victim in the set.
    const int set = setOf(addr);
    Line *victim = nullptr;
    for (int w = 0; w < numWays_; ++w) {
        Line &line = lines_[static_cast<std::size_t>(set * numWays_ + w)];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (!victim || line.lru < victim->lru)
            victim = &line;
    }
    victim->valid = true;
    victim->tag = tagOf(addr);
    victim->lru = ++lruClock_;
    return {false, missLatency_};
}

bool
L1iCache::contains(Addr addr) const
{
    return findLine(addr) != nullptr;
}

void
L1iCache::flushLine(Addr addr)
{
    if (Line *line = findLine(addr))
        line->valid = false;
}

void
L1iCache::flushAll()
{
    for (auto &line : lines_)
        line.valid = false;
}

double
L1iCache::missRate() const
{
    if (accesses_ == 0)
        return 0.0;
    return static_cast<double>(misses_) / static_cast<double>(accesses_);
}

} // namespace lf
