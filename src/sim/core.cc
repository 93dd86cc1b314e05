#include "sim/core.hh"

#include <algorithm>
#include <cstring>
#include <limits>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"

namespace lf {

namespace {

/** Hash words in four independent xxHash64-style lanes: mixing one
 *  word never waits on the word before it, so a probe costs about
 *  what the field walk costs. */
struct HashWords
{
    std::uint64_t lanes[4] = {0x9e3779b97f4a7c15ULL, 0xbf58476d1ce4e5b9ULL,
                              0x94d049bb133111ebULL, 0x2545f4914f6cdd1dULL};
    std::uint64_t words = 0;

    void operator()(std::uint64_t w)
    {
        std::uint64_t &lane = lanes[words++ & 3];
        lane += w * 0xc2b2ae3d27d4eb4fULL;
        lane = ((lane << 31) | (lane >> 33)) * 0x9e3779b185ebca87ULL;
    }

    std::uint64_t hash() const
    {
        std::uint64_t h = words;
        for (const std::uint64_t lane : lanes)
            h = splitmix64(h ^ lane);
        return h;
    }
};

/** Feed one exact field to @p sink as 64-bit words. Maps go in key
 *  order, so equal contents give equal words whatever the bucket
 *  history. */
template <class Sink, class T>
void
putWords(Sink &sink, const T &x)
{
    if constexpr (std::is_pointer_v<T>) {
        sink(reinterpret_cast<std::uintptr_t>(x));
    } else if constexpr (std::is_enum_v<T>) {
        sink(static_cast<std::uint64_t>(x));
    } else if constexpr (std::is_floating_point_v<T>) {
        static_assert(sizeof(T) == sizeof(std::uint64_t));
        std::uint64_t bits = 0;
        std::memcpy(&bits, &x, sizeof bits);
        sink(bits);
    } else {
        static_assert(std::is_integral_v<T>, "unlisted field type");
        sink(static_cast<std::uint64_t>(x));
    }
}

template <class Sink, class T>
void
putWords(Sink &sink, const std::vector<T> &xs)
{
    sink(xs.size());
    for (const T &x : xs)
        putWords(sink, x);
}

template <class Sink, class K, class M>
void
putWords(Sink &sink, const std::unordered_map<K, M> &map)
{
    std::vector<std::pair<K, M>> entries(map.begin(), map.end());
    std::sort(entries.begin(), entries.end());
    sink(entries.size());
    for (const auto &[key, value] : entries) {
        putWords(sink, key);
        putWords(sink, value);
    }
}

/** Hash a map without sorting it: entries mix independently and
 *  combine by addition, so equal contents hash equal in any bucket
 *  order. (The key and image forms above stay sorted: they are
 *  compared and stored word by word.) */
template <class K, class M>
void
putWords(HashWords &sink, const std::unordered_map<K, M> &map)
{
    std::uint64_t sum = 0;
    for (const auto &[key, value] : map) {
        sum += splitmix64(splitmix64(static_cast<std::uint64_t>(key)) ^
                          static_cast<std::uint64_t>(value));
    }
    sink(map.size());
    sink(sum);
}

/** Read one field back from @p next, the inverse of putWords().
 *  Vectors and maps take their length from the words, so a loader
 *  sizes them. */
template <class Source, class T>
void
getWords(Source &next, T &x)
{
    if constexpr (std::is_pointer_v<T>) {
        x = reinterpret_cast<T>(static_cast<std::uintptr_t>(next()));
    } else if constexpr (std::is_floating_point_v<T>) {
        const std::uint64_t bits = next();
        std::memcpy(&x, &bits, sizeof bits);
    } else {
        static_assert(std::is_integral_v<T> || std::is_enum_v<T>,
                      "unlisted field type");
        x = static_cast<T>(next());
    }
}

template <class Source, class T>
void
getWords(Source &next, std::vector<T> &xs)
{
    xs.resize(static_cast<std::size_t>(next()));
    for (T &x : xs)
        getWords(next, x);
}

template <class Source, class K, class M>
void
getWords(Source &next, std::unordered_map<K, M> &map)
{
    map.clear();
    const std::uint64_t entries = next();
    for (std::uint64_t i = 0; i < entries; ++i) {
        K key{};
        M value{};
        getWords(next, key);
        getWords(next, value);
        map.emplace(key, value);
    }
}

/** Word sinks: append to a vector, count, hash, or compare against a
 *  stored key, so a probe never materializes a key it does not keep. */
struct AppendWords
{
    std::vector<std::uint64_t> &out;
    void operator()(std::uint64_t w) { out.push_back(w); }
};

struct CountWords
{
    std::size_t words = 0;
    void operator()(std::uint64_t) { ++words; }
};

struct CompareWords
{
    const std::vector<std::uint64_t> &key;
    std::size_t next = 0;
    bool equal = true;
    void operator()(std::uint64_t w)
    {
        equal = equal && next < key.size() && key[next] == w;
        ++next;
    }
};

/** The canonical key: exact fields verbatim, LRU stamps as ranks,
 *  deadlines relative to their clock; monotone fields left out. */
template <class Sink>
struct KeyWriter
{
    Sink &sink;

    template <class T>
    void exact(const T &x) { putWords(sink, x); }
    void monotone(const std::uint64_t &) {}
    void stamp(const std::uint64_t &, std::uint64_t rank,
               const std::uint64_t &)
    {
        sink(rank);
    }
    void deadline(const std::uint64_t &due, std::uint64_t clock)
    {
        sink(due > clock ? due - clock : 0);
    }
    void ring(const std::size_t &, std::size_t) {}
};

/** Raw values of every non-exact field, in visit order. */
struct MonotoneReader
{
    std::vector<std::uint64_t> &out;

    template <class T>
    void exact(const T &) {}
    void monotone(const std::uint64_t &x) { out.push_back(x); }
    void stamp(const std::uint64_t &x, std::uint64_t,
               const std::uint64_t &)
    {
        out.push_back(x);
    }
    void deadline(const std::uint64_t &x, std::uint64_t)
    {
        out.push_back(x);
    }
    void ring(const std::size_t &x, std::size_t) { out.push_back(x); }
};

/** x += periods * (x - before) for every non-exact field: each one
 *  moves by the same amount in every period of a repeating state
 *  (stamps and deadlines not touched in the period move by zero). */
struct MonotoneAdvancer
{
    const std::vector<std::uint64_t> &before;
    std::uint64_t periods;
    std::size_t next = 0;

    std::uint64_t step(std::uint64_t x)
    {
        return x + periods * (x - before[next++]);
    }

    template <class T>
    void exact(const T &) {}
    void monotone(std::uint64_t &x) { x = step(x); }
    void stamp(std::uint64_t &x, std::uint64_t, const std::uint64_t &)
    {
        x = step(x);
    }
    void deadline(std::uint64_t &x, std::uint64_t) { x = step(x); }
    void ring(std::size_t &x, std::size_t mask) { x = step(x) & mask; }
};

/** Every field raw, in visit order. */
template <class Sink>
struct ImageWriter
{
    Sink &sink;

    template <class T>
    void exact(const T &x) { putWords(sink, x); }
    void monotone(const std::uint64_t &x) { sink(x); }
    void stamp(const std::uint64_t &x, std::uint64_t,
               const std::uint64_t &)
    {
        sink(x);
    }
    void deadline(const std::uint64_t &x, std::uint64_t) { sink(x); }
    void ring(const std::size_t &x, std::size_t) { sink(x); }
};

/** Every field raw, in visit order, written back from an image. */
struct ImageReader
{
    const std::vector<std::uint64_t> &image;
    std::size_t next = 0;

    std::uint64_t operator()()
    {
        lf_assert(next < image.size(), "state image too short");
        return image[next++];
    }

    template <class T>
    void exact(T &x) { getWords(*this, x); }
    void monotone(std::uint64_t &x) { x = (*this)(); }
    void stamp(std::uint64_t &x, std::uint64_t, const std::uint64_t &)
    {
        x = (*this)();
    }
    void deadline(std::uint64_t &x, std::uint64_t) { x = (*this)(); }
    void ring(std::size_t &x, std::size_t) { x = (*this)(); }
};

/** Raw values of the counters and clocks: the monotone fields that
 *  are not LRU stamps, deadlines or ring positions. */
struct CounterReader
{
    std::vector<std::uint64_t> &out;

    template <class T>
    void exact(const T &) {}
    void monotone(const std::uint64_t &x) { out.push_back(x); }
    void stamp(const std::uint64_t &, std::uint64_t,
               const std::uint64_t &)
    {
    }
    void deadline(const std::uint64_t &, std::uint64_t) {}
    void ring(const std::size_t &, std::size_t) {}
};

/**
 * Writes a canonical key back into the core: exact fields verbatim
 * (the key and the image encode them alike), counters and clocks
 * from a monotoneCounters() vector, and the two key-only forms
 * placed against their clock once every clock is set (components
 * visit a clock after the fields that hang off it): each deadline at
 * its distance from the clock, each valid LRU stamp just below the
 * clock in rank order. Ring positions keep whatever they were.
 */
struct KeyReader
{
    const std::vector<std::uint64_t> &key;
    const std::vector<std::uint64_t> &counters;
    std::size_t next = 0;
    std::size_t nextCounter = 0;

    struct Mark
    {
        std::uint64_t *field;
        const std::uint64_t *clock;
        std::uint64_t value; //!< Rank, or distance ahead of the clock.
    };
    std::vector<Mark> stamps = {};
    std::vector<Mark> deadlines = {};

    std::uint64_t operator()()
    {
        lf_assert(next < key.size(), "canonical key too short");
        return key[next++];
    }

    template <class T>
    void exact(T &x) { getWords(*this, x); }
    void monotone(std::uint64_t &x)
    {
        lf_assert(nextCounter < counters.size(),
                  "counter vector too short");
        x = counters[nextCounter++];
    }
    void stamp(std::uint64_t &x, std::uint64_t, const std::uint64_t &clock)
    {
        // Invalid lines (no rank) keep any stamp: none is ever read.
        const std::uint64_t rank = (*this)();
        if (rank != kNoRank)
            stamps.push_back({&x, &clock, rank});
    }
    void deadline(std::uint64_t &x, const std::uint64_t &clock)
    {
        deadlines.push_back({&x, &clock, (*this)()});
    }
    void ring(std::size_t &, std::size_t) {}

    void apply()
    {
        lf_assert(next == key.size() && nextCounter == counters.size(),
                  "canonical key or counters do not match this core");
        // A passed deadline (distance 0) lands on the clock: still
        // passed, as the clock only grows.
        for (const Mark &m : deadlines)
            *m.field = *m.clock + m.value;
        // Stamps of one clock sit in [clock - top, clock), top being
        // that clock's highest rank + 1. A set holding rank r has
        // r + 1 valid lines, each stamped by its own tick, so a clock
        // reached by real execution is never below top.
        std::vector<std::pair<const std::uint64_t *, std::uint64_t>> tops;
        for (const Mark &m : stamps) {
            auto it = std::find_if(tops.begin(), tops.end(),
                                   [&](const auto &t) {
                                       return t.first == m.clock;
                                   });
            if (it == tops.end())
                tops.emplace_back(m.clock, m.value + 1);
            else
                it->second = std::max(it->second, m.value + 1);
        }
        for (const Mark &m : stamps) {
            std::uint64_t top = 0;
            for (const auto &t : tops)
                top = t.first == m.clock ? t.second : top;
            lf_assert(*m.clock >= top, "LRU clock below its ranks");
            *m.field = *m.clock - top + m.value;
        }
    }
};

} // namespace

Core::Core(const CpuModel &model, std::uint64_t seed)
    : model_(model), seed_(seed), engine_(model.frontend),
      backend_(&engine_),
      rng_(seed ^ 0x5eedc0de12345678ULL),
      energyModel_(model.energy, model.freqGhz),
      rapl_(model.rapl, model.freqGhz, Rng(seed ^ 0x4a91ULL))
{
}

template <class V>
void
Core::visitState(V &v)
{
    v.exact(staticPartition_);
    v.exact(flushSwitchQuantum_);
    v.exact(switchPhase_);
    engine_.visitState(v);
    backend_.visitState(v);
    rapl_.visitState(v);
    // RAPL sync state: constant inside a round loop (RAPL is read at
    // slot boundaries only), so exact.
    for (PerfCounters &snapshot : raplSnapshot_) {
        PerfCounters::forEachMember(
            [&](std::uint64_t PerfCounters::*m) { v.exact(snapshot.*m); });
    }
    v.exact(raplSyncCycle_);
}

// The readers below only read; visitState() is shared with the three
// writers (advancePeriods, loadStateImage, loadCanonicalKey) so each
// field is listed exactly once.

std::uint64_t
Core::canonicalHash() const
{
    HashWords sink;
    KeyWriter<HashWords> writer{sink};
    const_cast<Core *>(this)->visitState(writer);
    return sink.hash();
}

void
Core::canonicalKey(std::vector<std::uint64_t> &out) const
{
    out.clear();
    AppendWords sink{out};
    KeyWriter<AppendWords> writer{sink};
    const_cast<Core *>(this)->visitState(writer);
}

bool
Core::hasCanonicalKey(const std::vector<std::uint64_t> &key) const
{
    CompareWords sink{key};
    KeyWriter<CompareWords> writer{sink};
    const_cast<Core *>(this)->visitState(writer);
    return sink.equal && sink.next == key.size();
}

void
Core::monotoneState(std::vector<std::uint64_t> &out) const
{
    out.clear();
    MonotoneReader reader{out};
    const_cast<Core *>(this)->visitState(reader);
}

void
Core::advancePeriods(const std::vector<std::uint64_t> &before,
                     std::uint64_t periods)
{
    const Cycles from = cycle();
    MonotoneAdvancer advancer{before, periods};
    visitState(advancer);
    lf_assert(advancer.next == before.size(),
              "monotone field count changed within a period");
    ++periodSkips_;
    skippedPeriodCycles_ += cycle() - from;
}

void
Core::monotoneCounters(std::vector<std::uint64_t> &out) const
{
    out.clear();
    CounterReader reader{out};
    const_cast<Core *>(this)->visitState(reader);
}

std::vector<std::uint64_t>
Core::stateImage() const
{
    // Sized exactly first: snapshots keep images for a whole run.
    CountWords count;
    ImageWriter<CountWords> sizer{count};
    const_cast<Core *>(this)->visitState(sizer);
    std::vector<std::uint64_t> out;
    out.reserve(count.words);
    AppendWords sink{out};
    ImageWriter<AppendWords> writer{sink};
    const_cast<Core *>(this)->visitState(writer);
    return out;
}

void
Core::loadStateImage(const std::vector<std::uint64_t> &image)
{
    // staticPartition_ is written raw, not through
    // setStaticPartition(): the image's Dsb already carries the
    // matching mapping, and a refreshPartitionState() here could
    // flush loaded LSD state through a spurious transition.
    ImageReader reader{image};
    visitState(reader);
    lf_assert(reader.next == image.size(),
              "state image does not match this core's model");
}

void
Core::loadCanonicalKey(const std::vector<std::uint64_t> &key,
                       const std::vector<std::uint64_t> &counters)
{
    KeyReader reader{key, counters};
    visitState(reader);
    reader.apply();
}

void
Core::refreshPartitionState()
{
    const bool both = engine_.threadHasProgram(0) &&
        engine_.threadHasProgram(1);
    engine_.setPartitioned(model_.smtEnabled &&
                           (both || staticPartition_));
}

void
Core::setProgram(ThreadId tid, const Program *program,
                 const ChunkTable *table)
{
    if (flushSwitchQuantum_ > 0) {
        switchPhase_ = (switchPhase_ + 1) % flushSwitchQuantum_;
        // The incoming domain finds a cold DSB (and, through
        // inclusion, any streaming LSD loop is dropped).
        if (switchPhase_ == 0)
            engine_.dsb().flushAll();
    }
    engine_.setProgram(tid, program, table);
    refreshPartitionState();
}

void
Core::setProgram(ThreadId tid, const PreparedChain &prepared)
{
    setProgram(tid, &prepared.chain.program, &prepared.table);
}

void
Core::clearProgram(ThreadId tid)
{
    engine_.clearProgram(tid);
    refreshPartitionState();
}

void
Core::setStaticPartition(bool on)
{
    staticPartition_ = on;
    refreshPartitionState();
}

void
Core::setFlushSwitchQuantum(std::uint32_t quantum)
{
    flushSwitchQuantum_ = quantum;
    switchPhase_ = 0;
}

void
Core::tick()
{
    engine_.tick();
    backend_.tick();
}

void
Core::runCycles(Cycles cycles)
{
    runCyclesUntilRetired(0, std::numeric_limits<std::uint64_t>::max(),
                          cycles);
}

Cycles
Core::runCyclesUntilRetired(ThreadId tid, std::uint64_t target,
                            Cycles cycles)
{
    Cycles done = 0;
    while (done < cycles && engine_.counters(tid).retiredInsts < target) {
        // Nothing retires during a no-op stretch (see runUntilRetired).
        const Cycles burn = engine_.noOpCycles();
        if (burn > 0) {
            const Cycles k = std::min(burn, cycles - done);
            engine_.skipCycles(k);
            backend_.skip(k);
            done += k;
            continue;
        }
        tick();
        ++done;
    }
    return done;
}

Cycles
Core::runUntilRetired(ThreadId tid, std::uint64_t insts,
                      Cycles max_cycles)
{
    if (max_cycles == 0)
        max_cycles = model_.deadlockKcycles * 1000;
    const std::uint64_t target =
        engine_.counters(tid).retiredInsts + insts;
    const Cycles start = cycle();
    while (engine_.counters(tid).retiredInsts < target) {
        if (cycle() - start >= max_cycles) {
            lf_trial_error("runUntilRetired: thread %d stuck after %llu"
                           " cycles (%llu/%llu insts)", tid,
                           static_cast<unsigned long long>(max_cycles),
                           static_cast<unsigned long long>(
                               engine_.counters(tid).retiredInsts),
                           static_cast<unsigned long long>(target));
        }
        if (!engine_.threadRunnable(tid) &&
            engine_.idqOccupancy(tid) == 0) {
            lf_trial_error("runUntilRetired: thread %d halted before"
                           " reaching the retirement target", tid);
        }
        const Cycles burn = engine_.noOpCycles();
        if (burn > 0) {
            // Nothing retires during a no-op stretch; fast-forward
            // it, but never past the deadlock guard above.
            const Cycles k =
                std::min(burn, max_cycles - (cycle() - start));
            engine_.skipCycles(k);
            backend_.skip(k);
            continue;
        }
        tick();
    }
    return cycle() - start;
}

double
Core::noisyMeasurement(double true_cycles)
{
    // Exact-zero knobs must not touch the RNG: the returned value is
    // unchanged (a 0-sigma gaussian adds 0.0, a p=0 spike never
    // fires), and a draw-free quiet path is what lets the warm-state
    // snapshot cache treat zero-noise calibration as seed-independent
    // (see sim/snapshot.hh).
    const double sigma = model_.noise.stddevCycles +
        model_.noise.jitterPerKcycle * true_cycles / 1000.0;
    double measured = true_cycles +
        static_cast<double>(model_.noise.tscOverhead);
    if (sigma != 0.0)
        measured += rng_.gaussian(0.0, sigma);
    if (model_.noise.spikeProb != 0.0 &&
        rng_.chance(model_.noise.spikeProb))
        measured += rng_.uniform(0.5, 1.5) * model_.noise.spikeCycles;
    return measured < 0.0 ? 0.0 : measured;
}

double
Core::timedRun(ThreadId tid, std::uint64_t insts)
{
    const Cycles elapsed = runUntilRetired(tid, insts);
    return noisyMeasurement(static_cast<double>(elapsed));
}

double
Core::secondsOf(double cycles) const
{
    return cycles / (model_.freqGhz * 1e9);
}

void
Core::syncRaplEnergy()
{
    PerfCounters combined_delta;
    for (int tid = 0; tid < FrontendEngine::kNumThreads; ++tid) {
        const PerfCounters delta = engine_.counters(tid).delta(
            raplSnapshot_[static_cast<std::size_t>(tid)]);
        combined_delta.uopsMite += delta.uopsMite;
        combined_delta.uopsDsb += delta.uopsDsb;
        combined_delta.uopsLsd += delta.uopsLsd;
        combined_delta.lcpStallCycles += delta.lcpStallCycles;
        combined_delta.dsbToMiteSwitches += delta.dsbToMiteSwitches;
        combined_delta.miteToDsbSwitches += delta.miteToDsbSwitches;
        combined_delta.l1iMisses += delta.l1iMisses;
        raplSnapshot_[static_cast<std::size_t>(tid)] =
            engine_.counters(tid);
    }
    const Cycles span = cycle() - raplSyncCycle_;
    if (span > 0) {
        rapl_.accumulate(energyModel_.energyOf(combined_delta, span),
                         cycle());
        raplSyncCycle_ = cycle();
    }
}

MicroJoules
Core::readRapl()
{
    syncRaplEnergy();
    return rapl_.read(cycle());
}

void
Core::enclaveEntry(ThreadId tid)
{
    enclaveTransition(tid, model_.sgx.entryCycles);
}

void
Core::enclaveExit(ThreadId tid)
{
    enclaveTransition(tid, model_.sgx.exitCycles);
}

void
Core::enclaveTransition(ThreadId tid, Cycles cycles)
{
    // Zero jitter draws nothing (same contract as noisyMeasurement).
    const double jitter = model_.sgx.entryJitterStddev != 0.0
        ? rng_.gaussian(0.0, model_.sgx.entryJitterStddev)
        : 0.0;
    double cost = static_cast<double>(cycles) + jitter;
    if (cost < 0.0)
        cost = 0.0;
    engine_.flushThreadFrontend(tid);
    runCycles(static_cast<Cycles>(cost));
}

std::uint64_t
Core::retiredInsts(ThreadId tid) const
{
    return engine_.counters(tid).retiredInsts;
}

const PerfCounters &
Core::counters(ThreadId tid) const
{
    return engine_.counters(tid);
}

} // namespace lf
