#include "sim/core.hh"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"

namespace lf {

namespace {

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

/** Word sinks: append to a vector, hash, or compare against a stored
 *  key, so a probe never materializes a key it does not keep. */
struct AppendWords
{
    std::vector<std::uint64_t> &out;
    void operator()(std::uint64_t w) { out.push_back(w); }
};

struct HashWords
{
    std::uint64_t hash = 0;
    void operator()(std::uint64_t w) { hash = splitmix64(hash ^ w); }
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
    void stamp(const std::uint64_t &, std::uint64_t rank) { sink(rank); }
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
    void stamp(const std::uint64_t &x, std::uint64_t) { out.push_back(x); }
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
    void stamp(std::uint64_t &x, std::uint64_t) { x = step(x); }
    void deadline(std::uint64_t &x, std::uint64_t) { x = step(x); }
    void ring(std::size_t &x, std::size_t mask) { x = step(x) & mask; }
};

/** Every field raw, in visit order. */
struct ImageWriter
{
    AppendWords sink;

    template <class T>
    void exact(const T &x) { putWords(sink, x); }
    void monotone(const std::uint64_t &x) { sink(x); }
    void stamp(const std::uint64_t &x, std::uint64_t) { sink(x); }
    void deadline(const std::uint64_t &x, std::uint64_t) { sink(x); }
    void ring(const std::size_t &x, std::size_t) { sink(x); }
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

void
Core::reset(const CpuModel &model, std::uint64_t seed)
{
    model_ = model;
    seed_ = seed;
    staticPartition_ = false;
    domainSwitchHook_ = nullptr;
    engine_.reset(model.frontend);
    backend_.reset();
    rng_ = Rng(seed ^ 0x5eedc0de12345678ULL);
    energyModel_ = EnergyModel(model.energy, model.freqGhz);
    rapl_ = RaplCounter(model.rapl, model.freqGhz,
                        Rng(seed ^ 0x4a91ULL));
    for (auto &snapshot : raplSnapshot_)
        snapshot = PerfCounters{};
    raplSyncCycle_ = 0;
    periodSkips_ = 0;
    skippedPeriodCycles_ = 0;
}

Core::WarmState
Core::saveWarmState() const
{
    WarmState s{engine_.saveState(),
                backend_.saveState(),
                rapl_.saveState(),
                staticPartition_,
                {},
                raplSyncCycle_};
    for (int tid = 0; tid < FrontendEngine::kNumThreads; ++tid)
        s.raplSnapshot[tid] =
            raplSnapshot_[static_cast<std::size_t>(tid)];
    return s;
}

void
Core::restoreWarmState(const WarmState &s)
{
    engine_.loadState(s.engine);
    backend_.loadState(s.backend);
    rapl_.loadState(s.rapl);
    // Raw assignment, not setStaticPartition(): the restored Dsb
    // image already carries the correct partitioned mapping, and a
    // refreshPartitionState() here could flush restored LSD state
    // through a spurious partition transition.
    staticPartition_ = s.staticPartition;
    for (int tid = 0; tid < FrontendEngine::kNumThreads; ++tid)
        raplSnapshot_[static_cast<std::size_t>(tid)] =
            s.raplSnapshot[tid];
    raplSyncCycle_ = s.raplSyncCycle;
}

template <class V>
void
Core::visitState(V &v)
{
    v.exact(staticPartition_);
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

// The readers below only read; visitState() is shared with the one
// writer (advancePeriods) so each field is listed exactly once.

std::uint64_t
Core::canonicalHash() const
{
    HashWords sink;
    KeyWriter<HashWords> writer{sink};
    const_cast<Core *>(this)->visitState(writer);
    return sink.hash;
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

std::vector<std::uint64_t>
Core::stateImage() const
{
    std::vector<std::uint64_t> out;
    ImageWriter writer{{out}};
    const_cast<Core *>(this)->visitState(writer);
    return out;
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
    if (domainSwitchHook_)
        domainSwitchHook_(*this);
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
Core::setDomainSwitchHook(std::function<void(Core &)> hook)
{
    domainSwitchHook_ = std::move(hook);
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
    Cycles done = 0;
    while (done < cycles) {
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
Core::enclaveTransition(ThreadId tid)
{
    // Zero jitter draws nothing (same contract as noisyMeasurement).
    const double jitter = model_.sgx.entryJitterStddev != 0.0
        ? rng_.gaussian(0.0, model_.sgx.entryJitterStddev)
        : 0.0;
    double cost = static_cast<double>(model_.sgx.entryCycles) + jitter;
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
