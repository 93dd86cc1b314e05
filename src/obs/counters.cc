#include "obs/counters.hh"

#include <atomic>
#include <sstream>

#include "sim/core.hh"

namespace lf {
namespace obs {

namespace {

std::atomic<bool> g_countersEnabled{false};

} // namespace

const std::vector<CounterInfo> &
counterCatalog()
{
    static const std::vector<CounterInfo> catalog = {
        {"uops_mite", "micro-ops delivered by the MITE (legacy decode)",
         &CounterSet::uopsMite},
        {"uops_dsb", "micro-ops delivered by the DSB (micro-op cache)",
         &CounterSet::uopsDsb},
        {"uops_lsd", "micro-ops replayed by the LSD (loop stream)",
         &CounterSet::uopsLsd},
        {"blocks_delivered", "attack mix-blocks whose first chunk was"
         " delivered", &CounterSet::blocksDelivered},
        {"dsb_hits", "DSB line lookups that hit",
         &CounterSet::dsbHits},
        {"dsb_misses", "DSB line lookups that missed",
         &CounterSet::dsbMisses},
        {"dsb_evictions", "DSB lines evicted (capacity or conflict)",
         &CounterSet::dsbEvictions},
        {"dsb_inserts", "DSB lines filled by MITE decodes",
         &CounterSet::dsbInserts},
        {"dsb_partition_transitions", "SMT repartitionings of the DSB"
         " (the MT channels' signal)",
         &CounterSet::dsbPartitionTransitions},
        {"dsb_to_mite_switches", "delivery path switches DSB -> MITE",
         &CounterSet::dsbToMiteSwitches},
        {"mite_to_dsb_switches", "delivery path switches MITE -> DSB",
         &CounterSet::miteToDsbSwitches},
        {"lsd_captures", "loops captured (LSD engagements)",
         &CounterSet::lsdCaptures},
        {"lsd_flushes", "LSD replays flushed mid-loop",
         &CounterSet::lsdFlushes},
        {"lcp_stall_cycles", "predecode stall cycles charged to LCPs",
         &CounterSet::lcpStallCycles},
        {"switch_penalty_cycles", "cycles charged to DSB<->MITE path"
         " switches", &CounterSet::switchPenaltyCycles},
        {"mispredict_stall_cycles", "cycles charged to conditional"
         " mispredicts", &CounterSet::mispredictStallCycles},
        {"btb_miss_stall_cycles", "cycles charged to BTB misses",
         &CounterSet::btbMissStallCycles},
        {"l1i_miss_stall_cycles", "cycles charged to L1I fill latency",
         &CounterSet::l1iMissStallCycles},
        {"l1i_accesses", "L1I line accesses",
         &CounterSet::l1iAccesses},
        {"l1i_misses", "L1I line misses", &CounterSet::l1iMisses},
        {"btb_misses", "taken branches absent from the BTB",
         &CounterSet::btbMisses},
        {"cond_mispredicts", "conditional branch mispredicts",
         &CounterSet::condMispredicts},
        {"idq_pushes", "bulk IDQ deliveries (DSB line / MITE chunk /"
         " LSD burst)", &CounterSet::idqPushes},
        {"idq_pushed_uops", "micro-ops pushed into the IDQs",
         &CounterSet::idqPushedUops},
        {"idq_pops", "bulk IDQ drains by the backend",
         &CounterSet::idqPops},
        {"idq_occupancy_at_push", "summed IDQ depth after each push"
         " (divide by idq_pushes for the mean)",
         &CounterSet::idqOccupancyAtPush},
        {"retired_insts", "instructions retired",
         &CounterSet::retiredInsts},
        {"retired_uops", "micro-ops retired",
         &CounterSet::retiredUops},
        {"retire_slot_cycles", "backend cycles actually ticked",
         &CounterSet::retireSlotCycles},
        {"retire_slots_used", "retire slots that carried a micro-op",
         &CounterSet::retireSlotsUsed},
        {"spec_chunks", "chunks fetched on the speculative (wrong)"
         " path", &CounterSet::specChunks},
        {"cycles", "core cycles elapsed", &CounterSet::cycles},
        {"fast_forwarded_cycles", "cycles advanced by stall"
         " fast-forward instead of ticking",
         &CounterSet::fastForwardedCycles},
        {"period_skips", "round loops whose repeating state let them"
         " jump whole periods", &CounterSet::periodSkips},
        {"skipped_period_cycles", "cycles advanced by period skips"
         " instead of simulating (part of cycles)",
         &CounterSet::skippedPeriodCycles},
        {"prepared_cache_hits", "prepared-chain builds served from the"
         " process-wide cache", &CounterSet::preparedCacheHits},
        {"prepared_cache_misses", "prepared-chain builds done from"
         " scratch", &CounterSet::preparedCacheMisses},
        {"snapshot_hits", "trials whose calibration was served by a"
         " warm-state snapshot restore", &CounterSet::snapshotHits},
        {"snapshot_misses", "first-of-cell trials that calibrated and"
         " tried to publish a snapshot", &CounterSet::snapshotMisses},
        {"snapshot_bypasses", "trials of known non-snapshottable cells"
         " (stochastic calibration) that calibrated cold",
         &CounterSet::snapshotBypasses},
    };
    return catalog;
}

void
setCountersEnabled(bool on)
{
    g_countersEnabled.store(on, std::memory_order_relaxed);
}

bool
countersEnabled()
{
    return g_countersEnabled.load(std::memory_order_relaxed);
}

CounterSet
collectCoreCounters(const Core &core)
{
    CounterSet set;
    const FrontendEngine &engine = core.frontend();
    for (int tid = 0; tid < FrontendEngine::kNumThreads; ++tid) {
        const PerfCounters &c =
            core.counters(static_cast<ThreadId>(tid));
        set.uopsMite += c.uopsMite;
        set.uopsDsb += c.uopsDsb;
        set.uopsLsd += c.uopsLsd;
        set.blocksDelivered += c.blocksDelivered;
        set.dsbToMiteSwitches += c.dsbToMiteSwitches;
        set.miteToDsbSwitches += c.miteToDsbSwitches;
        set.lsdCaptures += c.lsdEngagements;
        set.lsdFlushes += c.lsdFlushes;
        set.lcpStallCycles += c.lcpStallCycles;
        set.switchPenaltyCycles += c.switchPenaltyCycles;
        set.mispredictStallCycles += c.mispredictStallCycles;
        set.btbMissStallCycles += c.btbMissStallCycles;
        set.l1iMissStallCycles += c.l1iMissStallCycles;
        set.l1iAccesses += c.l1iAccesses;
        set.l1iMisses += c.l1iMisses;
        set.btbMisses += c.btbMisses;
        set.condMispredicts += c.condMispredicts;
        set.idqPushes += c.idqPushes;
        set.idqPushedUops += c.idqPushedUops;
        set.idqPops += c.idqPops;
        set.idqOccupancyAtPush += c.idqOccupancyAtPush;
        set.retiredInsts += c.retiredInsts;
        set.retiredUops += c.retiredUops;
        set.specChunks += c.specChunks;
    }
    const Dsb &dsb = engine.dsb();
    set.dsbHits = dsb.hits();
    set.dsbMisses = dsb.misses();
    set.dsbEvictions = dsb.evictions();
    set.dsbInserts = dsb.inserts();
    set.dsbPartitionTransitions = dsb.partitionTransitions();
    set.retireSlotCycles = core.backend().retireSlotCycles();
    set.retireSlotsUsed = core.backend().retireSlotsUsed();
    set.cycles = static_cast<std::uint64_t>(engine.cycle());
    set.fastForwardedCycles =
        static_cast<std::uint64_t>(engine.fastForwardedCycles());
    set.periodSkips = core.periodSkips();
    set.skippedPeriodCycles =
        static_cast<std::uint64_t>(core.skippedPeriodCycles());
    return set;
}

std::string
renderCounterSetJson(const CounterSet &set)
{
    std::ostringstream os;
    os << '{';
    bool first = true;
    for (const CounterInfo &info : counterCatalog()) {
        if (!first)
            os << ',';
        first = false;
        os << '"' << info.name << "\":" << set.*info.field;
    }
    os << '}';
    return os.str();
}

} // namespace obs
} // namespace lf
