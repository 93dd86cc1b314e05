#include "fingerprint/side_channel.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "common/logging.hh"
#include "common/stats.hh"
#include "core/trial_context.hh"
#include "frontend/prepared.hh"
#include "isa/mix_block.hh"
#include "sim/core.hh"
#include "sim/executor.hh"
#include "sim/period_skip.hh"

namespace lf {

namespace {

constexpr ThreadId kAttacker = 0;
constexpr ThreadId kVictim = 1;
constexpr Addr kAttackerBase = 0x100000;

/** Victim phase scheduler with per-run jittered durations. */
class VictimDriver
{
  public:
    VictimDriver(Core &core, const VictimWorkload &victim,
                 double jitter_frac, Rng &rng)
        : core_(core), victim_(victim)
    {
        durations_.reserve(victim.numPhases());
        for (std::size_t i = 0; i < victim.numPhases(); ++i) {
            const double jitter =
                1.0 + rng.gaussian(0.0, jitter_frac);
            const double cycles = static_cast<double>(
                victim.phase(i).durationCycles) * std::max(jitter, 0.5);
            // At least one cycle: a phase that ends as it starts would
            // never let advance() move on.
            durations_.push_back(
                std::max<Cycles>(1, static_cast<Cycles>(cycles)));
        }
        enterPhase(0);
    }

    /** Account @p cycles of progress; switch phases as needed. */
    void advance(Cycles cycles)
    {
        while (cycles >= remaining_) {
            cycles -= remaining_;
            enterPhase((phase_ + 1) % victim_.numPhases());
        }
        remaining_ -= cycles;
    }

    /** Cycles until the current phase ends. */
    Cycles remaining() const { return remaining_; }

    /** Probe boundaries for a span inside the current phase: the
     *  victim's loop iterations. */
    SpanWatch watch() const
    {
        return {kVictim, victim_.phaseProgram(phase_).numInsts(),
                kAttacker};
    }

  private:
    void enterPhase(std::size_t index)
    {
        phase_ = index;
        remaining_ = durations_[index];
        core_.setProgram(kVictim, &victim_.phaseProgram(index));
    }

    Core &core_;
    const VictimWorkload &victim_;
    std::vector<Cycles> durations_;
    std::size_t phase_ = 0;
    Cycles remaining_ = 0;
};

} // namespace

std::vector<double>
attackerIpcTrace(const CpuModel &model, const VictimWorkload &victim,
                 const TraceConfig &config, std::uint64_t seed,
                 const DefenseSpec &defense_spec)
{
    lf_assert(model.smtEnabled,
              "the IPC side channel needs SMT (disabled on %s)",
              model.name.c_str());
    // One trial = one TrialContext: the context folds the defense's
    // model-level mitigations into its model copy and owns the
    // armed-core teardown.
    TrialContext ctx(model, seed, EnvironmentSpec{}, defense_spec);
    Core &core = ctx.core();
    Defense &defense = ctx.defense();
    defense.arm(core);
    Rng rng(seed ^ 0xf17e5);

    const PreparedChainPtr attacker = prepareNopLoop(
        kAttackerBase, config.attackerNops,
        core.model().frontend.dsbLineUops);
    core.setProgram(kAttacker, *attacker);

    VictimDriver driver(core, victim, config.phaseJitterFrac, rng);

    // Warm both threads.
    core.runCycles(20000);
    driver.advance(20000);

    // The attacker's retired count at every sample boundary. A victim
    // phase runs as one span with the boundaries inside it as
    // observation points, unless the defense's per-slot hook acts on
    // the core: then every sample is a span of its own.
    lf_assert(config.sampleCycles > 0, "an IPC sample needs cycles");
    const bool slotActs = defense.slotActsOnCore();
    const Cycles sample = config.sampleCycles;
    const int samples = std::max(config.samples, 0);
    const Cycles total = static_cast<Cycles>(samples) * sample;
    std::vector<std::uint64_t> retired;
    retired.reserve(static_cast<std::size_t>(samples) + 1);
    retired.push_back(core.counters(kAttacker).retiredInsts);
    std::vector<Cycles> points;
    for (Cycles at = 0; at < total;) {
        // One IPC sample is one defense slot: index re-salts land
        // between samples.
        if (slotActs && at % sample == 0)
            defense.beginSlot(core);
        Cycles end = std::min(total, at + driver.remaining());
        if (slotActs)
            end = std::min(end, (at / sample + 1) * sample);
        points.clear();
        for (Cycles b = (at / sample + 1) * sample; b <= end; b += sample)
            points.push_back(b - at);
        runSpan(core, end - at, driver.watch(), points, retired);
        driver.advance(end - at);
        at = end;
    }

    std::vector<double> trace;
    trace.reserve(static_cast<std::size_t>(samples));
    for (std::size_t s = 1; s < retired.size(); ++s) {
        if (!slotActs)
            defense.beginSlot(core);
        const double ipc =
            static_cast<double>(retired[s] - retired[s - 1]) /
            static_cast<double>(sample);
        // Observable smoothing pads the sampled waveform itself
        // (down, toward the running worst-case IPC); the attacker's
        // own timer noise lands after it.
        trace.push_back(defense.filterRate(ipc) +
                        rng.gaussian(0.0, config.ipcNoiseStddev));
    }
    return trace;
}

double
attackerBaselineIpc(const CpuModel &model, const TraceConfig &config)
{
    lf_assert(config.sampleCycles > 0, "an IPC sample needs cycles");
    Core core(model, 7);
    const PreparedChainPtr attacker = prepareNopLoop(
        kAttackerBase, config.attackerNops,
        core.model().frontend.dsbLineUops);
    core.setProgram(kAttacker, *attacker);
    core.runCycles(20000);
    const std::uint64_t insts0 = core.counters(kAttacker).retiredInsts;
    const Cycles cycles = config.sampleCycles * 4;
    std::vector<std::uint64_t> retired;
    runSpan(core, cycles,
            {kAttacker, attacker->chain.program.numInsts(), kAttacker},
            {cycles}, retired);
    return static_cast<double>(retired.front() - insts0) /
        static_cast<double>(cycles);
}

FingerprintStudy
runFingerprintStudy(const CpuModel &model,
                    const std::vector<VictimWorkload> &workloads,
                    const TraceConfig &config, int runs_per_workload,
                    std::uint64_t seed_base,
                    const DefenseSpec &defense)
{
    // Everything a trace would assert is checked here first, so a bad
    // call dies once, on the calling thread, before any worker starts.
    lf_assert(model.smtEnabled,
              "the IPC side channel needs SMT (disabled on %s)",
              model.name.c_str());
    lf_assert(config.sampleCycles > 0, "an IPC sample needs cycles");
    lf_assert(runs_per_workload >= 2,
              "need >= 2 runs for intra-distance");

    const std::size_t runs = static_cast<std::size_t>(runs_per_workload);
    FingerprintStudy study;
    for (const auto &workload : workloads) {
        study.names.push_back(workload.name());
        study.traces.emplace_back(runs);
    }

    // Each trace is a pure function of its seed, so the traces are
    // recorded on a pool of threads (the caller is one of them), each
    // into its own pre-sized slot. Ticket i is run i % runs of workload
    // i / runs. The statistics below read the traces after the join,
    // in the same order as ever, so the study is the same to the byte
    // at any thread count.
    const std::size_t count = workloads.size() * runs;
    const std::size_t threads = std::max<std::size_t>(
        1, std::min<std::size_t>(std::thread::hardware_concurrency(),
                                 count));
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(threads);
    auto record = [&](std::size_t worker) {
        try {
            for (std::size_t i; (i = next.fetch_add(1)) < count;) {
                const std::size_t w = i / runs;
                const std::size_t r = i % runs;
                study.traces[w][r] = attackerIpcTrace(
                    model, workloads[w], config,
                    seed_base + r * 131 + (w + 1) * 7919, defense);
            }
        } catch (...) {
            errors[worker] = std::current_exception();
            next.store(count); // the others stop claiming tickets
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(threads - 1);
    try {
        for (std::size_t t = 1; t < threads; ++t)
            pool.emplace_back(record, t);
    } catch (...) {
        // A thread that could not start only means fewer workers: the
        // ones running, the caller included, claim every ticket left.
    }
    record(0);
    for (std::thread &thread : pool)
        thread.join();
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }

    const std::size_t n = workloads.size();
    study.distanceMatrix.assign(n, std::vector<double>(n, 0.0));
    OnlineStats intra;
    OnlineStats inter;

    for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = 0; b < n; ++b) {
            OnlineStats cell;
            for (std::size_t i = 0; i < study.traces[a].size(); ++i) {
                for (std::size_t j = 0; j < study.traces[b].size();
                     ++j) {
                    if (a == b && i >= j)
                        continue;
                    const double dist = euclideanDistance(
                        study.traces[a][i], study.traces[b][j]);
                    cell.add(dist);
                    if (a == b)
                        intra.add(dist);
                    else if (a < b)
                        inter.add(dist);
                }
            }
            study.distanceMatrix[a][b] = cell.mean();
        }
    }
    study.meanIntraDistance = intra.mean();
    study.meanInterDistance = inter.mean();

    // Nearest-reference classification: reference = run 0 of each
    // workload; classify every other run.
    std::size_t correct = 0;
    std::size_t total = 0;
    for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t i = 1; i < study.traces[a].size(); ++i) {
            double best = -1.0;
            std::size_t best_w = 0;
            for (std::size_t w = 0; w < n; ++w) {
                const double dist = euclideanDistance(
                    study.traces[a][i], study.traces[w][0]);
                if (best < 0.0 || dist < best) {
                    best = dist;
                    best_w = w;
                }
            }
            ++total;
            if (best_w == a)
                ++correct;
        }
    }
    study.classificationAccuracy = total == 0 ? 0.0
        : static_cast<double>(correct) / static_cast<double>(total);
    return study;
}

} // namespace lf
