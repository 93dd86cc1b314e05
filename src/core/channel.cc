#include "core/channel.hh"


#include <cmath>
#include "common/edit_distance.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/trial_context.hh"
#include "defense/defense.hh"
#include "noise/environment.hh"
#include "sim/executor.hh"
#include "sim/period_skip.hh"
#include "sim/slot_graph.hh"

namespace lf {

CovertChannel::CovertChannel(Core &core, const ChannelConfig &config)
    : core_(core), cfg_(config)
{
    lf_assert(config.d >= 1 && config.d <= config.N,
              "receiver ways d=%d out of range", config.d);
    lf_assert(config.M <= config.N + 1, "M=%d too large", config.M);
    lf_assert(config.targetSet >= 0 && config.targetSet < 32,
              "bad target set");
    lf_assert(config.repetition >= 1 && config.repetition % 2 == 1,
              "repetition must be odd and >= 1, got %d",
              config.repetition);
}

void
CovertChannel::chargeMeasurementOverhead()
{
    core_.runCycles(core_.model().noise.tscOverhead);
}

void
CovertChannel::runEncodeDecodeRounds(ThreadId tid, bool bit, int rounds,
                                     const PreparedChain &receiver,
                                     const PreparedChain &encode_one,
                                     const PreparedChain *encode_zero)
{
    core_.setProgram(tid, receiver);
    runLoopIters(core_, tid, receiver,
                 static_cast<std::uint64_t>(cfg_.initIters));
    const PreparedChain *encode = bit ? &encode_one : encode_zero;
    const auto round = [&](std::vector<Cycles> &) {
        if (encode != nullptr) {
            core_.setProgram(tid, *encode);
            runLoopIters(core_, tid, *encode, 1);
        }
        core_.setProgram(tid, receiver);
        runLoopIters(core_, tid, receiver, 1);
    };
    std::vector<Cycles> none;
    runRounds(core_, static_cast<std::uint64_t>(rounds), none, round);
}

void
CovertChannel::runMtSteps(bool bit, int steps, int meas_per_step,
                          const PreparedChain &receiver,
                          const PreparedChain &encode_one,
                          std::vector<Cycles> &passes)
{
    constexpr ThreadId kReceiver = 0;
    constexpr ThreadId kSender = 1;

    // Init: receiver loop reaches steady state with the sender idle.
    core_.setProgram(kReceiver, receiver);
    runLoopIters(core_, kReceiver, receiver,
                 static_cast<std::uint64_t>(cfg_.initIters));

    const auto step = [&](std::vector<Cycles> &out) {
        if (bit) {
            // Encode step: waking the sender partitions the DSB
            // (invalidation toggle); the sender then keeps looping
            // over its blocks *while the receiver measures*, so the
            // receiver observes both the repartition refills and the
            // shared-frontend contention.
            core_.setProgram(kSender, encode_one);
            core_.runUntilRetired(
                kSender,
                static_cast<std::uint64_t>(cfg_.mtSenderIters) *
                    encode_one.chain.instsPerIteration);
        }
        // Decode: the receiver times its own loop, concurrently with
        // the sender when a 1 is being encoded.
        for (int k = 0; k < meas_per_step; ++k) {
            chargeMeasurementOverhead();
            out.push_back(runLoopIters(core_, kReceiver, receiver, 1));
        }
        if (bit)
            core_.clearProgram(kSender); // second invalidation toggle
    };
    passes.reserve(static_cast<std::size_t>(steps) *
                   static_cast<std::size_t>(meas_per_step));
    runRounds(core_, static_cast<std::uint64_t>(steps), passes, step);
    core_.clearProgram(kReceiver);
}

double
CovertChannel::measure(const SlotRaw &raw)
{
    if (observableIsPower())
        return raw.microjoules;
    // The rdtscp noise of every record, in record order (for the MT
    // channels, what timing each pass inside the loop would have
    // drawn).
    double sum = 0.0;
    for (const Cycles cycles : raw.cycles)
        sum += core_.noisyMeasurement(static_cast<double>(cycles));
    return sum / static_cast<int>(raw.cycles.size());
}

SlotWalk
CovertChannel::slotWalk(TrialContext &ctx)
{
    // Slots replay only when their start leaves the core alone and
    // draws nothing.
    const bool replay = replaysSlots() &&
        !ctx.environment().slotActsOnCore() &&
        !ctx.defense().slotActsOnCore();
    return SlotWalk(core_, replay ? ctx.slotGraph() : nullptr,
                    ctx.slotTally());
}

double
CovertChannel::observeSlot(TrialContext &ctx, bool bit, SlotWalk &walk)
{
    // One transmission slot under the environment and the defense:
    // interference lands before the bit (frontend pollution,
    // scheduler delay), the defense acts at the slot start (flush
    // quanta, index re-salting) and pads the machine's raw
    // observable, and the environment then degrades the measurement
    // (window stretch, timer/meter noise). With a quiet environment
    // and an inactive defense every hook is an exact no-op. The
    // channel's own edge work (enclave entry and exit) runs plainly
    // around the replayable machine work, keeping its jitter draws
    // in place around the pass noise.
    Environment &env = ctx.environment();
    Defense &defense = ctx.defense();
    env.beginSlot(core_);
    defense.beginSlot(core_);
    const bool edges = hasSlotEdges(bit);
    if (edges)
        walk.plain([&] { enterSlot(bit); });
    SlotRaw raw;
    walk.slot(bit, raw.cycles, [&] { transmitBit(bit, raw); });
    const double measured = measure(raw);
    if (edges)
        walk.plain([&] { leaveSlot(bit); });
    if (observableIsPower())
        return env.perturbPower(defense.filterPower(measured));
    return env.perturbTiming(defense.filterTiming(measured));
}

void
CovertChannel::prepareMachine(TrialContext &ctx)
{
    lf_assert(&ctx.core() == &core_,
              "channel %s is bound to a different Core than the"
              " TrialContext it is preparing in", name().c_str());
    if (!setupDone_) {
        setup();
        setupDone_ = true;
    }
    // The defended machine is configured before the first slot
    // (static partitions, MITE-only delivery); a no-op for an
    // inactive defense.
    ctx.defense().arm(core_);
}

CovertChannel::Calibration
CovertChannel::calibrate(TrialContext &ctx, int preamble_bits)
{
    lf_assert(&ctx.core() == &core_,
              "channel %s is bound to a different Core than the"
              " TrialContext it is calibrating in", name().c_str());
    if (preamble_bits < 0)
        preamble_bits = ctx.preambleBits();
    if (preamble_bits < 0)
        preamble_bits = cfg_.preambleBits;
    if (preamble_bits < 2)
        lf_fatal("preamble too short (%d bits; need >= 2)",
                 preamble_bits);

    // The tripwire: every source of simulator nondeterminism funnels
    // through Rng::next(), so a zero draw delta across setup + warmup
    // + preamble proves the post-calibration state does not depend on
    // the trial seed. Sampled before prepareMachine() so a channel
    // whose setup() randomizes is caught too.
    const std::uint64_t draws_before = rngThreadDraws();

    prepareMachine(ctx);
    SlotWalk walk = slotWalk(ctx);

    // Warmup: the very first transmissions pay cold-start costs (L1I
    // and DSB fills, BTB misses) that would skew calibration; discard
    // them.
    for (int i = 0; i < 4; ++i)
        observeSlot(ctx, (i % 2) == 1, walk);

    // Calibration preamble: alternating 0s and 1s with known values
    // (Sec. VI-B). Class means become the decoding reference.
    double sum0 = 0.0;
    double sum1 = 0.0;
    int n0 = 0;
    int n1 = 0;
    for (int i = 0; i < preamble_bits; ++i) {
        const bool bit = (i % 2) == 1;
        const double obs = observeSlot(ctx, bit, walk);
        if (bit) {
            sum1 += obs;
            ++n1;
        } else {
            sum0 += obs;
            ++n0;
        }
    }
    lf_assert(n0 > 0 && n1 > 0, "preamble too short");
    walk.sync();

    Calibration calib;
    calib.mean0 = sum0 / n0;
    calib.mean1 = sum1 / n1;
    calib.preambleBits = preamble_bits;
    calib.rngUntouched = rngThreadDraws() == draws_before;
    return calib;
}

ChannelResult
CovertChannel::transmitMessage(const std::vector<bool> &message,
                               TrialContext &ctx,
                               const Calibration &calib)
{
    lf_assert(&ctx.core() == &core_,
              "channel %s is bound to a different Core than the"
              " TrialContext it is transmitting in", name().c_str());

    ChannelResult result;
    result.channelName = name();
    result.cpuName = core_.model().name;
    result.seed = core_.seed();
    result.preambleBits = calib.preambleBits;
    result.config = cfg_;
    result.sent = message;
    result.meanObs0 = calib.mean0;
    result.meanObs1 = calib.mean1;

    SlotWalk walk = slotWalk(ctx);
    const Cycles start = core_.cycle();
    result.received.reserve(message.size());
    for (bool bit : message) {
        // Repetition decode: cfg_.repetition slots vote on the bit
        // (majority of nearest-class-mean decisions). repetition == 1
        // is the paper's plain protocol.
        int votes = 0;
        for (int r = 0; r < cfg_.repetition; ++r) {
            const double obs = observeSlot(ctx, bit, walk);
            if (std::fabs(obs - calib.mean1) <
                std::fabs(obs - calib.mean0))
                ++votes;
        }
        result.received.push_back(2 * votes > cfg_.repetition);
    }
    // The trial ends here: counters, snapshots and the elapsed time
    // read the core, so it takes up the walked state first.
    walk.sync();
    const Cycles elapsed = core_.cycle() - start;

    result.seconds = core_.secondsOf(static_cast<double>(elapsed));
    result.errorRate = bitErrorRate(result.sent, result.received);
    result.transmissionKbps = result.seconds > 0.0
        ? static_cast<double>(message.size()) / result.seconds / 1e3
        : 0.0;
    return result;
}

ChannelResult
CovertChannel::transmit(const std::vector<bool> &message,
                        TrialContext &ctx, int preamble_bits)
{
    const Calibration calib = calibrate(ctx, preamble_bits);
    return transmitMessage(message, ctx, calib);
}

} // namespace lf
