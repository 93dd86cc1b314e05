#include "core/nonmt_channels.hh"

#include "common/logging.hh"
#include "sim/executor.hh"

namespace lf {

namespace {

constexpr ThreadId kThread = 0;

} // namespace

void
NonMtInterleavedChannel::transmitBit(bool bit, SlotRaw &raw)
{
    const Cycles start = core_.cycle();
    chargeMeasurementOverhead(); // timer start

    // Init: receiver loop, p iterations.
    core_.setProgram(kThread, *receiver_);
    runLoopIters(core_, kThread, *receiver_,
                 static_cast<std::uint64_t>(cfg_.initIters));

    // Interleaved Encode/Decode rounds (Sec. VI-A: the encode/decode
    // pattern repeats p = q times per bit).
    const Cycles sync = core_.model().noise.syncCycles;
    for (int round = 0; round < cfg_.rounds; ++round) {
        core_.runCycles(sync); // sender phase handoff
        if (bit) {
            core_.setProgram(kThread, *encodeOne_);
            runLoopIters(core_, kThread, *encodeOne_, 1);
        } else if (cfg_.stealthy) {
            core_.setProgram(kThread, *encodeZero_);
            runLoopIters(core_, kThread, *encodeZero_, 1);
        }
        core_.runCycles(sync); // receiver phase handoff
        core_.setProgram(kThread, *receiver_);
        runLoopIters(core_, kThread, *receiver_, 1);
    }

    chargeMeasurementOverhead(); // timer stop
    raw.cycles.push_back(core_.cycle() - start);
}

NonMtEvictionChannel::NonMtEvictionChannel(Core &core,
                                           const ChannelConfig &config)
    : NonMtInterleavedChannel(core, config)
{
}

std::string
NonMtEvictionChannel::name() const
{
    return std::string("non-MT ") + (cfg_.stealthy ? "stealthy" : "fast") +
        " eviction";
}

void
NonMtEvictionChannel::setup()
{
    // Receiver: ways 0..d-1 of the target set; sender: ways d..N of
    // the same set (N+1-d blocks -> one more than the set holds).
    receiver_ = prepareMixBlockChain(cfg_.receiverBase, cfg_.targetSet,
                                     waySpan(0, cfg_.d, false),
                                     dsbLineUops());
    encodeOne_ = prepareMixBlockChain(cfg_.senderBase, cfg_.targetSet,
                                      waySpan(cfg_.d, cfg_.N + 1 - cfg_.d,
                                              false),
                                      dsbLineUops());
    if (cfg_.stealthy) {
        encodeZero_ = prepareMixBlockChain(cfg_.senderBase, cfg_.altSet,
                                           waySpan(cfg_.d,
                                                   cfg_.N + 1 - cfg_.d,
                                                   false),
                                           dsbLineUops());
    }
}

NonMtMisalignmentChannel::NonMtMisalignmentChannel(
        Core &core, const ChannelConfig &config)
    : NonMtInterleavedChannel(core, config)
{
}

std::string
NonMtMisalignmentChannel::name() const
{
    return std::string("non-MT ") + (cfg_.stealthy ? "stealthy" : "fast") +
        " misalignment";
}

void
NonMtMisalignmentChannel::setup()
{
    lf_assert(cfg_.M > cfg_.d, "misalignment channel needs M > d");
    receiver_ = prepareMixBlockChain(cfg_.receiverBase, cfg_.targetSet,
                                     waySpan(0, cfg_.d, false),
                                     dsbLineUops());
    encodeOne_ = prepareMixBlockChain(cfg_.senderBase, cfg_.targetSet,
                                      waySpan(cfg_.d, cfg_.M - cfg_.d,
                                              true),
                                      dsbLineUops());
    if (cfg_.stealthy) {
        encodeZero_ = prepareMixBlockChain(cfg_.senderBase, cfg_.targetSet,
                                           waySpan(cfg_.d,
                                                   cfg_.M - cfg_.d,
                                                   false),
                                           dsbLineUops());
    }
}

SlowSwitchChannel::SlowSwitchChannel(Core &core,
                                     const ChannelConfig &config)
    : CovertChannel(core, config)
{
}

std::string
SlowSwitchChannel::name() const
{
    return "non-MT slow-switch";
}

void
SlowSwitchChannel::setup()
{
    mixed_ = prepareLcpAddLoop(cfg_.senderBase, LcpPattern::Mixed, cfg_.r,
                               dsbLineUops());
    ordered_ = prepareLcpAddLoop(cfg_.senderBase + 0x10000,
                                 LcpPattern::Ordered, cfg_.r,
                                 dsbLineUops());
}

void
SlowSwitchChannel::transmitBit(bool bit, SlotRaw &raw)
{
    const Cycles start = core_.cycle();
    chargeMeasurementOverhead(); // Init: start the timer.

    // Encode: the LCP issue order carries the bit.
    const PreparedChain &loop = bit ? *mixed_ : *ordered_;
    core_.setProgram(kThread, loop);
    runLoopIters(core_, kThread, loop,
                 static_cast<std::uint64_t>(cfg_.rounds));

    chargeMeasurementOverhead(); // Decode: stop the timer.
    raw.cycles.push_back(core_.cycle() - start);
}

} // namespace lf
