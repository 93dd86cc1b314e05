/**
 * @file
 * Covert-channel framework (Sec. V of the paper).
 *
 * Every channel follows the paper's three-step pattern per transmitted
 * bit:
 *   Init   — the receiver places micro-ops on a known frontend path;
 *   Encode — the sender perturbs (or does not perturb) that state
 *            according to the secret bit;
 *   Decode — the receiver re-executes and measures timing (or power).
 *
 * transmit() first sends a known alternating preamble to calibrate the
 * decoding threshold (Sec. VI-B), then transmits the message and
 * classifies each raw observation by nearest class mean. Error rates
 * use the Wagner–Fischer edit distance (Sec. VI) and transmission
 * rates are computed from simulated time at the CPU model's clock.
 */

#ifndef LF_CORE_CHANNEL_HH
#define LF_CORE_CHANNEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "frontend/prepared.hh"
#include "sim/core.hh"

namespace lf {

class TrialContext;

/** Parameters shared by the channel implementations (Sec. V names). */
struct ChannelConfig
{
    /** Target DSB set (full 32-set index). Sets >= 16 sit in the half
     *  whose lines are invalidated by SMT partition toggles, which is
     *  what the MT channels encode into. */
    int targetSet = 20;
    /** Alternate set for the stealthy eviction encode of bit 0. */
    int altSet = 9;

    int N = 8;   //!< DSB ways.
    int d = 6;   //!< Receiver ways (blocks).
    int M = 8;   //!< Total ways, misalignment channels (M <= N).
    int r = 16;  //!< LCP instruction count, slow-switch channel.

    /** Non-MT: interleaved encode/decode rounds per bit (p = q). */
    int rounds = 10;
    /** Non-MT: receiver iterations in the Init step. */
    int initIters = 10;

    /** Stealthy variant: bit 0 is encoded by equivalent-length
     *  innocuous activity instead of idling (Sec. V-C). */
    bool stealthy = false;

    /** @name MT protocol shape (Sec. VI-A: p/q = 10) */
    /// @{
    int mtSteps = 20;        //!< Encode steps per bit.
    int mtMeasPerStep = 10;  //!< Receiver measurements per step.
    int mtSenderIters = 4;   //!< Sender loop passes per encode step.
    /// @}

    /** Calibration preamble length in bits (Sec. VI-B). transmit()
     *  uses this unless the caller passes an explicit override. */
    int preambleBits = 16;

    /** Receiver-robustness hook: transmit each message bit this many
     *  times and majority-decode (odd, >= 1). 1 reproduces the
     *  paper's plain protocol; larger values trade rate for error
     *  resilience under a noisy Environment. Calibration preamble
     *  bits are never repeated. */
    int repetition = 1;

    /** Base virtual addresses for receiver and sender code. Distinct
     *  1 KiB-aligned regions give distinct DSB tags. */
    Addr receiverBase = 0x400000;
    Addr senderBase = 0x800000;
};

/** Outcome of one message transmission. Echoes the full experimental
 *  setting (seed, preamble, config) so serialized rows are
 *  self-describing. */
struct ChannelResult
{
    std::string channelName;
    std::string cpuName;
    std::uint64_t seed = 0;         //!< Core seed of the trial.
    int preambleBits = 0;           //!< Calibration bits actually used.
    ChannelConfig config;           //!< Config the channel ran with.
    std::vector<bool> sent;
    std::vector<bool> received;
    double errorRate = 0.0;         //!< Edit distance / message bits.
    double transmissionKbps = 0.0;  //!< Message bits / simulated time.
    double seconds = 0.0;           //!< Simulated transmission time.
    double meanObs0 = 0.0;          //!< Calibrated class means.
    double meanObs1 = 0.0;
};

/**
 * Base class: a covert channel bound to one simulated Core.
 */
class CovertChannel
{
  public:
    CovertChannel(Core &core, const ChannelConfig &config);
    virtual ~CovertChannel() = default;

    virtual std::string name() const = 0;

    /**
     * Transmit one bit and return the receiver's raw observable
     * (cycles for timing channels, watts for power channels).
     */
    virtual double transmitBit(bool bit) = 0;

    /** True when the raw observable is energy (microjoules), not
     *  cycles — selects which Environment perturbation applies. */
    virtual bool observableIsPower() const { return false; }

    /** Called once before a transmission (build programs, warm up). */
    virtual void setup() {}

    /**
     * The one transmit path: calibrate on an alternating preamble,
     * then transmit @p message inside @p ctx — the TrialContext whose
     * core() this channel is bound to. The context's Defense
     * reconfigures the core once (Defense::arm()) and acts at every
     * slot start (beginSlot(): DSB flush quanta, index re-salting);
     * each raw observable is padded by the defense
     * (filterTiming()/filterPower(), machine-side mitigation) and
     * *then* degraded by the Environment (perturbTiming()/
     * perturbPower(), measurement-side interference) — the observable
     * pipeline order is defense filter -> env perturbation. A quiet
     * Environment and an inactive Defense make every hook an exact
     * no-op. When ChannelConfig::repetition > 1 each message bit is
     * sent that many times and majority-decoded.
     *
     * @param preamble_bits Calibration bits; < 0 falls back to the
     *        context's preambleBits(), then to
     *        ChannelConfig::preambleBits.
     */
    ChannelResult transmit(const std::vector<bool> &message,
                           TrialContext &ctx, int preamble_bits = -1);

    /**
     * The decoding reference produced by calibrate() and consumed by
     * transmitMessage(). transmit() is exactly the composition of the
     * two phases; they are exposed separately so the warm-snapshot
     * cache (sim/snapshot.hh) can capture the core after calibration
     * and replay later trials straight into the message phase.
     */
    struct Calibration
    {
        double mean0 = 0.0;          //!< Calibrated class means.
        double mean1 = 0.0;
        int preambleBits = 0;        //!< Calibration bits actually used.
        /** RNG-draw tripwire: true when warmup + preamble consumed no
         *  RNG draws on this thread — i.e. the post-calibration core
         *  state is independent of the trial seed and may be shared
         *  across trials. Noisy environments, stochastic defenses and
         *  non-zero model noise all trip it. */
        bool rngUntouched = false;
    };

    /**
     * Phase 1 of transmit(): resolve the preamble length (same
     * fallback chain as transmit()), run prepareMachine(), then run
     * the 4-slot warmup and the alternating calibration preamble
     * (Sec. VI-B).
     */
    Calibration calibrate(TrialContext &ctx, int preamble_bits = -1);

    /** The machine-configuration prefix of calibrate(): run setup()
     *  once and arm the context's Defense. The snapshot restore path
     *  calls this instead of calibrate() — the machine must be
     *  configured (programs built, defense armed, hooks installed)
     *  before a WarmSnapshot is replayed onto it. Idempotent. */
    void prepareMachine(TrialContext &ctx);

    /** Phase 2 of transmit(): transmit @p message using the decoding
     *  reference in @p calib and assemble the ChannelResult. */
    ChannelResult transmitMessage(const std::vector<bool> &message,
                                  TrialContext &ctx,
                                  const Calibration &calib);

    Core &core() { return core_; }
    const ChannelConfig &config() const { return cfg_; }

  protected:
    /** Advance simulated time by the model's measurement overhead
     *  (serializing rdtscp reads are not free for the attacker). */
    void chargeMeasurementOverhead();

    /**
     * The non-MT interleaved protocol inside one measurement window,
     * shared by the power and SGX non-MT channels: bind @p receiver
     * on @p tid and run the Init iterations, then @p rounds rounds of
     * one encode pass (@p encode_one for a 1, @p encode_zero — the
     * stealthy variant's chain, else null — for a 0) and one decode
     * pass. Rounds go through the period-skipping driver
     * (sim/period_skip.hh).
     */
    void runEncodeDecodeRounds(ThreadId tid, bool bit, int rounds,
                               const PreparedChain &receiver,
                               const PreparedChain &encode_one,
                               const PreparedChain *encode_zero);

    /**
     * The MT protocol shared by the MT and SGX MT channels: the
     * receiver (thread 0) runs its Init iterations, then each of
     * @p steps steps wakes the sender (thread 1) on @p encode_one for
     * ChannelConfig::mtSenderIters passes when @p bit is set and
     * times @p meas_per_step receiver passes. Returns the mean
     * measured pass time. Steps go through the period-skipping
     * driver; measurement noise is applied after it, in order.
     */
    double measureMtSteps(bool bit, int steps, int meas_per_step,
                          const PreparedChain &receiver,
                          const PreparedChain &encode_one);

  private:
    /** One transmission slot under the context's environment and
     *  defense (the observable pipeline of transmit()'s contract). */
    double observeSlot(TrialContext &ctx, bool bit);

  protected:

    /** Resolved DSB line capacity of the bound core's model — the
     *  decode parameter the prepared-chain cache keys on. */
    int dsbLineUops() const { return core_.model().frontend.dsbLineUops; }

    Core &core_;
    ChannelConfig cfg_;
    bool setupDone_ = false;
};

} // namespace lf

#endif // LF_CORE_CHANNEL_HH
