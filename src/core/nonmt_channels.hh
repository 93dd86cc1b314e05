/**
 * @file
 * Single-thread (non-MT) covert channels: Sec. V-C (eviction-based),
 * Sec. V-D (misalignment-based) and Sec. V-E (slow-switch / LCP).
 *
 * Sender and receiver are the same hardware thread; the receiver wraps
 * a timer around the whole Init + (Encode/Decode)^rounds sequence and
 * the secret modulates how much frontend path switching the sequence
 * provokes (internal interference).
 */

#ifndef LF_CORE_NONMT_CHANNELS_HH
#define LF_CORE_NONMT_CHANNELS_HH

#include "core/channel.hh"
#include "frontend/prepared.hh"

namespace lf {

/**
 * The interleaved slot both non-MT DSB channels share: the receiver
 * starts its timer, runs Init, then ChannelConfig::rounds rounds of
 * one encode pass (encodeOne_ for a 1; for a 0 encodeZero_ in the
 * stealthy variant, else nothing) and one decode pass, each after a
 * sender/receiver handoff, and stops the timer. Subclasses build the
 * three chains in setup().
 */
class NonMtInterleavedChannel : public CovertChannel
{
  public:
    using CovertChannel::CovertChannel;

    void transmitBit(bool bit, SlotRaw &raw) override;
    bool replaysSlots() const override { return true; }

  protected:
    PreparedChainPtr receiver_;
    PreparedChainPtr encodeOne_;
    PreparedChainPtr encodeZero_; //!< Stealthy variant only.
};

/**
 * Non-MT eviction channel (Sec. V-C).
 *
 * Receiver: d blocks (ways 0..d-1) of the target set.
 * Encode 1: the remaining N+1-d blocks of the *same* set — a 9th way
 *           demand that evicts receiver lines and redirects delivery
 *           to MITE.
 * Encode 0: stealthy — same-length blocks of a different set; fast —
 *           nothing.
 */
class NonMtEvictionChannel : public NonMtInterleavedChannel
{
  public:
    NonMtEvictionChannel(Core &core, const ChannelConfig &config);

    std::string name() const override;
    void setup() override;
};

/**
 * Non-MT misalignment channel (Sec. V-D).
 *
 * Receiver: d aligned blocks of the target set.
 * Encode 1: M-d *misaligned* blocks of the same set: each splits into
 *           two DSB lines and poisons LSD capture on the set.
 * Encode 0: stealthy — the same blocks aligned; fast — nothing.
 */
class NonMtMisalignmentChannel : public NonMtInterleavedChannel
{
  public:
    NonMtMisalignmentChannel(Core &core, const ChannelConfig &config);

    std::string name() const override;
    void setup() override;
};

/**
 * Slow-switch channel (Sec. V-E).
 *
 * Encode 1: r pairs of (normal add, LCP add) — the alternation
 *           maximizes DSB<->MITE switching.
 * Encode 0: r normal adds then r LCP adds — consecutive LCP'd
 *           instructions serialize the predecoder instead.
 * Both variants execute the same instruction multiset; only the order
 * (and hence the frontend switch/stall profile) differs.
 */
class SlowSwitchChannel : public CovertChannel
{
  public:
    SlowSwitchChannel(Core &core, const ChannelConfig &config);

    std::string name() const override;
    void setup() override;
    void transmitBit(bool bit, SlotRaw &raw) override;
    bool replaysSlots() const override { return true; }

  private:
    PreparedChainPtr mixed_;
    PreparedChainPtr ordered_;
};

} // namespace lf

#endif // LF_CORE_NONMT_CHANNELS_HH
