/**
 * @file
 * Multi-threaded (SMT) covert channels: Sec. V-A (eviction-based) and
 * Sec. V-B (misalignment-based).
 *
 * Sender and receiver run on the two hardware threads of one physical
 * core. The observable is the SMT repartitioning of the DSB: while the
 * sender thread executes, the DSB switches to set-partitioned mode and
 * the receiver's lines — deliberately placed at full-index sets whose
 * position changes under partitioning — are lost, redirecting the
 * receiver's delivery to the MITE. When the sender idles the receiver
 * enjoys the whole DSB (and the LSD where present).
 *
 * Per bit, the protocol interleaves mtSteps encode steps with
 * mtMeasPerStep receiver self-measurements per step (the paper's
 * p/q = 10 shape); the classification observable is the mean of all
 * measurements in the bit.
 */

#ifndef LF_CORE_MT_CHANNELS_HH
#define LF_CORE_MT_CHANNELS_HH

#include "core/channel.hh"
#include "frontend/prepared.hh"

namespace lf {

/** Common machinery for the two MT channels. */
class MtChannelBase : public CovertChannel
{
  public:
    MtChannelBase(Core &core, const ChannelConfig &config);

    void transmitBit(bool bit, SlotRaw &raw) override;
    bool replaysSlots() const override { return true; }

  protected:
    PreparedChainPtr receiver_;
    PreparedChainPtr encodeOne_;
};

/** MT eviction-based attack (Sec. V-A): sender runs N+1-d aligned
 *  blocks of the receiver's set. */
class MtEvictionChannel : public MtChannelBase
{
  public:
    MtEvictionChannel(Core &core, const ChannelConfig &config);
    std::string name() const override;
    void setup() override;
};

/** MT misalignment-based attack (Sec. V-B): sender runs M-d
 *  *misaligned* blocks of the receiver's set. */
class MtMisalignmentChannel : public MtChannelBase
{
  public:
    MtMisalignmentChannel(Core &core, const ChannelConfig &config);
    std::string name() const override;
    void setup() override;
};

} // namespace lf

#endif // LF_CORE_MT_CHANNELS_HH
