/**
 * @file
 * SGX enclave covert channels (Sec. VIII).
 *
 * Enclaves are modelled as an execution context with costly, jittery
 * entry/exit transitions that also flush the thread's pipeline-local
 * frontend state (the paper notes ITLB flushes at transitions do not
 * affect the attacks; the shared DSB/L1I persist).
 *
 * Non-MT SGX: the sender runs *inside* the enclave; the receiver can
 * only time the whole enclave call from outside. One entry and one
 * exit per bit; many more encode/decode rounds are interleaved inside
 * (p = q in the thousands) so the per-round frontend path difference
 * is amplified above the entry/exit jitter.
 *
 * MT SGX: the sender thread stays resident inside the enclave on the
 * sibling hardware thread; the receiver measures its own loop timing
 * exactly like the non-SGX MT channels.
 *
 * Entries cost model sgx.entryCycles and exits sgx.exitCycles, each
 * plus one jitter draw. The non-MT windows include both, so their
 * slots never replay; the MT channels run the transitions as slot
 * edge work and replay the MT steps between them
 * (sim/slot_graph.hh).
 */

#ifndef LF_SGX_SGX_CHANNELS_HH
#define LF_SGX_SGX_CHANNELS_HH

#include "core/channel.hh"
#include "core/mt_channels.hh"
#include "frontend/prepared.hh"

namespace lf {

/** Extra parameters for the SGX variants. */
struct SgxConfig
{
    /** Interleaved encode/decode rounds inside the enclave per bit
     *  (paper: p = q = 1,000 - 5,000). */
    int rounds = 6000;
    /** MT variant: encode steps per bit (paper: q = 10,000 total
     *  encode iterations). */
    int mtSteps = 100;
    /** MT variant: receiver measurements per encode step. */
    int mtMeasPerStep = 20;
};

/** Common machinery for the two non-MT SGX channels. Their slots
 *  never replay: the timed window includes the jittery entry and
 *  exit. */
class SgxNonMtChannelBase : public CovertChannel
{
  public:
    SgxNonMtChannelBase(Core &core, const ChannelConfig &config,
                        const SgxConfig &sgx_config);

    void transmitBit(bool bit, SlotRaw &raw) override;

  protected:
    static constexpr ThreadId kThread = 0;

    SgxConfig sgxCfg_;
    PreparedChainPtr receiver_;
    PreparedChainPtr encodeOne_;
    PreparedChainPtr encodeZero_; //!< Stealthy variant only.
};

/** Non-MT SGX eviction channel (Table VI). */
class SgxNonMtEvictionChannel : public SgxNonMtChannelBase
{
  public:
    SgxNonMtEvictionChannel(Core &core, const ChannelConfig &config,
                            const SgxConfig &sgx_config);
    std::string name() const override;
    void setup() override;
};

/** Non-MT SGX misalignment channel (Table VI). */
class SgxNonMtMisalignmentChannel : public SgxNonMtChannelBase
{
  public:
    SgxNonMtMisalignmentChannel(Core &core, const ChannelConfig &config,
                                const SgxConfig &sgx_config);
    std::string name() const override;
    void setup() override;
};

/**
 * MT SGX channels: the enclave-resident sender perturbs the shared
 * frontend. A slot on a 1 enters the enclave at its start and exits
 * after the receiver's timer reads, so the entry/exit jitter draws
 * keep their place around the pass noise in the core's Rng stream.
 * Entry and exit are the slot's edge work and always run; the MT
 * steps between them draw nothing and replay from the slot graph.
 */
class SgxMtChannelBase : public CovertChannel
{
  public:
    SgxMtChannelBase(Core &core, const ChannelConfig &config,
                     const SgxConfig &sgx_config);

    bool hasSlotEdges(bool bit) const override;
    void enterSlot(bool bit) override;
    void transmitBit(bool bit, SlotRaw &raw) override;
    void leaveSlot(bool bit) override;
    bool replaysSlots() const override { return true; }

  protected:
    static constexpr ThreadId kSender = 1;

    SgxConfig sgxCfg_;
    PreparedChainPtr receiver_;
    PreparedChainPtr encodeOne_;
};

/** MT SGX eviction channel (Table VI). */
class SgxMtEvictionChannel : public SgxMtChannelBase
{
  public:
    SgxMtEvictionChannel(Core &core, const ChannelConfig &config,
                         const SgxConfig &sgx_config);
    std::string name() const override;
    void setup() override;
};

/** MT SGX misalignment channel (Table VI). */
class SgxMtMisalignmentChannel : public SgxMtChannelBase
{
  public:
    SgxMtMisalignmentChannel(Core &core, const ChannelConfig &config,
                             const SgxConfig &sgx_config);
    std::string name() const override;
    void setup() override;
};

} // namespace lf

#endif // LF_SGX_SGX_CHANNELS_HH
