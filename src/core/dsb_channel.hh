/**
 * @file
 * DSB covert channels (Sec. V-A to V-D, VII, VIII): one chain layout,
 * two encoding primitives, five measurement protocols.
 *
 * The primitive is data. Eviction (Sec. V-A/C) encodes a 1 by running
 * one more block in the receiver's DSB set than the set holds;
 * misalignment (Sec. V-B/D) encodes it with misaligned blocks that each
 * split into two DSB lines. The protocol is the class: how the
 * receiver brackets the Init/Encode/Decode pattern (a timer on one
 * thread, its own loop timing across SMT siblings, RAPL energy, or an
 * SGX enclave call) and how many rounds or steps it runs.
 *
 * Non-MT protocols interleave encode/decode rounds on one hardware
 * thread (runRounds()); MT protocols run the sender on the sibling
 * thread, whose wake-up repartitions the DSB (runMtSteps()).
 */

#ifndef LF_CORE_DSB_CHANNEL_HH
#define LF_CORE_DSB_CHANNEL_HH

#include "core/channel.hh"
#include "frontend/prepared.hh"

namespace lf {

/** How the sender perturbs the receiver's DSB set. */
enum class DsbPrimitive
{
    Eviction,      //!< Sec. V-A/C: N+1-d aligned blocks of the set.
    Misalignment,  //!< Sec. V-B/D: M-d misaligned blocks of the set.
};

/** Extra configuration for power channels. */
struct PowerChannelConfig
{
    /** Encode/decode rounds per bit. The paper uses 240,000; the
     *  default here is smaller to keep simulation turnaround sane and
     *  benches report both the simulated rate and the rate normalized
     *  to the paper's round count. */
    int rounds = 20000;
};

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

/** Family-specific knobs that sit outside ChannelConfig. Entries carry
 *  per-channel defaults; callers only override what they sweep. */
struct ChannelExtras
{
    PowerChannelConfig power;  //!< power-* channels only.
    SgxConfig sgx;             //!< sgx-* channels only.
};

/**
 * Base of every DSB channel: owns the receiver/sender chains and the
 * two bit loops the protocols bracket.
 *
 * Receiver: d aligned blocks (ways 0..d-1) of the target set.
 * Encode 1: eviction — the remaining N+1-d aligned blocks of the same
 *           set, one more than the set holds, which evicts receiver
 *           lines and redirects delivery to MITE; misalignment — M-d
 *           misaligned blocks of the set, which split into two DSB
 *           lines each and poison LSD capture.
 * Encode 0: stealthy non-MT variants run the same-length sender
 *           activity without touching the receiver's set (eviction:
 *           the blocks at altSet; misalignment: the blocks aligned);
 *           fast variants and MT variants idle.
 */
class DsbChannel : public CovertChannel
{
  public:
    /** @param smt Sender runs on the SMT sibling thread (MT
     *         protocols): needs an SMT-enabled model and a
     *         partition-mapped target set. */
    DsbChannel(Core &core, const ChannelConfig &config,
               DsbPrimitive primitive, bool smt);

    void setup() override;

  protected:
    static constexpr ThreadId kReceiver = 0; //!< Non-MT senders too.
    static constexpr ThreadId kSender = 1;   //!< MT sender thread.

    /** "eviction" or "misalignment", for display names. */
    const char *primitiveName() const;

    /** Non-MT bit: Init (initIters receiver passes), then @p rounds
     *  interleaved Encode/Decode rounds, each phase preceded by a
     *  @p sync cycle handoff (0 inside one enclave or RAPL window). */
    void runRounds(bool bit, int rounds, Cycles sync);

    /** MT bit: Init, then @p steps encode steps of @p meas timed
     *  receiver passes each; returns the mean measured pass. */
    double runMtSteps(bool bit, int steps, int meas);

  private:
    DsbPrimitive primitive_;
    bool smt_;
    PreparedChainPtr receiver_;
    PreparedChainPtr encodeOne_;
    PreparedChainPtr encodeZero_; //!< Stealthy non-MT variants only.
};

// The protocol classes share one constructor signature so the registry
// builds them all through one factory; only power and SGX read extras.

/** Non-MT timing channel (Table III, Sec. V-C/D): a timer brackets
 *  the whole Init + rounds sequence on one hardware thread. */
class NonMtChannel : public DsbChannel
{
  public:
    NonMtChannel(Core &core, const ChannelConfig &config,
                 DsbPrimitive primitive, const ChannelExtras &extras);
    std::string name() const override;
    double transmitBit(bool bit) override;
};

/** MT (SMT) timing channel (Table III, Sec. V-A/B): the receiver
 *  times its own loop while the sibling thread encodes. */
class MtChannel : public DsbChannel
{
  public:
    MtChannel(Core &core, const ChannelConfig &config,
              DsbPrimitive primitive, const ChannelExtras &extras);
    std::string name() const override;
    double transmitBit(bool bit) override;
};

/**
 * Power channel (Table V, Sec. VII): the non-MT rounds observed
 * through the simulated RAPL counter instead of the TSC. Because RAPL
 * only refreshes every ~50 us, each bit must stretch over many more
 * rounds (p = q = 240,000 in the paper), which caps the channel in
 * the ~kbps range.
 */
class PowerChannel : public DsbChannel
{
  public:
    PowerChannel(Core &core, const ChannelConfig &config,
                 DsbPrimitive primitive, const ChannelExtras &extras);
    std::string name() const override;
    double transmitBit(bool bit) override;

    /** The observable is per-round package energy, not cycles. */
    bool observableIsPower() const override { return true; }

  private:
    PowerChannelConfig powerCfg_;
};

} // namespace lf

#endif // LF_CORE_DSB_CHANNEL_HH
