#include "core/dsb_channel.hh"

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "sim/executor.hh"
#include "sim/steady_state.hh"

namespace lf {

namespace {

std::vector<BlockSpec>
waySpan(int first_way, int count, bool misaligned)
{
    std::vector<BlockSpec> specs;
    specs.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i)
        specs.push_back({first_way + i, misaligned});
    return specs;
}

} // namespace

DsbChannel::DsbChannel(Core &core, const ChannelConfig &config,
                       DsbPrimitive primitive, bool smt)
    : CovertChannel(core, config), primitive_(primitive), smt_(smt)
{
    if (smt) {
        lf_assert(core.model().smtEnabled,
                  "MT channel needs an SMT-enabled CPU model (%s has SMT"
                  " disabled)", core.model().name.c_str());
    }
}

const char *
DsbChannel::primitiveName() const
{
    return primitive_ == DsbPrimitive::Eviction ? "eviction"
                                                : "misalignment";
}

void
DsbChannel::setup()
{
    if (smt_) {
        lf_assert(cfg_.targetSet >= 16,
                  "MT channels need a target set in the partition-mapped"
                  " half (>= 16), got %d", cfg_.targetSet);
    }
    const bool misalign = primitive_ == DsbPrimitive::Misalignment;
    if (misalign)
        lf_assert(cfg_.M > cfg_.d, "misalignment channel needs M > d");
    const int sender_blocks =
        misalign ? cfg_.M - cfg_.d : cfg_.N + 1 - cfg_.d;

    receiver_ = prepareMixBlockChain(cfg_.receiverBase, cfg_.targetSet,
                                     waySpan(0, cfg_.d, false),
                                     dsbLineUops());
    encodeOne_ = prepareMixBlockChain(cfg_.senderBase, cfg_.targetSet,
                                      waySpan(cfg_.d, sender_blocks,
                                              misalign),
                                      dsbLineUops());
    if (cfg_.stealthy && !smt_) {
        encodeZero_ = prepareMixBlockChain(
            cfg_.senderBase, misalign ? cfg_.targetSet : cfg_.altSet,
            waySpan(cfg_.d, sender_blocks, false), dsbLineUops());
    }
}

void
DsbChannel::runRounds(bool bit, int rounds, Cycles sync)
{
    // Init: receiver loop, p iterations.
    core_.setProgram(kReceiver, *receiver_);
    runLoopIters(core_, kReceiver, *receiver_,
                 static_cast<std::uint64_t>(cfg_.initIters));

    // Interleaved Encode/Decode rounds (Sec. VI-A: the encode/decode
    // pattern repeats p = q times per bit).
    const PreparedChain *encode = bit ? encodeOne_.get()
                                      : encodeZero_.get();
    SteadyStateSkipper skipper(core_, rounds);
    for (int round = 0; round < rounds; ++round) {
        core_.runCycles(sync); // sender phase handoff
        if (encode != nullptr) {
            core_.setProgram(kReceiver, *encode);
            runLoopIters(core_, kReceiver, *encode, 1);
        }
        core_.runCycles(sync); // receiver phase handoff
        core_.setProgram(kReceiver, *receiver_);
        // Round boundary: the bind just reset thread 0's pipeline, so
        // a repeated machine state here repeats every later round.
        round = skipper.atBoundary(round);
        runLoopIters(core_, kReceiver, *receiver_, 1);
    }
}

double
DsbChannel::runMtSteps(bool bit, int steps, int meas)
{
    // Init: receiver loop reaches steady state with the sender idle.
    core_.setProgram(kReceiver, *receiver_);
    runLoopIters(core_, kReceiver, *receiver_,
                 static_cast<std::uint64_t>(cfg_.initIters));

    // The receiver's timing noise is read-side: it feeds only `sum`,
    // never the machine. So the skipper leaves the RNG out of the
    // state, and a skip replays the noise on the true cycles of the
    // last period's samples, kept here for the last kMaxPeriod steps.
    // A huge per-step sample count would make that history huge, so
    // such loops run without skipping.
    constexpr int kMaxPeriod = SteadyStateSkipper::kMaxPeriod;
    constexpr int kMaxRecordedMeas = 1 << 16;
    const bool skippable = meas <= kMaxRecordedMeas;
    SteadyStateSkipper skipper(core_, steps, /*include_rng=*/false);
    std::vector<Cycles> history(
        skippable ? static_cast<std::size_t>(kMaxPeriod * meas) : 0);
    const auto samplesOf = [&](int step) {
        return history.data() +
            static_cast<std::size_t>((step % kMaxPeriod) * meas);
    };

    double sum = 0.0;
    std::uint64_t samples = 0;
    for (int step = 0; step < steps; ++step) {
        if (skippable) {
            // Step boundary: the state here repeating the state p
            // steps back repeats every later stretch of p steps.
            const int resume = skipper.atBoundary(step);
            if (resume != step) {
                const int period = skipper.period();
                for (int rep = 0; rep < (resume - step) / period; ++rep) {
                    for (int s = step - period; s < step; ++s) {
                        const Cycles *cycles = samplesOf(s);
                        for (int k = 0; k < meas; ++k) {
                            sum += core_.noisyMeasurement(
                                static_cast<double>(cycles[k]));
                        }
                    }
                }
                samples += static_cast<std::uint64_t>(resume - step) *
                    static_cast<std::uint64_t>(meas);
                step = resume;
            }
        }
        if (bit) {
            // Encode step: waking the sender partitions the DSB
            // (invalidation toggle); the sender then keeps looping
            // over its blocks *while the receiver measures*, so the
            // receiver observes both the repartition refills and the
            // shared-frontend contention.
            core_.setProgram(kSender, *encodeOne_);
            core_.runUntilRetired(
                kSender,
                static_cast<std::uint64_t>(cfg_.mtSenderIters) *
                    encodeOne_->chain.instsPerIteration);
        }
        // Decode: the receiver times its own loop, concurrently with
        // the sender when a 1 is being encoded.
        Cycles *recorded = skippable ? samplesOf(step) : nullptr;
        for (int k = 0; k < meas; ++k) {
            chargeMeasurementOverhead();
            const Cycles cycles = runLoopIters(core_, kReceiver,
                                               *receiver_, 1);
            sum += core_.noisyMeasurement(static_cast<double>(cycles));
            ++samples;
            if (recorded != nullptr)
                recorded[k] = cycles;
        }
        if (bit)
            core_.clearProgram(kSender); // second invalidation toggle
    }
    core_.clearProgram(kReceiver);
    return sum / static_cast<double>(samples);
}

NonMtChannel::NonMtChannel(Core &core, const ChannelConfig &config,
                           DsbPrimitive primitive, const ChannelExtras &)
    : DsbChannel(core, config, primitive, false)
{
}

std::string
NonMtChannel::name() const
{
    return std::string("non-MT ") + (cfg_.stealthy ? "stealthy " : "fast ") +
        primitiveName();
}

double
NonMtChannel::transmitBit(bool bit)
{
    const Cycles start = core_.cycle();
    chargeMeasurementOverhead(); // timer start
    runRounds(bit, cfg_.rounds, core_.model().noise.syncCycles);
    chargeMeasurementOverhead(); // timer stop
    const double elapsed = static_cast<double>(core_.cycle() - start);
    return core_.noisyMeasurement(elapsed);
}

MtChannel::MtChannel(Core &core, const ChannelConfig &config,
                     DsbPrimitive primitive, const ChannelExtras &)
    : DsbChannel(core, config, primitive, true)
{
}

std::string
MtChannel::name() const
{
    return std::string("MT ") + primitiveName();
}

double
MtChannel::transmitBit(bool bit)
{
    return runMtSteps(bit, cfg_.mtSteps, cfg_.mtMeasPerStep);
}

PowerChannel::PowerChannel(Core &core, const ChannelConfig &config,
                           DsbPrimitive primitive,
                           const ChannelExtras &extras)
    : DsbChannel(core, config, primitive, false), powerCfg_(extras.power)
{
    lf_assert(powerCfg_.rounds > 0, "power channel needs rounds > 0");
}

std::string
PowerChannel::name() const
{
    return std::string("non-MT power ") + primitiveName();
}

double
PowerChannel::transmitBit(bool bit)
{
    const MicroJoules e0 = core_.readRapl();
    const Cycles t0 = core_.cycle();
    runRounds(bit, powerCfg_.rounds, 0);
    const MicroJoules e1 = core_.readRapl();
    const Cycles t1 = core_.cycle();
    lf_assert(t1 > t0, "power bit consumed no time");
    // Energy per encode/decode round (microjoules): the MITE-heavy
    // paths of a 1-bit consume distinctly more energy per round, and
    // unlike average watts this observable does not self-cancel when
    // the slow path also stretches the measurement window.
    return (e1 - e0) / static_cast<double>(powerCfg_.rounds);
}

} // namespace lf
