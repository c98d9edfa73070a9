#include "core/channel.hh"


#include <cmath>
#include "common/edit_distance.hh"
#include "common/logging.hh"
#include "core/trial_context.hh"
#include "defense/defense.hh"
#include "noise/environment.hh"

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

double
CovertChannel::observeSlot(TrialContext &ctx, bool bit)
{
    // One transmission slot under the environment and the defense:
    // interference lands before the bit (frontend pollution,
    // scheduler delay), the defense acts at the slot start (flush
    // quanta, index re-salting) and pads the machine's raw
    // observable, and the environment then degrades the measurement
    // (window stretch, timer/meter noise). With a quiet environment
    // and an inactive defense every hook is an exact no-op.
    Environment &env = ctx.environment();
    Defense &defense = ctx.defense();
    env.beginSlot(core_);
    defense.beginSlot(core_);
    const double raw = transmitBit(bit);
    if (observableIsPower())
        return env.perturbPower(defense.filterPower(raw));
    return env.perturbTiming(defense.filterTiming(raw));
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

    if (!setupDone_) {
        setup();
        setupDone_ = true;
    }
    // The defended machine is configured before the first slot
    // (static partitions, MITE-only delivery); a no-op for an
    // inactive defense.
    ctx.defense().arm(core_);

    // Warmup: the very first transmissions pay cold-start costs (L1I
    // and DSB fills, BTB misses) that would skew calibration; discard
    // them.
    for (int i = 0; i < 4; ++i)
        observeSlot(ctx, (i % 2) == 1);

    // Calibration preamble: alternating 0s and 1s with known values
    // (Sec. VI-B). Class means become the decoding reference.
    double sum0 = 0.0;
    double sum1 = 0.0;
    int n0 = 0;
    int n1 = 0;
    for (int i = 0; i < preamble_bits; ++i) {
        const bool bit = (i % 2) == 1;
        const double obs = observeSlot(ctx, bit);
        if (bit) {
            sum1 += obs;
            ++n1;
        } else {
            sum0 += obs;
            ++n0;
        }
    }
    lf_assert(n0 > 0 && n1 > 0, "preamble too short");

    Calibration calib;
    calib.mean0 = sum0 / n0;
    calib.mean1 = sum1 / n1;
    calib.preambleBits = preamble_bits;
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

    const Cycles start = core_.cycle();
    result.received.reserve(message.size());
    for (bool bit : message) {
        // Repetition decode: cfg_.repetition slots vote on the bit
        // (majority of nearest-class-mean decisions). repetition == 1
        // is the paper's plain protocol.
        int votes = 0;
        for (int r = 0; r < cfg_.repetition; ++r) {
            const double obs = observeSlot(ctx, bit);
            if (std::fabs(obs - calib.mean1) <
                std::fabs(obs - calib.mean0))
                ++votes;
        }
        result.received.push_back(2 * votes > cfg_.repetition);
    }
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
