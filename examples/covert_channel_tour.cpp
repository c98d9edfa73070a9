/**
 * @file
 * A tour of every covert-channel family in the library: MT and non-MT,
 * eviction and misalignment, slow-switch, and power-based — each
 * transmitting the same message on an appropriate machine — plus the
 * same channel on a quiet vs a noisy machine (the src/noise
 * environment model) with and without repetition decoding.
 */

#include <cstdio>

#include "common/message.hh"
#include "core/channel_registry.hh"
#include "core/trial_context.hh"
#include "noise/environment.hh"
#include "sim/cpu_model.hh"

using namespace lf;

namespace {

void
report(const ChannelResult &res)
{
    std::printf("%-32s on %-9s: %9.2f Kbps, %5.2f%% errors\n",
                res.channelName.c_str(), res.cpuName.c_str(),
                res.transmissionKbps, res.errorRate * 100.0);
}

} // namespace

int
main()
{
    Rng rng(2024);
    const auto msg = makeMessage(MessagePattern::Alternating, 80, rng);

    ChannelConfig evict;
    evict.d = 6;
    ChannelConfig evict_stealthy = evict;
    evict_stealthy.stealthy = true;
    ChannelConfig misalign;
    misalign.d = 5;
    misalign.M = 8;

    {
        TrialContext ctx(xeonE2288G(), 1);
        const auto ch = makeChannel("nonmt-fast-eviction", ctx.core(), evict);
        report(ch->transmit(msg, ctx));
    }
    {
        TrialContext ctx(xeonE2288G(), 2);
        const auto ch = makeChannel("nonmt-stealthy-eviction", ctx.core(),
                                    evict_stealthy);
        report(ch->transmit(msg, ctx));
    }
    {
        TrialContext ctx(xeonE2288G(), 3);
        const auto ch = makeChannel("nonmt-fast-misalignment", ctx.core(),
                                    misalign);
        report(ch->transmit(msg, ctx));
    }
    {
        TrialContext ctx(gold6226(), 4);
        ChannelConfig slow;
        slow.r = 16;
        slow.rounds = 20;
        const auto ch = makeChannel("slow-switch", ctx.core(), slow);
        report(ch->transmit(msg, ctx));
    }
    {
        TrialContext ctx(gold6226(), 5);
        const auto ch = makeChannel("mt-eviction", ctx.core(), evict);
        report(ch->transmit(msg, ctx));
    }
    {
        TrialContext ctx(gold6226(), 6);
        const auto ch = makeChannel("mt-misalignment", ctx.core(), misalign);
        report(ch->transmit(msg, ctx));
    }
    {
        TrialContext ctx(gold6226(), 7);
        ChannelExtras extras;
        extras.power.rounds = 15000;
        const auto ch = makeChannel("power-eviction", ctx.core(),
                                    evict_stealthy, extras);
        Rng short_rng(8);
        const auto short_msg =
            makeMessage(MessagePattern::Alternating, 10, short_rng);
        report(ch->transmit(short_msg, ctx, 6));
    }
    std::printf("\nNote the orderings: non-MT > MT >> power, and fast"
                " > stealthy —\nthe shapes of Tables III-V of the"
                " paper.\n");

    // The same eviction channel under interference: a busy co-runner
    // degrades decoding, and repetition/majority decoding buys the
    // error rate back at a third of the rate. The longer calibration
    // preamble keeps the decode threshold solid under noise — a
    // skewed threshold is a bias no amount of voting can fix.
    std::printf("\nUnder a busy co-runner (env.corunner_intensity ="
                " 0.75):\n");
    EnvironmentSpec noisy;
    noisy.corunner.intensity = 0.75;
    constexpr int kNoisyPreamble = 32;
    {
        TrialContext ctx(gold6226(), 17, noisy);
        const auto ch = makeChannel("nonmt-fast-eviction", ctx.core(), evict);
        report(ch->transmit(msg, ctx, kNoisyPreamble));
    }
    {
        TrialContext ctx(gold6226(), 17, noisy);
        ChannelConfig evict_voting = evict;
        evict_voting.repetition = 3;
        const auto ch = makeChannel("nonmt-fast-eviction", ctx.core(),
                                    evict_voting);
        report(ch->transmit(msg, ctx, kNoisyPreamble));
    }
    return 0;
}
