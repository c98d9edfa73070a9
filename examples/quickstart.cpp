/**
 * @file
 * Quickstart: build a simulated Intel core, run the three frontend
 * paths, and see the timing separations every attack in this library
 * is built on. Then transmit a short covert message.
 */

#include <cstdio>

#include "common/message.hh"
#include "core/channel_registry.hh"
#include "core/trial_context.hh"
#include "isa/mix_block.hh"
#include "sim/core.hh"
#include "sim/cpu_model.hh"
#include "sim/executor.hh"

using namespace lf;

int
main()
{
    std::printf("== leaky-frontends quickstart ==\n\n");

    // 1. A simulated Xeon Gold 6226 core (Table I of the paper).
    Core core(gold6226());
    std::printf("CPU model: %s (%s, %.1f GHz, LSD %s)\n\n",
                core.model().name.c_str(),
                core.model().microarchitecture.c_str(),
                core.model().freqGhz,
                core.model().lsdEnabled() ? "enabled" : "disabled");

    // 2. The paper's instruction mix block: 4 mov + 1 jmp = 25 bytes,
    //    5 micro-ops. Chain 8 of them aliasing DSB set 5: the loop
    //    fits the LSD. Chain 9: permanent DSB eviction -> MITE.
    for (int blocks : {8, 9}) {
        std::vector<BlockSpec> specs;
        for (int i = 0; i < blocks; ++i)
            specs.push_back({i, false});
        const auto chain = buildMixBlockChain(0x400000, 5, specs);
        const double cpi =
            steadyCyclesPerIter(core, 0, chain, 20, 100);
        const auto &counters = core.counters(0);
        std::printf("%d-block loop: %.2f cycles/iteration "
                    "(LSD uops so far: %llu, MITE uops: %llu)\n",
                    blocks, cpi,
                    static_cast<unsigned long long>(counters.uopsLsd),
                    static_cast<unsigned long long>(counters.uopsMite));
        core.clearProgram(0);
    }

    // 3. Transmit a covert message over the fastest channel of the
    //    paper (non-MT fast eviction, Table III).
    std::printf("\nTransmitting \"HI!\" over the non-MT eviction"
                " channel...\n");
    TrialContext ctx(xeonE2288G());
    ChannelConfig cfg;
    cfg.d = 6;
    const auto channel = makeChannel("nonmt-fast-eviction", ctx.core(), cfg);
    const auto message = textToBits("HI!");
    const ChannelResult result = channel->transmit(message, ctx);
    std::printf("  received: \"%s\"\n",
                bitsToText(result.received).c_str());
    std::printf("  rate: %.1f Kbps, error rate: %.2f%%\n",
                result.transmissionKbps, result.errorRate * 100.0);
    return 0;
}
