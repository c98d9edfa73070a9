/**
 * @file
 * Steady-state round skipping (sim/steady_state.hh): the loop-bound
 * channels skip almost all of their rounds, and the MT channels many
 * of their encode steps, at the registry's defaults and still match
 * the reference mode exactly, a domain-switch hook refuses the skip,
 * and the canonical state ignores exactly what is unobservable (way
 * placement, LRU stamps, a loop's stable count past warm-up, read-side
 * noise draws when the RNG is left out) while catching what is not
 * (recency order, RNG draws when it is included).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "frontend/dsb.hh"
#include "frontend/loop_monitor.hh"
#include "frontend/prepared.hh"
#include "obs/counters.hh"
#include "run/experiment.hh"
#include "run/sinks.hh"
#include "sim/core.hh"
#include "sim/cpu_model.hh"

namespace lf {
namespace {

ExperimentSpec
loopBoundSpec(const std::string &channel)
{
    ExperimentSpec spec;
    spec.channel = channel;
    spec.cpu = "E-2288G";
    spec.seed = 7;
    spec.messageBits = 4;
    return spec;
}

ExperimentResult
runWithCounters(const ExperimentSpec &spec, bool fast_paths)
{
    const FastPathScope scope(fast_paths);
    const obs::CounterScope counters(true);
    return runExperiment(spec);
}

std::string
rowOf(const ExperimentResult &res)
{
    return JsonSink("steady").render({res});
}

/**
 * Run @p spec in the reference mode and with the fast paths on: the
 * sink rows and every simulation counter must match (prepared-cache
 * traffic aside, which depends on what the process built before).
 * Returns the fast run's counters.
 */
obs::CounterSet
expectReferenceCounters(const ExperimentSpec &spec)
{
    const ExperimentResult reference = runWithCounters(spec, false);
    const ExperimentResult fast = runWithCounters(spec, true);
    EXPECT_TRUE(reference.ok) << reference.error;
    EXPECT_TRUE(fast.ok) << fast.error;
    if (!reference.ok || !fast.ok)
        return {};
    EXPECT_EQ(rowOf(fast), rowOf(reference)) << spec.channel;
    const obs::CounterSet &ref = *reference.counters;
    const obs::CounterSet &got = *fast.counters;
    for (const obs::CounterInfo &info : obs::counterCatalog()) {
        if (info.field == &obs::CounterSet::steadySkippedCycles ||
            info.field == &obs::CounterSet::preparedCacheHits ||
            info.field == &obs::CounterSet::preparedCacheMisses)
            continue;
        EXPECT_EQ(got.*info.field, ref.*info.field)
            << spec.channel << ": " << info.name;
    }
    EXPECT_EQ(ref.steadySkippedCycles, 0u) << spec.channel;
    return got;
}

double
skippedShare(const obs::CounterSet &set)
{
    return static_cast<double>(set.steadySkippedCycles) /
        static_cast<double>(set.cycles);
}

TEST(SteadyState, LoopBoundChannelsSkipAlmostEveryCycleExactly)
{
    // Registry default rounds: 20,000 per power bit, 6,000 per SGX
    // bit.
    EXPECT_GT(skippedShare(expectReferenceCounters(
                  loopBoundSpec("power-eviction"))),
              0.99);

    // An SGX bit also pays two enclave transitions (3,200 cycles
    // each by default) outside the round loop, about 4% of its
    // cycles; with free transitions the rounds are all that is left.
    ExperimentSpec sgx = loopBoundSpec("sgx-nonmt-fast-eviction");
    EXPECT_GT(skippedShare(expectReferenceCounters(sgx)), 0.9);
    sgx.overrides["model.sgxEntryCycles"] = 0;
    sgx.overrides["model.sgxEntryJitterStddev"] = 0;
    EXPECT_GT(skippedShare(expectReferenceCounters(sgx)), 0.99);
}

TEST(SteadyState, MtStepLoopsSkipWithTheNoiseReplayed)
{
    // Registry defaults: 100 steps of 20 receiver samples per SGX-MT
    // bit, 20 steps of 10 per MT bit. Every skipped sample still draws
    // its timing noise, so the rows match only if the replay keeps
    // the RNG stream in order.
    ExperimentSpec sgx_mt = loopBoundSpec("sgx-mt-eviction");
    sgx_mt.cpu = "E-2174G";
    EXPECT_GT(skippedShare(expectReferenceCounters(sgx_mt)), 0.85);

    // 20 steps leave fewer whole periods to skip. A misalignment
    // step's first sample is faster than the rest, so its replay
    // also pins the sample order within a step.
    for (const char *channel : {"mt-eviction", "mt-misalignment"}) {
        ExperimentSpec mt = loopBoundSpec(channel);
        mt.cpu = "E-2174G";
        EXPECT_GT(skippedShare(expectReferenceCounters(mt)), 0.2)
            << channel;
    }
}

TEST(SteadyState, DomainSwitchHookRefusesTheSkip)
{
    ExperimentSpec spec = loopBoundSpec("power-eviction");
    spec.overrides["powerRounds"] = 2000;
    spec.overrides["defense.flush_switch_quantum"] = 4;
    const ExperimentResult fast = runWithCounters(spec, true);
    ASSERT_TRUE(fast.ok) << fast.error;
    EXPECT_EQ(fast.counters->steadySkippedCycles, 0u);
    EXPECT_EQ(rowOf(fast), rowOf(runWithCounters(spec, false)));
}

std::vector<std::uint64_t>
stateOf(const Dsb &dsb)
{
    std::vector<std::uint64_t> out;
    dsb.appendState(out);
    return out;
}

/** Keys of distinct lines that all map to DSB set 3. */
Addr
keyInSet3(int i)
{
    return 0x400000 + 3 * 32 + static_cast<Addr>(i) * 1024;
}

TEST(SteadyState, DsbStateKeepsRecencyOrderOnly)
{
    const FrontendParams params;
    Dsb plain(params);
    for (int i = 1; i <= 3; ++i)
        plain.insert(0, keyInSet3(i), 4);

    // Same lines one way further along: a filler takes way 0 and is
    // then flushed, which also shifts every LRU stamp.
    Dsb shifted(params);
    shifted.insert(0, keyInSet3(0), 4);
    for (int i = 1; i <= 3; ++i)
        shifted.insert(0, keyInSet3(i), 4);
    shifted.flushKey(0, keyInSet3(0));
    EXPECT_EQ(stateOf(shifted), stateOf(plain));

    // Same ways, different stamps: re-touching the oldest line before
    // the others arrive leaves the order unchanged.
    Dsb restamped(params);
    restamped.insert(0, keyInSet3(1), 4);
    restamped.lookup(0, keyInSet3(1));
    restamped.insert(0, keyInSet3(2), 4);
    restamped.insert(0, keyInSet3(3), 4);
    EXPECT_EQ(stateOf(restamped), stateOf(plain));

    // A different recency order is a different state: the next fill
    // would evict a different line.
    Dsb reordered(params);
    for (int i = 1; i <= 3; ++i)
        reordered.insert(0, keyInSet3(i), 4);
    reordered.lookup(0, keyInSet3(1));
    EXPECT_NE(stateOf(reordered), stateOf(plain));
}

/** A monitor that closed @p iters iterations of one three-block loop. */
std::vector<std::uint64_t>
loopStateAfter(const FrontendParams &params, int iters)
{
    LoopMonitor monitor(params);
    const std::vector<Addr> keys = {0x1000, 0x1400, 0x1800};
    monitor.recordTakenBranch(0x1814, 0x1000); // found the candidate
    for (int it = 0; it < iters; ++it) {
        for (const Addr key : keys)
            monitor.recordChunk({key, 5, true, true});
        monitor.recordTakenBranch(0x1814, 0x1000);
    }
    std::vector<std::uint64_t> out;
    monitor.appendState(out);
    return out;
}

TEST(SteadyState, LoopStateSaturatesAtWarmup)
{
    FrontendParams params;
    params.lsdWarmupIters = 3;
    // Past warm-up only "stable enough" is observable.
    EXPECT_EQ(loopStateAfter(params, 3), loopStateAfter(params, 7));
    // Below it, the count decides when the LSD engages.
    EXPECT_NE(loopStateAfter(params, 1), loopStateAfter(params, 2));
}

TEST(SteadyState, TheRngCanBeLeftOutOfTheState)
{
    Core core(gold6226(), 5);
    std::vector<std::uint64_t> with_rng;
    std::vector<std::uint64_t> machine;
    core.appendSteadyState(with_rng);
    core.appendSteadyState(machine, /*include_rng=*/false);
    ASSERT_NE(gold6226().noise.stddevCycles, 0.0);
    core.noisyMeasurement(1000.0);
    std::vector<std::uint64_t> with_rng_after;
    std::vector<std::uint64_t> machine_after;
    core.appendSteadyState(with_rng_after);
    core.appendSteadyState(machine_after, /*include_rng=*/false);
    EXPECT_NE(with_rng_after, with_rng);
    EXPECT_EQ(machine_after, machine);
}

TEST(SteadyState, AnRngDrawChangesTheCoreState)
{
    Core core(gold6226(), 5);
    std::vector<std::uint64_t> before;
    std::vector<std::uint64_t> again;
    std::vector<std::uint64_t> after;
    core.appendSteadyState(before);
    core.appendSteadyState(again);
    EXPECT_EQ(again, before);
    core.rng().next();
    core.appendSteadyState(after);
    EXPECT_NE(after, before);
}

} // namespace
} // namespace lf
