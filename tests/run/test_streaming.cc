/**
 * @file
 * Streaming-runner identity tests: the streamed callback API, the
 * batch API, 1/4/8 worker threads and every fast path (program
 * caching, core reuse, counters; checked against one reference mode)
 * must all produce bit-identical results over a registry-wide spec
 * grid; the incremental SweepAccumulator must reproduce
 * aggregateSweep() exactly; and resolveTrial() must subsume the old
 * per-facet resolution (errors and skips become rows, never aborts).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "frontend/prepared.hh"
#include "obs/counters.hh"
#include "run/runner.hh"
#include "run/sinks.hh"
#include "run/sweep.hh"
#include "sim/cpu_model.hh"

namespace lf {
namespace {

/** Registry-wide grid: every channel on two CPUs (one SMT server,
 *  one SMT-less SGX machine, so skip rows appear mid-stream), two
 *  trials each, with a couple of override-carrying cells. */
const std::vector<ExperimentSpec> &
registryGrid()
{
    static const std::vector<ExperimentSpec> grid = [] {
        std::vector<ExperimentSpec> specs;
        for (const std::string &channel : allChannelNames()) {
            for (const char *cpu : {"Gold 6226", "E-2288G"}) {
                ExperimentSpec spec;
                spec.channel = channel;
                spec.cpu = cpu;
                spec.seed = 17;
                spec.messageBits = 4;
                // Keep the slow families fast.
                spec.overrides["sgxRounds"] = 400;
                spec.overrides["powerRounds"] = 800;
                for (ExperimentSpec &trial : expandTrials(spec, 2))
                    specs.push_back(std::move(trial));
            }
        }
        // One error row mid-batch: must stream through in order.
        ExperimentSpec bad;
        bad.channel = "nonmt-fast-eviction";
        bad.cpu = "Gold 6226";
        bad.overrides["d"] = 0;
        specs.insert(specs.begin() + 5, bad);
        return specs;
    }();
    return grid;
}

std::string
jsonOf(const std::vector<ExperimentResult> &results)
{
    return JsonSink("stream").render(results);
}

TEST(StreamingRunner, StreamMatchesBatchAtEveryThreadCount)
{
    const auto &specs = registryGrid();
    const std::string batch_json =
        jsonOf(ExperimentRunner(1).run(specs));

    for (const int threads : {1, 4, 8}) {
        const ExperimentRunner runner(threads);
        // Batch API.
        EXPECT_EQ(jsonOf(runner.run(specs)), batch_json) << threads;
        // Streaming API, spec order: identical bytes, and the stream
        // can be serialized row-by-row as it arrives.
        std::vector<ExperimentResult> streamed;
        JsonSink sink("stream");
        std::ostringstream os;
        sink.writeHeader(os);
        runner.run(specs, [&](const ExperimentResult &res) {
            streamed.push_back(res);
            sink.writeRow(res, os);
        });
        sink.writeFooter(os);
        EXPECT_EQ(jsonOf(streamed), batch_json) << threads;
        EXPECT_EQ(os.str(), batch_json) << threads;
    }
}

TEST(StreamingRunner, CompletionOrderDeliversTheSameResultSet)
{
    const auto &specs = registryGrid();
    const auto in_order = ExperimentRunner(1).run(specs);

    std::vector<ExperimentResult> completed;
    ExperimentRunner(4).run(
        specs,
        [&](const ExperimentResult &res) {
            completed.push_back(res);
        },
        StreamOrder::Completion);
    ASSERT_EQ(completed.size(), in_order.size());

    // Re-establish spec order by matching (channel, cpu, seed,
    // overrides) — unique per spec in this grid — then compare bytes.
    const auto key = [](const ExperimentResult &res) {
        std::string k = res.spec.channel + "|" + res.spec.cpu + "|" +
            std::to_string(res.spec.seed);
        for (const auto &[name, value] : res.spec.overrides)
            k += "|" + name + "=" + std::to_string(value);
        return k;
    };
    const auto by_key = [&key](const ExperimentResult &a,
                               const ExperimentResult &b) {
        return key(a) < key(b);
    };
    auto sorted_completed = completed;
    auto sorted_in_order = in_order;
    std::sort(sorted_completed.begin(), sorted_completed.end(),
              by_key);
    std::sort(sorted_in_order.begin(), sorted_in_order.end(), by_key);
    EXPECT_EQ(jsonOf(sorted_completed), jsonOf(sorted_in_order));
}

TEST(StreamingRunner, ReboundContextMatchesFreshContexts)
{
    // The worker-side primitive, without the pool: one TrialContext
    // rebound across different specs must reproduce fresh contexts.
    ExperimentSpec a;
    a.channel = "nonmt-fast-eviction";
    a.cpu = "Gold 6226";
    a.seed = 5;
    a.messageBits = 6;
    ExperimentSpec b;
    b.channel = "slow-switch";
    b.cpu = "E-2288G";
    b.seed = 9;
    b.messageBits = 6;
    b.overrides["model.lcpStall"] = 4;

    TrialContext reused;
    const auto first = runExperiment(a, reused);
    const auto second = runExperiment(b, reused);
    const auto third = runExperiment(a, reused);

    EXPECT_EQ(jsonOf({first, second, third}),
              jsonOf({runExperiment(a), runExperiment(b),
                      runExperiment(a)}));
}

TEST(StreamingRunner, CallbackExceptionStopsAndPropagates)
{
    std::vector<ExperimentSpec> specs;
    ExperimentSpec spec;
    spec.channel = "nonmt-fast-eviction";
    spec.cpu = "Gold 6226";
    spec.messageBits = 4;
    for (ExperimentSpec &trial : expandTrials(spec, 24))
        specs.push_back(std::move(trial));

    std::size_t delivered = 0;
    EXPECT_THROW(
        ExperimentRunner(4).run(specs,
                                [&](const ExperimentResult &) {
                                    if (++delivered == 3)
                                        throw std::runtime_error("x");
                                }),
        std::runtime_error);
    EXPECT_EQ(delivered, 3u);
}

TEST(StreamingRunner, WorkersNeverOutrunTheReorderWindow)
{
    // The reorder window is what makes streaming memory-bound: a
    // worker may claim trial i only while i < delivered + window.
    // Install the claim probe, slow the consumer so workers pile up
    // against the window, and check the bound on every single claim.
    ExperimentSpec spec;
    spec.channel = "nonmt-fast-eviction";
    spec.cpu = "Gold 6226";
    spec.messageBits = 2;
    std::vector<ExperimentSpec> specs;
    ExperimentRunner runner(4);
    const std::size_t window = runner.reorderWindow();
    for (ExperimentSpec &trial :
         expandTrials(spec, static_cast<int>(window) + 40)) {
        specs.push_back(std::move(trial));
    }

    std::atomic<std::size_t> violations{0};
    std::atomic<std::size_t> maxLead{0};
    runner.setTrialProbe(
        [&](std::size_t index, std::size_t delivered) {
            if (index >= delivered + window)
                violations.fetch_add(1);
            const std::size_t lead =
                index > delivered ? index - delivered : 0;
            std::size_t seen = maxLead.load();
            while (lead > seen &&
                   !maxLead.compare_exchange_weak(seen, lead)) {
            }
        });

    std::size_t delivered = 0;
    runner.run(specs, [&](const ExperimentResult &res) {
        EXPECT_TRUE(res.ok);
        ++delivered;
        // A deliberately slow consumer: give workers every chance
        // to race ahead of delivery.
        if (delivered < 8)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });

    EXPECT_EQ(delivered, specs.size());
    EXPECT_EQ(violations.load(), 0u);
    // Sanity: the probe actually observed concurrency (workers got
    // ahead of the consumer at least once), so the bound above was
    // exercised rather than vacuous.
    EXPECT_GT(maxLead.load(), 0u);
    EXPECT_LT(maxLead.load(), window);
}

/** Registry-wide zero-noise grid: every noise knob forced to zero, so
 *  cells whose calibration draws no randomness are covered alongside
 *  the default (noisy) models; several trials per cell. */
std::vector<ExperimentSpec>
quietGrid()
{
    std::vector<ExperimentSpec> specs;
    for (const std::string &channel : allChannelNames()) {
        for (const char *cpu : {"Gold 6226", "E-2288G"}) {
            ExperimentSpec spec;
            spec.channel = channel;
            spec.cpu = cpu;
            spec.seed = 29;
            spec.messageBits = 4;
            spec.overrides = {
                {"model.noiseStddevCycles", 0},
                {"model.spikeProb", 0},
                {"model.jitterPerKcycle", 0},
                {"model.sgxEntryJitterStddev", 0},
                {"model.raplNoiseStddevMicroJoules", 0},
                {"sgxRounds", 400},
                {"powerRounds", 800},
            };
            for (ExperimentSpec &trial : expandTrials(spec, 3))
                specs.push_back(std::move(trial));
        }
    }
    return specs;
}

TEST(StreamingRunner, FastPathsMatchTheReferenceMode)
{
    // Every fast path is pure memoisation or pure observation: the
    // default configuration (program caching on, per-worker core
    // reuse) at every thread count, with counters on or off, must
    // render the same bytes as the reference mode — one thread,
    // program caching off, counters off, a fresh core per trial.
    // Inputs: zero-noise cells, default-noise cells, and a handful
    // of environment-noise cells.
    std::vector<ExperimentSpec> specs = quietGrid();
    const auto &registry = registryGrid();
    for (std::size_t i = 0; i < registry.size(); ++i) {
        ExperimentSpec spec = registry[i];
        if (i % 7 == 0)
            spec.overrides["env.corunner_intensity"] = 0.5;
        specs.push_back(std::move(spec));
    }

    std::string reference;
    {
        const ProgramCachingScope caching(false);
        const obs::CounterScope counters(false);
        ExperimentRunner runner(1);
        runner.setCoreReuse(false);
        reference = jsonOf(runner.run(specs));
    }

    ASSERT_TRUE(programCacheEnabled());
    ASSERT_TRUE(ExperimentRunner().coreReuse());
    for (const int threads : {1, 4, 8}) {
        for (const bool counters_on : {false, true}) {
            const obs::CounterScope counters(counters_on);
            const auto results = ExperimentRunner(threads).run(specs);
            EXPECT_EQ(jsonOf(results), reference)
                << "threads=" << threads << " counters=" << counters_on;
            // Counter sets land only in ExperimentResult::counters,
            // which no standard sink serializes: present iff ok.
            for (const ExperimentResult &res : results) {
                EXPECT_EQ(res.counters != nullptr, counters_on && res.ok)
                    << res.spec.channel;
            }
        }
    }
}

TEST(ResolveTrial, ErrorsSkipsAndSuccessesAreDistinguished)
{
    TrialContext ctx;
    bool skipped = true;

    ExperimentSpec good;
    good.channel = "nonmt-fast-eviction";
    good.cpu = "Gold 6226";
    EXPECT_EQ(resolveTrial(good, ctx, &skipped), "");
    EXPECT_FALSE(skipped);
    EXPECT_TRUE(ctx.bound());
    EXPECT_EQ(ctx.model().name, "Gold 6226");
    EXPECT_EQ(ctx.config().d, 6); // registry default for eviction

    ExperimentSpec skip;
    skip.channel = "mt-eviction";
    skip.cpu = "E-2288G"; // SMT disabled
    EXPECT_NE(resolveTrial(skip, ctx, &skipped), "");
    EXPECT_TRUE(skipped);

    ExperimentSpec bad;
    bad.channel = "nonmt-fast-eviction";
    bad.cpu = "Gold 6226";
    bad.overrides["model.deadlock_kcycles"] = 0;
    const std::string error = resolveTrial(bad, ctx, &skipped);
    EXPECT_NE(error.find("deadlock_kcycles"), std::string::npos);
    EXPECT_FALSE(skipped);

    // Address overrides are range-checked before their cast to Addr.
    for (const char *key : {"receiverBase", "senderBase"}) {
        for (const double value : {-4096.0, 1e30, 0x1p64}) {
            ExperimentSpec wild = good;
            wild.overrides[key] = value;
            const std::string wild_error =
                resolveTrial(wild, ctx, &skipped);
            EXPECT_EQ(wild_error.rfind(std::string(key) + "=", 0), 0u)
                << wild_error;
            EXPECT_NE(wild_error.find("out of range"), std::string::npos)
                << wild_error;
            EXPECT_FALSE(skipped);
        }
    }

    // The defense's model-level mitigations land in the context's
    // model copy (the resolution pipeline's documented order).
    ExperimentSpec defended = good;
    defended.overrides["defense.rapl_quantum_uj"] = 4096;
    EXPECT_EQ(resolveTrial(defended, ctx, &skipped), "");
    EXPECT_GE(ctx.model().rapl.quantumMicroJoules, 4096.0);
}

TEST(SweepAccumulator, MatchesAggregateSweepOnAShardedSweep)
{
    SweepSpec sweep;
    sweep.channels = {"nonmt-fast-eviction", "mt-eviction"};
    sweep.cpus = {"Gold 6226", "E-2288G"};
    sweep.axes = {{"d", {2, 6}},
                  {"env.corunner_intensity", {0.0, 0.5}}};
    sweep.trials = 3;
    sweep.messageBits = 6;
    sweep.seed = 23;

    const auto results = runSweep(sweep, ExperimentRunner(4));
    const auto batch_cells = aggregateSweep(results);

    SweepAccumulator accumulator;
    for (const ExperimentResult &res : results)
        accumulator.add(res);
    EXPECT_EQ(accumulator.resultCount(), results.size());

    const auto &cells = accumulator.cells();
    ASSERT_EQ(cells.size(), batch_cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
        EXPECT_EQ(cells[c].label, batch_cells[c].label);
        EXPECT_EQ(cells[c].channel, batch_cells[c].channel);
        EXPECT_EQ(cells[c].cpu, batch_cells[c].cpu);
        EXPECT_EQ(cells[c].overrides, batch_cells[c].overrides);
        EXPECT_EQ(cells[c].trials, batch_cells[c].trials);
        EXPECT_EQ(cells[c].okTrials, batch_cells[c].okTrials);
        EXPECT_EQ(cells[c].skippedTrials,
                  batch_cells[c].skippedTrials);
        EXPECT_EQ(cells[c].errorRate.mean(),
                  batch_cells[c].errorRate.mean());
        EXPECT_EQ(cells[c].errorRate.stddev(),
                  batch_cells[c].errorRate.stddev());
        EXPECT_EQ(cells[c].transmissionKbps.mean(),
                  batch_cells[c].transmissionKbps.mean());
        EXPECT_EQ(cells[c].capacityKbps.mean(),
                  batch_cells[c].capacityKbps.mean());
    }

    // The summary sink streams through the same accumulator: row-by-
    // row feeding must render the same bytes as the batch call.
    SweepSummarySink streamed("t");
    std::ostringstream streamed_os;
    streamed.writeHeader(streamed_os);
    for (const ExperimentResult &res : results)
        streamed.writeRow(res, streamed_os);
    streamed.writeFooter(streamed_os);
    EXPECT_EQ(streamed_os.str(), SweepSummarySink("t").render(results));
}

} // namespace
} // namespace lf
