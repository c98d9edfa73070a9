/**
 * @file
 * Streaming-runner identity tests: the streamed callback API, the
 * batch API, 1/4/8 worker threads and every fast path (program
 * caching, steady-state round skipping, counters; checked against one
 * reference mode) must all produce bit-identical results over a
 * registry-wide spec grid; the incremental SweepAccumulator must
 * reproduce aggregateSweep() exactly; and resolveTrial() must subsume
 * the old per-facet resolution (errors and skips become rows, never
 * aborts).
 */

#include <gtest/gtest.h>

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

/** Counters a fast path may legitimately move: prepared-cache traffic
 *  depends on which worker built a chain first, and steady-state
 *  skipping is the fast path itself. */
bool
fastPathCounter(const std::string &name)
{
    return name == "prepared_cache_hits" ||
        name == "prepared_cache_misses" ||
        name == "steady_skipped_cycles";
}

TEST(StreamingRunner, FastPathsMatchTheReferenceMode)
{
    // Every fast path is memoisation, observation or exact skipping:
    // the default configuration (fast paths on) at every thread
    // count, with counters on or off, must render the same bytes as
    // the reference mode (one thread, fast paths off), and every
    // simulation counter of every ok trial must match it too.
    // Inputs: zero-noise cells, default-noise cells, a handful of
    // environment-noise cells, and defended cells of the loop-bound
    // families: a flush quantum (steady-state skipping is refused)
    // and randomized sets. Neither grid CPU has SMT and SGX both, so
    // the SGX-MT cells (whose step skipping replays the receiver's
    // timing noise) run on E-2174G.
    std::vector<ExperimentSpec> specs = quietGrid();
    const auto &registry = registryGrid();
    for (std::size_t i = 0; i < registry.size(); ++i) {
        ExperimentSpec spec = registry[i];
        if (i % 7 == 0)
            spec.overrides["env.corunner_intensity"] = 0.5;
        specs.push_back(std::move(spec));
    }
    for (const char *defense :
         {"defense.flush_switch_quantum", "defense.randomize_sets"}) {
        for (const char *channel :
             {"power-eviction", "sgx-nonmt-fast-misalignment",
              "nonmt-stealthy-eviction"}) {
            ExperimentSpec spec;
            spec.channel = channel;
            spec.cpu = "E-2288G";
            spec.seed = 31;
            spec.messageBits = 4;
            spec.overrides = {{defense, 1},
                              {"sgxRounds", 400},
                              {"powerRounds", 800}};
            specs.push_back(std::move(spec));
        }
    }
    std::vector<std::size_t> sgx_mt_cells;
    for (const char *channel :
         {"sgx-mt-eviction", "sgx-mt-misalignment"}) {
        ExperimentSpec spec;
        spec.channel = channel;
        spec.cpu = "E-2174G";
        spec.seed = 37;
        spec.messageBits = 4;
        spec.overrides = {{"sgxMtSteps", 40}};
        for (ExperimentSpec &trial : expandTrials(spec, 2)) {
            sgx_mt_cells.push_back(specs.size());
            specs.push_back(std::move(trial));
        }
    }

    std::vector<ExperimentResult> reference;
    {
        const FastPathScope fast_paths(false);
        const obs::CounterScope counters(true);
        reference = ExperimentRunner(1).run(specs);
    }
    const std::string reference_json = jsonOf(reference);

    ASSERT_TRUE(fastPathsEnabled());
    for (const int threads : {1, 4, 8}) {
        for (const bool counters_on : {false, true}) {
            const obs::CounterScope counters(counters_on);
            const auto results = ExperimentRunner(threads).run(specs);
            EXPECT_EQ(jsonOf(results), reference_json)
                << "threads=" << threads << " counters=" << counters_on;
            ASSERT_EQ(results.size(), reference.size());
            for (std::size_t i = 0; i < results.size(); ++i) {
                const ExperimentResult &res = results[i];
                // Counter sets land only in ExperimentResult::counters,
                // which no standard sink serializes: present iff ok.
                EXPECT_EQ(res.counters != nullptr, counters_on && res.ok)
                    << res.spec.channel;
                if (!res.counters || !reference[i].counters)
                    continue;
                for (const obs::CounterInfo &info :
                     obs::counterCatalog()) {
                    if (fastPathCounter(info.name))
                        continue;
                    EXPECT_EQ(res.counters.get()->*info.field,
                              reference[i].counters.get()->*info.field)
                        << info.name << " of trial " << i << " ("
                        << res.spec.channel << ", " << res.spec.cpu
                        << ") threads=" << threads;
                }
            }
            // The SGX-MT comparison is not vacuous: those cells did
            // skip steps.
            for (const std::size_t i : sgx_mt_cells) {
                ASSERT_TRUE(results[i].ok) << results[i].error;
                if (counters_on) {
                    EXPECT_GT(results[i].counters->steadySkippedCycles, 0u)
                        << results[i].spec.channel
                        << " threads=" << threads;
                }
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
