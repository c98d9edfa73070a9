/**
 * @file
 * Simulator/runner microbenchmarks, in two parts:
 *
 *  1. A hand-timed ExperimentRunner throughput section (always runs,
 *     `--smoke` shrinks it for sanitizer CI): trials/sec at 1/4/8
 *     worker threads with per-worker core reuse vs a fresh Core per
 *     trial, emitted as BENCH_runner_throughput.json — the perf
 *     trajectory of the run layer.
 *  2. google-benchmark microbenchmarks of the substrate: core tick
 *     throughput, DSB lookups, Core reset-vs-construct cost,
 *     end-to-end covert-channel bit cost, and the run-layer
 *     overheads (sweep grid expansion, one full experiment trial).
 *     Skipped in --smoke mode.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "core/nonmt_channels.hh"
#include "frontend/prepared.hh"
#include "isa/mix_block.hh"
#include "obs/counters.hh"
#include "run/report.hh"
#include "run/sinks.hh"
#include "run/sweep.hh"
#include "sim/core.hh"
#include "sim/cpu_model.hh"
#include "sim/executor.hh"

namespace lf {
namespace {

// ---- Part 1: runner throughput (BENCH_runner_throughput.json). ----

/** Single-thread trials/s of this batch recorded at PR 5 (the state
 *  ISSUE 7 starts from: map-backed fetch image, per-trial chain
 *  rebuilds, lock-convoy reorder window). The hot-path gate below
 *  requires at least a 3x improvement over it. */
constexpr double kPr5BaselineTrialsPerSec = 2400.0;

/** Cheap, valid trial spec: construction overhead must be visible
 *  next to the simulation work, so bits and rounds are minimal. */
ExperimentSpec
throughputSpec()
{
    ExperimentSpec spec;
    spec.channel = "nonmt-fast-eviction";
    spec.cpu = "E-2288G";
    spec.seed = 7;
    spec.messageBits = 4;
    spec.preambleBits = 4;
    spec.overrides["rounds"] = 2;
    spec.overrides["initIters"] = 2;
    return spec;
}

double
trialsPerSec(const ExperimentRunner &runner,
             const std::vector<ExperimentSpec> &batch, int reps,
             std::vector<double> *samples = nullptr)
{
    using Clock = std::chrono::steady_clock;
    // Best-of-reps: scheduler hiccups only ever slow a rep down, so
    // the max is the least-noisy throughput estimate. The raw
    // per-rep samples are recorded too (--repeat N widens the set)
    // so regressions can be told apart from one lucky/unlucky rep.
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        const Clock::time_point start = Clock::now();
        std::size_t delivered = 0;
        runner.run(batch, [&delivered](const ExperimentResult &res) {
            if (res.ok)
                ++delivered;
        });
        const double seconds =
            std::chrono::duration<double>(Clock::now() - start)
                .count();
        if (delivered != batch.size())
            std::fprintf(stderr, "warning: %zu/%zu trials ok\n",
                         delivered, batch.size());
        const double tps = seconds > 0.0
            ? static_cast<double>(batch.size()) / seconds
            : 0.0;
        if (samples != nullptr)
            samples->push_back(tps);
        best = std::max(best, tps);
    }
    return best;
}

/** Direct per-trial construction-cost comparison: nanoseconds to
 *  construct a fresh Core vs to Core::reset() an existing one —
 *  exactly the work the streaming runner's core reuse saves per
 *  trial. Best-of-reps over sizeable loops, so the comparison stays
 *  meaningful on noisy shared machines where the end-to-end
 *  trials/sec delta (construction is ~0.1% of a trial) drowns in
 *  scheduler jitter. */
void
measureCoreReuse(int iters, int reps, double &construct_ns,
                 double &reset_ns)
{
    using Clock = std::chrono::steady_clock;
    const CpuModel &model = xeonE2288G();
    construct_ns = 0.0;
    reset_ns = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        Clock::time_point start = Clock::now();
        for (int i = 0; i < iters; ++i) {
            Core core(model, static_cast<std::uint64_t>(i) + 1);
            benchmark::DoNotOptimize(core.cycle());
        }
        const double construct =
            std::chrono::duration<double, std::nano>(Clock::now() -
                                                     start)
                .count() / iters;
        Core core(model, 1);
        start = Clock::now();
        for (int i = 0; i < iters; ++i) {
            core.reset(model, static_cast<std::uint64_t>(i) + 1);
            benchmark::DoNotOptimize(core.cycle());
        }
        const double reset =
            std::chrono::duration<double, std::nano>(Clock::now() -
                                                     start)
                .count() / iters;
        if (rep == 0 || construct < construct_ns)
            construct_ns = construct;
        if (rep == 0 || reset < reset_ns)
            reset_ns = reset;
    }
}

int
emitRunnerThroughput(bool smoke, int repeat)
{
    const int trials = smoke ? 64 : 256;
    const int reps = repeat > 0 ? repeat : (smoke ? 1 : 3);
    const auto batch = expandTrials(throughputSpec(), trials);
    const unsigned hw_threads = std::thread::hardware_concurrency();

    bench::banner("Runner throughput (per-worker core reuse vs fresh"
                  " Core per trial)");
    bench::JsonReport report("runner_throughput");
    report.integer("trials", trials);
    report.integer("message_bits", 4);
    report.integer("hw_threads", static_cast<long long>(hw_threads));
    report.integer("repeat", reps);
    report.boolean("smoke", smoke);

    double reused_t1 = 0.0;
    double fresh_t1 = 0.0;
    double reused_t8 = 0.0;
    std::printf("%8s  %18s  %18s\n", "threads", "reused (trials/s)",
                "fresh (trials/s)");
    for (const int threads : {1, 4, 8}) {
        ExperimentRunner reused(threads);
        ExperimentRunner fresh(threads);
        fresh.setCoreReuse(false);
        // Fresh first, reused second: if anything, the warmed
        // allocator favours the later run equally.
        std::vector<double> fresh_samples;
        std::vector<double> reused_samples;
        const double fresh_tps =
            trialsPerSec(fresh, batch, reps, &fresh_samples);
        const double reused_tps =
            trialsPerSec(reused, batch, reps, &reused_samples);
        std::printf("%8d  %18.1f  %18.1f\n", threads, reused_tps,
                    fresh_tps);
        const std::string tag = "_t" + std::to_string(threads);
        report.number("reused" + tag + "_trials_per_sec", reused_tps);
        report.number("fresh" + tag + "_trials_per_sec", fresh_tps);
        report.numberArray("reused" + tag + "_samples",
                           reused_samples);
        report.numberArray("fresh" + tag + "_samples", fresh_samples);
        if (threads == 1) {
            reused_t1 = reused_tps;
            fresh_t1 = fresh_tps;
        }
        if (threads == 8)
            reused_t8 = reused_tps;
    }

    // Legacy hot path, measured in-run: program caching off
    // reproduces the PR-5-era per-trial setup cost (rebuild every
    // chain, re-decode on every setProgram bind). The ratio checks
    // that the program/chunk cache still pays for itself; the
    // absolute trials/s above carry the full speedup trajectory
    // against the recorded PR-5 baseline.
    double legacy_t1 = 0.0;
    {
        ProgramCachingScope scope(false);
        legacy_t1 = trialsPerSec(ExperimentRunner(1), batch, reps);
    }
    const double cache_speedup =
        legacy_t1 > 0.0 ? reused_t1 / legacy_t1 : 0.0;
    std::printf("\nsingle-thread hot path: tuned %.1f trials/s,"
                " legacy (no program/chunk cache) %.1f trials/s"
                " (%.2fx)\n", reused_t1, legacy_t1, cache_speedup);
    report.number("legacy_t1_trials_per_sec", legacy_t1);
    report.number("tuned_over_legacy_t1", cache_speedup);
    report.number("pr5_baseline_trials_per_sec",
                  kPr5BaselineTrialsPerSec);

    // The observability overhead budget (docs/OBSERVABILITY.md): the
    // increment hooks feeding obs::CounterSet are compiled in
    // unconditionally, so the *counters-off* path — every normal run —
    // must stay within 2% of the 3x-over-PR-5 throughput the PR-7
    // runner gated on. The counters-on figure is also measured and
    // emitted (collection adds one CounterSet copy per trial), but
    // only reported: opting into counters buys the data with the
    // overhead.
    double counters_on_t1 = 0.0;
    {
        obs::CounterScope scope(true);
        counters_on_t1 = trialsPerSec(ExperimentRunner(1), batch, reps);
    }
    const double pr7_gate = 3.0 * kPr5BaselineTrialsPerSec;
    std::printf("counters on: %.1f trials/s (off: %.1f; PR-7 gate"
                " %.1f, 2%% floor %.1f)\n",
                counters_on_t1, reused_t1, pr7_gate, 0.98 * pr7_gate);
    report.number("counters_off_t1_trials_per_sec", reused_t1);
    report.number("counters_on_t1_trials_per_sec", counters_on_t1);
    report.number("pr7_gate_trials_per_sec", pr7_gate);
    report.number("counters_off_overhead_gate", 0.98 * pr7_gate);

    // Thundering-herd regression check, made deterministic: with a
    // batch smaller than the reorder window no worker can ever be a
    // full window ahead of delivery, so no worker ever parks and a
    // correct runner issues exactly zero slot-free broadcasts —
    // independent of scheduling, core count or consumer speed. The
    // pre-PR-7 runner broadcast to every worker once per delivered
    // row, which this check counts directly.
    StreamStats stats;
    {
        ExperimentRunner herd(4);
        herd.setStatsSink(&stats);
        const int herd_rows = static_cast<int>(herd.reorderWindow()) - 8;
        const auto herd_batch =
            expandTrials(throughputSpec(), herd_rows);
        herd.run(herd_batch, [](const ExperimentResult &) {});
        std::printf("coordination (t4, %d rows < window %zu): %llu"
                    " worker parks, %llu consumer parks, %llu wake"
                    " broadcasts\n",
                    herd_rows, herd.reorderWindow(),
                    static_cast<unsigned long long>(stats.workerParks),
                    static_cast<unsigned long long>(
                        stats.consumerParks),
                    static_cast<unsigned long long>(
                        stats.wakeBroadcasts));
    }
    report.integer("herd_worker_parks",
                   static_cast<long long>(stats.workerParks));
    report.integer("herd_consumer_parks",
                   static_cast<long long>(stats.consumerParks));
    report.integer("herd_wake_broadcasts",
                   static_cast<long long>(stats.wakeBroadcasts));

    double construct_ns = 0.0;
    double reset_ns = 0.0;
    measureCoreReuse(smoke ? 2000 : 20000, smoke ? 2 : 5,
                     construct_ns, reset_ns);
    std::printf("per-trial construction cost: fresh Core %.0f ns,"
                " Core::reset %.0f ns (%.1fx)\n",
                construct_ns, reset_ns,
                reset_ns > 0.0 ? construct_ns / reset_ns : 0.0);
    report.number("core_construct_ns", construct_ns);
    report.number("core_reset_ns", reset_ns);
    report.number("reuse_speedup_t1",
                  fresh_t1 > 0.0 ? reused_t1 / fresh_t1 : 0.0);
    // Thread-scaling ratio: on a host without 8 hardware threads the
    // t8 run oversubscribes and the ratio says nothing about the
    // runner — emit an explicit JSON null ("not measurable here"),
    // never a misleading sub-1.0 number.
    if (hw_threads >= 8) {
        report.number("t8_over_t1",
                      reused_t1 > 0.0 ? reused_t8 / reused_t1 : 0.0);
    } else {
        report.nullValue("t8_over_t1");
    }

    report.writeFile(benchJsonFileName("runner_throughput"));
    std::printf("\nwrote %s\n",
                benchJsonFileName("runner_throughput").c_str());
    int rc = 0;
    // The herd check is structural (see above), so it gates even
    // under --smoke; the timing gates below are skipped there
    // (sanitizer/debug timing skew).
    rc |= bench::shapeCheck("sub-window batch issues zero wakeup"
                            " broadcasts (no thundering herd)",
                            stats.wakeBroadcasts == 0 &&
                                stats.workerParks == 0);
    if (smoke)
        return rc;
    // The construction-vs-reset measurement is isolated because the
    // end-to-end reuse delta (construction is a fraction of a percent
    // of one trial) sits below shared-CI scheduler noise.
    rc |= bench::shapeCheck("core reuse beats per-trial construction",
                            reset_ns < construct_ns);
    rc |= bench::shapeCheck("program/chunk cache still pays on the"
                            " single-thread hot path (>= 1.2x)",
                            cache_speedup >= 1.2);
    rc |= bench::shapeCheck("single-thread throughput >= 3x the PR-5"
                            " baseline (2.4k trials/s)",
                            reused_t1 >=
                                3.0 * kPr5BaselineTrialsPerSec);
    rc |= bench::shapeCheck("counters-off throughput within 2% of the"
                            " PR-7 gate baseline",
                            reused_t1 >= 0.98 * pr7_gate);
    // Thread scaling needs the hardware to scale on; on smaller CI
    // boxes the values above are still emitted for the trajectory.
    if (hw_threads >= 8) {
        rc |= bench::shapeCheck("8-thread throughput >= 3x"
                                " single-thread",
                                reused_t8 >= 3.0 * reused_t1);
    } else {
        std::printf("Shape check (8-thread throughput >= 3x"
                    " single-thread): skipped (host too small: %u"
                    " hardware threads < 8)\n", hw_threads);
    }
    return rc;
}

// ---- Part 2: google-benchmark substrate microbenchmarks. ----

void
BM_CoreTickDsbLoop(benchmark::State &state)
{
    Core core(gold6226(), 1);
    std::vector<BlockSpec> specs;
    for (int i = 0; i < 8; ++i)
        specs.push_back({i, false});
    const auto chain = buildMixBlockChain(0x400000, 5, specs);
    core.setProgram(0, &chain.program);
    runLoopIters(core, 0, chain, 30);
    for (auto _ : state)
        core.tick();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoreTickDsbLoop);

void
BM_CoreTickSmtContention(benchmark::State &state)
{
    Core core(gold6226(), 1);
    const auto attacker = buildNopLoop(0x100000, 100);
    std::vector<BlockSpec> specs;
    for (int i = 0; i < 9; ++i)
        specs.push_back({i, false});
    const auto victim = buildMixBlockChain(0x400000, 5, specs);
    core.setProgram(0, &attacker.program);
    core.setProgram(1, &victim.program);
    core.runCycles(1000);
    for (auto _ : state)
        core.tick();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoreTickSmtContention);

void
BM_DsbLookup(benchmark::State &state)
{
    FrontendParams params;
    Dsb dsb(params);
    for (int i = 0; i < 256; ++i)
        dsb.insert(0, static_cast<Addr>(i) * 32, 5);
    Addr key = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(dsb.lookup(0, key));
        key = (key + 32) % (256 * 32);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DsbLookup);

void
BM_CoreConstruct(benchmark::State &state)
{
    const CpuModel &model = xeonE2288G();
    std::uint64_t seed = 1;
    for (auto _ : state) {
        Core core(model, seed++);
        benchmark::DoNotOptimize(core.cycle());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoreConstruct);

void
BM_CoreReset(benchmark::State &state)
{
    const CpuModel &model = xeonE2288G();
    Core core(model, 1);
    std::uint64_t seed = 1;
    for (auto _ : state) {
        core.reset(model, seed++);
        benchmark::DoNotOptimize(core.cycle());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoreReset);

void
BM_ChannelBit(benchmark::State &state)
{
    Core core(xeonE2288G(), 1);
    ChannelConfig cfg;
    cfg.d = 6;
    NonMtEvictionChannel channel(core, cfg);
    channel.setup();
    bool bit = false;
    for (auto _ : state) {
        benchmark::DoNotOptimize(channel.transmitBit(bit));
        bit = !bit;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelBit);

void
BM_SweepExpansion(benchmark::State &state)
{
    SweepSpec sweep;
    sweep.channels = allChannelNames();
    for (const CpuModel *cpu : allCpuModels())
        sweep.cpus.push_back(cpu->name);
    sweep.axes = {{"d", {1, 2, 3, 4, 5, 6, 7, 8}}};
    sweep.trials = 4;
    std::size_t specs = 0;
    for (auto _ : state) {
        const auto batch = expandSweep(sweep);
        benchmark::DoNotOptimize(batch.data());
        specs = batch.size();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(specs));
}
BENCHMARK(BM_SweepExpansion);

void
BM_RunExperimentTrial(benchmark::State &state)
{
    ExperimentSpec spec;
    spec.channel = "nonmt-fast-eviction";
    spec.cpu = "E-2288G";
    spec.messageBits = 8;
    for (auto _ : state) {
        const auto res = runExperiment(spec);
        benchmark::DoNotOptimize(res.ok);
    }
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_RunExperimentTrial);

} // namespace
} // namespace lf

int
main(int argc, char **argv)
{
    bool smoke = false;
    int repeat = 0;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        // Strip our own flags: google-benchmark rejects unknown ones.
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
            continue;
        }
        if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
            repeat = std::atoi(argv[++i]);
            if (repeat < 1) {
                std::fprintf(stderr,
                             "--repeat needs a positive count\n");
                return 1;
            }
            continue;
        }
        argv[out++] = argv[i];
    }
    argc = out;

    const int throughput_rc = lf::emitRunnerThroughput(smoke, repeat);
    if (smoke)
        return throughput_rc;

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return throughput_rc;
}
