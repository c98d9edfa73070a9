/**
 * @file
 * Streaming parallel executor for batches of ExperimentSpecs.
 *
 * Trials are embarrassingly parallel: each is a pure function of its
 * spec (seed included), so the runner fans a batch out across a
 * std::thread pool that claims spec indices in order; every trial
 * builds its own TrialContext and Core (runExperiment()).
 *
 * Results *stream*: run(specs, callback) delivers each result on the
 * calling thread as it becomes available, so sinks can write rows and
 * sweep accumulators can fold cells while later trials are still
 * running — a million-trial sweep needs memory for the in-flight
 * window, not the whole batch. Delivery order is the spec order,
 * making the stream — and anything written from it — bit-identical
 * at any thread count; a
 * bounded reorder window keeps workers from racing unboundedly ahead
 * of a slow consumer. The batch run() overload is a thin wrapper that
 * collects the stream into a vector.
 *
 * The reorder window is one slot per in-flight ticket (ticket i in
 * slot i % window), guarded by a single mutex with two condition
 * variables: workers wait on one when they hold a ticket a full
 * window ahead of delivery, the consumer waits on the other when the
 * next result is not in yet. A trial runs for milliseconds outside
 * the lock, so the lock is held only to claim, store and collect.
 * Each side signals the other only while it is actually waiting, so
 * an idle window costs no wakeups.
 */

#ifndef LF_RUN_RUNNER_HH
#define LF_RUN_RUNNER_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "run/experiment.hh"

namespace lf {

namespace obs {
struct RunMetrics;
}

/** Coordination counters of one streaming run() (diagnostics: the
 *  streaming tests gate against wakeup storms with them). */
struct StreamStats
{
    /** Times a worker blocked because it was a full reorder window
     *  ahead of delivery. */
    std::uint64_t workerParks = 0;
    /** Times the consumer blocked waiting for the next result. */
    std::uint64_t consumerParks = 0;
    /** slot-free broadcasts issued (only ever sent while at least
     *  one worker is parked). */
    std::uint64_t wakeBroadcasts = 0;
};

class ExperimentRunner
{
  public:
    /** @param threads Worker count; 0 means hardware concurrency. */
    explicit ExperimentRunner(int threads = 0);

    /** Resolved worker count (>= 1). */
    int threads() const { return threads_; }

    /** Reorder-window size (slots) a streaming run of this runner
     *  uses: how far workers may run ahead of delivery. */
    std::size_t reorderWindow() const
    {
        return reorderWindowFor(threads_);
    }

    /** The window a run with @p workers claimed threads uses. */
    static std::size_t reorderWindowFor(int workers);

    /**
     * Test/diagnostic hook, called on the claiming worker right
     * before each trial starts as probe(index, delivered): @p index
     * is the spec about to run, @p delivered the number of results
     * handed to the callback so far. The claim protocol guarantees
     * index < delivered + reorderWindow() — the probe is how the
     * streaming tests assert workers never outrun the window. Must be
     * thread-safe; null (the default) disables it.
     */
    using TrialProbe =
        std::function<void(std::size_t index, std::size_t delivered)>;
    void setTrialProbe(TrialProbe probe)
    {
        trialProbe_ = std::move(probe);
    }

    /** Overwrite @p sink with the coordination counters at the end
     *  of every streaming run() (null, the default, disables the
     *  accounting). The sink must outlive the runs. */
    void setStatsSink(StreamStats *sink) { statsSink_ = sink; }

    /** Overwrite @p sink with the full obs::RunMetrics report
     *  (throughput, outcome counts, park/broadcast totals, prepared-
     *  cache traffic, reorder-window occupancy histogram) at the end
     *  of every non-empty streaming run(). Purely observational —
     *  results never depend on whether a sink is installed. Null (the
     *  default) disables the accounting; the sink must outlive the
     *  runs. */
    void setMetricsSink(obs::RunMetrics *sink) { metricsSink_ = sink; }

    /** Invoked on the runner's calling thread, once per spec. */
    using ResultCallback = std::function<void(const ExperimentResult &)>;

    /**
     * Run every spec, streaming results to @p on_result on the
     * calling thread in spec order (the callback never needs to be
     * thread-safe). An exception thrown by the callback stops the run
     * (workers are drained and joined) and is rethrown.
     */
    void run(const std::vector<ExperimentSpec> &specs,
             const ResultCallback &on_result) const;

    /**
     * Batch form: run every spec and return results in spec order.
     * Thread count affects wall time only, never the results.
     */
    std::vector<ExperimentResult>
    run(const std::vector<ExperimentSpec> &specs) const;

    /** expandTrials() each spec, then run the concatenated batch. */
    std::vector<ExperimentResult>
    runTrials(const std::vector<ExperimentSpec> &specs,
              int trials) const;

  private:
    int threads_;
    TrialProbe trialProbe_;
    StreamStats *statsSink_ = nullptr;
    obs::RunMetrics *metricsSink_ = nullptr;
};

} // namespace lf

#endif // LF_RUN_RUNNER_HH
