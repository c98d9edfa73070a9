#include "run/runner.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "frontend/prepared.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace lf {

namespace {

/** One trial, exception-safe: anything thrown becomes an error row so
 *  a bad spec never kills a worker. */
ExperimentResult
runOne(const ExperimentSpec &spec)
{
    try {
        return runExperiment(spec);
    } catch (const std::exception &e) {
        ExperimentResult out;
        out.spec = spec;
        out.ok = false;
        out.error = e.what();
        return out;
    }
}

} // namespace

ExperimentRunner::ExperimentRunner(int threads) : threads_(threads)
{
    if (threads_ <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads_ = hw > 0 ? static_cast<int>(hw) : 1;
    }
}

std::size_t
ExperimentRunner::reorderWindowFor(int workers)
{
    // Large enough that workers keep streaming while the consumer
    // handles a burst, small enough that in-flight memory stays
    // O(threads).
    return std::max<std::size_t>(
        64, static_cast<std::size_t>(workers < 1 ? 1 : workers) * 8);
}

void
ExperimentRunner::run(const std::vector<ExperimentSpec> &specs,
                      const ResultCallback &on_result) const
{
    lf_assert(on_result != nullptr, "streaming run needs a callback");
    if (specs.empty())
        return;

    const std::size_t n = specs.size();
    const int workers = static_cast<int>(
        std::min<std::size_t>(n, static_cast<std::size_t>(threads_)));

    // Metrics are accumulated locally and copied into the sink at the
    // end, mirroring the StreamStats contract. The prepared-cache
    // totals are process-wide, so the delta attributes concurrent
    // runs' traffic too — one runner at a time, the normal case, is
    // exact.
    obs::RunMetrics metrics;
    const std::uint64_t prep_hits =
        metricsSink_ != nullptr ? preparedCacheHits() : 0;
    const std::uint64_t prep_misses =
        metricsSink_ != nullptr ? preparedCacheMisses() : 0;
    const auto run_start = std::chrono::steady_clock::now();
    const auto count_outcome = [&](const ExperimentResult &res) {
        ++metrics.trials;
        if (res.skipped)
            ++metrics.skippedTrials;
        else if (res.ok)
            ++metrics.okTrials;
        else
            ++metrics.errorTrials;
    };
    const auto finish_metrics = [&](std::size_t window) {
        if (metricsSink_ == nullptr)
            return;
        metrics.workers = workers;
        metrics.reorderWindow = window;
        metrics.preparedCacheHits = preparedCacheHits() - prep_hits;
        metrics.preparedCacheMisses =
            preparedCacheMisses() - prep_misses;
        metrics.seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() -
                              run_start)
                              .count();
        metrics.trialsPerSec = metrics.seconds > 0.0
            ? static_cast<double>(metrics.trials) / metrics.seconds
            : 0.0;
        *metricsSink_ = metrics;
    };

    if (workers <= 1) {
        // Single-threaded: compute and deliver inline.
        for (std::size_t i = 0; i < n; ++i) {
            if (trialProbe_)
                trialProbe_(i, i);
            const std::uint64_t trial_start =
                obs::traceEnabled() ? obs::traceNowUs() : 0;
            const ExperimentResult res = runOne(specs[i]);
            obs::traceComplete("trial", trial_start, i, true);
            if (metricsSink_ != nullptr) {
                count_outcome(res);
                ++metrics.windowOccupancy[0];
            }
            const std::uint64_t deliver_start =
                obs::traceEnabled() ? obs::traceNowUs() : 0;
            on_result(res);
            obs::traceComplete("deliver", deliver_start);
        }
        if (statsSink_ != nullptr)
            *statsSink_ = StreamStats{};
        finish_metrics(reorderWindowFor(1));
        return;
    }

    // Workers claim spec indices (tickets) under one mutex and store
    // each result in a bounded reorder window, ticket i in slot
    // i % window; the calling thread is the only consumer, delivering
    // in spec order. A worker holding a ticket a full window ahead of
    // delivery waits for its slot to free, so memory stays
    // O(threads + window) however large the batch is. Trials and
    // callbacks run outside the lock, and each condition variable is
    // signalled only while somebody waits on it.
    const std::size_t window = reorderWindowFor(workers);
    std::vector<std::optional<ExperimentResult>> ring(window);
    std::mutex mutex;
    std::condition_variable resultReady; // the consumer waits here
    std::condition_variable slotFree;    // workers wait here
    std::size_t next = 0;      // next ticket to claim
    std::size_t delivered = 0; // results handed to the callback
    bool cancelled = false;
    bool consumerParked = false;
    int blockedWorkers = 0;
    StreamStats stats;

    auto work = [&]() {
        std::unique_lock<std::mutex> lock(mutex);
        while (!cancelled && next < n) {
            const std::size_t i = next++;
            if (i >= delivered + window) {
                obs::TraceScope park_span("worker_park");
                ++stats.workerParks;
                ++blockedWorkers;
                slotFree.wait(lock, [&] {
                    return cancelled || i < delivered + window;
                });
                --blockedWorkers;
                if (cancelled)
                    return;
            }
            const std::size_t delivered_at_start = delivered;
            lock.unlock();
            if (trialProbe_)
                trialProbe_(i, delivered_at_start);
            const std::uint64_t trial_start =
                obs::traceEnabled() ? obs::traceNowUs() : 0;
            ExperimentResult res = runOne(specs[i]);
            obs::traceComplete("trial", trial_start, i, true);
            lock.lock();
            ring[i % window] = std::move(res);
            if (consumerParked && i == delivered)
                resultReady.notify_one();
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int t = 0; t < workers; ++t)
        pool.emplace_back(work);

    const auto shutdown = [&]() {
        {
            std::lock_guard<std::mutex> lock(mutex);
            cancelled = true;
            slotFree.notify_all();
        }
        for (std::thread &thread : pool)
            thread.join();
    };

    // Wait for ticket d's result, free its slot, and hand the result
    // to the callback. The slot is freed *before* the callback runs so
    // workers stream on while the consumer writes rows; notify_all
    // because parked workers wait on distinct tickets.
    const auto deliver = [&](std::size_t d) {
        std::unique_lock<std::mutex> lock(mutex);
        std::optional<ExperimentResult> &slot = ring[d % window];
        if (!slot) {
            obs::TraceScope park_span("consumer_park");
            ++stats.consumerParks;
            consumerParked = true;
            resultReady.wait(lock, [&] { return slot.has_value(); });
            consumerParked = false;
        }
        const ExperimentResult result = std::move(*slot);
        slot.reset();
        // Window occupancy at this delivery: claimed tickets not yet
        // handed to the callback.
        const std::size_t occ = next - delivered;
        ++delivered;
        if (blockedWorkers > 0) {
            ++stats.wakeBroadcasts;
            slotFree.notify_all();
        }
        lock.unlock();
        obs::traceCounter("window_occupancy", occ);
        if (metricsSink_ != nullptr) {
            count_outcome(result);
            ++metrics.windowOccupancy[std::min<std::size_t>(
                occ * obs::RunMetrics::kOccupancyBuckets / window,
                obs::RunMetrics::kOccupancyBuckets - 1)];
        }
        on_result(result);
    };

    try {
        for (std::size_t d = 0; d < n; ++d)
            deliver(d);
    } catch (...) {
        shutdown();
        throw;
    }
    shutdown();
    if (statsSink_ != nullptr)
        *statsSink_ = stats;
    metrics.workerParks = stats.workerParks;
    metrics.consumerParks = stats.consumerParks;
    metrics.wakeBroadcasts = stats.wakeBroadcasts;
    finish_metrics(window);
}

std::vector<ExperimentResult>
ExperimentRunner::run(const std::vector<ExperimentSpec> &specs) const
{
    std::vector<ExperimentResult> results;
    results.reserve(specs.size());
    run(specs, [&results](const ExperimentResult &res) {
        results.push_back(res);
    });
    return results;
}

std::vector<ExperimentResult>
ExperimentRunner::runTrials(const std::vector<ExperimentSpec> &specs,
                            int trials) const
{
    lf_assert(trials >= 1, "need at least one trial, got %d", trials);
    std::vector<ExperimentSpec> batch;
    batch.reserve(specs.size() * static_cast<std::size_t>(trials));
    for (const ExperimentSpec &spec : specs) {
        for (ExperimentSpec &trial_spec : expandTrials(spec, trials))
            batch.push_back(std::move(trial_spec));
    }
    return run(batch);
}

} // namespace lf
