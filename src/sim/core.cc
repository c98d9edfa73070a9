#include "sim/core.hh"

#include <algorithm>

#include "common/logging.hh"

namespace lf {

Core::Core(const CpuModel &model, std::uint64_t seed)
    : model_(model), seed_(seed), engine_(model.frontend),
      backend_(&engine_),
      rng_(seed ^ 0x5eedc0de12345678ULL),
      energyModel_(model.energy, model.freqGhz),
      rapl_(model.rapl, model.freqGhz, Rng(seed ^ 0x4a91ULL))
{
}

void
Core::refreshPartitionState()
{
    const bool both = engine_.threadHasProgram(0) &&
        engine_.threadHasProgram(1);
    engine_.setPartitioned(model_.smtEnabled &&
                           (both || staticPartition_));
}

void
Core::setProgram(ThreadId tid, const Program *program,
                 const ChunkTable *table)
{
    if (domainSwitchHook_)
        domainSwitchHook_(*this);
    engine_.setProgram(tid, program, table);
    refreshPartitionState();
}

void
Core::setProgram(ThreadId tid, const PreparedChain &prepared)
{
    setProgram(tid, &prepared.chain.program, &prepared.table);
}

void
Core::clearProgram(ThreadId tid)
{
    engine_.clearProgram(tid);
    refreshPartitionState();
}

void
Core::setStaticPartition(bool on)
{
    staticPartition_ = on;
    refreshPartitionState();
}

void
Core::setDomainSwitchHook(std::function<void(Core &)> hook)
{
    domainSwitchHook_ = std::move(hook);
}

void
Core::tick()
{
    engine_.tick();
    backend_.tick();
}

void
Core::runCycles(Cycles cycles)
{
    Cycles done = 0;
    while (done < cycles) {
        const Cycles burn = engine_.noOpCycles();
        if (burn > 0) {
            const Cycles k = std::min(burn, cycles - done);
            engine_.skipCycles(k);
            backend_.skip(k);
            done += k;
            continue;
        }
        tick();
        ++done;
    }
}

Cycles
Core::runUntilRetired(ThreadId tid, std::uint64_t insts,
                      Cycles max_cycles)
{
    if (max_cycles == 0)
        max_cycles = model_.deadlockKcycles * 1000;
    const std::uint64_t target =
        engine_.counters(tid).retiredInsts + insts;
    const Cycles start = cycle();
    while (engine_.counters(tid).retiredInsts < target) {
        if (cycle() - start >= max_cycles) {
            lf_panic("runUntilRetired: thread %d stuck after %llu cycles"
                     " (%llu/%llu insts)", tid,
                     static_cast<unsigned long long>(max_cycles),
                     static_cast<unsigned long long>(
                         engine_.counters(tid).retiredInsts),
                     static_cast<unsigned long long>(target));
        }
        if (!engine_.threadRunnable(tid) &&
            engine_.idqOccupancy(tid) == 0) {
            lf_panic("runUntilRetired: thread %d halted before reaching"
                     " the retirement target", tid);
        }
        const Cycles burn = engine_.noOpCycles();
        if (burn > 0) {
            // Nothing retires during a no-op stretch; fast-forward
            // it, but never past the deadlock guard above.
            const Cycles k =
                std::min(burn, max_cycles - (cycle() - start));
            engine_.skipCycles(k);
            backend_.skip(k);
            continue;
        }
        tick();
    }
    return cycle() - start;
}

double
Core::noisyMeasurement(double true_cycles)
{
    // Exact-zero knobs must not touch the RNG: the returned value is
    // unchanged (a 0-sigma gaussian adds 0.0, a p=0 spike never
    // fires), and dropping these guards would shift every later draw
    // of a quiet model's trial, changing its results.
    const double sigma = model_.noise.stddevCycles +
        model_.noise.jitterPerKcycle * true_cycles / 1000.0;
    double measured = true_cycles +
        static_cast<double>(model_.noise.tscOverhead);
    if (sigma != 0.0)
        measured += rng_.gaussian(0.0, sigma);
    if (model_.noise.spikeProb != 0.0 &&
        rng_.chance(model_.noise.spikeProb))
        measured += rng_.uniform(0.5, 1.5) * model_.noise.spikeCycles;
    return measured < 0.0 ? 0.0 : measured;
}

double
Core::timedRun(ThreadId tid, std::uint64_t insts)
{
    const Cycles elapsed = runUntilRetired(tid, insts);
    return noisyMeasurement(static_cast<double>(elapsed));
}

double
Core::secondsOf(double cycles) const
{
    return cycles / (model_.freqGhz * 1e9);
}

void
Core::syncRaplEnergy()
{
    PerfCounters combined_delta;
    for (int tid = 0; tid < FrontendEngine::kNumThreads; ++tid) {
        const PerfCounters delta = engine_.counters(tid).delta(
            raplSnapshot_[static_cast<std::size_t>(tid)]);
        combined_delta.uopsMite += delta.uopsMite;
        combined_delta.uopsDsb += delta.uopsDsb;
        combined_delta.uopsLsd += delta.uopsLsd;
        combined_delta.lcpStallCycles += delta.lcpStallCycles;
        combined_delta.dsbToMiteSwitches += delta.dsbToMiteSwitches;
        combined_delta.miteToDsbSwitches += delta.miteToDsbSwitches;
        combined_delta.l1iMisses += delta.l1iMisses;
        raplSnapshot_[static_cast<std::size_t>(tid)] =
            engine_.counters(tid);
    }
    const Cycles span = cycle() - raplSyncCycle_;
    if (span > 0) {
        rapl_.accumulate(energyModel_.energyOf(combined_delta, span),
                         cycle());
        raplSyncCycle_ = cycle();
    }
}

MicroJoules
Core::readRapl()
{
    syncRaplEnergy();
    return rapl_.read(cycle());
}

void
Core::enclaveTransition(ThreadId tid)
{
    // Zero jitter draws nothing (same contract as noisyMeasurement).
    const double jitter = model_.sgx.entryJitterStddev != 0.0
        ? rng_.gaussian(0.0, model_.sgx.entryJitterStddev)
        : 0.0;
    double cost = static_cast<double>(model_.sgx.entryCycles) + jitter;
    if (cost < 0.0)
        cost = 0.0;
    engine_.flushThreadFrontend(tid);
    runCycles(static_cast<Cycles>(cost));
}

std::uint64_t
Core::retiredInsts(ThreadId tid) const
{
    return engine_.counters(tid).retiredInsts;
}

const PerfCounters &
Core::counters(ThreadId tid) const
{
    return engine_.counters(tid);
}

bool
Core::steadySkipAllowed() const
{
    return fastPathsEnabled() && !domainSwitchHook_;
}

void
Core::appendSteadyState(std::vector<std::uint64_t> &out,
                        bool include_rng) const
{
    out.push_back(staticPartition_ ? 1 : 0);
    engine_.appendState(out);
    backend_.appendState(out);
    if (include_rng)
        rng_.appendState(out);
}

void
Core::appendTotals(std::vector<std::uint64_t> &out)
{
    forEachTotal([&](std::uint64_t &total) { out.push_back(total); });
}

void
Core::skipPeriods(const std::vector<std::uint64_t> &period,
                  std::uint64_t n)
{
    std::size_t count = 0;
    forEachTotal([&](std::uint64_t &) { ++count; });
    lf_assert(count == period.size(), "period has %zu totals, core has %zu",
              period.size(), count);
    const Cycles from_cycle = cycle();
    const std::uint64_t from_blocks = engine_.blockClock();
    std::size_t i = 0;
    forEachTotal([&](std::uint64_t &total) { total += n * period[i++]; });
    engine_.finishPeriodSkip(from_cycle, from_blocks);
}

} // namespace lf
