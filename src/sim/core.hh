/**
 * @file
 * Core: one simulated physical core (frontend + backend + 2 hardware
 * threads) plus the measurement facilities the attacks use — a noisy
 * TSC and a simulated RAPL energy counter.
 *
 * The Core also owns the SMT partition policy: the DSB/LSD become
 * partitioned exactly while *both* hardware threads have a program
 * bound (and the model has SMT enabled). Binding/unbinding a sender
 * program therefore toggles partitioning — the observable the MT
 * attacks encode into.
 */

#ifndef LF_SIM_CORE_HH
#define LF_SIM_CORE_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "backend/backend.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "frontend/engine.hh"
#include "frontend/prepared.hh"
#include "power/energy_model.hh"
#include "power/rapl.hh"
#include "sim/cpu_model.hh"

namespace lf {

class Core
{
  public:
    explicit Core(const CpuModel &model, std::uint64_t seed = 1);

    /**
     * Reinitialize in place to exactly the state of a freshly
     * constructed Core(model, seed), reusing the cache-line/IDQ
     * allocations of the previous trial. This is the per-worker
     * core-reuse fast path of the streaming ExperimentRunner: trial
     * results are bit-identical whether a Core is reset or rebuilt.
     * Any Defense armed on this core must be torn down first (its
     * destructor uninstalls the domain-switch hook).
     */
    void reset(const CpuModel &model, std::uint64_t seed);

    const CpuModel &model() const { return model_; }
    std::uint64_t seed() const { return seed_; }
    FrontendEngine &frontend() { return engine_; }
    const FrontendEngine &frontend() const { return engine_; }
    const Backend &backend() const { return backend_; }
    Rng &rng() { return rng_; }

    /** @name Thread control (updates SMT partitioning) */
    /// @{
    /**
     * Bind @p program to @p tid. When @p table is non-null it is the
     * program's shared immutable chunk decode (a PreparedChain's) and
     * the engine skips re-decoding; otherwise the engine resolves one
     * itself (see FrontendEngine::setProgram). Results are identical
     * either way.
     */
    void setProgram(ThreadId tid, const Program *program,
                    const ChunkTable *table = nullptr);
    /** Bind a prepared workload: program plus pre-built decode. */
    void setProgram(ThreadId tid, const PreparedChain &prepared);
    void clearProgram(ThreadId tid);

    /**
     * Static-partition mitigation (src/defense): pin the DSB in
     * partitioned mode regardless of how many threads have programs
     * bound, so binding/unbinding a sibling never repartitions. A
     * no-op on SMT-disabled models.
     */
    void setStaticPartition(bool on);
    bool staticPartition() const { return staticPartition_; }

    /**
     * Mitigation hook (src/defense): every setProgram() is a domain
     * switch — a new protection domain is scheduled onto the thread —
     * and the hook runs before the bind, where an OS-level
     * flush-on-switch mitigation acts. Null (the default) disables
     * the hook.
     */
    void setDomainSwitchHook(std::function<void(Core &)> hook);
    /// @}

    /** @name Simulation advance */
    /// @{
    void tick();
    void runCycles(Cycles cycles);

    /**
     * Run the whole core until thread @p tid retires @p insts more
     * instructions (the sibling thread co-executes). Returns the
     * elapsed cycles. Fatal if the deadlock guard elapses first:
     * @p max_cycles when non-zero, otherwise the model's
     * CpuModel::deadlockKcycles knob ("model.deadlock_kcycles").
     */
    Cycles runUntilRetired(ThreadId tid, std::uint64_t insts,
                           Cycles max_cycles = 0);
    /// @}

    Cycles cycle() const { return engine_.cycle(); }

    /** @name Timing measurement (the attacker's rdtscp) */
    /// @{
    /**
     * Timed run: like runUntilRetired but returns the *measured*
     * duration in cycles — true cycles plus the TSC read overhead,
     * Gaussian jitter, and occasional OS-noise spikes of the CPU
     * model. This is what attack receivers observe.
     */
    double timedRun(ThreadId tid, std::uint64_t insts);

    /** Apply the measurement noise model to a true cycle count. */
    double noisyMeasurement(double true_cycles);

    /** Seconds corresponding to @p cycles on this model. */
    double secondsOf(double cycles) const;
    /// @}

    /** @name Energy / RAPL */
    /// @{
    const EnergyModel &energyModel() const { return energyModel_; }

    /**
     * Read the simulated RAPL package-energy counter (microjoules).
     * Integrates the energy of both threads' activity since the last
     * read into the counter first.
     */
    MicroJoules readRapl();
    /// @}

    /** @name SGX (used by the sgx module) */
    /// @{
    /** Charge an enclave entry/exit: advances time and flushes the
     *  thread's pipeline-local frontend state. */
    void enclaveTransition(ThreadId tid);
    /// @}

    /** Retired instructions of @p tid so far. */
    std::uint64_t retiredInsts(ThreadId tid) const;

    /** Counter snapshot for @p tid. */
    const PerfCounters &counters(ThreadId tid) const;

  private:
    void syncRaplEnergy();
    void refreshPartitionState();

    bool staticPartition_ = false;
    std::function<void(Core &)> domainSwitchHook_;
    CpuModel model_;
    std::uint64_t seed_;
    FrontendEngine engine_;
    Backend backend_;
    Rng rng_;
    EnergyModel energyModel_;
    RaplCounter rapl_;

    /** Counter snapshots at the last RAPL energy sync. */
    PerfCounters raplSnapshot_[FrontendEngine::kNumThreads];
    Cycles raplSyncCycle_ = 0;
};

} // namespace lf

#endif // LF_SIM_CORE_HH
