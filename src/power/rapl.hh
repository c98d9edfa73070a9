/**
 * @file
 * Simulated Running Average Power Limit (RAPL) energy counter.
 *
 * Models the properties the paper's power channels depend on:
 *  - the counter only refreshes at a fixed update interval
 *    (~50 us, i.e. ~20 kHz — the bandwidth cap of the power channel);
 *  - readings are quantized to the RAPL energy unit;
 *  - readings carry a small amount of measurement noise.
 *
 * The attacker feeds true energy in via accumulate() (driven from the
 * EnergyModel over simulation counters) and reads the counter like
 * software reads MSR_PKG_ENERGY_STATUS.
 */

#ifndef LF_POWER_RAPL_HH
#define LF_POWER_RAPL_HH

#include "common/rng.hh"
#include "common/types.hh"

namespace lf {

struct RaplParams
{
    double updateIntervalUs = 50.0;    //!< ~20 kHz refresh.
    double quantumMicroJoules = 61.0;  //!< Energy status unit.
    double noiseStddevMicroJoules = 8.0;
};

class RaplCounter
{
  public:
    RaplCounter(const RaplParams &params, double freq_ghz, Rng rng);

    /** Add true consumed energy ending at absolute cycle @p now. */
    void accumulate(MicroJoules energy, Cycles now);

    /**
     * Read the counter at absolute cycle @p now: returns cumulative
     * energy as of the last update-interval boundary, quantized, plus
     * noise. Monotonically non-decreasing modulo noise.
     */
    MicroJoules read(Cycles now);

    /** Update interval expressed in core cycles. */
    Cycles updateIntervalCycles() const { return intervalCycles_; }

    const RaplParams &params() const { return params_; }

  private:
    RaplParams params_;
    Cycles intervalCycles_;
    Rng rng_;

    MicroJoules trueEnergy_ = 0.0;      //!< Total energy fed in.
    MicroJoules visibleEnergy_ = 0.0;   //!< Energy at last refresh.
    Cycles lastAccumulateCycle_ = 0;
    Cycles lastRefreshCycle_ = 0;
};

} // namespace lf

#endif // LF_POWER_RAPL_HH
