/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic element of the simulator (timing noise, RAPL jitter,
 * random messages, workload phase lengths) draws from an explicitly
 * seeded Rng so that experiments are exactly reproducible run-to-run.
 * The generator is xoshiro256** seeded through splitmix64.
 */

#ifndef LF_COMMON_RNG_HH
#define LF_COMMON_RNG_HH

#include <array>
#include <cstdint>
#include <vector>

namespace lf {

/**
 * One splitmix64 step for input @p z: increment by the golden-gamma
 * constant, then mix. The canonical stateless seed-derivation
 * primitive — the Rng seed expansion and the trial/cell seed chains
 * in src/run all derive through this one function, so the
 * decorrelation guarantees stay in lockstep.
 */
std::uint64_t splitmix64(std::uint64_t z);

/** Deterministic xoshiro256** generator with convenience draws. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x1ea4'f407'e4d5'c0deULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);

    /** Standard normal draw (Box–Muller, cached second value). */
    double gaussian();

    /** Normal draw with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /** Bernoulli draw with probability p of true. */
    bool chance(double p);

    /** Fork a decorrelated child generator (for sub-components). */
    Rng fork();

    /** Append the full generator state (including the cached
     *  gaussian), so two snapshots compare equal iff no draw happened
     *  in between. */
    void appendState(std::vector<std::uint64_t> &out) const;

  private:
    std::array<std::uint64_t, 4> state_;
    bool hasCachedGaussian_ = false;
    double cachedGaussian_ = 0.0;
};

} // namespace lf

#endif // LF_COMMON_RNG_HH
