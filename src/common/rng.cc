#include "common/rng.hh"

#include <cmath>
#include <cstring>

#include "common/logging.hh"

namespace lf {

namespace {

std::uint64_t
rotl(std::uint64_t v, int k)
{
    return (v << k) | (v >> (64 - k));
}

} // namespace

std::uint64_t
splitmix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed)
{
    // Stream the stateless step: output_k = splitmix64(seed + k*gamma),
    // bit-identical to the classic stateful splitmix64 generator.
    std::uint64_t s = seed;
    for (auto &word : state_) {
        word = splitmix64(s);
        s += 0x9e3779b97f4a7c15ULL;
    }
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    lf_assert(lo <= hi, "bad uniform range [%f, %f)", lo, hi);
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t lo, std::uint64_t hi)
{
    lf_assert(lo <= hi, "bad uniformInt range");
    const std::uint64_t span = hi - lo + 1;
    if (span == 0) // full 64-bit range
        return next();
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
    std::uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return lo + v % span;
}

double
Rng::gaussian()
{
    if (hasCachedGaussian_) {
        hasCachedGaussian_ = false;
        return cachedGaussian_;
    }
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * M_PI * u2;
    cachedGaussian_ = radius * std::sin(angle);
    hasCachedGaussian_ = true;
    return radius * std::cos(angle);
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

Rng
Rng::fork()
{
    return Rng(next() ^ 0xd1b54a32d192ed03ULL);
}

void
Rng::appendState(std::vector<std::uint64_t> &out) const
{
    out.insert(out.end(), state_.begin(), state_.end());
    std::uint64_t cached = 0;
    std::memcpy(&cached, &cachedGaussian_, sizeof cached);
    out.push_back(hasCachedGaussian_ ? 1 : 0);
    out.push_back(cached);
}

} // namespace lf
