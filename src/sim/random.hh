/**
 * @file
 * Deterministic pseudo-random number generation (SplitMix64 core).
 *
 * The simulator never uses std::random_device or global state so runs
 * are reproducible from a seed.
 */

#ifndef DRAMLESS_SIM_RANDOM_HH
#define DRAMLESS_SIM_RANDOM_HH

#include <cstdint>

namespace dramless
{

/** SplitMix64 generator: tiny, fast, and statistically adequate. */
class Random
{
  public:
    explicit Random(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
        : state_(seed)
    {}

    /** @return the next 64 random bits. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** @return a uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    /** @return a uniform integer in [lo, hi]. @pre lo <= hi. */
    std::uint64_t
    between(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** @return the 53 random bits uniform() scales into [0, 1). */
    std::uint64_t
    bits53()
    {
        return next() >> 11;
    }

    /** @return a uniform double in [0, 1). */
    double
    uniform()
    {
        return double(bits53()) * (1.0 / 9007199254740992.0);
    }

    /** @return true with probability @p p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

  private:
    std::uint64_t state_;
};

} // namespace dramless

#endif // DRAMLESS_SIM_RANDOM_HH
