#include "serve/arrival.hh"

#include <cmath>
#include <utility>

#include "sim/logging.hh"
#include "sim/random.hh"

namespace dramless
{
namespace serve
{

namespace
{

void
validate(const ArrivalConfig &cfg)
{
    fatal_if(cfg.ratePerSec <= 0.0,
             "arrival rate must be positive (got %f)",
             cfg.ratePerSec);
    fatal_if(cfg.mixWeights.empty(), "arrival mix must be non-empty");
    double sum = 0.0;
    for (double w : cfg.mixWeights) {
        fatal_if(w < 0.0, "arrival mix weight must be >= 0");
        sum += w;
    }
    fatal_if(sum <= 0.0, "arrival mix weights must sum > 0");
    fatal_if(!cfg.mixPriorities.empty() &&
                 cfg.mixPriorities.size() != cfg.mixWeights.size(),
             "mixPriorities must be empty or parallel to mixWeights");
}

/** Exponential variate with mean 1/rate_per_sec, in (double) ticks. */
double
expTicks(Random &rng, double rate_per_sec)
{
    // 1 - uniform() is in (0, 1], so the log argument never hits 0.
    double u = 1.0 - rng.uniform();
    return -std::log(u) / rate_per_sec * double(tickPerSec);
}

/** Sample a mix index proportionally to the configured weights. */
std::uint32_t
pickWorkload(Random &rng, const ArrivalConfig &cfg)
{
    double sum = 0.0;
    for (double w : cfg.mixWeights)
        sum += w;
    double x = rng.uniform() * sum;
    for (std::size_t i = 0; i < cfg.mixWeights.size(); ++i) {
        x -= cfg.mixWeights[i];
        if (x < 0.0)
            return std::uint32_t(i);
    }
    return std::uint32_t(cfg.mixWeights.size() - 1);
}

Request
makeRequest(std::uint64_t id, double when_ticks, std::uint32_t wl,
            const ArrivalConfig &cfg)
{
    Request r;
    r.id = id;
    r.arrival = Tick(when_ticks);
    r.workloadIndex = wl;
    r.priority =
        cfg.mixPriorities.empty() ? 0 : cfg.mixPriorities[wl];
    return r;
}

} // anonymous namespace

PoissonArrivals::PoissonArrivals(ArrivalConfig cfg)
    : config_(std::move(cfg))
{
    validate(config_);
}

std::vector<Request>
PoissonArrivals::generate() const
{
    Random rng(config_.seed);
    std::vector<Request> out;
    out.reserve(config_.numRequests);
    double t = 0.0;
    for (std::uint64_t i = 0; i < config_.numRequests; ++i) {
        t += expTicks(rng, config_.ratePerSec);
        out.push_back(
            makeRequest(i, t, pickWorkload(rng, config_), config_));
    }
    return out;
}

MmppArrivals::MmppArrivals(ArrivalConfig cfg, Burst burst)
    : config_(std::move(cfg)), burst_(burst)
{
    validate(config_);
    fatal_if(burst_.burstMultiplier < 1.0,
             "burst multiplier must be >= 1");
    fatal_if(burst_.meanQuietSec <= 0.0 || burst_.meanBurstSec <= 0.0,
             "MMPP dwell times must be positive");
}

std::vector<Request>
MmppArrivals::generate() const
{
    Random rng(config_.seed);
    std::vector<Request> out;
    out.reserve(config_.numRequests);
    bool bursting = false;
    double t = 0.0;
    // Next state flip; dwell times are exponential, so discarding a
    // partially elapsed inter-arrival gap at a flip is exact
    // (memorylessness), not an approximation.
    double flipAt =
        t + expTicks(rng, 1.0 / burst_.meanQuietSec);
    std::uint64_t id = 0;
    while (id < config_.numRequests) {
        double rate = bursting
                          ? config_.ratePerSec * burst_.burstMultiplier
                          : config_.ratePerSec;
        double next = t + expTicks(rng, rate);
        if (next >= flipAt) {
            t = flipAt;
            bursting = !bursting;
            double dwell = bursting ? burst_.meanBurstSec
                                    : burst_.meanQuietSec;
            flipAt = t + expTicks(rng, 1.0 / dwell);
            continue;
        }
        t = next;
        out.push_back(
            makeRequest(id, t, pickWorkload(rng, config_), config_));
        ++id;
    }
    return out;
}

} // namespace serve
} // namespace dramless
