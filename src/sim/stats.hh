/**
 * @file
 * Lightweight statistics package.
 *
 * Components declare named statistics (averages, histograms, time
 * series) and export them through their owners' stats structs.
 */

#ifndef DRAMLESS_SIM_STATS_HH
#define DRAMLESS_SIM_STATS_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/ticks.hh"

namespace dramless
{
namespace stats
{

/** Mean/min/max over a stream of samples. */
class Average
{
  public:
    Average() = default;
    explicit Average(std::string name, std::string desc = "")
        : name_(std::move(name)), desc_(std::move(desc))
    {}

    /** Add one sample. */
    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
    }

    double mean() const { return count_ ? sum_ / double(count_) : 0.0; }
    double sum() const { return sum_; }
    std::uint64_t count() const { return count_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    void
    reset()
    {
        sum_ = 0.0;
        count_ = 0;
        min_ = std::numeric_limits<double>::max();
        max_ = std::numeric_limits<double>::lowest();
    }

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    std::string name_;
    std::string desc_;
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
    double min_ = std::numeric_limits<double>::max();
    double max_ = std::numeric_limits<double>::lowest();
};

/** Fixed-width linear histogram. */
class Histogram
{
  public:
    Histogram() : Histogram("", 0.0, 1.0, 1) {}

    /**
     * @param name stat name
     * @param lo lower bound of the first bucket
     * @param hi upper bound of the last bucket
     * @param buckets number of equal-width buckets (>= 1)
     */
    Histogram(std::string name, double lo, double hi,
              std::size_t buckets, std::string desc = "");

    /**
     * Add a sample; out-of-range samples land in underflow/overflow.
     * NaN samples are tallied in a dedicated counter and never touch
     * the buckets or the total — a latency that failed to measure
     * must not silently inflate the last bucket and corrupt every
     * percentile.
     */
    void sample(double v, std::uint64_t weight = 1);

    std::uint64_t bucketCount(std::size_t i) const { return counts_[i]; }
    std::size_t numBuckets() const { return counts_.size(); }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    /** @return non-NaN samples (buckets + underflow + overflow). */
    std::uint64_t totalSamples() const { return total_; }
    /** @return NaN samples rejected from the distribution. */
    std::uint64_t nanCount() const { return nan_; }

    /**
     * Estimate the @p p quantile (p in [0, 1]) from the bucketed
     * distribution by linear interpolation inside the bucket where
     * the cumulative count crosses p * totalSamples(). Underflow
     * mass is treated as sitting at the lower bound and overflow
     * mass at the upper bound, so the estimate clamps to [lo, hi].
     * @return NaN when the histogram holds no (non-NaN) samples.
     * The error versus the exact sorted-sample quantile
     * (percentileExact) is bounded by one bucket width for in-range
     * data.
     */
    double percentile(double p) const;
    double bucketLow(std::size_t i) const { return lo_ + width_ * double(i); }
    double bucketHigh(std::size_t i) const { return bucketLow(i) + width_; }

    void reset();

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    std::string name_;
    std::string desc_;
    double lo_;
    double hi_;
    double width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t nan_ = 0;
    std::uint64_t total_ = 0;
};

/** One sample of a time series. */
struct TimePoint
{
    Tick when;
    double value;
};

/** A (tick, value) trace, e.g. IPC or power over time. */
class TimeSeries
{
  public:
    TimeSeries() = default;
    explicit TimeSeries(std::string name, std::string desc = "")
        : name_(std::move(name)), desc_(std::move(desc))
    {}

    /** Append a sample; ticks must be non-decreasing. */
    void record(Tick when, double value);

    const std::vector<TimePoint> &samples() const { return samples_; }
    bool empty() const { return samples_.empty(); }
    std::size_t size() const { return samples_.size(); }

    /** Mean of the recorded values (unweighted). */
    double mean() const;

    /**
     * Time-weighted mean: each value is held until the next sample;
     * the final value is ignored (zero duration).
     */
    double timeWeightedMean() const;

    /**
     * Downsample to at most @p max_points by averaging fixed-size
     * windows of samples. Useful for printing compact series.
     */
    std::vector<TimePoint> downsample(std::size_t max_points) const;

    void reset() { samples_.clear(); }

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    std::string name_;
    std::string desc_;
    std::vector<TimePoint> samples_;
};

/**
 * Geometric mean of @p values (values must be > 0).
 *
 * An empty input returns 0.0 — not a valid geometric mean, but a
 * survivable sentinel: sweeps where every run was rejected or failed
 * (an oversaturated serving sweep, a continue-on-error matrix) must
 * be able to report "no data" instead of crashing. Callers that need
 * to distinguish "no data" from a real mean must check
 * values.empty() themselves and flag the row.
 */
double geomean(const std::vector<double> &values);

/**
 * Exact nearest-rank quantile of @p values (p in [0, 1]): the
 * ceil(p * n)-th smallest value (the minimum for p == 0). NaN
 * entries are dropped first; an all-NaN or empty input returns NaN.
 * This is the reference Histogram::percentile() is validated
 * against.
 */
double percentileExact(std::vector<double> values, double p);

} // namespace stats
} // namespace dramless

#endif // DRAMLESS_SIM_STATS_HH
