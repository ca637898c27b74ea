#include "sim/stats.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace dramless
{
namespace stats
{

Histogram::Histogram(std::string name, double lo, double hi,
                     std::size_t buckets, std::string desc)
    : name_(std::move(name)), desc_(std::move(desc)), lo_(lo), hi_(hi)
{
    panic_if(buckets == 0, "histogram needs at least one bucket");
    panic_if(hi <= lo, "histogram range is empty");
    width_ = (hi - lo) / double(buckets);
    counts_.assign(buckets, 0);
}

void
Histogram::sample(double v, std::uint64_t weight)
{
    // NaN fails every range comparison below, and feeding it to the
    // bucket-index division is UB; tally it separately so broken
    // samples can never masquerade as last-bucket mass.
    if (std::isnan(v)) {
        nan_ += weight;
        return;
    }
    total_ += weight;
    if (v < lo_) {
        underflow_ += weight;
        return;
    }
    if (v > hi_) {
        overflow_ += weight;
        return;
    }
    // The range is inclusive at both ends: v == hi (and any value the
    // division rounds past the last bucket) lands in the last bucket.
    auto idx = std::size_t((v - lo_) / width_);
    counts_[idx >= counts_.size() ? counts_.size() - 1 : idx] += weight;
}

double
Histogram::percentile(double p) const
{
    panic_if(p < 0.0 || p > 1.0,
             "percentile needs p in [0, 1], got %f", p);
    if (total_ == 0)
        return std::numeric_limits<double>::quiet_NaN();
    const double need = p * double(total_);
    double cum = double(underflow_);
    if (underflow_ > 0 && need <= cum)
        return lo_;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0)
            continue;
        double c = double(counts_[i]);
        if (need <= cum + c) {
            double frac = (need - cum) / c;
            if (frac < 0.0)
                frac = 0.0;
            return bucketLow(i) + width_ * frac;
        }
        cum += c;
    }
    // Only overflow mass remains past the last bucket.
    return hi_;
}

void
Histogram::reset()
{
    counts_.assign(counts_.size(), 0);
    underflow_ = 0;
    overflow_ = 0;
    nan_ = 0;
    total_ = 0;
}

void
TimeSeries::record(Tick when, double value)
{
    panic_if(!samples_.empty() && when < samples_.back().when,
             "time series '%s' sampled backwards in time", name_.c_str());
    samples_.push_back(TimePoint{when, value});
}

double
TimeSeries::mean() const
{
    if (samples_.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &p : samples_)
        sum += p.value;
    return sum / double(samples_.size());
}

double
TimeSeries::timeWeightedMean() const
{
    if (samples_.size() < 2)
        return samples_.empty() ? 0.0 : samples_.front().value;
    double area = 0.0;
    Tick span = samples_.back().when - samples_.front().when;
    if (span == 0)
        return mean();
    for (std::size_t i = 0; i + 1 < samples_.size(); ++i) {
        Tick dt = samples_[i + 1].when - samples_[i].when;
        area += samples_[i].value * double(dt);
    }
    return area / double(span);
}

std::vector<TimePoint>
TimeSeries::downsample(std::size_t max_points) const
{
    if (max_points == 0 || samples_.size() <= max_points)
        return samples_;
    std::vector<TimePoint> out;
    out.reserve(max_points);
    std::size_t window = (samples_.size() + max_points - 1) / max_points;
    for (std::size_t i = 0; i < samples_.size(); i += window) {
        std::size_t end = std::min(i + window, samples_.size());
        double sum = 0.0;
        for (std::size_t j = i; j < end; ++j)
            sum += samples_[j].value;
        out.push_back(TimePoint{samples_[i].when,
                                sum / double(end - i)});
    }
    return out;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        panic_if(v <= 0.0, "geomean requires positive values");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / double(values.size()));
}

double
percentileExact(std::vector<double> values, double p)
{
    panic_if(p < 0.0 || p > 1.0,
             "percentile needs p in [0, 1], got %f", p);
    values.erase(std::remove_if(values.begin(), values.end(),
                                [](double v) {
                                    return std::isnan(v);
                                }),
                 values.end());
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    if (p <= 0.0)
        return values.front();
    auto rank = std::size_t(std::ceil(p * double(values.size())));
    if (rank == 0)
        rank = 1;
    return values[std::min(values.size(), rank) - 1];
}

} // namespace stats
} // namespace dramless
