/**
 * @file
 * Minimal streaming JSON writer.
 *
 * The exporters (ResultSink, bench binaries) need machine-readable
 * output without an external dependency. JsonWriter emits RFC 8259
 * JSON to any std::ostream: strings are escaped, doubles are printed
 * with round-trip precision, and non-finite values (which JSON cannot
 * represent) serialize as null. A small frame stack inserts commas
 * and (optionally) indentation, and checks begin/end nesting.
 */

#ifndef DRAMLESS_SIM_JSON_HH
#define DRAMLESS_SIM_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace dramless
{
namespace json
{

/** Escape @p s for use inside a JSON string literal (no quotes). */
std::string escape(const std::string &s);

/**
 * Format a double as a JSON number token with round-trip precision.
 * NaN and +/-infinity become "null" (JSON has no such literals).
 */
std::string number(double v);

/** Streaming JSON writer with nesting checks. */
class JsonWriter
{
  public:
    /**
     * @param os destination stream
     * @param pretty two-space indentation when true, compact otherwise
     */
    explicit JsonWriter(std::ostream &os, bool pretty = true)
        : os_(os), pretty_(pretty)
    {}

    /** @name Containers @{ */
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();
    /** @} */

    /** Emit an object key; must be inside an object. */
    JsonWriter &key(const std::string &k);

    /** @name Values @{ */
    JsonWriter &value(double v);
    JsonWriter &value(bool v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(int v) { return value(std::int64_t(v)); }
    JsonWriter &value(unsigned v) { return value(std::uint64_t(v)); }
    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v) { return value(std::string(v)); }
    JsonWriter &null();
    /** @} */

    /** @name key/value shorthands @{ */
    template <typename T>
    JsonWriter &
    keyValue(const std::string &k, T v)
    {
        key(k);
        return value(v);
    }
    /** @} */

    /** @return true once every container has been closed. */
    bool complete() const { return stack_.empty() && wroteRoot_; }

  private:
    enum class Frame { object, array };

    void prepareValue();
    void newline();

    std::ostream &os_;
    bool pretty_;
    std::vector<Frame> stack_;
    /** Whether the current container already holds an element. */
    std::vector<bool> hasElem_;
    bool keyPending_ = false;
    bool wroteRoot_ = false;
};

/** @name JSON serialization of the stats primitives @{ */

/** Average -> {"name","mean","sum","count","min","max"}. */
void write(JsonWriter &w, const stats::Average &a);
/**
 * Histogram -> {"name","underflow","overflow","nan","total",
 * "buckets":[{"lo","hi","count"},...]}.
 */
void write(JsonWriter &w, const stats::Histogram &h);
/**
 * TimeSeries -> {"name","mean","time_weighted_mean","samples":
 * [[tick,value],...]}. With @p max_points > 0 the sample list is
 * downsampled to at most that many points (the summary statistics
 * always cover the full series).
 */
void write(JsonWriter &w, const stats::TimeSeries &ts,
           std::size_t max_points = 0);

/** @} */

/** Escape @p s as one RFC 4180 CSV field (quoted when needed). */
std::string csvField(const std::string &s);

} // namespace json
} // namespace dramless

#endif // DRAMLESS_SIM_JSON_HH
