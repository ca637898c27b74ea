#include "sim/json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "sim/logging.hh"

namespace dramless
{
namespace json
{

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += char(c);
            }
        }
    }
    return out;
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    // %.17g round-trips every IEEE-754 double; try shorter first so
    // common values stay readable (0.25 rather than 0.25000000000000000).
    std::snprintf(buf, sizeof(buf), "%.15g", v);
    double back = std::strtod(buf, nullptr);
    if (back != v)
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
JsonWriter::newline()
{
    if (!pretty_)
        return;
    os_ << '\n';
    for (std::size_t i = 0; i < stack_.size(); ++i)
        os_ << "  ";
}

void
JsonWriter::prepareValue()
{
    panic_if(wroteRoot_ && stack_.empty(),
             "JSON document already complete");
    if (stack_.empty()) {
        wroteRoot_ = true;
        return;
    }
    if (stack_.back() == Frame::object) {
        panic_if(!keyPending_, "JSON object value without a key");
        keyPending_ = false;
        return;
    }
    if (hasElem_.back())
        os_ << ',';
    hasElem_.back() = true;
    newline();
}

JsonWriter &
JsonWriter::beginObject()
{
    prepareValue();
    os_ << '{';
    stack_.push_back(Frame::object);
    hasElem_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    panic_if(stack_.empty() || stack_.back() != Frame::object,
             "endObject outside an object");
    panic_if(keyPending_, "JSON object closed with a dangling key");
    bool had = hasElem_.back();
    stack_.pop_back();
    hasElem_.pop_back();
    if (had)
        newline();
    os_ << '}';
    if (stack_.empty())
        wroteRoot_ = true;
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    prepareValue();
    os_ << '[';
    stack_.push_back(Frame::array);
    hasElem_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    panic_if(stack_.empty() || stack_.back() != Frame::array,
             "endArray outside an array");
    bool had = hasElem_.back();
    stack_.pop_back();
    hasElem_.pop_back();
    if (had)
        newline();
    os_ << ']';
    if (stack_.empty())
        wroteRoot_ = true;
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    panic_if(stack_.empty() || stack_.back() != Frame::object,
             "JSON key outside an object");
    panic_if(keyPending_, "two JSON keys in a row");
    if (hasElem_.back())
        os_ << ',';
    hasElem_.back() = true;
    newline();
    os_ << '"' << escape(k) << "\":";
    if (pretty_)
        os_ << ' ';
    keyPending_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    prepareValue();
    os_ << number(v);
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    prepareValue();
    os_ << (v ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    prepareValue();
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    prepareValue();
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    prepareValue();
    os_ << '"' << escape(v) << '"';
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    prepareValue();
    os_ << "null";
    return *this;
}

void
write(JsonWriter &w, const stats::Average &a)
{
    w.beginObject();
    w.keyValue("name", a.name());
    w.keyValue("mean", a.mean());
    w.keyValue("sum", a.sum());
    w.keyValue("count", a.count());
    w.keyValue("min", a.min());
    w.keyValue("max", a.max());
    w.endObject();
}

void
write(JsonWriter &w, const stats::Histogram &h)
{
    w.beginObject();
    w.keyValue("name", h.name());
    w.keyValue("underflow", h.underflow());
    w.keyValue("overflow", h.overflow());
    w.keyValue("nan", h.nanCount());
    w.keyValue("total", h.totalSamples());
    w.key("buckets").beginArray();
    for (std::size_t i = 0; i < h.numBuckets(); ++i) {
        w.beginObject();
        w.keyValue("lo", h.bucketLow(i));
        w.keyValue("hi", h.bucketHigh(i));
        w.keyValue("count", h.bucketCount(i));
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
write(JsonWriter &w, const stats::TimeSeries &ts,
      std::size_t max_points)
{
    w.beginObject();
    w.keyValue("name", ts.name());
    w.keyValue("mean", ts.mean());
    w.keyValue("time_weighted_mean", ts.timeWeightedMean());
    w.keyValue("num_samples", std::uint64_t(ts.size()));
    const bool thin = max_points > 0 && ts.size() > max_points;
    w.keyValue("downsampled", thin);
    w.key("samples").beginArray();
    auto emit = [&](const stats::TimePoint &p) {
        w.beginArray();
        w.value(p.when);
        w.value(p.value);
        w.endArray();
    };
    if (thin) {
        for (const auto &p : ts.downsample(max_points))
            emit(p);
    } else {
        for (const auto &p : ts.samples())
            emit(p);
    }
    w.endArray();
    w.endObject();
}

std::string
csvField(const std::string &s)
{
    bool needs_quote = false;
    for (char c : s) {
        if (c == ',' || c == '"' || c == '\n' || c == '\r') {
            needs_quote = true;
            break;
        }
    }
    if (!needs_quote)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += "\"\"";
        else
            out += c;
    }
    out += '"';
    return out;
}

} // namespace json
} // namespace dramless
