/**
 * @file
 * Fixed-latency ctrl::MemoryBackend used by the accelerator unit
 * tests.
 */

#ifndef DRAMLESS_TESTS_FAKE_BACKEND_HH
#define DRAMLESS_TESTS_FAKE_BACKEND_HH

#include <cstdint>
#include <vector>

#include "accel/trace.hh"
#include "ctrl/request.hh"
#include "sim/completion_queue.hh"
#include "sim/event_queue.hh"

namespace dramless
{
namespace accel
{

/** Completes reads/writes after fixed latencies, admitting at most
 *  @c accept_limit outstanding requests. */
class FakeBackend : public ctrl::MemoryBackend
{
  public:
    FakeBackend(EventQueue &eq, Tick read_latency, Tick write_latency,
                std::uint32_t accept_limit = 1000000)
        : eventq_(eq), readLatency_(read_latency),
          writeLatency_(write_latency), acceptLimit_(accept_limit),
          pending_(eq, this, "fake.complete")
    {}

    void
    setCallback(ctrl::CompletionCallback cb) override
    {
        cb_ = std::move(cb);
    }

    bool
    canAccept(const ctrl::MemRequest &) const override
    {
        return outstanding_ < acceptLimit_;
    }

    std::uint64_t
    enqueue(const ctrl::MemRequest &req) override
    {
        std::uint64_t id = nextId_++;
        bool is_write = req.kind == ctrl::ReqKind::write;
        if (is_write) {
            ++writes;
            writtenBytes += req.size;
        } else {
            ++reads;
            readBytes += req.size;
        }
        lastAddr = req.addr;
        ++outstanding_;
        pending_.push(eventq_.curTick() +
                          (is_write ? writeLatency_ : readLatency_),
                      id);
        return id;
    }

    void
    hintFutureWrite(std::uint64_t addr, std::uint64_t size) override
    {
        hints.emplace_back(addr, size);
    }

    std::uint64_t capacity() const override { return 1ull << 40; }

    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t readBytes = 0;
    std::uint64_t writtenBytes = 0;
    std::uint64_t lastAddr = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> hints;

  private:
    void
    complete(const std::uint64_t &id, Tick now)
    {
        --outstanding_;
        if (cb_)
            cb_(ctrl::MemResponse{id, now});
    }

    EventQueue &eventq_;
    Tick readLatency_;
    Tick writeLatency_;
    std::size_t acceptLimit_;
    ctrl::CompletionCallback cb_;
    std::size_t outstanding_ = 0;
    std::uint64_t nextId_ = 1;
    CompletionQueue<FakeBackend, std::uint64_t, &FakeBackend::complete>
        pending_;
};

/** In-memory vector-backed trace source. */
class VectorTrace : public TraceSource
{
  public:
    explicit VectorTrace(std::vector<TraceItem> items)
        : items_(std::move(items))
    {}

    bool
    next(TraceItem &out) override
    {
        if (pos_ >= items_.size())
            return false;
        out = items_[pos_++];
        return true;
    }

    /** Restart from the beginning (reuse across launches). */
    void rewind() { pos_ = 0; }

  private:
    std::vector<TraceItem> items_;
    std::size_t pos_ = 0;
};

} // namespace accel
} // namespace dramless

#endif // DRAMLESS_TESTS_FAKE_BACKEND_HH
