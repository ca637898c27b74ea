/**
 * @file
 * Memory controller unit of the server PE (Figure 6b).
 *
 * The server designates one PE to take over the agents' L2 misses and
 * administrate all PRAM accesses; the MCU is its interface to the
 * on-chip memory controllers (MC1/MC2) and the FPGA channel
 * controllers. Requests serialize through the MCU with a small
 * hardware handling overhead and flow into the attached backend.
 */

#ifndef DRAMLESS_ACCEL_MCU_HH
#define DRAMLESS_ACCEL_MCU_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "ctrl/request.hh"
#include "sim/event_queue.hh"
#include "sim/id_ring.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace dramless
{
namespace accel
{

/** MCU parameters. */
struct McuConfig
{
    /** Per-request handling time in the server's MCU hardware. */
    Tick requestOverhead = fromNs(20);
    /** Maximum requests outstanding in the backend. */
    std::uint32_t maxOutstanding = 128;
};

/** MCU counters. */
struct McuStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    stats::Average readLatencyNs{"mcu.readLatencyNs"};
    stats::Average writeLatencyNs{"mcu.writeLatencyNs"};
};

/** The MCU: ordered admission into the memory backend. */
class Mcu
{
  public:
    using DoneCallback = std::function<void(Tick when)>;

    Mcu(EventQueue &eq, const McuConfig &config, std::string name)
        : eventq_(eq), config_(config), name_(std::move(name)),
          inflight_(name_ + ".inflight"), drainEvent_(this, name_ + ".drain")
    {}

    /** Attach the storage backend; registers the MCU's callback. */
    void
    attachBackend(ctrl::MemoryBackend *backend)
    {
        backend_ = backend;
        backend_->setCallback([this](const ctrl::MemResponse &r) {
            onComplete(r.id, r.completedAt);
        });
    }

    /** Issue a read; @p on_done fires at data return. */
    void
    read(std::uint64_t addr, std::uint32_t size, DoneCallback on_done)
    {
        ++stats_.reads;
        stats_.bytesRead += size;
        queue_.push_back(Pending{{ctrl::ReqKind::read, addr, size},
                                 std::move(on_done),
                                 eventq_.curTick()});
        drain();
    }

    /**
     * Issue a (posted) write; @p on_done, when provided, fires at
     * durable completion.
     */
    void
    write(std::uint64_t addr, std::uint32_t size,
          DoneCallback on_done = nullptr)
    {
        ++stats_.writes;
        stats_.bytesWritten += size;
        queue_.push_back(Pending{{ctrl::ReqKind::write, addr, size},
                                 std::move(on_done),
                                 eventq_.curTick()});
        drain();
    }

    /** Forward a selective-erasing hint to the backend. */
    void
    hintFutureWrite(std::uint64_t addr, std::uint64_t size)
    {
        panic_if(backend_ == nullptr, "%s: no backend",
                 name_.c_str());
        backend_->hintFutureWrite(addr, size);
    }

    /** @return requests queued plus in flight. */
    std::size_t
    outstanding() const
    {
        return queue_.size() + inflight_.size();
    }

    /** @return true when nothing is queued or in flight. */
    bool idle() const { return outstanding() == 0; }

    const McuStats &mcuStats() const { return stats_; }

  private:
    struct Pending
    {
        ctrl::MemRequest req;
        DoneCallback onDone;
        Tick issued;
    };

    struct Inflight
    {
        DoneCallback onDone;
        bool isWrite;
        Tick issued;
    };

    void
    drain()
    {
        panic_if(backend_ == nullptr, "%s: no backend",
                 name_.c_str());
        Tick now = eventq_.curTick();
        while (!queue_.empty() &&
               inflight_.size() < config_.maxOutstanding) {
            if (busyUntil_ > now) {
                eventq_.reschedule(&drainEvent_, busyUntil_);
                return;
            }
            Pending &head = queue_.front();
            if (!backend_->canAccept(head.req))
                return; // resume on a completion
            std::uint64_t id = backend_->enqueue(head.req);
            inflight_.insert(id) =
                Inflight{std::move(head.onDone),
                         head.req.kind == ctrl::ReqKind::write,
                         head.issued};
            queue_.pop_front();
            busyUntil_ = now + config_.requestOverhead;
            now = eventq_.curTick();
        }
    }

    void
    onComplete(std::uint64_t id, Tick when)
    {
        Inflight inf = inflight_.take(id);
        double lat = toNs(when - inf.issued);
        if (inf.isWrite)
            stats_.writeLatencyNs.sample(lat);
        else
            stats_.readLatencyNs.sample(lat);
        if (inf.onDone)
            inf.onDone(when);
        drain();
    }

    EventQueue &eventq_;
    McuConfig config_;
    std::string name_;
    ctrl::MemoryBackend *backend_ = nullptr;
    std::deque<Pending> queue_;
    /** Requests in the backend, by the backend's ids. */
    IdRing<Inflight> inflight_;
    Tick busyUntil_ = 0;
    McuStats stats_;
    MemberEvent<Mcu, &Mcu::drain> drainEvent_;
};

} // namespace accel
} // namespace dramless

#endif // DRAMLESS_ACCEL_MCU_HH
