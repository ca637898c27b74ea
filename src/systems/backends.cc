#include "systems/backends.hh"

#include <algorithm>

namespace dramless
{
namespace systems
{

// ---------------------- FirmwareFrontedBackend ----------------------

FirmwareFrontedBackend::FirmwareFrontedBackend(
    EventQueue &eq, ctrl::MemoryBackend &inner,
    const flash::FirmwareConfig &fw, std::string name)
    : eventq_(eq), inner_(inner), fw_(fw, name + ".fw"),
      name_(std::move(name)),
      deferred_(eq, this, name_ + ".fire"),
      innerToOuter_(name_ + ".inner")
{
    inner_.setCallback([this](const ctrl::MemResponse &r) {
        ctrl::MemResponse outer = r;
        outer.id = innerToOuter_.take(r.id);
        if (cb_)
            cb_(outer);
    });
}

void
FirmwareFrontedBackend::setCallback(ctrl::CompletionCallback cb)
{
    cb_ = std::move(cb);
}

bool
FirmwareFrontedBackend::canAccept(const ctrl::MemRequest &req) const
{
    return inner_.canAccept(req);
}

std::uint64_t
FirmwareFrontedBackend::enqueue(const ctrl::MemRequest &req)
{
    std::uint64_t id = nextId_++;
    // Every memory request is first processed serially by the
    // embedded firmware cores (Figure 7's bottleneck).
    deferred_.push(fw_.service(eventq_.curTick()), Deferred{id, req});
    return id;
}

void
FirmwareFrontedBackend::issue(const Deferred &d, Tick)
{
    innerToOuter_.insert(inner_.enqueue(d.req)) = d.id;
}

void
FirmwareFrontedBackend::hintFutureWrite(std::uint64_t addr,
                                        std::uint64_t size)
{
    inner_.hintFutureWrite(addr, size);
}

std::uint64_t
FirmwareFrontedBackend::capacity() const
{
    return inner_.capacity();
}

// ---------------------------- DramBackend --------------------------

DramBackend::DramBackend(EventQueue &eq, const Config &config,
                         std::string name)
    : eventq_(eq), config_(config), name_(std::move(name)),
      pending_(eq, this, name_ + ".fire")
{}

void
DramBackend::setCallback(ctrl::CompletionCallback cb)
{
    cb_ = std::move(cb);
}

bool
DramBackend::canAccept(const ctrl::MemRequest &) const
{
    return true;
}

std::uint64_t
DramBackend::enqueue(const ctrl::MemRequest &req)
{
    std::uint64_t id = nextId_++;
    Tick start = std::max(eventq_.curTick(), busyUntil_);
    Tick xfer = serializationTicks(req.size, config_.bytesPerSec);
    Tick done = start + config_.accessLatency + xfer;
    // The shared DRAM bus serializes the data transfer portion.
    busyUntil_ = start + xfer;
    bytesMoved_ += req.size;
    pending_.push(done, id);
    return id;
}

std::uint64_t
DramBackend::capacity() const
{
    return config_.capacityBytes;
}

void
DramBackend::complete(const std::uint64_t &id, Tick now)
{
    if (cb_)
        cb_(ctrl::MemResponse{id, now});
}

} // namespace systems
} // namespace dramless
