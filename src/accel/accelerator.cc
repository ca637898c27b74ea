#include "accel/accelerator.hh"

#include <algorithm>

#include "sim/trace.hh"

namespace dramless
{
namespace accel
{

Accelerator::Accelerator(EventQueue &eq,
                         const AcceleratorConfig &config,
                         std::string name)
    : eventq_(eq), config_(config), name_(std::move(name)),
      psc_(config.numPes),
      serverEvent_(this, name_ + ".server"),
      sampleEvent_(this, name_ + ".sample"),
      imageEvent_(this, name_ + ".image"),
      bootPool_(eq, name_ + ".boot")
{
    fatal_if(config.numPes < 2,
             "%s: need at least a server and one agent",
             name_.c_str());
    mcu_ = std::make_unique<Mcu>(eq, config.mcu, name_ + ".mcu");
    // PE 0 is the server; agents are PEs 1..numPes-1.
    for (std::uint32_t i = 1; i < config.numPes; ++i) {
        agents_.push_back(std::make_unique<ProcessingElement>(
            eq, config.pe, name_ + csprintf(".pe%u", i)));
        agents_.back()->attachMcu(mcu_.get());
        agents_.back()->setOnDone([this, pe_index = i] {
            // The agent retired its kernel; the PSC puts it back to
            // sleep until the server hands it more work.
            psc_.setState(pe_index, PowerState::sleep,
                          eventq_.curTick());
            agentDone();
        });
    }
    psc_.setState(0, PowerState::active, 0); // the server always runs
}

void
Accelerator::attachBackend(ctrl::MemoryBackend *backend)
{
    backend_ = backend;
    mcu_->attachBackend(backend);
}

void
Accelerator::launch(const KernelLaunch &launch,
                    std::function<void(Tick)> on_complete)
{
    fatal_if(busy_, "%s: launch while busy", name_.c_str());
    fatal_if(backend_ == nullptr, "%s: no backend attached",
             name_.c_str());
    fatal_if(launch.agentTraces.empty(), "%s: launch without traces",
             name_.c_str());
    fatal_if(launch.agentTraces.size() > agents_.size(),
             "%s: more traces than agents", name_.c_str());

    busy_ = true;
    current_ = launch;
    onComplete_ = std::move(on_complete);
    agentsDone_ = 0;
    activeAgents_ = 0;
    nextAgentToSchedule_ = 0;
    metrics_ = LaunchMetrics{};
    ipcSeries_.reset();
    activitySeries_.reset();

    Tick now = eventq_.curTick();
    metrics_.interruptAt = now + config_.hostInterruptLatency;

    // While the server loads the kernel, the PRAM subsystem may
    // selectively pre-erase the declared output regions (Section V-A).
    for (const auto &[addr, size] : current_.outputRegions)
        mcu_->hintFutureWrite(addr, size);

    if (current_.imageResident) {
        metrics_.imageDownloadedAt = metrics_.interruptAt;
        eventq_.reschedule(&serverEvent_, metrics_.interruptAt);
    } else {
        imageChunksLeft_ =
            (current_.imageBytes + config_.imageChunkBytes - 1) /
            config_.imageChunkBytes;
        eventq_.reschedule(&imageEvent_, metrics_.interruptAt);
    }

    lastSampleTick_ = now;
    eventq_.reschedule(&sampleEvent_,
                       now + config_.sampleInterval);
}

void
Accelerator::downloadImage()
{
    // Issue every image chunk as a posted write; the last durable
    // completion releases agent scheduling.
    std::uint64_t chunks = imageChunksLeft_;
    auto remaining = std::make_shared<std::uint64_t>(chunks);
    for (std::uint64_t i = 0; i < chunks; ++i) {
        std::uint64_t addr = current_.imageBase +
                             i * config_.imageChunkBytes;
        mcu_->write(addr, config_.imageChunkBytes,
                    [this, remaining](Tick when) {
                        if (--*remaining == 0) {
                            metrics_.imageDownloadedAt = when;
                            eventq_.reschedule(&serverEvent_,
                                               when);
                        }
                    });
    }
    imageChunksLeft_ = 0;
}

void
Accelerator::scheduleNextAgent()
{
    if (nextAgentToSchedule_ >= current_.agentTraces.size())
        return;
    std::uint32_t idx = nextAgentToSchedule_++;
    Tick now = eventq_.curTick();
    // PSC suspend, boot-address store into the agent's L2, resume.
    Tick asleep = now + config_.agentSleepLatency;
    Tick stored = asleep + config_.bootAddressStoreLatency;
    Tick awake = stored + config_.agentWakeLatency;
    if (auto *t = trace::current())
        t->complete(trace::catAccel, name_, "agent.boot", now, awake);
    psc_.setState(idx + 1, PowerState::sleep, asleep);
    psc_.setState(idx + 1, PowerState::active, awake);
    bootAgent(idx, awake);
    // The server moves on to the next agent once this one is revoked.
    if (nextAgentToSchedule_ < current_.agentTraces.size())
        eventq_.reschedule(&serverEvent_, awake);
}

void
Accelerator::bootAgent(std::uint32_t idx, Tick ready_at)
{
    // The agent fetches its kernel image from the backend before
    // entering the trace (Figure 9b step 6).
    std::uint64_t boot_bytes =
        std::min<std::uint64_t>(current_.imageBytes, 64 * 1024);
    std::uint64_t chunks = std::max<std::uint64_t>(
        1, boot_bytes / config_.imageChunkBytes);
    auto remaining = std::make_shared<std::uint64_t>(chunks);
    auto start_agent = [this, idx](Tick when) {
        ProcessingElement &pe = *agents_[idx];
        pe.setTrace(current_.agentTraces[idx]);
        pe.start(when);
        if (activeAgents_++ == 0)
            metrics_.firstAgentStartAt = when;
    };
    // Defer the boot reads until the PSC wake completes.
    bootPool_.schedule(ready_at, [=, this] {
        for (std::uint64_t i = 0; i < chunks; ++i) {
            mcu_->read(current_.imageBase +
                           i * config_.imageChunkBytes,
                       config_.imageChunkBytes,
                       [remaining, start_agent](Tick when) {
                           if (--*remaining == 0)
                               start_agent(when);
                       });
        }
    });
}

void
Accelerator::agentDone()
{
    if (++agentsDone_ < current_.agentTraces.size())
        return;
    busy_ = false;
    metrics_.completedAt = eventq_.curTick();
    if (auto *t = trace::current()) {
        t->complete(trace::catAccel, name_, "launch",
                    metrics_.interruptAt, metrics_.completedAt);
    }
    sample(); // close the series
    for (std::uint32_t i = 0; i < current_.agentTraces.size(); ++i) {
        metrics_.totalInstructions +=
            agents_[i]->peStats().instructions;
    }
    if (onComplete_)
        onComplete_(metrics_.completedAt);
}

void
Accelerator::sample()
{
    Tick now = eventq_.curTick();
    std::uint64_t instr = 0;
    double activity = 0.0;
    for (auto &pe : agents_) {
        instr += pe->drainInstructionSample();
        activity += pe->drainActivitySample();
    }
    double cycles = double(config_.sampleInterval) /
                    double(config_.pe.clockPeriod);
    Tick span = now - lastSampleTick_;
    if (span > 0) {
        cycles = double(span) / double(config_.pe.clockPeriod);
        ipcSeries_.record(now, double(instr) / cycles);
        activitySeries_.record(now,
                               activity / double(agents_.size()));
    }
    lastSampleTick_ = now;
    if (busy_) {
        eventq_.reschedule(&sampleEvent_,
                           now + config_.sampleInterval);
    }
}

} // namespace accel
} // namespace dramless
