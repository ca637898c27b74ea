#include "serve/node_sim.hh"

#include <utility>

#include "serve/fleet.hh"
#include "sim/logging.hh"
#include "systems/node.hh"

namespace dramless
{
namespace serve
{

SimNode::SimNode(
    EventQueue &eq, const systems::SystemOptions &opts,
    std::vector<std::shared_ptr<const workload::WorkloadModel>> mix,
    bool priority_scheduling, std::string name)
    : eventq_(eq), opts_(opts), mix_(std::move(mix)),
      priorityScheduling_(priority_scheduling),
      name_(std::move(name)), kick_(eq, name_ + ".kick")
{
    fatal_if(mix_.empty(), "%s: empty workload mix", name_.c_str());
    fatal_if(opts_.numPes < 2, "%s: need a server PE plus agents",
             name_.c_str());
    for (const auto &m : mix_)
        fatal_if(!m, "%s: null workload model in mix", name_.c_str());

    pram_ = std::make_unique<ctrl::PramSubsystem>(
        eventq_,
        systems::pramConfig(opts_, ctrl::SchedulerConfig::finalConfig()),
        name_ + ".pram");
    storageReady_ = pram_->initialize();

    accel_ = std::make_unique<accel::Accelerator>(
        eventq_, systems::acceleratorConfig(opts_), name_ + ".accel");
    accel_->attachBackend(pram_.get());
}

SimNode::~SimNode() = default;

void
SimNode::submit(std::uint64_t id, std::uint32_t mix_index,
                std::uint32_t priority)
{
    fatal_if(mix_index >= mix_.size(),
             "%s: request %llu names mix entry %u of %zu",
             name_.c_str(), (unsigned long long)id, mix_index,
             mix_.size());
    stats_.submitted++;
    waiting_.push_back(Queued{id, mix_index, priority});
    tryLaunch();
}

void
SimNode::tryLaunch()
{
    if (inService_ || waiting_.empty())
        return;
    Tick now = eventq_.curTick();
    if (now < storageReady_) {
        // The PRAM initializer (boot-up process) is still running:
        // hold the queue until the subsystem accepts traffic.
        kick_.schedule(storageReady_, [this] { tryLaunch(); });
        return;
    }

    const Queued q =
        popWaiting(waiting_, priorityScheduling_,
                   [](const Queued &w) { return w.priority; });
    inService_ = true;

    // Every request reuses the same address space, as the paper's
    // accelerator reuses its PRAM working set between kernels, so
    // agent caches holding the previous request's lines must be
    // dropped.
    const workload::WorkloadModel &model = *mix_[q.mixIndex];
    accel_->invalidateAgentCaches();
    const accel::KernelLaunch launch = systems::agentLaunch(
        model, opts_, systems::addressMap(model.spec()), traces_);

    accel_->launch(launch, [this, id = q.id, start = now](Tick t) {
        inService_ = false;
        stats_.completed++;
        stats_.busyTicks += t - start;
        if (completion_)
            completion_(id, start, t);
        // Not a direct tryLaunch(): the accelerator is still inside
        // this callback's std::function, and a synchronous re-launch
        // would reassign it mid-call. A same-tick event starts the
        // next request after the callback unwinds.
        if (!waiting_.empty())
            kick_.schedule(t, [this] { tryLaunch(); });
    });
}

} // namespace serve
} // namespace dramless
