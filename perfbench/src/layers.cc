/**
 * @file
 * The traced run: per-layer metrics measured from the benchmark's own
 * side, by timing calls into each module's public functions and
 * reading the counters those modules already keep.
 *
 * Layers that every workload exercises (sim, workload, accel, ctrl,
 * reliability) are measured on the traced workload's own inputs.
 * Layers that one workload owns are measured on that workload: the
 * per-organization self times and the sweep runner on
 * polybench_matrix, serve and pdes on serving_cosim.
 */

#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench.hh"
#include "ctrl/pram_subsystem.hh"
#include "runner/sweep_runner.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "workload/coalesce.hh"

namespace perfbench
{

using namespace dramless;

namespace
{

/** An event that reschedules itself until a shared budget runs out. */
class SelfRescheduler : public Event
{
  public:
    SelfRescheduler(EventQueue &eq, Random &rng, std::uint64_t &remaining)
        : eq_(eq), rng_(rng), remaining_(remaining)
    {}

    void
    process() override
    {
        if (remaining_ == 0)
            return;
        --remaining_;
        eq_.schedule(this, eq_.curTick() + 1 + rng_.below(97));
    }

  private:
    EventQueue &eq_;
    Random &rng_;
    std::uint64_t &remaining_;
};

/** sim.ns_per_event: EventQueue::run over 64 self-rescheduling events,
 *  median of three runs of 2M events. */
double
kernelNsPerEvent()
{
    std::vector<double> ns;
    for (int rep = 0; rep < 3; ++rep) {
        EventQueue eq;
        Random rng(42);
        std::uint64_t remaining = 2'000'000;
        std::vector<std::unique_ptr<SelfRescheduler>> pop;
        for (int i = 0; i < 64; ++i) {
            pop.push_back(
                std::make_unique<SelfRescheduler>(eq, rng, remaining));
            eq.schedule(pop.back().get(), 1 + rng.below(97));
        }
        auto start = Clock::now();
        eq.run();
        ns.push_back(secondsSince(start) * 1e9 /
                     double(eq.numProcessed()));
    }
    return median(ns);
}

std::uint64_t
alignRegion(std::uint64_t v)
{
    return (v + 4095) / 4096 * 4096;
}

/** The coalesced per-agent traces a system run pulls for @p m. */
std::vector<std::unique_ptr<workload::AgentTraceSource>>
agentTraces(const workload::WorkloadModel &m,
            const systems::SystemOptions &o)
{
    std::vector<std::unique_ptr<workload::AgentTraceSource>> out;
    const std::uint32_t agents = o.numPes - 1;
    for (std::uint32_t a = 0; a < agents; ++a) {
        workload::AgentTraceParams tp;
        tp.inputBase = 0;
        tp.outputBase = alignRegion(m.spec().inputBytes);
        tp.agentIndex = a;
        tp.numAgents = agents;
        tp.seed = o.seed;
        out.push_back(workload::wrapCoalescing(m.makeAgentTrace(tp),
                                               o.coalesceBytes));
    }
    return out;
}

struct Drain
{
    double seconds = 0.0;
    std::uint64_t items = 0;
    std::uint64_t memItems = 0;
    std::uint64_t words = 0;
};

/** Drain every (model, agent) trace through the coalescer. */
Drain
drainTraces(const std::vector<ModelPtr> &models,
            const systems::SystemOptions &o, Tracer &tracer)
{
    Drain d;
    for (const ModelPtr &m : models) {
        SpanScope span(&tracer, "workload", "drain/" + m->spec().name);
        auto start = Clock::now();
        accel::TraceItem it;
        for (auto &src : agentTraces(*m, o)) {
            while (src->next(it)) {
                ++d.items;
                if (it.kind != accel::TraceItem::Kind::compute) {
                    ++d.memItems;
                    d.words += it.burst;
                }
            }
        }
        d.seconds += secondsSince(start);
    }
    return d;
}

struct Replay
{
    double seconds = 0.0;
    std::uint64_t requests = 0;
    std::uint64_t completions = 0;
    std::uint64_t events = 0;
    std::uint64_t reads = 0, writes = 0;
    double readLatNs = 0.0, writeLatNs = 0.0;
    std::uint64_t readWords = 0, activatesSkipped = 0;
    std::uint64_t words = 0, gangWords = 0;
    bool stalled = false;
};

/**
 * Replay each model's drained load/store stream (agents interleaved
 * round-robin, at most @p cap requests per model) through a fresh
 * PRAM subsystem with canAccept() flow control.
 */
Replay
replayController(const std::vector<ModelPtr> &models,
                 const systems::SystemOptions &o, std::size_t cap,
                 Tracer &tracer)
{
    Replay rp;
    for (const ModelPtr &m : models) {
        std::vector<std::vector<ctrl::MemRequest>> perAgent;
        for (auto &src : agentTraces(*m, o)) {
            perAgent.emplace_back();
            accel::TraceItem it;
            while (perAgent.back().size() < cap / (o.numPes - 1) &&
                   src->next(it)) {
                if (it.kind == accel::TraceItem::Kind::compute)
                    continue;
                ctrl::MemRequest req;
                req.kind = it.kind == accel::TraceItem::Kind::store
                               ? ctrl::ReqKind::write
                               : ctrl::ReqKind::read;
                req.addr = it.addr;
                req.size = std::uint32_t(it.bytes());
                perAgent.back().push_back(req);
            }
        }
        std::vector<ctrl::MemRequest> reqs;
        for (std::size_t i = 0;; ++i) {
            bool any = false;
            for (const auto &a : perAgent) {
                if (i < a.size()) {
                    reqs.push_back(a[i]);
                    any = true;
                }
            }
            if (!any)
                break;
        }

        EventQueue eq;
        ctrl::SubsystemConfig cfg;
        cfg.functional = false;
        ctrl::PramSubsystem pram(eq, cfg, "replay");
        eq.runUntil(pram.initialize());
        std::vector<Tick> enqueuedAt(1, 0);
        std::vector<bool> isWrite(1, false);
        pram.setCallback([&](const ctrl::MemResponse &resp) {
            double ns = toNs(resp.completedAt - enqueuedAt.at(resp.id));
            if (isWrite.at(resp.id))
                rp.writeLatNs += ns;
            else
                rp.readLatNs += ns;
            ++rp.completions;
        });

        SpanScope span(&tracer, "ctrl", "replay/" + m->spec().name);
        auto start = Clock::now();
        for (const ctrl::MemRequest &req : reqs) {
            if (req.addr + req.size > pram.capacity())
                continue;
            while (!pram.canAccept(req)) {
                if (!eq.step()) {
                    rp.stalled = true;
                    break;
                }
            }
            if (rp.stalled)
                break;
            std::uint64_t id = pram.enqueue(req);
            enqueuedAt.resize(id + 1, 0);
            isWrite.resize(id + 1, false);
            enqueuedAt[id] = eq.curTick();
            isWrite[id] = req.kind == ctrl::ReqKind::write;
            ++rp.requests;
            ++(isWrite[id] ? rp.writes : rp.reads);
        }
        eq.run();
        rp.seconds += secondsSince(start);
        rp.events += eq.numProcessed();
        for (std::uint32_t c = 0; c < pram.numChannels(); ++c) {
            const ctrl::ControllerStats &cs = pram.channel(c).ctrlStats();
            rp.readWords += cs.readWords;
            rp.activatesSkipped += cs.activatesSkipped;
            rp.words += cs.readWords + cs.writeWords;
            rp.gangWords += cs.gangWords;
        }
    }
    return rp;
}

struct JobTotals
{
    double seconds = 0.0;
    std::uint64_t verifyRetries = 0;
    std::uint64_t gapMoveWrites = 0;
};

JobTotals
runJobs(const std::vector<BatchJob> &jobs, Tracer &tracer,
        Checks &checks)
{
    JobTotals t;
    Digest d;
    for (const BatchJob &job : jobs) {
        RunRecord r = runJob(job, &tracer, checks, d);
        t.seconds += r.wallS;
        t.verifyRetries += r.result.reliability.verifyRetries;
        t.gapMoveWrites += r.result.reliability.gapMoveWrites;
    }
    return t;
}

std::vector<BatchJob>
idealJobs(const Workload &w)
{
    std::vector<BatchJob> jobs;
    for (const ModelPtr &m : w.models())
        jobs.push_back(
            factoryJob(systems::SystemKind::ideal, m, w.options()));
    return jobs;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

} // anonymous namespace

std::vector<Metric>
tracedRun(const std::string &name, std::uint64_t seed, Checks &checks,
          Tracer &tracer)
{
    std::vector<Metric> out;
    auto emit = [&](const std::string &n, double v, const char *unit) {
        out.push_back(Metric{n, v, unit});
    };
    const unsigned nproc =
        std::max(1u, std::thread::hardware_concurrency());

    std::unique_ptr<Workload> w = makeWorkload(name);
    double buildS = 0.0;
    {
        SpanScope span(&tracer, "setup", name);
        w->setup(seed, buildS);
    }

    // ---- untraced, traced, untraced again: overhead and coverage ----
    PassResult plain = w->pass(nullptr);
    checks.merge(plain.checks);
    int root = tracer.open("pass", name);
    PassResult traced = w->pass(&tracer);
    tracer.close(root);
    checks.merge(traced.checks);
    PassResult again = w->pass(nullptr);
    checks.merge(again.checks);
    plain.wallS = 0.5 * (plain.wallS + again.wallS);
    checks.expect(plain.digest == traced.digest &&
                      again.digest == traced.digest,
                  "tracing changed the simulated statistics");
    const Tracer::Span &rootSpan = tracer.spans().at(std::size_t(root));
    double rootS = rootSpan.end - rootSpan.start;
    double covered = 0.0;
    for (const Tracer::Span &s : tracer.spans())
        if (s.parent == root)
            covered += s.end - s.start;
    double overhead = ratio(traced.wallS - plain.wallS, plain.wallS);
    double coverage = ratio(covered, rootS);
    checks.expect(1.0 - coverage <= std::max(overhead, 0.0) + 0.02,
                  csprintf("per-run spans cover %.3f of the traced "
                           "wall time",
                           coverage));

    // ------------------------------ sim ------------------------------
    emit("sim.ns_per_event", kernelNsPerEvent(), "ns");
    emit("sim.events", double(traced.events), "count");
    emit("sim.host_ns_per_event",
         ratio(plain.wallS * 1e9, double(traced.events)), "ns");

    // ---------------------------- workload ---------------------------
    const systems::SystemOptions opts = w->options();
    Drain drain = drainTraces(w->models(), opts, tracer);
    emit("workload.trace_s", drain.seconds, "s");
    emit("workload.items", double(drain.items), "count");
    emit("workload.ns_per_item",
         ratio(drain.seconds * 1e9, double(drain.items)), "ns");
    emit("workload.words_per_item",
         ratio(double(drain.words), double(drain.memItems)), "words");
    emit("workload.build_s", buildS, "s");

    // ----------------------------- accel -----------------------------
    JobTotals ideal = runJobs(idealJobs(*w), tracer, checks);
    double accelS = ideal.seconds - drain.seconds;
    emit("accel.s", accelS, "s");
    emit("accel.ns_per_item", ratio(accelS * 1e9, double(drain.items)),
         "ns");

    // ----------------- systems (home: polybench_matrix) --------------
    std::unique_ptr<Workload> matrix;
    PassResult matrixPass;
    JobTotals matrixIdeal;
    if (name == "polybench_matrix") {
        matrixPass = traced;
        matrixIdeal = ideal;
    } else {
        SpanScope span(&tracer, "home", "polybench_matrix");
        matrix = makeWorkload("polybench_matrix");
        double ignored = 0.0;
        matrix->setup(seed, ignored);
        matrixPass = matrix->pass(&tracer);
        checks.merge(matrixPass.checks);
        matrixIdeal = runJobs(idealJobs(*matrix), tracer, checks);
    }
    std::vector<std::string> unresolved;
    for (systems::SystemKind kind : matrixOrgs()) {
        const std::string org = orgId(kind);
        double s = 0.0;
        std::uint64_t events = 0;
        for (const RunRecord &r : matrixPass.runs) {
            if (r.org == org) {
                s += r.wallS;
                events += r.result.eventsProcessed;
            }
        }
        double self = s - matrixIdeal.seconds;
        if (self < 0.0)
            unresolved.push_back(org);
        emit("systems." + org + ".self_s", self, "s");
        emit("systems." + org + ".ns_per_event",
             ratio(s * 1e9, double(events)), "ns");
    }
    for (const std::string &org : unresolved)
        std::printf("unresolved: systems.%s.self_s is negative (run "
                    "time below Ideal's within host noise)\n",
                    org.c_str());
    emit("systems.unresolved_orgs", double(unresolved.size()), "count");

    // ------------------------------ ctrl -----------------------------
    Replay rp = replayController(w->models(), opts, 28000, tracer);
    checks.expect(!rp.stalled && rp.completions == rp.requests,
                  "controller replay lost requests");
    emit("ctrl.replay_ns_per_request",
         ratio(rp.seconds * 1e9, double(rp.requests)), "ns");
    emit("ctrl.events_per_request",
         ratio(double(rp.events), double(rp.requests)), "events");
    emit("ctrl.read_lat_ns", ratio(rp.readLatNs, double(rp.reads)),
         "ns");
    emit("ctrl.write_lat_ns", ratio(rp.writeLatNs, double(rp.writes)),
         "ns");
    emit("ctrl.activate_skip_share",
         ratio(double(rp.activatesSkipped), double(rp.readWords)),
         "ratio");
    emit("ctrl.gang_word_share",
         ratio(double(rp.gangWords), double(rp.words)), "ratio");

    // --------------------------- reliability -------------------------
    JobTotals off, on;
    {
        SpanScope span(&tracer, "reliability", "off");
        off = runJobs(w->dramlessJobs(false), tracer, checks);
    }
    {
        SpanScope span(&tracer, "reliability", "on");
        on = runJobs(w->dramlessJobs(true), tracer, checks);
    }
    emit("reliability.verify_retries", double(on.verifyRetries),
         "count");
    emit("reliability.gap_move_writes", double(on.gapMoveWrites),
         "count");
    emit("reliability.overhead_s", on.seconds - off.seconds, "s");

    // ---------------- serve + pdes (home: serving_cosim) -------------
    // The same seed gives this instance the traced workload's inputs
    // when that is serving_cosim.
    std::unique_ptr<ServingWorkload> serving = makeServingCosim();
    {
        SpanScope span(&tracer, "setup", "serving_cosim");
        double ignored = 0.0;
        serving->setup(seed, ignored);
    }
    ServingTimes st = traced.serving;
    if (name != "serving_cosim") {
        SpanScope span(&tracer, "home", "serving_cosim");
        PassResult sp = serving->pass(&tracer);
        checks.merge(sp.checks);
        st = sp.serving;
    }
    emit("serve.probe_s", st.probeS, "s");
    emit("serve.fleet_ns_per_request",
         ratio(st.fleetS * 1e9, double(st.fleetRequests)), "ns");
    emit("serve.cosim_s", st.cosimS, "s");
    emit("serve.cosim_ns_per_event",
         ratio(st.cosimS * 1e9, double(st.cosimEvents)), "ns");
    emit("pdes.windows", double(st.windows), "count");
    emit("pdes.events_per_window",
         ratio(double(st.lowEvents), double(st.windows)), "events");
    emit("pdes.messages", double(st.messages), "count");
    std::uint64_t shardedDigest = 0;
    double shardedS = 0.0;
    {
        SpanScope span(&tracer, "pdes", csprintf("shards=%u", nproc));
        shardedS = serving->cosimBelowKnee(nproc, shardedDigest);
    }
    checks.expect(shardedDigest == st.lowDigest,
                  "co-sim results differ between 1 and nproc shards");
    emit("pdes.speedup_nproc", ratio(st.cosimLowS, shardedS), "x");

    // --------------- runner (home: polybench_matrix jobs) ------------
    {
        const Workload &pm = matrix ? *matrix : *w;
        std::vector<runner::SweepJob> jobs;
        for (systems::SystemKind kind : matrixOrgs())
            for (const ModelPtr &m : pm.models())
                jobs.push_back(runner::makeJob(kind, m, pm.options()));
        auto timeRun = [&](unsigned workers, Digest &d) {
            SpanScope span(&tracer, "runner",
                           csprintf("workers=%u", workers));
            runner::SweepRunner pool(workers);
            auto start = Clock::now();
            std::vector<systems::RunResult> rs = pool.run(jobs);
            double s = secondsSince(start);
            for (const systems::RunResult &r : rs)
                d.add(r);
            return s;
        };
        Digest serial, parallel;
        double t1 = timeRun(1, serial);
        double tn = timeRun(nproc, parallel);
        checks.expect(serial.value() == parallel.value(),
                      "SweepRunner results depend on the worker count");
        emit("runner.parallel_efficiency", ratio(t1, nproc * tn),
             "ratio");
    }

    emit("trace_overhead_share", overhead, "ratio");
    emit("trace_span_coverage", coverage, "ratio");
    return out;
}

} // namespace perfbench
