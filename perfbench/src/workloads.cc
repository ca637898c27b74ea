/**
 * @file
 * The three benchmark workloads and the helpers they share: output
 * checks, the simulated-statistics digest and the span recorder.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>

#include "bench.hh"
#include "serve/cosim.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "workload/dnn.hh"
#include "workload/graph.hh"

namespace perfbench
{

using namespace dramless;

// ------------------------------ helpers ------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace
{

/** Geometric mean of positive @p v (0 when empty). */
double
geomean(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : stats::geomean(v);
}

/** Exact nearest-rank p99 of @p v. */
double
p99(std::vector<double> v)
{
    return v.empty() ? 0.0 : stats::percentileExact(std::move(v), 0.99);
}

/** Checks of one run's outputs (see runJob). */
void
checkRun(const systems::RunResult &r,
         const workload::WorkloadModel &model, Checks &checks)
{
    const std::string what = r.system + "/" + r.workload;
    if (!checks.expect(!r.failed(), what + ": run failed: " + r.error))
        return;
    checks.expect(r.bytesProcessed == model.spec().totalBytes(),
                  what + ": bytesProcessed differs from the spec");
    checks.expect(r.hostStackTime + r.transferTime +
                          r.storageStallTime + r.computeTime ==
                      r.execTime,
                  what + ": Figure 16 split does not sum to execTime");
}

/** Checks of one served schedule: completed + rejected == offered
 *  and arrival <= start <= completion for every record. */
void
checkServing(const serve::ServingResult &r, const std::string &what,
             Checks &checks)
{
    checks.expect(r.completed + r.rejected == r.offered &&
                      r.offered == r.records.size(),
                  what + ": completed + rejected != offered");
    for (const serve::RequestRecord &rec : r.records) {
        checks.expect(rec.arrival <= rec.start &&
                          rec.start <= rec.completion,
                      csprintf("%s: request %llu violates arrival <= "
                               "start <= completion",
                               what.c_str(),
                               (unsigned long long)rec.id));
    }
}

} // anonymous namespace

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 1099511628211ull;
    }
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
}

void
Digest::add(const std::string &s)
{
    add(std::uint64_t(s.size()));
    for (unsigned char c : s) {
        h_ ^= c;
        h_ *= 1099511628211ull;
    }
}

void
Digest::add(const systems::RunResult &r)
{
    add(r.system);
    add(r.workload);
    add(r.error);
    for (Tick t : {r.execTime, r.hostStackTime, r.transferTime,
                   r.storageStallTime, r.computeTime})
        add(std::uint64_t(t));
    add(r.bandwidthMBps);
    const energy::EnergyBreakdown &e = r.energy;
    for (double j : {e.hostStack, e.pcie, e.accelCores, e.dram,
                     e.storageMedia, e.controller})
        add(j);
    for (const stats::TimeSeries *ts :
         {&r.ipc, &r.corePower, &r.cumulativeEnergy}) {
        add(std::uint64_t(ts->size()));
        for (const stats::TimePoint &p : ts->samples()) {
            add(std::uint64_t(p.when));
            add(p.value);
        }
    }
    add(r.totalInstructions);
    add(r.bytesProcessed);
    add(r.eventsProcessed);
    const systems::ReliabilityOutcome &o = r.reliability;
    for (std::uint64_t v :
         {o.verifyRetries, o.failedWrites, o.badLineRemaps,
          o.spareLinesUsed, o.gapMoveWrites, o.firmwareTimeouts,
          o.firmwareGiveUps, o.maxLineWear, o.writesBeforeFirstRemap})
        add(v);
}

void
Digest::add(const serve::ServingResult &r)
{
    for (const serve::RequestRecord &rec : r.records) {
        add(rec.id);
        add(std::uint64_t(rec.workloadIndex));
        add(std::uint64_t(rec.priority));
        add(std::uint64_t(std::int64_t(rec.node)));
        add(std::uint64_t(rec.rejected));
        for (Tick t : {rec.arrival, rec.dispatch, rec.start,
                       rec.completion})
            add(std::uint64_t(t));
    }
    add(r.offered);
    add(r.completed);
    add(r.rejected);
    add(std::uint64_t(r.lastArrival));
    add(std::uint64_t(r.lastCompletion));
    for (double v : {r.offeredRatePerSec, r.goodputPerSec, r.p50QueueUs,
                     r.p99QueueUs, r.p999QueueUs, r.p50E2eUs,
                     r.p99E2eUs, r.p999E2eUs})
        add(v);
}

bool
Checks::expect(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        if (failures.size() < 20)
            failures.push_back(what);
    }
    return ok;
}

void
Checks::merge(const Checks &o)
{
    attempted += o.attempted;
    failed += o.failed;
    for (const std::string &f : o.failures)
        if (failures.size() < 20)
            failures.push_back(f);
}

int
Tracer::open(const std::string &layer, const std::string &name)
{
    Span s;
    s.layer = layer;
    s.name = name;
    s.start = secondsSince(origin_);
    s.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(s));
    int id = int(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    spans_.at(std::size_t(id)).end = secondsSince(origin_);
    // Spans nest (SpanScope is scoped), so the innermost open span is
    // the one closing.
    stack_.pop_back();
}

bool
Tracer::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "  {\"id\": %zu, \"parent\": %d, \"layer\": \"%s\", "
                     "\"name\": \"%s\", \"start_s\": %.9f, "
                     "\"end_s\": %.9f}%s\n",
                     i, s.parent, s.layer.c_str(), s.name.c_str(),
                     s.start, s.end, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
}

RunRecord
runJob(const BatchJob &job, Tracer *tracer, Checks &checks, Digest &d)
{
    RunRecord rec;
    rec.org = job.org;
    SpanScope span(tracer, "systems", job.org + "/" +
                                          job.model->spec().name);
    auto start = Clock::now();
    try {
        std::unique_ptr<systems::AcceleratedSystem> sys = job.make();
        rec.result = sys->run(*job.model);
    } catch (const std::exception &e) {
        rec.result.system = job.org;
        rec.result.workload = job.model->spec().name;
        rec.result.error = e.what();
    }
    rec.wallS = secondsSince(start);
    checkRun(rec.result, *job.model, checks);
    d.add(rec.result);
    return rec;
}

const char *
orgId(systems::SystemKind kind)
{
    using K = systems::SystemKind;
    switch (kind) {
      case K::hetero:
        return "hetero";
      case K::heterodirect:
        return "heterodirect";
      case K::heteroPram:
        return "hetero_pram";
      case K::heterodirectPram:
        return "heterodirect_pram";
      case K::norIntf:
        return "nor";
      case K::integratedSlc:
        return "integrated_slc";
      case K::integratedMlc:
        return "integrated_mlc";
      case K::integratedTlc:
        return "integrated_tlc";
      case K::pageBuffer:
        return "pagebuffer";
      case K::dramLess:
        return "dramless";
      case K::dramLessFirmware:
        return "dramless_fw";
      case K::ideal:
        return "ideal";
    }
    return "?";
}

std::vector<systems::SystemKind>
matrixOrgs()
{
    std::vector<systems::SystemKind> kinds =
        systems::SystemFactory::evaluationOrder();
    kinds.push_back(systems::SystemKind::dramLessFirmware);
    return kinds;
}

BatchJob
factoryJob(systems::SystemKind kind, ModelPtr model,
           const systems::SystemOptions &opts)
{
    return BatchJob{orgId(kind),
                    [kind, opts] {
                        return systems::SystemFactory::create(kind, opts);
                    },
                    std::move(model)};
}

namespace
{

/** @p o with dramless_rw's Start-Gap wear leveling and fault
 *  injection. */
systems::SystemOptions
reliabilityOptions(systems::SystemOptions o, std::uint64_t seed)
{
    o.wearLeveling = true;
    o.gapMovePeriod = 100;
    o.reliability.enabled = true;
    o.reliability.seed = seed;
    o.reliability.writeFailProb = 1e-3;
    o.reliability.maxProgramRetries = 3;
    return o;
}

/** Run @p jobs serially; fill the run-derived fields of a pass. */
PassResult
runBatch(const std::vector<BatchJob> &jobs, Tracer *tracer)
{
    PassResult p;
    Digest d;
    auto start = Clock::now();
    for (const BatchJob &job : jobs)
        p.runs.push_back(runJob(job, tracer, p.checks, d));
    p.wallS = secondsSince(start);
    p.digest = d.value();
    double rest = p.wallS;
    for (const RunRecord &r : p.runs) {
        p.events += r.result.eventsProcessed;
        p.unitS.push_back(r.wallS);
        rest -= r.wallS;
    }
    p.unitS.push_back(rest);
    return p;
}

/**
 * Simulated figures of a batch pass: bandwidth and energy geomeans
 * over the runs whose organization @p counts, and a batch latency
 * tail. Each organization serves its kernels back to back in job
 * order, so a kernel's latency is its completion time in that queue
 * (the summed execution times up to and including it); the p99 is
 * over every kernel of every organization. A run that does not fail
 * counts as completed.
 */
void
batchFigures(PassResult &p,
             const std::function<bool(const std::string &)> &counts)
{
    std::vector<double> bw, mj, lat;
    std::uint64_t completed = 0;
    std::string org;
    double queueUs = 0.0;
    for (const RunRecord &r : p.runs) {
        if (r.result.failed())
            continue;
        ++completed;
        if (r.org != org) {
            org = r.org;
            queueUs = 0.0;
        }
        queueUs += toUs(r.result.execTime);
        lat.push_back(queueUs);
        if (counts(r.org)) {
            bw.push_back(r.result.bandwidthMBps);
            mj.push_back(r.result.energy.total() * 1e3);
        }
    }
    p.bwGmMBps = geomean(bw);
    p.energyGmMj = geomean(mj);
    p.p99Us = p99(lat);
    p.p99Samples = lat.size();
    p.goodputRatio =
        p.runs.empty() ? 0.0 : double(completed) / double(p.runs.size());
}

// ------------------------- polybench_matrix --------------------------

/** Table I's organizations plus DRAM-less (firmware) x Polybench. */
class PolybenchMatrix : public Workload
{
  public:
    static constexpr double kScale = 0.25;

    void
    setup(std::uint64_t seed, double &build_s) override
    {
        jobs_.clear();
        opts_ = systems::SystemOptions{};
        opts_.seed = seed;
        auto start = Clock::now();
        models_.clear();
        for (const workload::WorkloadSpec &spec :
             workload::Polybench::all())
            models_.push_back(workload::modelFor(spec)->scaled(kScale));
        build_s = secondsSince(start);
        for (systems::SystemKind kind : matrixOrgs())
            for (const ModelPtr &m : models_)
                jobs_.push_back(factoryJob(kind, m, opts_));
    }

    PassResult
    pass(Tracer *tracer) override
    {
        PassResult p = runBatch(jobs_, tracer);
        batchFigures(p, [](const std::string &org) {
            return org == "dramless";
        });
        std::vector<double> hetero;
        for (const RunRecord &r : p.runs)
            if (r.org == "hetero" && !r.result.failed())
                hetero.push_back(r.result.bandwidthMBps);
        p.checks.expect(p.bwGmMBps > geomean(hetero),
                        "DRAM-less does not beat Hetero on the "
                        "bandwidth geomean");
        return p;
    }

    std::vector<ModelPtr> models() const override { return models_; }
    systems::SystemOptions options() const override { return opts_; }

    std::vector<BatchJob>
    dramlessJobs(bool reliability) const override
    {
        systems::SystemOptions o =
            reliability ? reliabilityOptions(opts_, opts_.seed) : opts_;
        std::vector<BatchJob> jobs;
        for (const ModelPtr &m : models_)
            jobs.push_back(
                factoryJob(systems::SystemKind::dramLess, m, o));
        return jobs;
    }

    int passes() const override { return 9; }
    // One set-up takes ~20 us.
    int setupsPerSample() const override { return 1000; }

  private:
    systems::SystemOptions opts_;
    std::vector<ModelPtr> models_;
    std::vector<BatchJob> jobs_;
};

// ---------------------------- dramless_rw ----------------------------

/** DRAM-less under Final and Bare-metal scheduling, with wear
 *  leveling and fault injection, on write- and irregular-heavy
 *  inputs. */
class DramlessRw : public Workload
{
  public:
    void
    setup(std::uint64_t seed, double &build_s) override
    {
        jobs_.clear();
        seed_ = seed;
        opts_ = reliabilityOptions(systems::SystemOptions{}, seed);
        opts_.seed = seed;
        auto start = Clock::now();
        models_.clear();
        auto graph = [&](workload::GraphKernel kernel,
                         std::uint32_t iterations) {
            workload::GraphWorkloadConfig cfg;
            cfg.kernel = kernel;
            cfg.iterations = iterations;
            cfg.graph.numVertices = 16384;
            cfg.graph.edgeFactor = 16.0;
            cfg.graph.seed = seed;
            return std::make_shared<workload::GraphWorkload>(cfg);
        };
        models_.push_back(graph(workload::GraphKernel::bfs, 1));
        models_.push_back(graph(workload::GraphKernel::pagerank, 2));
        models_.push_back(graph(workload::GraphKernel::spmv, 1));
        models_.push_back(workload::dnnModelFor("ffn", 4));
        for (const char *k : {"chol", "doitg", "lu", "seidel"})
            models_.push_back(
                workload::modelFor(workload::Polybench::byName(k))
                    ->scaled(0.5));
        build_s = secondsSince(start);
        jobs_ = jobsWith(opts_);
    }

    PassResult
    pass(Tracer *tracer) override
    {
        PassResult p = runBatch(jobs_, tracer);
        batchFigures(p, [](const std::string &) { return true; });
        std::uint64_t retries = 0, gap = 0;
        for (const RunRecord &r : p.runs) {
            retries += r.result.reliability.verifyRetries;
            gap += r.result.reliability.gapMoveWrites;
        }
        p.checks.expect(retries > 0 && gap > 0,
                        "fault injection or wear leveling inactive");
        return p;
    }

    std::vector<ModelPtr> models() const override { return models_; }
    systems::SystemOptions options() const override { return opts_; }

    std::vector<BatchJob>
    dramlessJobs(bool reliability) const override
    {
        if (reliability)
            return jobs_;
        systems::SystemOptions o;
        o.seed = seed_;
        return jobsWith(o);
    }

    int passes() const override { return 8; }
    // One set-up takes ~0.2 s, most of it graph materialization.
    int setupsPerSample() const override { return 1; }

  private:
    std::vector<BatchJob>
    jobsWith(const systems::SystemOptions &o) const
    {
        using IK = systems::IntegratedKind;
        std::vector<BatchJob> jobs;
        for (auto [kind, org] : {std::pair{IK::dramLess, "dramless"},
                                 std::pair{IK::dramLessBareMetal,
                                           "dramless_bm"}}) {
            for (const ModelPtr &m : models_) {
                jobs.push_back(BatchJob{
                    org,
                    [kind, o] {
                        return systems::SystemFactory::
                            createDramLessVariant(kind, o);
                    },
                    m});
            }
        }
        return jobs;
    }

    std::uint64_t seed_ = 1;
    systems::SystemOptions opts_;
    std::vector<ModelPtr> models_;
    std::vector<BatchJob> jobs_;
};

// --------------------------- serving_cosim ---------------------------

/**
 * fig_serving's request mix on a 16-node DRAM-less fleet: the
 * probe-calibrated analytic Fleet and the co-simulated fleet, each at
 * one open-loop Poisson rate below the saturation knee and one above.
 */
class ServingCosim : public ServingWorkload
{
  public:
    /** Volume scale of the mix: each launch costs microseconds. */
    static constexpr double kMixScale = 0.005;
    /** Requests per schedule: the below-knee p99 has 10 beyond it. */
    static constexpr std::uint64_t kRequests = 1000;
    /**
     * Offered rates, requests per second of simulated time. A live
     * node serves the mix in ~256 us on average, so the co-simulated
     * fleet's capacity is ~62k requests/s: these are ~0.75x and ~1.6x
     * of it.
     */
    static constexpr double kBelowKneeRps = 4.7e4;
    static constexpr double kAboveKneeRps = 1.0e5;

    void
    setup(std::uint64_t seed, double &build_s) override
    {
        node_ = systems::SystemOptions{};
        node_.seed = seed;
        auto start = Clock::now();
        mix_.clear();
        auto graph = [&](workload::GraphKernel kernel) {
            workload::GraphWorkloadConfig cfg;
            cfg.kernel = kernel;
            cfg.graph.numVertices = 8192;
            cfg.graph.edgeFactor = 8.0;
            cfg.graph.seed = seed;
            return std::make_shared<workload::GraphWorkload>(cfg);
        };
        std::vector<ModelPtr> full = {
            graph(workload::GraphKernel::bfs),
            graph(workload::GraphKernel::spmv),
            workload::dnnModelFor("mlp", 1),
            workload::dnnModelFor("lenet", 1),
            workload::modelFor(workload::Polybench::byName("gemver")),
        };
        for (const ModelPtr &m : full)
            mix_.push_back(m->scaled(kMixScale));
        build_s = secondsSince(start);

        fleet_ = serve::FleetConfig{};
        fleet_.numNodes = 16;
        fleet_.queueCapacity = 16;
        fleet_.policy = serve::DispatchPolicy::joinShortestQueue;
        serve::ArrivalConfig a;
        a.numRequests = kRequests;
        a.seed = seed;
        a.mixWeights = {0.4, 0.2, 0.15, 0.1, 0.15};
        a.ratePerSec = kBelowKneeRps;
        below_ = serve::PoissonArrivals(a).generate();
        a.ratePerSec = kAboveKneeRps;
        above_ = serve::PoissonArrivals(a).generate();
    }

    PassResult
    pass(Tracer *tracer) override
    {
        PassResult p;
        Digest d;
        ServingTimes &t = p.serving;
        auto start = Clock::now();

        // Probe: one DRAM-less run per mix entry calibrates the
        // analytic fleet's service times.
        std::vector<Tick> service;
        {
            SpanScope span(tracer, "serve", "probe");
            auto t0 = Clock::now();
            for (const ModelPtr &m : mix_) {
                p.runs.push_back(runJob(
                    factoryJob(systems::SystemKind::dramLess, m, node_),
                    tracer, p.checks, d));
                service.push_back(
                    std::max<Tick>(1, p.runs.back().result.execTime));
            }
            t.probeS = secondsSince(t0);
        }
        // Bandwidth and energy come from the probes; the latency and
        // goodput figures are replaced by the co-sim's below.
        batchFigures(p, [](const std::string &) { return true; });

        {
            SpanScope span(tracer, "serve", "fleet");
            auto t0 = Clock::now();
            serve::Fleet fleet(fleet_, service);
            serve::ServingResult lo = fleet.run(below_);
            serve::ServingResult hi = fleet.run(above_);
            t.fleetS = secondsSince(t0);
            t.fleetRequests = below_.size() + above_.size();
            checkServing(lo, "fleet below knee", p.checks);
            checkServing(hi, "fleet above knee", p.checks);
            d.add(lo);
            d.add(hi);
        }

        serve::CoSimConfig cc;
        cc.fleet = fleet_;
        cc.node = node_;
        serve::CoSimFleet cosim(cc, mix_);
        serve::ServingResult lo, hi;
        {
            SpanScope span(tracer, "serve", "cosim_below_knee");
            auto t0 = Clock::now();
            lo = cosim.run(below_);
            t.cosimLowS = secondsSince(t0);
            const pdes::KernelStats &ks = cosim.kernelStats();
            t.windows = ks.windows;
            t.messages = ks.messages;
            t.lowEvents = ks.events;
            d.add(ks.windows);
            d.add(ks.messages);
            d.add(ks.events);
        }
        {
            SpanScope span(tracer, "serve", "cosim_above_knee");
            auto t0 = Clock::now();
            hi = cosim.run(above_);
            t.cosimS = t.cosimLowS + secondsSince(t0);
            const pdes::KernelStats &ks = cosim.kernelStats();
            t.cosimEvents = t.lowEvents + ks.events;
            d.add(ks.windows);
            d.add(ks.messages);
            d.add(ks.events);
        }
        checkServing(lo, "cosim below knee", p.checks);
        checkServing(hi, "cosim above knee", p.checks);
        Digest lowDigest;
        lowDigest.add(lo);
        t.lowDigest = lowDigest.value();
        d.add(lo);
        d.add(hi);

        p.checks.expect(lo.rejected == 0,
                        "below-knee rate rejected requests");
        p.checks.expect(hi.completionRatio() < 1.0,
                        "above-knee rate did not saturate the fleet");
        p.p99Us = lo.p99E2eUs;
        p.p99Samples = lo.completed;
        p.goodputRatio = hi.completionRatio();
        for (const RunRecord &r : p.runs)
            p.events += r.result.eventsProcessed;
        p.events += t.cosimEvents;
        p.wallS = secondsSince(start);
        p.digest = d.value();
        p.unitS = {t.probeS, t.fleetS, t.cosimLowS, t.cosimS - t.cosimLowS};
        p.unitS.push_back(p.wallS - t.probeS - t.fleetS - t.cosimS);
        return p;
    }

    std::vector<ModelPtr> models() const override { return mix_; }
    systems::SystemOptions options() const override { return node_; }

    std::vector<BatchJob>
    dramlessJobs(bool reliability) const override
    {
        systems::SystemOptions o =
            reliability ? reliabilityOptions(node_, node_.seed) : node_;
        std::vector<BatchJob> jobs;
        for (const ModelPtr &m : mix_)
            jobs.push_back(
                factoryJob(systems::SystemKind::dramLess, m, o));
        return jobs;
    }

    int passes() const override { return 6; }
    // One set-up takes ~30 ms.
    int setupsPerSample() const override { return 1; }

    double
    cosimBelowKnee(unsigned shards, std::uint64_t &digest) const override
    {
        serve::CoSimConfig cc;
        cc.fleet = fleet_;
        cc.node = node_;
        cc.node.shards = shards;
        serve::CoSimFleet cosim(cc, mix_);
        auto t0 = Clock::now();
        serve::ServingResult r = cosim.run(below_);
        double s = secondsSince(t0);
        Digest d;
        d.add(r);
        digest = d.value();
        return s;
    }

  private:
    systems::SystemOptions node_;
    serve::FleetConfig fleet_;
    std::vector<ModelPtr> mix_;
    std::vector<serve::Request> below_, above_;
};

} // anonymous namespace

std::unique_ptr<ServingWorkload>
makeServingCosim()
{
    return std::make_unique<ServingCosim>();
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "polybench_matrix")
        return std::make_unique<PolybenchMatrix>();
    if (name == "dramless_rw")
        return std::make_unique<DramlessRw>();
    if (name == "serving_cosim")
        return makeServingCosim();
    return nullptr;
}

} // namespace perfbench
