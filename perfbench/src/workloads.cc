/**
 * @file
 * The three perfbench workloads. Each loads a different layer:
 *
 *  - registry:    every channel x CPU at the registry's default config
 *                 through the ExperimentRunner — the cycle engine;
 *  - fleet:       a quiet campaign planned, run in two shards into a
 *                 fresh result cache, merged, re-planned and re-run
 *                 from that cache — runner, snapshot cache, campaign;
 *  - fingerprint: the Sec. XI-B study, serial on bare SMT cores.
 *
 * Each run() times its workload, hashes its output bytes, collects
 * exact simulated statistics, and counts failed operations. With
 * tracing on it also records spans around the public calls it makes
 * and derives the per-layer metrics from them.
 */

#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>

#include "bench.hh"
#include "campaign/cache.hh"
#include "campaign/campaign.hh"
#include "campaign/manifest.hh"
#include "campaign/shard_log.hh"
#include "core/channel_registry.hh"
#include "fingerprint/side_channel.hh"
#include "frontend/prepared.hh"
#include "obs/counters.hh"
#include "obs/trace.hh"
#include "run/runner.hh"
#include "run/sinks.hh"
#include "run/sweep.hh"
#include "sim/cpu_model.hh"
#include "sim/snapshot.hh"

namespace perfbench {

namespace {

/** Runner workers of the registry and fleet workloads. */
constexpr int kWorkers = 2;

/** Campaign shards of the fleet workload. */
constexpr int kShards = 2;

/** The channel families the per-channel metrics report; each is the
 *  name prefix of its channels. */
const char *const kFamilies[] = {"sgx-nonmt", "sgx-mt", "nonmt",
                                 "mt",        "power",  "slow-switch"};

std::string
familyOf(const std::string &channel)
{
    for (const std::string prefix : kFamilies) {
        if (channel.compare(0, prefix.size(), prefix) == 0)
            return prefix;
    }
    return channel;
}

void
require(const std::string &error, const char *what)
{
    if (!error.empty())
        throw std::runtime_error(std::string(what) + ": " + error);
}

using lf::obs::TraceScope;

/** Tallies of the process-wide snapshot and prepared-chain caches. */
struct CacheTallies
{
    double snapHits, snapMisses, snapBypasses, prepHits, prepMisses;

    static CacheTallies now()
    {
        return {static_cast<double>(lf::snapshotCacheHits()),
                static_cast<double>(lf::snapshotCacheMisses()),
                static_cast<double>(lf::snapshotCacheBypasses()),
                static_cast<double>(lf::preparedCacheHits()),
                static_cast<double>(lf::preparedCacheMisses())};
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** The trial-phase layer metrics shared by registry and fleet, read
 *  from the spans the runner records around each trial phase.
 *  @p runnerUs is the host time the runner calls took. */
void
trialPhaseLayers(const std::vector<Span> &spans, double runnerUs,
                 const CacheTallies &before, const CacheTallies &after,
                 Outcome &out)
{
    const auto trials = spansNamed(spans, "trial");
    const auto calib = spansNamed(spans, "calibrate");
    const auto transmit = spansNamed(spans, "transmit");
    const auto restore = spansNamed(spans, "snapshot_restore");
    const double trialUs = sumUs(trials);
    auto &l = out.layers;
    l["run.parallel_efficiency"] = ratio(trialUs, runnerUs * kWorkers);
    l["run.resolve_us"] = meanUs(spansNamed(spans, "resolve"));
    l["frontend.prepare_us"] = meanUs(spansNamed(spans, "prepare"));
    l["frontend.prepared_hit_rate"] =
        ratio(after.prepHits - before.prepHits,
              after.prepHits - before.prepHits + after.prepMisses -
                  before.prepMisses);
    l["core.calibrate_ms"] = meanUs(calib) / 1e3;
    l["core.calibrate_share"] = ratio(sumUs(calib), trialUs);
    l["core.transmit_share"] = ratio(sumUs(transmit), trialUs);
    const double snapHits = after.snapHits - before.snapHits;
    l["sim.snapshot_hit_rate"] = ratio(
        snapHits, snapHits + after.snapMisses - before.snapMisses +
                      after.snapBypasses - before.snapBypasses);
    l["sim.snapshot_restore_us"] = meanUs(restore);
}

// ---------------------------------------------------------------------
// registry

class Registry : public Workload
{
  public:
    Registry(std::uint64_t seed, Size size) : seed_(seed), size_(size) {}

    void setup(const std::string &) override
    {
        specs_.clear();
        int index = 0;
        for (const std::string &channel : lf::allChannelNames()) {
            for (const lf::CpuModel *model : lf::allCpuModels()) {
                lf::ExperimentSpec spec;
                spec.channel = channel;
                spec.cpu = model->name;
                spec.seed = lf::deriveTrialSeed(seed_, index++);
                spec.pattern = lf::MessagePattern::Alternating;
                spec.messageBits = size_ == Size::Full ? 32 : 2;
                if (size_ == Size::Small) {
                    spec.preambleBits = 2;
                    spec.overrides = {{"powerRounds", 200},
                                      {"sgxRounds", 100}};
                }
                require(lf::validateSpec(spec), "registry spec");
                specs_.push_back(std::move(spec));
            }
        }
        runner_ = std::make_unique<lf::ExperimentRunner>(kWorkers);
    }

    Outcome run(bool traced) override
    {
        Outcome out;
        lf::obs::CounterScope counters(true);
        lf::CsvSink sink;
        std::ostringstream rows;
        sink.writeHeader(rows);
        std::vector<lf::ExperimentResult> results;
        results.reserve(specs_.size());

        const CacheTallies before = CacheTallies::now();
        const std::uint64_t start = lf::obs::traceNowUs();
        const double t0 = nowS();
        {
            TraceScope span("perfbench.runner_run");
            runner_->run(specs_, [&](const lf::ExperimentResult &res) {
                sink.writeRow(res, rows);
                results.push_back(res);
            });
        }
        out.wallS = nowS() - t0;
        const double runnerUs =
            static_cast<double>(lf::obs::traceNowUs() - start);
        const CacheTallies after = CacheTallies::now();
        sink.writeFooter(rows);
        out.digest = digestOf(rows.str());

        // Exact statistics and checks, per row and per family.
        std::map<std::string, double> famBits, famCycles, famTrialUs;
        double cycles = 0, ff = 0, mite = 0, dsb = 0, lsd = 0;
        double ok = 0, skipped = 0;
        for (const lf::ExperimentResult &res : results) {
            ++out.attempted;
            const lf::ExperimentSpec &spec = res.spec;
            const bool supported = lf::channelSupportedOn(
                spec.channel, lf::cpuModelByName(spec.cpu));
            if (!res.ok && !res.skipped) {
                out.fail(spec.channel + " on " + spec.cpu + ": " +
                         res.error);
                continue;
            }
            if (res.skipped == supported) {
                out.fail(spec.channel + " on " + spec.cpu +
                         ": skipped status disagrees with "
                         "channelSupportedOn");
                continue;
            }
            if (res.skipped) {
                ++skipped;
                continue;
            }
            ++ok;
            if (!res.counters) {
                out.fail(spec.channel + " on " + spec.cpu +
                         ": no counter snapshot");
                continue;
            }
            const lf::obs::CounterSet &c = *res.counters;
            cycles += static_cast<double>(c.cycles);
            ff += static_cast<double>(c.fastForwardedCycles);
            mite += static_cast<double>(c.uopsMite);
            dsb += static_cast<double>(c.uopsDsb);
            lsd += static_cast<double>(c.uopsLsd);
            const std::string fam = familyOf(spec.channel);
            famBits[fam] += static_cast<double>(spec.messageBits);
            famCycles[fam] += static_cast<double>(c.cycles);
        }
        out.simCycles = cycles;
        out.exact = {{"rows", static_cast<double>(results.size())},
                     {"ok_rows", ok},
                     {"skipped_rows", skipped},
                     {"sim_cycles", cycles},
                     {"fast_forwarded_cycles", ff},
                     {"uops_mite", mite},
                     {"uops_dsb", dsb},
                     {"uops_lsd", lsd}};

        if (traced) {
            const std::vector<Span> spans = collectSpans();
            spanTotals(spans, out.spanMs, out.selfMs);
            trialPhaseLayers(spans, runnerUs, before, after, out);
            for (const Span *trial : spansNamed(spans, "trial")) {
                if (trial->hasArg && trial->arg < specs_.size()) {
                    famTrialUs[familyOf(specs_[trial->arg].channel)] +=
                        static_cast<double>(trial->durUs);
                }
            }
            auto &l = out.layers;
            const double engineUs = sumUs(spansNamed(spans, "calibrate")) +
                sumUs(spansNamed(spans, "transmit"));
            l["engine.ns_per_ticked_cycle"] =
                ratio(engineUs * 1e3, cycles - ff);
            l["engine.fast_forward_share"] = ratio(ff, cycles);
            l["frontend.uops_mite"] = mite;
            l["frontend.uops_dsb"] = dsb;
            l["frontend.uops_lsd"] = lsd;
            l["sim.cycles"] = cycles;
            for (const char *fam : kFamilies) {
                const std::string key = std::string("channel.") + fam;
                l[key + ".ns_per_bit"] =
                    ratio(famTrialUs[fam] * 1e3, famBits[fam]);
                l[key + ".mcycles_per_bit"] =
                    ratio(famCycles[fam] / 1e6, famBits[fam]);
            }
        }
        return out;
    }

  private:
    std::uint64_t seed_;
    Size size_;
    std::vector<lf::ExperimentSpec> specs_;
    std::unique_ptr<lf::ExperimentRunner> runner_;
};

// ---------------------------------------------------------------------
// fleet

class Fleet : public Workload
{
  public:
    Fleet(std::uint64_t seed, Size size) : seed_(seed), size_(size) {}

    void setup(const std::string &workDir) override
    {
        spec_ = lf::SweepSpec{};
        spec_.label = "perfbench-fleet";
        for (const std::string &channel : lf::allChannelNames()) {
            const lf::ChannelInfo &info = lf::channelInfo(channel);
            if (!info.powerObservable && !info.requiresSgx)
                spec_.channels.push_back(channel);
        }
        for (const lf::CpuModel *model : lf::allCpuModels())
            spec_.cpus.push_back(model->name);
        spec_.patterns = {lf::MessagePattern::Random};
        spec_.baseOverrides = {{"model.noiseStddevCycles", 0},
                               {"model.spikeProb", 0},
                               {"model.jitterPerKcycle", 0}};
        spec_.trials = size_ == Size::Full ? 64 : 4;
        spec_.messageBits = size_ == Size::Full ? 16 : 4;
        spec_.seed = seed_;
        if (size_ == Size::Small)
            spec_.preambleBits = 4;
        // Planning proper; writing the manifest is the campaign's
        // first timed step.
        require(lf::planManifest(spec_, kShards, manifest_), "fleet plan");
        require(lf::validateSweepSpecValues(spec_), "fleet spec values");
        dir_ = workDir;
    }

    Outcome run(bool traced) override
    {
        Outcome out;
        const lf::ShardRunOptions options = shardOptions();
        std::string coldSummary, warmSummary, error;
        lf::MergeStats merged;
        std::size_t warmRows = 0, warmHits = 0;

        const CacheTallies before = CacheTallies::now();
        const double t0 = nowS();
        double coldShardUs = 0.0;
        std::uint64_t warmStart = 0, warmEnd = 0;
        {
            TraceScope span("perfbench.plan_cold");
            error = lf::planCampaign(spec_, kShards, coldDir());
        }
        for (int s = 0; s < kShards && error.empty(); ++s) {
            const std::uint64_t start = lf::obs::traceNowUs();
            TraceScope span("perfbench.shard_cold");
            error = lf::runCampaignShard(coldDir(), s, options);
            coldShardUs +=
                static_cast<double>(lf::obs::traceNowUs() - start);
        }
        const CacheTallies after = CacheTallies::now();
        if (error.empty()) {
            TraceScope span("perfbench.merge_cold");
            error = lf::mergeCampaign(coldDir(), coldSummary, &merged);
        }
        if (error.empty()) {
            TraceScope span("perfbench.plan_warm");
            error = lf::planCampaign(spec_, kShards, warmDir());
        }
        warmStart = lf::obs::traceNowUs();
        for (int s = 0; s < kShards && error.empty(); ++s) {
            TraceScope span("perfbench.shard_warm");
            lf::ShardRunStats stats;
            error = lf::runCampaignShard(warmDir(), s, options, &stats);
            warmRows += stats.totalRows;
            warmHits += stats.cacheHits;
        }
        warmEnd = lf::obs::traceNowUs();
        if (error.empty()) {
            TraceScope span("perfbench.merge_warm");
            error = lf::mergeCampaign(warmDir(), warmSummary);
        }
        out.wallS = nowS() - t0;
        out.digest = digestOf(coldSummary);

        // Checks, outside the timed phase.
        out.attempted = manifest_.rows;
        if (!error.empty()) {
            out.fail("fleet: " + error, manifest_.rows);
            return out;
        }
        if (warmSummary != coldSummary)
            out.fail("fleet: warm merge differs from cold merge",
                     manifest_.rows);
        double messageCycles = 0.0;
        std::size_t skipped = 0;
        std::vector<lf::ExperimentResult> coldRows;
        for (int s = 0; s < kShards; ++s) {
            lf::ShardLogState state;
            require(lf::loadShardLog(coldDir(), s, manifest_.gridHash,
                                     manifest_.shards, manifest_.rows,
                                     state),
                    "fleet shard log");
            for (const auto &[index, res] : state.rows) {
                const lf::ExperimentSpec &spec = res.spec;
                const lf::CpuModel &model = lf::cpuModelByName(spec.cpu);
                if (!res.ok && !res.skipped) {
                    out.fail("row " + std::to_string(index) + ": " +
                             res.error);
                } else if (res.skipped ==
                           lf::channelSupportedOn(spec.channel, model)) {
                    out.fail("row " + std::to_string(index) +
                             ": skipped status disagrees with "
                             "channelSupportedOn");
                } else if (res.skipped) {
                    ++skipped;
                } else {
                    messageCycles += std::llround(
                        res.result.seconds * model.freqGhz * 1e9);
                }
                if (traced)
                    coldRows.push_back(res);
            }
        }
        out.simCycles = messageCycles;
        out.exact = {{"rows", static_cast<double>(merged.rows)},
                     {"cells", static_cast<double>(merged.cells)},
                     {"skipped_rows", static_cast<double>(skipped)},
                     {"failed_rows",
                      static_cast<double>(merged.failedRows)},
                     {"warm_cache_hits", static_cast<double>(warmHits)},
                     {"message_cycles", messageCycles}};

        if (traced) {
            const std::vector<Span> spans = collectSpans();
            spanTotals(spans, out.spanMs, out.selfMs);
            trialPhaseLayers(spans, coldShardUs, before, after, out);
            // Each cold row's store into the result cache happens
            // inside the campaign's delivery callback, where no span
            // can reach; store the same rows into a second cache under
            // spans of their own.
            const lf::ResultCache probe(dir_ + "/store-probe");
            for (const lf::ExperimentResult &res : coldRows) {
                TraceScope span("perfbench.cache_store");
                require(probe.store(res.spec, res), "fleet store probe");
            }
            std::vector<Span> storeSpans = collectSpans();
            auto &l = out.layers;
            l["campaign.store_us"] =
                meanUs(spansNamed(storeSpans, "perfbench.cache_store"));
            l["campaign.lookup_us"] = ratio(
                static_cast<double>(warmEnd - warmStart),
                static_cast<double>(warmRows));
            l["campaign.warm_hit_rate"] =
                ratio(static_cast<double>(warmHits),
                      static_cast<double>(warmRows));
            l["campaign.merge_ms"] =
                sumUs(spansNamed(spans, "perfbench.merge_cold")) / 1e3;
            // Quiet cells restore most calibrations, so the engine
            // figure is transmit time per simulated message cycle.
            l["engine.ns_per_ticked_cycle"] =
                ratio(sumUs(spansNamed(spans, "transmit")) * 1e3,
                      messageCycles);
            l["sim.cycles"] = messageCycles;
        }
        return out;
    }

  private:
    std::string coldDir() const { return dir_ + "/cold"; }
    std::string warmDir() const { return dir_ + "/warm"; }

    lf::ShardRunOptions shardOptions() const
    {
        lf::ShardRunOptions options;
        options.threads = kWorkers;
        options.cacheDir = dir_ + "/cache";
        return options;
    }

    std::uint64_t seed_;
    Size size_;
    lf::SweepSpec spec_;
    lf::CampaignManifest manifest_;
    std::string dir_;
};

// ---------------------------------------------------------------------
// fingerprint

class Fingerprint : public Workload
{
  public:
    Fingerprint(std::uint64_t seed, Size size)
        : seedBase_(1000 + 1000003 * seed), size_(size)
    {
    }

    void setup(const std::string &) override
    {
        workloads_ = lf::mobileWorkloads();
        config_ = lf::TraceConfig{};
        if (size_ == Size::Small)
            config_.samples = 8;
    }

    Outcome run(bool traced) override
    {
        Outcome out;
        const lf::CpuModel &model = lf::gold6226();
        const int runs = 2;

        // Traced: record every trace the study records, each under its
        // own span, and check them against the study's below.
        std::vector<std::vector<double>> ownTraces;
        if (traced) {
            for (std::size_t w = 0; w < workloads_.size(); ++w) {
                for (int r = 0; r < runs; ++r) {
                    TraceScope span("perfbench.attacker_ipc_trace");
                    ownTraces.push_back(lf::attackerIpcTrace(
                        model, workloads_[w], config_,
                        studySeed(w, r)));
                }
            }
        }

        const double t0 = nowS();
        lf::FingerprintStudy study;
        {
            TraceScope span("perfbench.fingerprint_study");
            study = lf::runFingerprintStudy(model, workloads_, config_,
                                            runs, seedBase_);
        }
        out.wallS = nowS() - t0;

        std::string bytes;
        char buf[40];
        for (std::size_t a = 0; a < study.names.size(); ++a) {
            bytes += study.names[a];
            for (double d : study.distanceMatrix[a]) {
                std::snprintf(buf, sizeof buf, " %.17g", d);
                bytes += buf;
            }
            bytes += '\n';
        }
        std::snprintf(buf, sizeof buf, "accuracy %.17g\n",
                      study.classificationAccuracy);
        bytes += buf;
        out.digest = digestOf(bytes);

        const double traces =
            static_cast<double>(workloads_.size()) * runs;
        out.attempted = static_cast<std::uint64_t>(traces);
        if (!(study.meanIntraDistance < study.meanInterDistance)) {
            out.fail("fingerprint: mean intra-distance is not below "
                     "mean inter-distance",
                     out.attempted);
        }
        out.simCycles = traces * static_cast<double>(config_.samples) *
            static_cast<double>(config_.sampleCycles);
        out.exact = {{"traces", traces},
                     {"workloads", static_cast<double>(workloads_.size())},
                     {"input_cycles", out.simCycles},
                     {"accuracy", study.classificationAccuracy}};

        if (traced) {
            std::size_t i = 0;
            for (std::size_t w = 0; w < study.traces.size(); ++w) {
                for (const auto &trace : study.traces[w]) {
                    if (i >= ownTraces.size() || ownTraces[i] != trace)
                        out.fail("fingerprint: trace " +
                                 std::to_string(i) +
                                 " differs from the study's");
                    ++i;
                }
            }
            const std::vector<Span> spans = collectSpans();
            spanTotals(spans, out.spanMs, out.selfMs);
            const auto traceSpans =
                spansNamed(spans, "perfbench.attacker_ipc_trace");
            auto &l = out.layers;
            l["fingerprint.trace_ms"] = meanUs(traceSpans) / 1e3;
            l["engine.ns_per_ticked_cycle"] =
                ratio(sumUs(traceSpans) * 1e3, out.simCycles);
            l["sim.cycles"] = out.simCycles;
        }
        return out;
    }

  private:
    /** The seed runFingerprintStudy() gives run @p r of workload @p w. */
    std::uint64_t studySeed(std::size_t w, int r) const
    {
        return seedBase_ + static_cast<std::uint64_t>(r) * 131 +
            (w + 1) * 7919;
    }

    std::uint64_t seedBase_;
    Size size_;
    std::vector<lf::VictimWorkload> workloads_;
    lf::TraceConfig config_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, Size size)
{
    if (name == "registry")
        return std::make_unique<Registry>(seed, size);
    if (name == "fleet")
        return std::make_unique<Fleet>(seed, size);
    if (name == "fingerprint")
        return std::make_unique<Fingerprint>(seed, size);
    return nullptr;
}

} // namespace perfbench
