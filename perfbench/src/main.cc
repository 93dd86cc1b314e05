/**
 * @file
 * perfbench: the repository's benchmark program.
 *
 *   perfbench --workload registry|fleet|fingerprint --seed N
 *             --seconds S --trace 0|1 [--size full|small]
 *
 * Run from the root of a checkout: scratch files go under
 * .bench_build/perfbench-work/ and are removed before exit.
 *
 * Repeats set-up plus timed phase until --seconds are spent, starting
 * every repetition from cold process-wide caches as a fresh process
 * would, with set-up-only repetitions in between. With --trace 1 every
 * repetition is followed by a traced one; the per-layer metrics are
 * medians over the traced repetitions.
 *
 * Host times are rescaled to a reference host speed: the host probe
 * (probe.cc) runs before the first repetition and after each one, and
 * every time taken between two probes is multiplied by
 * kProbeRefS / (mean of those two probe times). End-to-end times are
 * medians of the rescaled samples; the report line also carries the
 * raw samples and probe times.
 *
 * Every repetition must reproduce the first one's digest and exact
 * counts, and a traced repetition the untraced digest; a mismatch
 * fails every operation of that repetition. The last line of standard
 * output is one JSON object with the digest, exact counts, operations
 * attempted and failed, metrics, raw samples and build facts.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "frontend/prepared.hh"
#include "obs/trace.hh"
#include "run/report.hh"
#include "sim/snapshot.hh"

namespace fs = std::filesystem;
using perfbench::Outcome;

namespace {

/** Set-up-only repetitions before the first timed repetition, and
 *  after each one. */
constexpr int kSetupWarmups = 5;
constexpr int kSetupsPerRepetition = 10;

/** The probe time that host times are rescaled to: a fixed reference
 *  somewhat below the per-run medians STEADINESS.md records for its
 *  4-core Xeon host. Only its constancy matters. */
constexpr double kProbeRefS = 0.08;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    perfbench::Size size = perfbench::Size::Full;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload registry|fleet|fingerprint"
                 " --seed N --seconds S --trace 0|1 [--size full|small]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--size") {
            if (value != "full" && value != "small")
                usage("--size takes full or small");
            args.size = value == "full" ? perfbench::Size::Full
                                        : perfbench::Size::Small;
        } else {
            usage("unknown flag " + flag);
        }
        if (end != nullptr && (*end != '\0' || value.empty()))
            usage("bad number for " + flag + ": " + value);
    }
    if (args.workload.empty())
        usage("--workload is required");
    return args;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Add every name → value of @p values to @p object as numbers. */
void
addNumbers(lf::bench::JsonReport &object,
           const std::map<std::string, double> &values)
{
    for (const auto &[key, value] : values)
        object.number(key, value);
}

/** A fresh, empty per-repetition directory under the work dir. */
std::string
freshDir(const std::string &base)
{
    static int counter = 0;
    const fs::path dir = fs::path(base) / std::to_string(counter++);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** Start a repetition the way a fresh process starts: with empty
 *  process-wide program and snapshot caches. */
void
coldCaches()
{
    lf::clearWarmSnapshotCache();
    lf::clearProgramCache();
}

/** This process's peak resident set (VmHWM). getrusage()'s maxrss
 *  would also count the launching process, which it inherits across
 *  exec. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.compare(0, 6, "VmHWM:") == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    auto workload =
        perfbench::makeWorkload(args.workload, args.seed, args.size);
    if (!workload)
        usage("unknown workload " + args.workload);

    const std::string base =
        (fs::path(".bench_build/perfbench-work") /
         (args.workload + "-" + std::to_string(getpid())))
            .string();

    // Raw host-time samples, and the same rescaled to the reference
    // probe time once the probe after them has run.
    std::map<std::string, std::vector<double>> raw, norm;
    std::vector<std::pair<std::string, double>> pending;
    std::vector<double> probeS;
    const auto probe = [&]() {
        const double now = perfbench::hostProbeS();
        const double around =
            probeS.empty() ? now : 0.5 * (probeS.back() + now);
        probeS.push_back(now);
        for (const auto &[key, seconds] : pending)
            norm[key].push_back(seconds * kProbeRefS / around);
        pending.clear();
    };
    const auto sample = [&](const std::string &key, double seconds) {
        raw[key].push_back(seconds);
        pending.emplace_back(key, seconds);
    };

    std::map<std::string, std::vector<double>> layerSamples;
    std::map<std::string, double> spanMs, selfMs;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    Outcome first;
    bool haveFirst = false;

    // Fold one repetition's outcome into the run's totals, checking it
    // against the first untraced repetition.
    const auto account = [&](Outcome &&out, bool traced) {
        if (!haveFirst) {
            first = out;
            haveFirst = true;
        } else if (out.digest != first.digest) {
            out.fail(std::string(traced ? "traced" : "repeated") +
                         " digest " + out.digest + " differs from " +
                         first.digest,
                     out.attempted - out.failed);
        } else if (out.exact != first.exact) {
            out.fail("exact counts differ from the first repetition",
                     out.attempted - out.failed);
        }
        attempted += out.attempted;
        failed += out.failed;
        for (const std::string &f : out.failures) {
            if (failures.size() < 8)
                failures.push_back(f);
        }
        sample(traced ? "traced_wall_s" : "wall_s", out.wallS);
        for (const auto &[k, v] : out.layers)
            layerSamples[k].push_back(v);
        for (const auto &[k, v] : out.spanMs)
            spanMs[k] += v;
        for (const auto &[k, v] : out.selfMs)
            selfMs[k] += v;
    };

    const auto timedSetup = [&](const std::string &dir) {
        const double t0 = perfbench::nowS();
        workload->setup(dir);
        sample("setup_s", perfbench::nowS() - t0);
    };

    // One repetition: cold caches, timed set-up, then the timed phase.
    const auto repetition = [&](bool traced) {
        coldCaches();
        const std::string dir = freshDir(base);
        timedSetup(dir);
        lf::obs::setTraceEnabled(traced);
        lf::obs::clearTrace();
        Outcome out = workload->run(traced);
        lf::obs::setTraceEnabled(false);
        fs::remove_all(dir);
        account(std::move(out), traced);
    };

    const auto setupOnly = [&](int times) {
        for (int i = 0; i < times; ++i) {
            const std::string dir = freshDir(base);
            timedSetup(dir);
            fs::remove_all(dir);
        }
    };

    double peakRss = 0.0;
    try {
        probe();
        setupOnly(kSetupWarmups);
        // Repeat while another repetition fits in the time left.
        const double start = perfbench::nowS();
        double longest = 0.0;
        do {
            const double t0 = perfbench::nowS();
            repetition(false);
            if (args.trace)
                repetition(true);
            setupOnly(kSetupsPerRepetition);
            probe();
            longest = std::max(longest, perfbench::nowS() - t0);
        } while (perfbench::nowS() - start + longest <= args.seconds);
        fs::remove_all(base);
        peakRss = peakRssMb();
    } catch (const std::exception &e) {
        fs::remove_all(base);
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }

    const double wall = median(norm["wall_s"]);
    std::map<std::string, double> endToEnd = {
        {"setup_s", median(norm["setup_s"])},
        {"norm_wall_s", wall},
        {"norm_sim_mcycles_per_s", first.simCycles / 1e6 / wall},
        {"peak_rss_mb", peakRss},
    };
    const std::map<std::string, double> hostTime = {
        {"wall_s", median(raw["wall_s"])},
        {"setup_s", median(raw["setup_s"])},
        {"probe_s", median(probeS)},
    };
    std::map<std::string, double> perLayer;
    for (const auto &[k, v] : layerSamples)
        perLayer[k] = median(v);
    if (args.trace)
        perLayer["trace_overhead"] = median(norm["traced_wall_s"]) / wall;

    lf::bench::JsonReport report;
    report.string("workload", args.workload)
        .integer("seed", static_cast<long long>(args.seed))
        .string("size",
                args.size == perfbench::Size::Full ? "full" : "small")
        .string("digest", first.digest);
    addNumbers(report.object("exact"), first.exact);
    report.integer("attempted", static_cast<long long>(attempted))
        .integer("failed", static_cast<long long>(failed))
        .stringArray("failures", failures);
    addNumbers(report.object("end_to_end"), endToEnd);
    addNumbers(report.object("host_time"), hostTime);
    addNumbers(report.object("per_layer"), perLayer);
    addNumbers(report.object("span_total_ms"), spanMs);
    addNumbers(report.object("span_self_ms"), selfMs);
    lf::bench::JsonReport &samples = report.object("samples");
    samples.numberArray("host_probe_s", probeS);
    for (const auto &[key, values] : raw)
        samples.numberArray(key, values);
    report.object("build")
        .integer("nproc", std::thread::hardware_concurrency())
        .string("compiler", __VERSION__)
        .string("build_type", PERFBENCH_BUILD_TYPE)
        .boolean("lto", PERFBENCH_LTO);
    std::cout << report.render() << std::endl;
    return 0;
}
