/**
 * @file
 * lf_campaign — manifest-driven, resumable, cache-backed sweep
 * campaigns over the lf_run sweep engine.
 *
 *   lf_campaign plan --dir camp --shards 4 \
 *       --channel mt-eviction --cpu "Gold 6226" \
 *       --sweep d=2:8:2 --trials 8
 *   lf_campaign run-shard --dir camp --shard 0 --cache ~/.lf-cache \
 *       --progress            # once per shard, any order, any host
 *   lf_campaign merge --dir camp --summary merged.txt
 *   lf_campaign status --dir camp
 *
 * `plan` pins the grid (content hash + manifest) once; every other
 * step loads the manifest, so shards can never disagree about the
 * grid. `run-shard` is idempotent and resumable: killed halfway, the
 * next invocation re-runs only the rows whose results are missing,
 * and rows the content-addressed cache already knows are served
 * without simulating. `merge` demands exactly-once coverage and folds
 * rows in full-grid order, so the merged summary is byte-identical to
 * a single-process `lf_run --summary` of the same grid.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/files.hh"
#include "common/logging.hh"
#include "obs/trace.hh"
#include "run/cli.hh"

using namespace lf;

namespace {

void
usage(std::FILE *to)
{
    std::fprintf(to,
        "usage: lf_campaign <command> [options]\n"
        "\n"
        "commands:\n"
        "  plan       validate a grid, write <dir>/manifest.txt\n"
        "  run-shard  run (or resume) one shard of a planned campaign\n"
        "  merge      fold all shard results into one summary\n"
        "  status     per-shard progress table\n"
        "\n"
        "common options:\n"
        "  --dir PATH          campaign directory (required)\n"
        "  --quiet             suppress stdout reporting\n"
        "  --help              this message\n"
        "\n"
        "plan options (grid flags as in lf_run):\n"
        "  --shards N          shard count (default 1)\n"
        "  --channel NAME      channel (repeatable; 'all')\n"
        "  --cpu NAME          CPU model (repeatable; 'all'; default\n"
        "                      all)\n"
        "  --trials N          trials per cell (default 1)\n"
        "  --seed S            base seed (default 1)\n"
        "  --bits N            message bits (default 100)\n"
        "  --pattern P         all-0s | all-1s | alternating | random\n"
        "  --preamble N        calibration bits (channel default)\n"
        "  --set KEY=VALUE     fixed override (repeatable)\n"
        "  --sweep KEY=LO:HI:STEP[,KEY=...]   sweep axis (repeatable)\n"
        "\n"
        "run-shard options:\n"
        "  --shard I           shard index (required)\n"
        "  --threads N         worker threads (default: hardware)\n"
        "  --cache PATH        content-addressed result cache\n"
        "                      directory (shared across campaigns)\n"
        "  --max-new N         stop after N newly-completed rows\n"
        "                      (deterministic kill, for testing\n"
        "                      resume)\n"
        "  --progress          live progress line on stderr\n"
        "  --trace PATH        record runner/trial spans and write\n"
        "                      Chrome trace_event JSON\n"
        "\n"
        "merge options:\n"
        "  --summary PATH      also write the merged summary here\n"
        "                      (always written to\n"
        "                      <dir>/merged_summary.txt)\n");
}

[[noreturn]] void
fail(const std::string &error)
{
    lf_error("lf_campaign: %s", error.c_str());
    std::exit(1);
}

struct Args
{
    int argc;
    char **argv;
    int next = 2;

    /** The value of option @p i (advancing past it). */
    std::string value(int &i, const char *flag)
    {
        if (i + 1 >= argc)
            fail(std::string(flag) + " needs a value");
        return argv[++i];
    }
};

int
cmdPlan(Args &args)
{
    std::string dir;
    int shards = 1;
    SweepSpec sweep;
    bool quiet = false;

    for (int i = args.next; i < args.argc; ++i) {
        const std::string arg = args.argv[i];
        if (arg == "--dir") {
            dir = args.value(i, "--dir");
        } else if (arg == "--shards") {
            if (!parseStrictInt(args.value(i, "--shards"), shards) ||
                shards < 1) {
                fail("bad --shards value");
            }
        } else if (isGridFlag(arg)) {
            const std::string error =
                parseGridFlag(arg, args.value(i, arg.c_str()), sweep);
            if (!error.empty())
                fail(error);
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            fail("unknown plan option \"" + arg + "\"");
        }
    }
    if (dir.empty())
        fail("plan needs --dir");
    if (sweep.channels.empty())
        fail("plan needs at least one --channel");
    expandGridNames(sweep);

    CampaignManifest manifest;
    const std::string error =
        planCampaign(sweep, shards, dir, &manifest);
    if (!error.empty())
        fail(error);
    if (!quiet) {
        std::printf("%s", renderCampaignPlan(sweep, shards).c_str());
        std::printf("\nwrote %s\n",
                    campaignManifestPath(dir).c_str());
    }
    return 0;
}

int
cmdRunShard(Args &args)
{
    std::string dir;
    int shard = -1;
    ShardRunOptions options;
    std::string tracePath;
    bool progress = false;
    bool quiet = false;

    for (int i = args.next; i < args.argc; ++i) {
        const std::string arg = args.argv[i];
        if (arg == "--dir") {
            dir = args.value(i, "--dir");
        } else if (arg == "--shard") {
            if (!parseStrictInt(args.value(i, "--shard"), shard) ||
                shard < 0) {
                fail("bad --shard value");
            }
        } else if (arg == "--threads") {
            if (!parseStrictInt(args.value(i, "--threads"),
                                options.threads) ||
                options.threads < 0) {
                fail("bad --threads value");
            }
        } else if (arg == "--cache") {
            options.cacheDir = args.value(i, "--cache");
        } else if (arg == "--max-new") {
            std::uint64_t limit = 0;
            if (!parseStrictUint64(args.value(i, "--max-new"),
                                   limit) ||
                limit == 0) {
                fail("bad --max-new value");
            }
            options.maxNewRows = static_cast<std::size_t>(limit);
        } else if (arg == "--trace") {
            tracePath = args.value(i, "--trace");
        } else if (arg == "--progress") {
            progress = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            fail("unknown run-shard option \"" + arg + "\"");
        }
    }
    if (dir.empty())
        fail("run-shard needs --dir");
    if (shard < 0)
        fail("run-shard needs --shard");
    if (!tracePath.empty())
        obs::setTraceEnabled(true);

    ProgressMeter meter(
        "lf_campaign shard " + std::to_string(shard), 0);
    bool meterInitialized = false;
    if (progress && !quiet) {
        options.onProgress = [&](const ShardProgress &p) {
            // The meter's total is unknown until the manifest loads;
            // re-construct lazily on the first report.
            if (!meterInitialized) {
                meter = ProgressMeter(
                    "lf_campaign shard " + std::to_string(shard),
                    p.totalRows);
                meterInitialized = true;
            }
            const std::size_t attempted = p.cacheHits + p.executed;
            char extra[64];
            std::snprintf(extra, sizeof(extra), "cache %.0f%%",
                          attempted > 0
                              ? 100.0 * static_cast<double>(p.cacheHits)
                                    / static_cast<double>(attempted)
                              : 0.0);
            meter.update(p.doneRows, extra);
        };
    }

    ShardRunStats stats;
    const std::string error =
        runCampaignShard(dir, shard, options, &stats);
    if (progress && !quiet)
        meter.finish();
    if (!error.empty())
        fail(error);
    if (!tracePath.empty()) {
        std::ofstream os(tracePath);
        os << obs::renderTraceJson() << "\n";
        if (!os.good())
            fail("cannot write " + tracePath);
        lf_inform("wrote %s", tracePath.c_str());
    }
    if (!quiet) {
        std::printf("shard %d: %zu/%zu rows done (%zu resumed, %zu"
                    " cache hits, %zu executed, %zu failed)\n",
                    shard, stats.doneRows(), stats.totalRows,
                    stats.resumedRows, stats.cacheHits, stats.executed,
                    stats.failedRows);
        std::printf("cache hit rate %.1f%%, %.1f trials/s over"
                    " %.2fs\n",
                    100.0 * stats.cacheHitRate(), stats.trialsPerSec(),
                    stats.seconds);
    }
    return 0;
}

int
cmdMerge(Args &args)
{
    std::string dir;
    std::string summaryPath;
    bool quiet = false;
    for (int i = args.next; i < args.argc; ++i) {
        const std::string arg = args.argv[i];
        if (arg == "--dir") {
            dir = args.value(i, "--dir");
        } else if (arg == "--summary") {
            summaryPath = args.value(i, "--summary");
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            fail("unknown merge option \"" + arg + "\"");
        }
    }
    if (dir.empty())
        fail("merge needs --dir");

    std::string summary;
    MergeStats stats;
    std::string error = mergeCampaign(dir, summary, &stats);
    if (!error.empty())
        fail(error);
    if (!summaryPath.empty()) {
        // Same bytes as <dir>/merged_summary.txt, caller's location.
        error = writeFileAtomic(summaryPath, summary);
        if (!error.empty())
            fail(error);
    }
    if (!quiet) {
        std::printf("%s", summary.c_str());
        std::printf("\nmerged %zu rows into %zu cells (%zu failed,"
                    " %zu skipped); wrote %s\n",
                    stats.rows, stats.cells, stats.failedRows,
                    stats.skippedRows,
                    campaignSummaryPath(dir).c_str());
    }
    return 0;
}

int
cmdStatus(Args &args)
{
    std::string dir;
    for (int i = args.next; i < args.argc; ++i) {
        const std::string arg = args.argv[i];
        if (arg == "--dir")
            dir = args.value(i, "--dir");
        else
            fail("unknown status option \"" + arg + "\"");
    }
    if (dir.empty())
        fail("status needs --dir");

    std::string rendered;
    const std::string error = campaignStatus(dir, rendered);
    if (!error.empty())
        fail(error);
    std::printf("%s", rendered.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
        std::strcmp(argv[1], "-h") == 0) {
        usage(argc < 2 ? stderr : stdout);
        return argc < 2 ? 1 : 0;
    }
    Args args{argc, argv};
    const std::string command = argv[1];
    if (command == "plan")
        return cmdPlan(args);
    if (command == "run-shard")
        return cmdRunShard(args);
    if (command == "merge")
        return cmdMerge(args);
    if (command == "status")
        return cmdStatus(args);
    lf_error("unknown command \"%s\"", command.c_str());
    usage(stderr);
    return 1;
}
