/**
 * @file
 * lf_run — command-line driver for the channel registry, the parallel
 * ExperimentRunner, and the sweep engine.
 *
 *   lf_run --list
 *   lf_run --channel nonmt-fast-eviction --cpu all --trials 8 \
 *          --threads 4 --json out.json
 *   lf_run --channel mt-eviction --cpu "Gold 6226" \
 *          --sweep d=1:8:1 --trials 4 --json fig8.json
 *   lf_run --channel all --sweep model.jitterPerKcycle=0|5|20 \
 *          --shard 0/4 --csv shard0.csv
 *
 * Every run is deterministic in the spec alone: the thread count
 * changes wall time only, never the emitted bytes, and a --shard i/n
 * slice emits exactly the rows the full run would. Results stream:
 * JSON/CSV rows are written as trials complete (in spec order), the
 * sweep summary folds incrementally, and --progress reports live off
 * the same stream — so arbitrarily large sweeps run in bounded
 * memory (use --quiet to also skip the buffered stdout table).
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "obs/counters.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "run/cli.hh"
#include "run/sweep.hh"

using namespace lf;

namespace {

void
usage(std::FILE *to)
{
    std::fprintf(to,
        "usage: lf_run [options]\n"
        "\n"
        "  --list              list channels and override keys, exit\n"
        "  --list-channels     list the channel registry catalog\n"
        "  --list-axes         list every --set/--sweep override key\n"
        "  --list-counters     list the microarchitectural counter\n"
        "                      catalog (the names --counters emits)\n"
        "  --channel NAME      channel to run (repeatable; 'all' for\n"
        "                      every registered channel)\n"
        "  --cpu NAME          CPU model (repeatable; 'all' for every\n"
        "                      model; default all)\n"
        "  --trials N          independent trials per sweep cell\n"
        "                      (default 1)\n"
        "  --threads N         worker threads (default: hardware\n"
        "                      concurrency)\n"
        "  --seed S            base seed (default 1)\n"
        "  --bits N            message length in bits (default 100)\n"
        "  --pattern P         all-0s | all-1s | alternating | random\n"
        "                      (default alternating)\n"
        "  --preamble N        calibration bits (default: channel's)\n"
        "  --set KEY=VALUE     fixed config override (repeatable);\n"
        "                      keys as in ChannelConfig plus\n"
        "                      powerRounds, sgxRounds, sgxMtSteps,\n"
        "                      sgxMtMeasPerStep, model.* CPU knobs\n"
        "                      (e.g. model.jitterPerKcycle), env.*\n"
        "                      environment/interference knobs (e.g.\n"
        "                      env.corunner_intensity), and defense.*\n"
        "                      mitigation knobs (e.g.\n"
        "                      defense.partition_dsb); --list-axes\n"
        "                      prints the full catalog\n"
        "  --sweep KEY=LO:HI:STEP[,KEY=...]\n"
        "                      sweep axis (repeatable); also accepts\n"
        "                      KEY=V1|V2|... value lists. Cells are\n"
        "                      the cartesian product of all axes\n"
        "  --shard I/N         run only every N-th sweep cell,\n"
        "                      starting at cell I (seeds are derived\n"
        "                      from full-grid cell indices, so shards\n"
        "                      reproduce the full run's rows exactly)\n"
        "  --dry-run           print the expanded plan (cells, total\n"
        "                      trials, grid hash, rows per shard) and\n"
        "                      exit without running anything — the\n"
        "                      same rendering lf_campaign plan uses\n"
        "  --json PATH         write per-trial results as JSON\n"
        "  --csv PATH          write per-trial results as CSV\n"
        "  --summary PATH      write the per-cell sweep summary table\n"
        "  --counters PATH     enable microarchitectural counters and\n"
        "                      write the run-aggregate CounterSet as\n"
        "                      JSON (per-trial results stay\n"
        "                      bit-identical either way; see\n"
        "                      --list-counters for the catalog)\n"
        "  --trace PATH        record runner/trial spans and write\n"
        "                      Chrome trace_event JSON (load in\n"
        "                      chrome://tracing or ui.perfetto.dev)\n"
        "  --metrics PATH      write the end-of-run RunMetrics report\n"
        "                      (throughput, parks, cache hit rate,\n"
        "                      window occupancy) as JSON\n"
        "  --progress          live progress line on stderr\n"
        "                      (completed/total, trials/sec, ETA);\n"
        "                      ends on a RunMetrics summary line\n"
        "  --quiet             suppress stdout tables (and"
        " --progress)\n"
        "  --help              this message\n");
}

} // namespace

int
main(int argc, char **argv)
{
    SweepSpec sweep;
    SweepShard shard;
    int threads = 0;
    std::string json_path;
    std::string csv_path;
    std::string summary_path;
    std::string counters_path;
    std::string trace_path;
    std::string metrics_path;
    bool quiet = false;
    bool progress = false;
    bool dry_run = false;

    auto need_value = [&](int i) -> std::string {
        if (i + 1 >= argc) {
            lf_error("%s needs a value", argv[i]);
            usage(stderr);
            std::exit(1);
        }
        return argv[i + 1];
    };
    auto fail = [](const std::string &error) {
        lf_error("%s", error.c_str());
        std::exit(1);
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else if (arg == "--list") {
            std::printf("%s\n%s", renderChannelCatalog().c_str(),
                        renderOverrideKeyCatalog().c_str());
            return 0;
        } else if (arg == "--list-channels") {
            std::printf("%s", renderChannelCatalog().c_str());
            return 0;
        } else if (arg == "--list-axes") {
            std::printf("%s", renderOverrideKeyCatalog().c_str());
            return 0;
        } else if (arg == "--list-counters") {
            std::printf("%s", renderCounterCatalog().c_str());
            return 0;
        } else if (isGridFlag(arg)) {
            const std::string error =
                parseGridFlag(arg, need_value(i++), sweep);
            if (!error.empty())
                fail(error);
        } else if (arg == "--threads") {
            if (!parseStrictInt(need_value(i++), threads) ||
                threads < 0) {
                fail("bad --threads value");
            }
        } else if (arg == "--shard") {
            const std::string error =
                parseShardArg(need_value(i++), shard);
            if (!error.empty())
                fail(error);
        } else if (arg == "--json") {
            json_path = need_value(i++);
        } else if (arg == "--csv") {
            csv_path = need_value(i++);
        } else if (arg == "--summary") {
            summary_path = need_value(i++);
        } else if (arg == "--counters") {
            counters_path = need_value(i++);
        } else if (arg == "--trace") {
            trace_path = need_value(i++);
        } else if (arg == "--metrics") {
            metrics_path = need_value(i++);
        } else if (arg == "--progress") {
            progress = true;
        } else if (arg == "--dry-run") {
            dry_run = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            lf_error("unknown option \"%s\"", arg.c_str());
            usage(stderr);
            return 1;
        }
    }

    if (sweep.channels.empty()) {
        lf_error("no --channel given (try --list or --help)");
        return 1;
    }
    expandGridNames(sweep);

    std::string error = validateSweepSpec(sweep);
    if (error.empty())
        error = validateSweepSpecValues(sweep);
    if (error.empty())
        error = validateSweepShard(sweep, shard);
    if (!error.empty()) {
        lf_error("%s (see --list)", error.c_str());
        return 1;
    }

    if (dry_run) {
        // Same rendering lf_campaign plan prints, so the two surfaces
        // cannot disagree about what a grid expands to.
        std::printf("%s",
                    renderCampaignPlan(sweep, shard.count).c_str());
        return 0;
    }

    // Everything downstream is a streaming consumer: file sinks write
    // rows as the runner delivers them (spec order, so the bytes are
    // identical at any --threads value), the sweep summary folds into
    // O(cells) accumulator state, and --progress reports off the same
    // callback — memory stays bounded however large the grid is.
    // Counters/trace/metrics are purely observational: switching them
    // on never changes a sink byte.
    if (!counters_path.empty())
        obs::setCountersEnabled(true);
    if (!trace_path.empty())
        obs::setTraceEnabled(true);
    ExperimentRunner runner(threads);
    obs::RunMetrics metrics;
    runner.setMetricsSink(&metrics);
    const std::vector<ExperimentSpec> batch = expandSweep(sweep, shard);

    std::ofstream json_os;
    JsonSink json_sink("lf_run");
    if (!json_path.empty()) {
        json_os.open(json_path);
        if (!json_os) {
            lf_error("cannot open %s", json_path.c_str());
            return 1;
        }
        json_sink.writeHeader(json_os);
    }
    std::ofstream csv_os;
    CsvSink csv_sink;
    if (!csv_path.empty()) {
        csv_os.open(csv_path);
        if (!csv_os) {
            lf_error("cannot open %s", csv_path.c_str());
            return 1;
        }
        csv_sink.writeHeader(csv_os);
    }

    const bool sweeping = !sweep.axes.empty() || sweep.trials > 1;
    const bool want_summary = (!quiet && sweeping) ||
        !summary_path.empty();
    // Default title, so a --summary file is byte-comparable with a
    // campaign's merged_summary.txt (see docs/CAMPAIGNS.md).
    SweepSummarySink summary_sink;
    std::ostringstream summary_os;
    if (want_summary)
        summary_sink.writeHeader(summary_os);

    TextTableSink text("lf_run results");
    std::ostringstream text_os;
    if (!quiet)
        text.writeHeader(text_os);

    const bool show_progress = progress && !quiet;
    ProgressMeter meter("lf_run", batch.size());
    std::size_t done = 0;
    std::size_t failures = 0;
    std::string first_error;
    obs::CounterSet counters_total;

    runner.run(batch, [&](const ExperimentResult &res) {
        ++done;
        if (!res.ok && !res.skipped) {
            ++failures;
            if (first_error.empty())
                first_error = res.error;
        }
        if (res.counters != nullptr) {
            for (const obs::CounterInfo &info : obs::counterCatalog())
                counters_total.*(info.field) +=
                    (*res.counters).*(info.field);
        }
        if (!json_path.empty())
            json_sink.writeRow(res, json_os);
        if (!csv_path.empty())
            csv_sink.writeRow(res, csv_os);
        if (want_summary)
            summary_sink.writeRow(res, summary_os);
        if (!quiet)
            text.writeRow(res, text_os);
        if (show_progress)
            meter.update(done);
    });
    if (show_progress)
        meter.finishWith(obs::runMetricsOneLiner(metrics));

    if (!quiet) {
        text.writeFooter(text_os);
        std::cout << text_os.str();
    }
    std::string summary_text;
    if (want_summary) {
        summary_sink.writeFooter(summary_os);
        summary_text = summary_os.str();
    }
    if (!quiet && sweeping)
        std::cout << "\n" << summary_text;
    if (!json_path.empty()) {
        json_sink.writeFooter(json_os);
        if (!json_os.good()) {
            lf_error("write to %s failed", json_path.c_str());
            return 1;
        }
        lf_inform("wrote %s", json_path.c_str());
    }
    if (!csv_path.empty()) {
        csv_sink.writeFooter(csv_os);
        if (!csv_os.good()) {
            lf_error("write to %s failed", csv_path.c_str());
            return 1;
        }
        lf_inform("wrote %s", csv_path.c_str());
    }
    if (!summary_path.empty()) {
        std::ofstream os(summary_path);
        os << summary_text;
        if (!os.good()) {
            lf_error("cannot write %s", summary_path.c_str());
            return 1;
        }
        lf_inform("wrote %s", summary_path.c_str());
    }

    // Observability artifacts last: they describe the run that just
    // finished, whatever its outcome.
    const auto write_text_file = [&](const std::string &path,
                                     const std::string &text_out) {
        std::ofstream os(path);
        os << text_out;
        if (!os.good()) {
            lf_error("cannot write %s", path.c_str());
            return false;
        }
        lf_inform("wrote %s", path.c_str());
        return true;
    };
    if (!counters_path.empty() &&
        !write_text_file(counters_path,
                         obs::renderCounterSetJson(counters_total) +
                             "\n")) {
        return 1;
    }
    if (!trace_path.empty() &&
        !write_text_file(trace_path, obs::renderTraceJson() + "\n")) {
        return 1;
    }
    if (!metrics_path.empty() &&
        !write_text_file(metrics_path,
                         obs::renderRunMetricsJson(metrics) + "\n")) {
        return 1;
    }

    if (failures > 0) {
        lf_error("trial failed: %s", first_error.c_str());
        return 1;
    }
    return 0;
}
