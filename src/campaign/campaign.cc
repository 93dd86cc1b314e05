#include "campaign/campaign.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "campaign/cache.hh"
#include "campaign/files.hh"
#include "campaign/grid_hash.hh"
#include "campaign/shard_log.hh"
#include "common/logging.hh"
#include "common/message.hh"
#include "common/table.hh"
#include "obs/metrics.hh"
#include "run/runner.hh"
#include "run/sinks.hh"

namespace lf {

namespace {

/** Rows assigned to shard @p shard (cells are mod-assigned). */
std::size_t
shardRowCount(const CampaignManifest &manifest, int shard)
{
    const std::size_t cells = manifest.cells;
    const std::size_t n = static_cast<std::size_t>(manifest.shards);
    const std::size_t i = static_cast<std::size_t>(shard);
    const std::size_t shardCells =
        i < cells ? (cells - i + n - 1) / n : 0;
    return shardCells * static_cast<std::size_t>(manifest.spec.trials);
}

/**
 * Lenient top-level-key number extraction from a shard metrics file
 * (status must keep working if a future version adds keys, and must
 * not mistake the nested "runner" object's fields — e.g. its
 * "seconds" — for the shard's own, so only text before the nested
 * object is searched).
 */
bool
extractMetricsNumber(const std::string &text, const std::string &key,
                     double &out)
{
    std::size_t limit = text.find("\"runner\":");
    if (limit == std::string::npos)
        limit = text.size();
    const std::string needle = "\"" + key + "\":";
    const std::size_t pos = text.find(needle);
    if (pos == std::string::npos || pos >= limit)
        return false;
    try {
        out = std::stod(text.substr(pos + needle.size()));
        return true;
    } catch (...) {
        return false;
    }
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &name : names) {
        if (!out.empty())
            out += ", ";
        out += name;
    }
    return out;
}

} // namespace

std::string
campaignManifestPath(const std::string &dir)
{
    return dir + "/manifest.txt";
}

std::string
campaignSummaryPath(const std::string &dir)
{
    return dir + "/merged_summary.txt";
}

std::string
campaignShardMetricsPath(const std::string &dir, int shard)
{
    return dir + "/shard-" + std::to_string(shard) + ".metrics.json";
}

std::size_t
campaignRowIndex(const CampaignManifest &manifest, int shard,
                 std::size_t local)
{
    const std::size_t trials =
        static_cast<std::size_t>(manifest.spec.trials);
    const std::size_t cellOrdinal = local / trials;
    const std::size_t globalCell =
        static_cast<std::size_t>(shard) +
        cellOrdinal * static_cast<std::size_t>(manifest.shards);
    return globalCell * trials + local % trials;
}

std::string
renderCampaignPlan(const SweepSpec &spec, int shards)
{
    CampaignManifest manifest;
    const std::string error = planManifest(spec, shards, manifest);
    if (!error.empty())
        return "invalid plan: " + error + "\n";

    std::vector<std::string> patternNames;
    for (const MessagePattern pattern : spec.patterns)
        patternNames.push_back(toString(pattern));

    std::string axes;
    for (const SweepAxis &axis : spec.axes) {
        if (!axes.empty())
            axes += ", ";
        axes += axis.key + "[" + std::to_string(axis.values.size()) +
            "]";
    }
    std::string sets;
    for (const auto &[key, value] : spec.baseOverrides) {
        if (!sets.empty())
            sets += ", ";
        sets += key + "=" + jsonNumber(value);
    }

    std::size_t minRows = manifest.rows;
    std::size_t maxRows = 0;
    for (int i = 0; i < shards; ++i) {
        const std::size_t rows = shardRowCount(manifest, i);
        minRows = std::min(minRows, rows);
        maxRows = std::max(maxRows, rows);
    }
    std::string perShard = std::to_string(minRows);
    if (maxRows != minRows)
        perShard += ".." + std::to_string(maxRows);

    TextTable table("Campaign plan");
    table.setHeader({"Field", "Value"});
    table.addRow({"grid hash", manifest.gridHash});
    table.addRow({"channels",
                  std::to_string(spec.channels.size()) + " (" +
                      joinNames(spec.channels) + ")"});
    table.addRow({"cpus", std::to_string(spec.cpus.size()) + " (" +
                              joinNames(spec.cpus) + ")"});
    table.addRow({"patterns", joinNames(patternNames)});
    table.addRow({"axes", axes.empty() ? "(none)" : axes});
    table.addRow({"base overrides", sets.empty() ? "(none)" : sets});
    table.addRow({"seed", std::to_string(spec.seed)});
    table.addRow({"message bits",
                  std::to_string(spec.messageBits)});
    table.addRow({"cells", std::to_string(manifest.cells)});
    table.addRow({"trials per cell", std::to_string(spec.trials)});
    table.addRow({"total rows", std::to_string(manifest.rows)});
    table.addRow({"shards", std::to_string(shards) + " (" + perShard +
                                " rows/shard)"});
    return table.render();
}

std::string
planCampaign(const SweepSpec &spec, int shards, const std::string &dir,
             CampaignManifest *out)
{
    CampaignManifest manifest;
    std::string error = planManifest(spec, shards, manifest);
    if (!error.empty())
        return error;
    // CLI-grade early failure: bad override *values* should die at
    // plan time, not as error rows inside every shard.
    error = validateSweepSpecValues(spec);
    if (!error.empty())
        return error;
    error = writeManifestFile(manifest, campaignManifestPath(dir));
    if (!error.empty())
        return error;
    if (out != nullptr)
        *out = manifest;
    return "";
}

std::string
runCampaignShard(const std::string &dir, int shard,
                 const ShardRunOptions &options, ShardRunStats *stats)
{
    CampaignManifest manifest;
    std::string error =
        loadManifestFile(campaignManifestPath(dir), manifest);
    if (!error.empty())
        return error;
    if (shard < 0 || shard >= manifest.shards) {
        return "shard index " + std::to_string(shard) +
            " out of range [0, " + std::to_string(manifest.shards) +
            ")";
    }

    SweepShard selector;
    selector.index = shard;
    selector.count = manifest.shards;
    const std::vector<ExperimentSpec> batch =
        expandSweep(manifest.spec, selector);

    ShardLogState state;
    error = loadShardLog(dir, shard, manifest.gridHash,
                         manifest.shards, manifest.rows, state);
    if (!error.empty())
        return error;

    ShardLogWriter writer;
    error = writer.open(dir, shard, manifest.gridHash, manifest.shards,
                        state);
    if (!error.empty())
        return error;
    // Heal rows whose result landed but whose `done` line was lost
    // to a kill between the two appends.
    for (const auto &[index, row] : state.rows) {
        (void)row;
        if (state.checkpointed.count(index) == 0) {
            error = writer.appendCheckpoint(index);
            if (!error.empty())
                return error;
        }
    }

    ShardRunStats run;
    run.totalRows = batch.size();
    run.resumedRows = state.rows.size();

    // The to-do list: shard-local positions whose global row is not
    // yet in the results file, capped by the deterministic-kill knob.
    std::vector<std::size_t> todo;
    for (std::size_t p = 0; p < batch.size(); ++p) {
        if (state.rows.count(campaignRowIndex(manifest, shard, p)) ==
            0) {
            todo.push_back(p);
        }
    }
    if (options.maxNewRows > 0 && todo.size() > options.maxNewRows)
        todo.resize(options.maxNewRows);

    ShardProgress progress;
    progress.totalRows = batch.size();
    progress.doneRows = run.resumedRows;
    const auto report = [&]() {
        progress.cacheHits = run.cacheHits;
        progress.executed = run.executed;
        if (options.onProgress)
            options.onProgress(progress);
    };

    const auto record = [&](std::size_t local,
                            const ExperimentResult &res) {
        const std::string bad =
            writer.append(campaignRowIndex(manifest, shard, local),
                          res);
        if (!bad.empty())
            throw std::runtime_error(bad);
        if (!res.ok && !res.skipped)
            ++run.failedRows;
        ++progress.doneRows;
        report();
    };

    // A shard's batch is its cells in order, `trials` rows each, so a
    // row's cell ordinal is local / trials. The cache reads and writes
    // whole cells: one entry load per cell in the lookup pass, and one
    // store per cell once its last miss is delivered.
    const std::size_t trials =
        static_cast<std::size_t>(manifest.spec.trials);
    const ResultCache cache(options.cacheDir);
    const auto start = std::chrono::steady_clock::now();
    obs::RunMetrics runnerMetrics;
    std::vector<std::size_t> misses;
    try {
        ResultCache::CellRows cellRows;
        std::size_t loadedCell = batch.size(); // None yet.
        for (const std::size_t local : todo) {
            if (cache.enabled() && local / trials != loadedCell) {
                loadedCell = local / trials;
                const std::string cacheError =
                    cache.loadCell(batch[local], cellRows);
                if (!cacheError.empty())
                    return cacheError;
            }
            const auto hit =
                cellRows.find(canonicalTrialText(batch[local]));
            if (hit != cellRows.end()) {
                ++run.cacheHits;
                record(local, hit->second);
            } else {
                misses.push_back(local);
            }
        }
        cellRows.clear();

        std::vector<ExperimentSpec> runSpecs;
        runSpecs.reserve(misses.size());
        for (const std::size_t local : misses)
            runSpecs.push_back(batch[local]);

        ExperimentRunner runner(options.threads);
        runner.setMetricsSink(&runnerMetrics);
        std::size_t delivered = 0;
        // The delivered rows of the cell in flight. Each row reaches
        // the shard log first; if a callback throws, the buffered rows
        // never reach the cache (the log already holds them).
        std::vector<ExperimentResult> pending;
        runner.run(runSpecs, [&](const ExperimentResult &res) {
            // SpecOrder delivery: the k-th callback is runSpecs[k].
            const std::size_t local = misses[delivered++];
            ++run.executed;
            record(local, res);
            if (!cache.enabled())
                return;
            pending.push_back(res);
            // A cell's misses are contiguous; the run's last miss also
            // flushes a cell cut short by maxNewRows.
            if (delivered == misses.size() ||
                misses[delivered] / trials != local / trials) {
                const std::string bad = cache.storeCell(pending);
                if (!bad.empty())
                    throw std::runtime_error(bad);
                pending.clear();
            }
        });
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    run.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();

    // Leave the shard's observability report beside its logs; the
    // strict result/checkpoint files never depend on it, so a failed
    // write degrades status reporting, not the campaign.
    std::ostringstream metricsJson;
    metricsJson << "{\"schema\":\"lf_shard_metrics_v1\""
                << ",\"shard\":" << shard
                << ",\"total_rows\":" << run.totalRows
                << ",\"resumed_rows\":" << run.resumedRows
                << ",\"cache_hits\":" << run.cacheHits
                << ",\"executed\":" << run.executed
                << ",\"failed_rows\":" << run.failedRows
                << ",\"seconds\":" << jsonNumber(run.seconds)
                << ",\"trials_per_sec\":"
                << jsonNumber(run.trialsPerSec())
                << ",\"cache_hit_rate\":"
                << jsonNumber(run.cacheHitRate())
                << ",\"runner\":"
                << obs::renderRunMetricsJson(runnerMetrics) << "}\n";
    const std::string metricsError = writeFileAtomic(
        campaignShardMetricsPath(dir, shard), metricsJson.str());
    if (!metricsError.empty())
        lf_warn("shard metrics not written: %s", metricsError.c_str());

    if (stats != nullptr)
        *stats = run;
    return "";
}

std::string
mergeCampaign(const std::string &dir, std::string &summary,
              MergeStats *stats)
{
    CampaignManifest manifest;
    std::string error =
        loadManifestFile(campaignManifestPath(dir), manifest);
    if (!error.empty())
        return error;

    const std::size_t trials =
        static_cast<std::size_t>(manifest.spec.trials);
    std::map<std::size_t, ExperimentResult> rows;
    for (int shard = 0; shard < manifest.shards; ++shard) {
        const std::string path = shardResultsPath(dir, shard);
        if (!pathExists(path)) {
            return path + ": missing — shard " +
                std::to_string(shard) +
                " has not run (lf_campaign run-shard --shard " +
                std::to_string(shard) + ")";
        }
        SweepShard selector;
        selector.index = shard;
        selector.count = manifest.shards;
        ShardLogState state;
        error = loadShardResults(path, manifest.gridHash, selector,
                                 manifest.rows, state);
        if (!error.empty())
            return error;
        for (auto &[index, res] : state.rows) {
            const std::size_t cell = index / trials;
            if (cell % static_cast<std::size_t>(manifest.shards) !=
                static_cast<std::size_t>(shard)) {
                return path + ": row " + std::to_string(index) +
                    " does not belong to shard " +
                    std::to_string(shard);
            }
            if (!rows.emplace(index, std::move(res)).second) {
                return path + ": row " + std::to_string(index) +
                    " already merged from another shard";
            }
        }
    }
    if (rows.size() != manifest.rows) {
        std::size_t firstMissing = 0;
        for (std::size_t i = 0; i < manifest.rows; ++i) {
            if (rows.count(i) == 0) {
                firstMissing = i;
                break;
            }
        }
        const std::size_t shard =
            (firstMissing / trials) %
            static_cast<std::size_t>(manifest.shards);
        return "campaign incomplete: " +
            std::to_string(manifest.rows - rows.size()) +
            " of " + std::to_string(manifest.rows) +
            " rows missing (first: row " +
            std::to_string(firstMissing) + ", shard " +
            std::to_string(shard) + " — resume it with run-shard)";
    }

    // Fold in ascending global-row order == the unsharded batch's
    // spec order, so the accumulator sees exactly the stream a
    // single-process sweep would and the summary bytes match.
    MergeStats merged;
    SweepSummarySink sink;
    std::ostringstream os;
    sink.writeHeader(os);
    for (const auto &[index, res] : rows) {
        (void)index;
        sink.writeRow(res, os);
        ++merged.rows;
        if (res.skipped)
            ++merged.skippedRows;
        else if (!res.ok)
            ++merged.failedRows;
    }
    sink.writeFooter(os);
    summary = os.str();
    merged.cells = manifest.cells;
    if (stats != nullptr)
        *stats = merged;

    return writeFileAtomic(campaignSummaryPath(dir), summary);
}

std::string
campaignStatus(const std::string &dir, std::string &rendered)
{
    CampaignManifest manifest;
    std::string error =
        loadManifestFile(campaignManifestPath(dir), manifest);
    if (!error.empty())
        return error;

    TextTable table("Campaign " + manifest.gridHash + " — " +
                    std::to_string(manifest.cells) + " cells, " +
                    std::to_string(manifest.rows) + " rows, " +
                    std::to_string(manifest.shards) + " shards");
    table.setHeader({"Shard", "Done", "Total", "%", "State"});
    std::size_t doneTotal = 0;
    for (int shard = 0; shard < manifest.shards; ++shard) {
        const std::size_t total = shardRowCount(manifest, shard);
        ShardLogState state;
        error = loadShardLog(dir, shard, manifest.gridHash,
                             manifest.shards, manifest.rows, state);
        if (!error.empty()) {
            table.addRow({std::to_string(shard), "?",
                          std::to_string(total), "?",
                          "corrupt: " + error});
            continue;
        }
        const std::size_t done = state.rows.size();
        doneTotal += done;
        std::string label = "fresh";
        if (done == total && total > 0)
            label = "done";
        else if (done > 0)
            label = "partial";
        table.addRow({std::to_string(shard), std::to_string(done),
                      std::to_string(total),
                      formatPercent(total > 0
                          ? static_cast<double>(done) /
                              static_cast<double>(total)
                          : 0.0, 0),
                      label});
    }
    table.addRow({"all", std::to_string(doneTotal),
                  std::to_string(manifest.rows),
                  formatPercent(manifest.rows > 0
                      ? static_cast<double>(doneTotal) /
                          static_cast<double>(manifest.rows)
                      : 0.0, 0),
                  pathExists(campaignSummaryPath(dir)) ? "merged"
                                                       : "-"});
    rendered = table.render();

    // Fleet-wide rates from whatever shard metrics files exist (each
    // describes that shard's *latest* run). Reporting is best-effort:
    // an unreadable or partial file just drops out of the sums.
    int reporting = 0;
    double executed = 0.0;
    double cacheHits = 0.0;
    double seconds = 0.0;
    for (int shard = 0; shard < manifest.shards; ++shard) {
        const std::string path = campaignShardMetricsPath(dir, shard);
        if (!pathExists(path))
            continue;
        std::string text;
        if (!readFileText(path, text).empty())
            continue;
        double shardExecuted = 0.0;
        double shardHits = 0.0;
        double shardSeconds = 0.0;
        if (!extractMetricsNumber(text, "executed", shardExecuted) ||
            !extractMetricsNumber(text, "cache_hits", shardHits) ||
            !extractMetricsNumber(text, "seconds", shardSeconds)) {
            continue;
        }
        ++reporting;
        executed += shardExecuted;
        cacheHits += shardHits;
        seconds += shardSeconds;
    }
    if (reporting > 0) {
        const double attempted = executed + cacheHits;
        char secondsText[32];
        std::snprintf(secondsText, sizeof(secondsText), "%.2f",
                      seconds);
        std::ostringstream os;
        os << rendered;
        os << "fleet: " << static_cast<std::uint64_t>(executed)
           << " rows executed in " << secondsText
           << "s across " << reporting << " reporting shard"
           << (reporting == 1 ? "" : "s");
        if (seconds > 0.0) {
            char rate[32];
            std::snprintf(rate, sizeof(rate), "%.1f",
                          executed / seconds);
            os << " (" << rate << " trials/s)";
        }
        os << "\n";
        char hitRate[32];
        std::snprintf(hitRate, sizeof(hitRate), "%.1f",
                      attempted > 0.0 ? 100.0 * cacheHits / attempted
                                      : 0.0);
        os << "fleet: cache hit rate " << hitRate << "% ("
           << static_cast<std::uint64_t>(cacheHits) << " hits / "
           << static_cast<std::uint64_t>(attempted) << " attempted)\n";
        rendered = os.str();
    }
    return "";
}

} // namespace lf
