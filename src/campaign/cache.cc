#include "campaign/cache.hh"

#include <algorithm>
#include <utility>

#include "campaign/files.hh"
#include "campaign/grid_hash.hh"
#include "campaign/record.hh"

namespace lf {

namespace {

constexpr const char *kMagic = "lfcampaign-cache v2";

/** Width of a trial key (hashHex()). */
constexpr std::size_t kKeyChars = 16;

} // namespace

ResultCache::ResultCache(std::string root)
    : root_(std::move(root))
{
}

std::string
ResultCache::entryPath(const ExperimentSpec &spec) const
{
    const std::string key = cellKey(spec);
    return root_ + "/" + key.substr(0, 2) + "/" + key + ".rec";
}

std::string
ResultCache::loadCell(const ExperimentSpec &spec, CellRows &rows) const
{
    rows.clear();
    if (!enabled())
        return "";
    const std::string path = entryPath(spec);
    if (!pathExists(path))
        return ""; // Plain miss.

    std::string text;
    const std::string error = readFileText(path, text);
    if (!error.empty())
        return error;

    const auto fail = [&](const std::string &reason) {
        rows.clear();
        return path + ": " + reason +
            " — cache entry corrupt (delete it to re-run the cell)";
    };

    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        const std::size_t end = text.find('\n', start);
        if (end == std::string::npos)
            return fail("truncated entry (unterminated line)");
        lines.push_back(text.substr(start, end - start));
        start = end + 1;
    }
    if (lines.empty() || lines[0] != kMagic)
        return fail("not a " + std::string(kMagic) + " entry");
    if (lines.size() < 3 || lines.back().compare(0, 4, "end ") != 0)
        return fail("truncated entry (missing \"end\" line)");
    // The end line checksums every byte before it, so damage inside a
    // row's outcome fields, which still decodes, is caught too.
    text.resize(text.size() - lines.back().size() - 1);
    if (lines.back().substr(4) != hashHex(fnv1a64(text)))
        return fail("checksum mismatch");

    const std::string cell = cellKey(spec);
    if (lines[1] != "cell " + cell)
        return fail("cell line mismatch (want \"cell " + cell + "\")");
    const std::string identity = cellKeyOf(spec);
    std::string previous;
    for (std::size_t i = 2; i + 1 < lines.size(); ++i) {
        const std::string &line = lines[i];
        const std::string where = "line " + std::to_string(i + 1) + ": ";
        if (line.compare(0, 4, "row ") != 0 ||
            line.size() < 5 + kKeyChars || line[4 + kKeyChars] != ' ') {
            return fail(where +
                        "expected \"row <trial key> <record>\"");
        }
        const std::string key = line.substr(4, kKeyChars);
        if (key <= previous) {
            return fail(where + "rows not in ascending trial-key "
                                "order (duplicated or reordered)");
        }
        previous = key;
        ExperimentResult res;
        std::size_t index = 0;
        const std::string bad =
            decodeResultRecord(line.substr(5 + kKeyChars), index, res);
        if (!bad.empty())
            return fail(where + bad);
        // Content-address checks: a record that decodes but describes
        // another trial or cell (bit rot, a misfiled row) must not be
        // served.
        if (trialKey(res.spec) != key)
            return fail(where + "stored spec does not match its trial key");
        if (cellKeyOf(res.spec) != identity)
            return fail(where + "stored spec does not match the cell");
        rows.emplace(canonicalTrialText(res.spec), std::move(res));
    }
    return "";
}

std::string
ResultCache::storeCell(const std::vector<ExperimentResult> &results)
    const
{
    if (!enabled() || results.empty())
        return "";
    const ExperimentSpec &first = results.front().spec;
    CellRows rows;
    const std::string error = loadCell(first, rows);
    if (!error.empty())
        return error;
    const std::string identity = cellKeyOf(first);
    for (const ExperimentResult &res : results) {
        if (cellKeyOf(res.spec) != identity) {
            return entryPath(first) +
                ": refusing to store a trial of another cell";
        }
        rows[canonicalTrialText(res.spec)] = res;
    }

    // Rows sorted by trial key, so equal contents give equal bytes.
    // The record's index slot is campaign-relative, not content; it
    // is stored as 0 and re-stamped by whoever replays the row.
    std::vector<std::string> lines;
    lines.reserve(rows.size());
    for (const auto &[text, res] : rows) {
        (void)text;
        lines.push_back("row " + trialKey(res.spec) + " " +
                        encodeResultRecord(0, res) + "\n");
    }
    std::sort(lines.begin(), lines.end());
    std::string content =
        std::string(kMagic) + "\ncell " + cellKey(first) + "\n";
    for (const std::string &line : lines)
        content += line;
    content += "end " + hashHex(fnv1a64(content)) + "\n";
    return writeFileAtomic(entryPath(first), content);
}

bool
ResultCache::lookup(const ExperimentSpec &spec, ExperimentResult &res,
                    std::string &error) const
{
    CellRows rows;
    error = loadCell(spec, rows);
    if (!error.empty())
        return false;
    // Rows are keyed by the full canonical spec text, so a hit is a
    // byte-for-byte match with the requested trial.
    const auto it = rows.find(canonicalTrialText(spec));
    if (it == rows.end())
        return false; // Plain miss.
    res = std::move(it->second);
    return true;
}

std::string
ResultCache::store(const ExperimentSpec &spec,
                   const ExperimentResult &res) const
{
    if (!enabled())
        return "";
    if (canonicalTrialText(res.spec) != canonicalTrialText(spec)) {
        return entryPath(spec) +
            ": refusing to store another trial's result";
    }
    return storeCell({res});
}

} // namespace lf
