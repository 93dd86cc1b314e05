/**
 * @file
 * lf_repro: the paper's results as data — the covert-channel Tables
 * II-VI, Fig. 8, the channels under environment noise and the ablations
 * of the model's design choices; the delivery-path timing (Fig. 2) and
 * power (Fig. 9) histograms, the LCP counters (Fig. 4), microcode patch
 * detection (Fig. 10), in-domain Spectre (Table VII), fingerprinting
 * (Figs. 11-12, Sec. XI-B) and the mitigation study.
 *
 * Each artifact in the table below holds its BENCH_<stem>.json name,
 * the shape claims the model must meet, and the shape sentences the
 * model is known to miss (fidelity gaps). A channel table also holds
 * its SweepSpecs and the paper's published value per cell: one generic
 * path runs its sweeps as one ExperimentRunner batch and prints them —
 * a TextTableSink annotated with the paper's values, or one
 * SweepSummarySink per sweep when cells are swept or repeated — and
 * writes the JSON. Any other study is a measure function that prints
 * its own tables, writes its own JSON (if any) and returns named
 * values. Claims read both; a missing row or value fails its claim.
 * Each artifact then prints one PASS/FAIL line per claim and its gaps
 * as notes, which are never gated.
 *
 * Takes no options and writes into the working directory. The exit
 * code is 1 if any claim fails; ctest runs it.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "fingerprint/patch_detect.hh"
#include "fingerprint/side_channel.hh"
#include "fingerprint/workloads.hh"
#include "isa/mix_block.hh"
#include "obs/counters.hh"
#include "run/report.hh"
#include "run/sweep.hh"
#include "sim/core.hh"
#include "sim/cpu_model.hh"
#include "sim/executor.hh"
#include "sim/period_skip.hh"
#include "spectre/spectre.hh"

using namespace lf;

namespace {

using Rows = std::vector<ExperimentResult>;
using Cell = SweepCellSummary;
/** A measured artifact's results, by name. */
using Values = std::map<std::string, double>;

/** What one artifact produced: the rows of its sweeps, or the values
 *  its measure function returned. */
struct Results
{
    Rows rows;
    Values values;
};

/** Every artifact's results so far, by BENCH stem. */
using Repro = std::map<std::string, Results>;

/** @p stem's rows; none when it has not run, which fails every claim
 *  on them (everyPair() and everyCell() need a cell). */
const Rows &
rowsOf(const Repro &r, const std::string &stem)
{
    static const Rows none;
    const auto it = r.find(stem);
    return it == r.end() ? none : it->second.rows;
}

/** @p stem's value @p key, or NaN when it is missing. Claims compare
 *  values only with <, <=, > and >=, which a NaN fails, so a missing
 *  value fails its claim. */
double
value(const Repro &r, const std::string &stem, const std::string &key)
{
    const auto it = r.find(stem);
    if (it == r.end())
        return std::nan("");
    const auto found = it->second.values.find(key);
    return found == it->second.values.end() ? std::nan("")
                                             : found->second;
}

struct Claim
{
    std::string text;
    std::function<bool(const Repro &)> holds;
};

/** The paper's value for the (label, CPU) cell of a per-trial table. */
struct PaperCell
{
    std::string label;
    std::string cpu;
    PaperValues values;
};

struct Artifact
{
    std::string stem;      //!< Output file BENCH_<stem>.json.
    std::string benchmark; //!< JsonSink "benchmark" field.
    std::string title;
    std::vector<SweepSpec> sweeps;
    std::vector<PaperCell> paper;
    std::vector<Claim> claims;
    std::vector<std::string> gaps;
    /** Set in place of sweeps: runs a study outside the runner, prints
     *  its tables, writes its own BENCH JSON (if any) and returns its
     *  named values. */
    std::function<Values()> measure = nullptr;
};

/** An artifact that @p measure produces. */
Artifact
measured(std::string stem, std::string title,
         std::function<Values()> measure)
{
    Artifact art;
    art.stem = std::move(stem);
    art.title = std::move(title);
    art.measure = std::move(measure);
    return art;
}

/** Table V runs fewer rounds per bit than the paper's p = q = 240k;
 *  per-bit time scales linearly in rounds. */
constexpr double kPaperPowerRounds = 240000;
constexpr double kSimPowerRounds = 20000;

// ---- Cell queries shared by the claims ----

double rate(const Cell &c) { return c.transmissionKbps.mean(); }
double error(const Cell &c) { return c.errorRate.mean(); }
double at(const Cell &c, const char *key) { return c.overrides.at(key); }
bool has(const Cell &c, const char *part)
{
    return c.channel.find(part) != std::string::npos;
}
bool isMt(const Cell &c) { return !has(c, "nonmt"); }
/** "eviction" or "misalignment": the last part of the channel name. */
std::string family(const Cell &c)
{
    return c.channel.substr(c.channel.rfind('-') + 1);
}

/** The cells of @p rows with at least one ok trial. */
std::vector<Cell>
okCells(const Rows &rows)
{
    std::vector<Cell> cells;
    for (Cell &cell : aggregateSweep(rows)) {
        if (cell.okTrials > 0)
            cells.push_back(std::move(cell));
    }
    return cells;
}

/** Does @p holds(a, b) hold for every ordered pair of distinct ok
 *  cells that @p match(a, b) selects? False when it selects none, so
 *  missing rows never pass a claim. */
template <typename Match, typename Holds>
bool
everyPair(const Rows &rows, Match match, Holds holds)
{
    const std::vector<Cell> cells = okCells(rows);
    std::size_t pairs = 0;
    for (const Cell &a : cells) {
        for (const Cell &b : cells) {
            if (&a == &b || !match(a, b))
                continue;
            ++pairs;
            if (!holds(a, b))
                return false;
        }
    }
    return pairs > 0;
}

/** Does @p holds hold for every ok cell of @p rows (and is there
 *  one)? */
template <typename Holds>
bool
everyCell(const Rows &rows, Holds holds)
{
    const std::vector<Cell> cells = okCells(rows);
    return !cells.empty() &&
        std::all_of(cells.begin(), cells.end(), holds);
}

/** everyPair() along override @p key: a and b lie on one curve (they
 *  differ only in that override) and a's value is the lower. */
template <typename Holds>
bool
alongAxis(const Rows &rows, const std::string &key, Holds holds)
{
    const auto rest = [&key](const Cell &c) {
        std::map<std::string, double> others = c.overrides;
        others.erase(key);
        return others;
    };
    return everyPair(rows, [&](const Cell &a, const Cell &b) {
        return a.channel == b.channel && a.cpu == b.cpu &&
            a.pattern == b.pattern && a.overrides.count(key) &&
            b.overrides.count(key) &&
            a.overrides.at(key) < b.overrides.at(key) &&
            rest(a) == rest(b);
    }, holds);
}

/** Trial 0 of the first ok row of @p rows that @p keep selects. */
const ChannelResult *
firstTrial(const Rows &rows,
           const std::function<bool(const ExperimentSpec &)> &keep)
{
    for (const ExperimentResult &res : rows) {
        if (res.ok && res.spec.trial == 0 && keep(res.spec))
            return &res.result;
    }
    return nullptr;
}

/** Both trials ran and produced the same outcome, field for field. */
bool
sameOutcome(const ChannelResult *a, const ChannelResult *b)
{
    return a && b && a->seed == b->seed &&
        a->preambleBits == b->preambleBits && a->sent == b->sent &&
        a->received == b->received && a->errorRate == b->errorRate &&
        a->transmissionKbps == b->transmissionKbps &&
        a->seconds == b->seconds && a->meanObs0 == b->meanObs0 &&
        a->meanObs1 == b->meanObs1;
}

bool
quiet(const ExperimentSpec &spec)
{
    const auto it = spec.overrides.find("env.corunner_intensity");
    return it != spec.overrides.end() && it->second == 0.0;
}

// ---- Sweep construction ----

std::vector<std::string>
names(const std::vector<const CpuModel *> &cpus)
{
    std::vector<std::string> out;
    for (const CpuModel *cpu : cpus)
        out.push_back(cpu->name);
    return out;
}

SweepSpec
sweep(std::vector<std::string> channels, std::vector<std::string> cpus,
      std::uint64_t seed, std::string label = "",
      std::vector<SweepAxis> axes = {})
{
    SweepSpec spec;
    spec.label = std::move(label);
    spec.channels = std::move(channels);
    spec.cpus = std::move(cpus);
    spec.axes = std::move(axes);
    spec.seed = seed;
    return spec;
}

/** A labelled paper row of Tables III and VI: one channel on every
 *  CPU of the table, with the paper's value per CPU. */
struct PaperRow
{
    const char *label;
    const char *channel;
    std::vector<PaperValues> paper;
};

/** One sweep per row, seeded seed + 1, seed + 2, ... in row order. */
void
addPaperRows(Artifact &art, const std::vector<PaperRow> &rows,
             const std::vector<std::string> &cpus, std::uint64_t seed,
             const SweepSpec &shape)
{
    for (const PaperRow &row : rows) {
        SweepSpec spec = shape;
        spec.label = row.label;
        spec.channels = {row.channel};
        spec.cpus = cpus;
        spec.seed = ++seed;
        art.sweeps.push_back(spec);
        for (std::size_t c = 0; c < cpus.size(); ++c)
            art.paper.push_back({row.label, cpus[c], row.paper[c]});
    }
}

// ---- The artifacts ----

Artifact
table2()
{
    Artifact art{"table2", "table2_message_patterns",
                 "Table II — MT eviction channel, d = 1, message "
                 "patterns", {}, {}, {}, {}};
    SweepSpec spec =
        sweep({"mt-eviction"}, names(smtCpuModels()), 100);
    spec.patterns = allMessagePatterns();
    spec.baseOverrides["d"] = 1;
    art.sweeps = {spec};
    // Per pattern, per SMT CPU. Cells are labelled by their pattern.
    const PaperValues paper[4][3] = {
        {{"42.66", "0.00%"}, {"49.53", "0.00%"}, {"87.33", "0.00%"}},
        {{"55.28", "0.00%"}, {"61.17", "0.00%"}, {"102.39", "0.00%"}},
        {{"50.21", "2.68%"}, {"58.86", "10.69%"}, {"64.96", "12.56%"}},
        {{"18.28", "22.57%"}, {"21.80", "18.53%"}, {"25.61", "19.83%"}}};
    for (std::size_t p = 0; p < spec.patterns.size(); ++p) {
        for (std::size_t c = 0; c < spec.cpus.size(); ++c) {
            art.paper.push_back({toString(spec.patterns[p]),
                                 spec.cpus[c], paper[p][c]});
        }
    }
    art.gaps = {"the model's error at d = 1 is 23-53% for every "
                "pattern, while the paper has 0% for all-0s/all-1s; "
                "uniform patterns are not best"};
    return art;
}

Artifact
table3()
{
    Artifact art{"table3", "table3_covert_channels",
                 "Table III — eviction and misalignment covert channels "
                 "(alternating message)", {}, {}, {}, {}};
    addPaperRows(art, {
        {"Non-MT Stealthy Eviction", "nonmt-stealthy-eviction",
         {{"419.67", "6.48%"}, {"851.81", "3.43%"},
          {"1182.55", "3.45%"}, {"1356.43", "0.36%"}}},
        {"Non-MT Stealthy Misalignment", "nonmt-stealthy-misalignment",
         {{"713.01", "22.56%"}, {"466.02", "11.34%"},
          {"723.15", "16.56%"}, {"1094.39", "10.08%"}}},
        {"Non-MT Fast Eviction", "nonmt-fast-eviction",
         {{"501.06", "6.09%"}, {"977.68", "0.00%"},
          {"1205.90", "0.00%"}, {"1399.96", "0.00%"}}},
        {"Non-MT Fast Misalignment", "nonmt-fast-misalignment",
         {{"500.90", "0.16%"}, {"959.45", "0.00%"},
          {"1228.35", "0.16%"}, {"1410.84", "0.00%"}}},
        {"MT Eviction", "mt-eviction",
         {{"115.97", "15.52%"}, {"113.02", "14.44%"},
          {"161.63", "13.93%"}, {"-", "-"}}},
        {"MT Misalignment", "mt-misalignment",
         {{"129.36", "7.85%"}, {"152.44", "2.77%"},
          {"200.37", "4.62%"}, {"-", "-"}}},
    }, names(allCpuModels()), 500, SweepSpec());
    art.claims = {
        {"on every CPU, every non-MT rate is at least 3x every MT rate",
         [](const Repro &r) {
             return everyPair(rowsOf(r, "table3"),
                 [](const Cell &a, const Cell &b) {
                     return a.cpu == b.cpu && !isMt(a) && isMt(b);
                 }, [](const Cell &a, const Cell &b) {
                     return rate(a) >= 3 * rate(b);
                 });
         }},
        {"fast >= stealthy for each family and CPU",
         [](const Repro &r) {
             return everyPair(rowsOf(r, "table3"),
                 [](const Cell &a, const Cell &b) {
                     return a.cpu == b.cpu && family(a) == family(b) &&
                         has(a, "fast") && has(b, "stealthy");
                 }, [](const Cell &a, const Cell &b) {
                     return rate(a) >= rate(b);
                 });
         }},
        {"for every non-MT channel, E-2288G is fastest and Gold 6226 "
         "slowest",
         [](const Repro &r) {
             const auto faster = [](const Cell &a, const Cell &b) {
                 return rate(a) > rate(b);
             };
             return everyPair(rowsOf(r, "table3"),
                 [](const Cell &a, const Cell &b) {
                     return a.channel == b.channel && !isMt(a) &&
                         a.cpu == "E-2288G";
                 }, faster) &&
                 everyPair(rowsOf(r, "table3"),
                 [](const Cell &a, const Cell &b) {
                     return a.channel == b.channel && !isMt(a) &&
                         b.cpu == "Gold 6226";
                 }, faster);
         }},
        {"nonmt-fast-misalignment has the highest rate on every CPU",
         [](const Repro &r) {
             return everyPair(rowsOf(r, "table3"),
                 [](const Cell &a, const Cell &b) {
                     return a.cpu == b.cpu &&
                         a.channel == "nonmt-fast-misalignment";
                 }, [](const Cell &a, const Cell &b) {
                     return rate(a) > rate(b);
                 });
         }},
    };
    art.gaps = {"Gold 6226 nonmt-fast-misalignment has 4.00% error; "
                "the paper has 0.16%"};
    return art;
}

Artifact
table4()
{
    // r = 16 and rounds = 20 are the channel's registry defaults.
    Artifact art{"table4", "table4_slow_switch",
                 "Table IV — slow-switch (LCP) covert channel (r = 16)",
                 {sweep({"slow-switch"},
                        {gold6226().name, xeonE2288G().name}, 77)},
                 {{"slow-switch", gold6226().name, {"678.11", "6.74%"}},
                  {"slow-switch", xeonE2288G().name,
                   {"1351.43", "0.64%"}}},
                 {}, {}};
    art.claims = {
        {"E-2288G is faster than Gold 6226, and the error is <= 5%",
         [](const Repro &r) {
             return everyPair(rowsOf(r, "table4"),
                 [](const Cell &a, const Cell &b) {
                     return a.cpu == "E-2288G" && b.cpu == "Gold 6226";
                 }, [](const Cell &a, const Cell &b) {
                     return rate(a) > rate(b);
                 }) &&
                 everyCell(rowsOf(r, "table4"), [](const Cell &c) {
                     return error(c) <= 0.05;
                 });
         }},
    };
    return art;
}

Artifact
table5()
{
    SweepSpec spec = sweep({"power-eviction", "power-misalignment"},
                           {gold6226().name}, 61);
    spec.baseOverrides["powerRounds"] = kSimPowerRounds;
    spec.messageBits = 12;
    spec.preambleBits = 8;
    Artifact art{"table5", "table5_power_channels",
                 "Table V — non-MT power channels via RAPL (Gold 6226, "
                 "d = 6, 20k rounds per bit)",
                 {spec},
                 {{"power-eviction", gold6226().name,
                   {"0.66 at 240k rounds", "18.87%"}},
                  {"power-misalignment", gold6226().name,
                   {"0.63 at 240k rounds", "9.07%"}}},
                 {}, {}};
    art.claims = {
        {"both rates, scaled to the paper's 240k rounds, fall between "
         "0.1 and 10 Kbps",
         [](const Repro &r) {
             return everyCell(rowsOf(r, "table5"), [](const Cell &c) {
                 const double paperRounds =
                     rate(c) * kSimPowerRounds / kPaperPowerRounds;
                 return paperRounds >= 0.1 && paperRounds <= 10;
             });
         }},
    };
    return art;
}

Artifact
table6()
{
    Artifact art{"table6", "table6_sgx",
                 "Table VI — SGX enclave covert channels", {}, {}, {},
                 {}};
    SweepSpec shape;
    shape.messageBits = 60;
    shape.preambleBits = 10;
    addPaperRows(art, {
        {"Non-MT Stealthy Eviction", "sgx-nonmt-stealthy-eviction",
         {{"18.96", "0.16%"}, {"19.56", "1.33%"}, {"21.20", "2.18%"}}},
        {"Non-MT Stealthy Misalignment",
         "sgx-nonmt-stealthy-misalignment",
         {{"23.93", "0.32%"}, {"24.70", "0.76%"}, {"27.10", "0.76%"}}},
        {"Non-MT Fast Eviction", "sgx-nonmt-fast-eviction",
         {{"29.35", "0.04%"}, {"32.01", "1.40%"}, {"34.48", "0.40%"}}},
        {"Non-MT Fast Misalignment", "sgx-nonmt-fast-misalignment",
         {{"30.36", "0.08%"}, {"31.18", "1.08%"}, {"35.20", "0.68%"}}},
        {"MT Eviction", "sgx-mt-eviction",
         {{"7.85", "6.74%"}, {"14.89", "8.02%"}, {"-", "-"}}},
        {"MT Misalignment", "sgx-mt-misalignment",
         {{"6.39", "2.56%"}, {"13.62", "12.95%"}, {"-", "-"}}},
    }, names(sgxCpuModels()), 700, shape);
    art.claims = {
        {"non-MT SGX rates fall between 10 and 100 Kbps",
         [](const Repro &r) {
             return everyCell(rowsOf(r, "table6"), [](const Cell &c) {
                 return isMt(c) || (rate(c) >= 10 && rate(c) <= 100);
             });
         }},
        {"on each CPU, MT SGX is below every non-MT SGX rate",
         [](const Repro &r) {
             return everyPair(rowsOf(r, "table6"),
                 [](const Cell &a, const Cell &b) {
                     return a.cpu == b.cpu && isMt(a) && !isMt(b);
                 }, [](const Cell &a, const Cell &b) {
                     return rate(a) < rate(b);
                 });
         }},
        {"every error rate is <= 5%",
         [](const Repro &r) {
             return everyCell(rowsOf(r, "table6"), [](const Cell &c) {
                 return error(c) <= 0.05;
             });
         }},
    };
    art.gaps = {"the SGX slowdown against Table III is 32-83x "
                "(32-64x on E-2174G); the text says 25-30x"};
    return art;
}

Artifact
fig8()
{
    Artifact art{"fig8", "fig8_d_sweep",
                 "Fig. 8 — MT eviction attack vs receiver ways d",
                 {sweep({"mt-eviction"}, names(smtCpuModels()), 900, "",
                        {{"d", {1, 2, 3, 4, 5, 6, 7, 8}}})},
                 {}, {}, {}};
    art.claims = {
        {"on every SMT CPU, error at d = 1 is the largest over d",
         [](const Repro &r) {
             return alongAxis(rowsOf(r, "fig8"), "d",
                 [](const Cell &a, const Cell &b) {
                     return at(a, "d") != 1 || error(a) >= error(b);
                 });
         }},
    };
    art.gaps = {"the model's rate falls with d (86.8 -> 83.7 Kbps on "
                "Gold 6226); the paper's rises"};
    return art;
}

Artifact
tableNoise()
{
    const std::vector<double> intensities = {0.0, 0.25, 0.5, 0.75, 1.0};
    // Seed 503 is Table III's "Non-MT Fast Eviction" row and cell 0
    // keeps the base seed, so intensity 0, trial 0 reproduces that
    // row's Gold 6226 cell.
    SweepSpec timing = sweep({"nonmt-fast-eviction"}, {gold6226().name},
                             503, "",
                             {{"env.corunner_intensity", intensities}});
    timing.trials = 3;
    // Aligned the same way with Table V's power-eviction row.
    SweepSpec power = sweep({"power-eviction"}, {gold6226().name}, 61,
                            "", {{"env.corunner_intensity", intensities}});
    power.trials = 3;
    power.messageBits = 12;
    power.preambleBits = 8;
    // Repetition decode at a fixed noisy point. The longer preamble
    // keeps the calibrated class means solid under noise, so the sweep
    // isolates the voting gain.
    SweepSpec repetition = sweep({"nonmt-fast-eviction"},
                                 {gold6226().name}, 540, "",
                                 {{"repetition", {1, 3, 5}}});
    repetition.baseOverrides["env.corunner_intensity"] = 0.75;
    repetition.trials = 5;
    repetition.preambleBits = 32;

    Artifact art{"table3_noise", "table3_under_noise",
                 "Covert channels under environment noise (Gold 6226)",
                 {timing, power, repetition}, {}, {}, {}};
    art.claims = {
        {"error means do not decrease as co-runner intensity rises, on "
         "both curves",
         [](const Repro &r) {
             return alongAxis(rowsOf(r, "table3_noise"),
                              "env.corunner_intensity",
                              [](const Cell &a, const Cell &b) {
                                  return error(a) <= error(b);
                              });
         }},
        {"the intensity-0 trial-0 rows equal the table3 Gold 6226 "
         "fast-eviction row and the table5 power-eviction row",
         [](const Repro &r) {
             const auto row = [&r](const char *stem, const char *channel,
                                   bool quietOnly) {
                 return firstTrial(rowsOf(r, stem),
                     [=](const ExperimentSpec &spec) {
                         return spec.channel == channel &&
                             spec.cpu == "Gold 6226" &&
                             (!quietOnly || quiet(spec));
                     });
             };
             return sameOutcome(
                        row("table3_noise", "nonmt-fast-eviction", true),
                        row("table3", "nonmt-fast-eviction", false)) &&
                 sameOutcome(row("table3_noise", "power-eviction", true),
                             row("table5", "power-eviction", false));
         }},
        {"repetition r divides the r = 1 rate exactly, and error falls "
         "as r rises",
         [](const Repro &r) {
             return alongAxis(rowsOf(r, "table3_noise"), "repetition",
                 [](const Cell &a, const Cell &b) {
                     // Exact up to the rounding of one division.
                     const double divided = rate(a) * at(a, "repetition") /
                         at(b, "repetition");
                     return error(a) > error(b) &&
                         std::abs(rate(b) - divided) <= 1e-12 * divided;
                 });
         }},
    };
    return art;
}

Artifact
ablation()
{
    // Each sweep bends one "model." CPU knob or "env." environment
    // knob on the Gold 6226.
    const std::string gold = gold6226().name;
    SweepSpec rapl = sweep({"power-eviction"}, {gold}, 60,
                           "rapl-interval",
                           {{"model.raplUpdateIntervalUs",
                             {20, 50, 200, 1000}}});
    rapl.baseOverrides["powerRounds"] = 8000;
    rapl.messageBits = 10;
    rapl.preambleBits = 6;
    Artifact art{"ablation", "ablation_design_choices",
                 "Ablations of model design choices (Gold 6226 base)",
                 {sweep({"nonmt-fast-eviction"}, {gold}, 1,
                        "switch-penalty",
                        {{"model.dsbToMiteSwitch", {0, 1, 3, 6, 12}}}),
                  sweep({"nonmt-fast-misalignment"}, {gold}, 40,
                        "lsd-bubble",
                        {{"model.lsdLoopBubble", {0, 1, 2, 4, 8}}}),
                  rapl,
                  sweep({"nonmt-stealthy-misalignment"}, {gold}, 80,
                        "timing-noise",
                        {{"model.jitterPerKcycle", {0, 2, 5, 10, 20}}}),
                  sweep({"nonmt-fast-eviction"}, {gold}, 100,
                        "sched-preempt",
                        {{"env.sched_preempt_prob",
                          {0, 0.01, 0.05, 0.1, 0.2}}}),
                  sweep({"nonmt-fast-eviction"}, {gold}, 120,
                        "timer-quantum",
                        {{"env.timer_quantum_cycles",
                          {0, 100, 500, 2000, 8000}}})},
                 {}, {}, {}};
    art.claims = {
        {"power-channel error does not decrease as the RAPL interval "
         "rises",
         [](const Repro &r) {
             return alongAxis(rowsOf(r, "ablation"),
                              "model.raplUpdateIntervalUs",
                              [](const Cell &a, const Cell &b) {
                                  return error(a) <= error(b);
                              });
         }},
        {"eviction-channel rate falls as preemption probability rises",
         [](const Repro &r) {
             return alongAxis(rowsOf(r, "ablation"), "env.sched_preempt_prob",
                              [](const Cell &a, const Cell &b) {
                                  return rate(a) > rate(b);
                              });
         }},
    };
    art.gaps = {"the eviction signal is flat in the switch penalty "
                "(282/258/259/263/266 cycles)"};
    return art;
}

// ---- Measured artifacts: studies outside the runner ----

/** The delivery paths of Figs. 2 and 9, in this order. Each is a loop
 *  of aligned 4 mov + 1 jmp mix blocks in one DSB set on the Gold 6226:
 *  8 blocks (40 uops) stream from the LSD; the same loop with the LSD
 *  fused off runs from the DSB; 9 blocks overflow the 8-way set and
 *  thrash onto MITE+DSB. */
struct DeliveryPath
{
    const char *name;
    CpuModel model;
    int blocks;
};

std::vector<DeliveryPath>
deliveryPaths()
{
    CpuModel noLsd = gold6226();
    noLsd.frontend.lsdEnabled = false;
    return {{"LSD", gold6226(), 8}, {"DSB", noLsd, 8},
            {"MITE+DSB", gold6226(), 9}};
}

ChainProgram
pathLoop(const DeliveryPath &path)
{
    std::vector<BlockSpec> specs;
    for (int i = 0; i < path.blocks; ++i)
        specs.push_back({i, false});
    return buildMixBlockChain(0x400000, 5, specs);
}

/** Fig. 2's samples of @p path: the cycles of 10 loop iterations,
 *  2000 times, on a core seeded @p seed. */
Histogram
pathTiming(const DeliveryPath &path, std::uint64_t seed)
{
    Core core(path.model, seed);
    const ChainProgram chain = pathLoop(path);
    core.setProgram(0, &chain.program);
    runLoopIters(core, 0, chain, 30); // warm up
    Histogram hist(0.0, 400.0, 80);
    for (int s = 0; s < 2000; ++s) {
        const Cycles c0 = core.cycle();
        runLoopIters(core, 0, chain, 10);
        hist.add(core.noisyMeasurement(
            static_cast<double>(core.cycle() - c0)));
    }
    return hist;
}

/** Fig. 9's samples of @p path: package watts over 400 windows of
 *  15,000 loop iterations, read through the simulated RAPL interface
 *  on a core seeded @p seed. A window is a fixed iteration count, not
 *  one RAPL update interval: a DSB window is 120k cycles, and RAPL
 *  updates every 135k (50 us at 2.7 GHz), so some DSB windows see no
 *  update (the gap notes). */
Histogram
pathPower(const DeliveryPath &path, std::uint64_t seed)
{
    Core core(path.model, seed);
    const ChainProgram chain = pathLoop(path);
    core.setProgram(0, &chain.program);
    runLoopIters(core, 0, chain, 50); // warm up
    Histogram hist(40.0, 80.0, 80);
    std::vector<Cycles> none;
    for (int s = 0; s < 400; ++s) {
        const MicroJoules e0 = core.readRapl();
        const Cycles c0 = core.cycle();
        // One loop iteration per round, so whole repeating periods
        // of the window are skipped (sim/period_skip.hh).
        runRounds(core, 15000, none, [&](std::vector<Cycles> &) {
            runLoopIters(core, 0, chain, 1);
        });
        const MicroJoules e1 = core.readRapl();
        const double seconds =
            core.secondsOf(static_cast<double>(core.cycle() - c0));
        hist.add((e1 - e0) * 1e-6 / seconds);
    }
    return hist;
}

Values
measureFig2()
{
    const std::vector<DeliveryPath> paths = deliveryPaths();
    std::vector<Histogram> hists;
    for (std::size_t p = 0; p < paths.size(); ++p)
        hists.push_back(pathTiming(paths[p], 11 + p));
    const Histogram &lsd = hists[0];
    const Histogram &dsb = hists[1];
    const Histogram &mite = hists[2];
    // The LSD-vs-DSB gap drives the misalignment attacks, the
    // (LSD|DSB)-vs-MITE gap the eviction attacks.
    std::printf("\nDSB delivery (10 iterations of 8 blocks):\n%s\n",
                dsb.render().c_str());
    std::printf("LSD delivery (same loop, LSD enabled):\n%s\n",
                lsd.render().c_str());
    std::printf("MITE+DSB delivery (9-block alias thrash, normalized "
                "x8/9):\n%s\n", mite.render().c_str());

    TextTable summary("Per-sample mean timing (cycles)");
    summary.setHeader({"Path", "Mean", "Stddev"});
    summary.addRow({"DSB", formatFixed(dsb.mean()),
                    formatFixed(dsb.stats().stddev())});
    summary.addRow({"LSD", formatFixed(lsd.mean()),
                    formatFixed(lsd.stats().stddev())});
    summary.addRow({"MITE+DSB (x8/9)",
                    formatFixed(mite.mean() * 8.0 / 9.0),
                    formatFixed(mite.stats().stddev())});
    std::printf("%s\n", summary.render().c_str());
    return {{"DSB", dsb.mean()}, {"LSD", lsd.mean()},
            {"MITE+DSB x8/9", mite.mean() * 8.0 / 9.0}};
}

Artifact
fig2()
{
    Artifact art = measured("fig2", "Fig. 2 — frontend path timing "
                            "histogram (Gold 6226)", measureFig2);
    art.claims = {
        {"DSB delivery is faster than LSD delivery",
         [](const Repro &r) {
             return value(r, "fig2", "DSB") < value(r, "fig2", "LSD");
         }},
        {"MITE+DSB delivery, normalized x8/9, is over 1.5x slower than "
         "LSD delivery",
         [](const Repro &r) {
             return value(r, "fig2", "LSD") * 1.5 <
                 value(r, "fig2", "MITE+DSB x8/9");
         }},
    };
    return art;
}

Values
measureFig9()
{
    const std::vector<DeliveryPath> paths = deliveryPaths();
    const char *paper[] = {"~52", "~57", "~65"};
    TextTable summary("Average package power (W)");
    summary.setHeader({"Path", "Mean W (sim)", "Paper Fig. 9 (approx)"});
    Values watts;
    for (std::size_t p = 0; p < paths.size(); ++p) {
        const Histogram hist = pathPower(paths[p], 31 + p);
        std::printf("%s%s delivery (watts):\n%s\n", p ? "" : "\n",
                    paths[p].name, hist.render().c_str());
        summary.addRow({paths[p].name, formatFixed(hist.mean()),
                        paper[p]});
        watts[paths[p].name] = hist.mean();
    }
    std::printf("%s\n", summary.render().c_str());
    return watts;
}

Artifact
fig9()
{
    Artifact art = measured("fig9", "Fig. 9 — power histogram per "
                            "frontend path (Gold 6226)", measureFig9);
    art.claims = {
        {"LSD delivery draws less power than DSB delivery",
         [](const Repro &r) {
             return value(r, "fig9", "LSD") < value(r, "fig9", "DSB");
         }},
        {"DSB delivery draws less power than MITE+DSB delivery",
         [](const Repro &r) {
             return value(r, "fig9", "DSB") <
                 value(r, "fig9", "MITE+DSB");
         }},
    };
    art.gaps = {"45 of the 400 DSB windows see no RAPL update and read "
                "about 0 W (the underflow); the 57.06 W DSB mean matches "
                "the paper's ~57 W only because energy is conserved over "
                "the run",
                "the DSB mode (64.0-65.0 W) sits about 1 W below "
                "MITE+DSB (65.25 W); the paper shows about 8 W"};
    return art;
}

/** Fig. 4's per-loop counters, scaled to the paper's 800M iterations
 *  (the loops are perfectly periodic after warmup). */
struct LoopCounters
{
    double uopsMite;
    double uopsDsb;
    double lcpStallCycles;
    double switchPenaltyCycles;
    double ipc;
    /** Unscaled whole-run CounterSet snapshot (warmup included) —
     *  the PMU-style view BENCH_fig4.json exports next to the
     *  paper-scaled figures above. */
    obs::CounterSet counters;
};

constexpr std::uint64_t kPaperLcpIters = 800'000'000;
constexpr std::uint64_t kSimLcpIters = 20'000;

LoopCounters
lcpLoop(LcpPattern pattern)
{
    Core core(gold6226(), 21);
    const auto loop = buildLcpAddLoop(0x800000, pattern, 16);
    core.setProgram(0, &loop.program);
    runLoopIters(core, 0, loop, 50); // warm up

    const PerfCounters before = core.counters(0);
    const Cycles c0 = core.cycle();
    runLoopIters(core, 0, loop, kSimLcpIters);
    const Cycles elapsed = core.cycle() - c0;
    const PerfCounters delta = core.counters(0).delta(before);

    const double scale = static_cast<double>(kPaperLcpIters) /
        static_cast<double>(kSimLcpIters);
    LoopCounters out;
    out.uopsMite = static_cast<double>(delta.uopsMite) * scale;
    out.uopsDsb = static_cast<double>(delta.uopsDsb) * scale;
    out.lcpStallCycles =
        static_cast<double>(delta.lcpStallCycles) * scale;
    out.switchPenaltyCycles = static_cast<double>(
        delta.dsbToMiteSwitches * core.model().frontend.dsbToMiteSwitch)
        * scale;
    out.ipc = static_cast<double>(delta.retiredInsts) /
        static_cast<double>(elapsed);
    out.counters = obs::collectCoreCounters(core);
    return out;
}

Values
measureFig4()
{
    const LoopCounters mixed = lcpLoop(LcpPattern::Mixed);
    const LoopCounters ordered = lcpLoop(LcpPattern::Ordered);

    TextTable table("Counter readings (sim, with paper values)");
    table.setHeader({"Counter", "Mixed issue", "Ordered issue",
                     "Paper mixed", "Paper ordered"});
    table.addRow({"MITE uops", formatEng(mixed.uopsMite),
                  formatEng(ordered.uopsMite), "8.4e9", "8.7e9"});
    table.addRow({"DSB uops", formatEng(mixed.uopsDsb),
                  formatEng(ordered.uopsDsb), "1.2e9", "1.2e9"});
    table.addRow({"LCP stall cycles", formatEng(mixed.lcpStallCycles),
                  formatEng(ordered.lcpStallCycles), "1.2e10",
                  "1.4e10"});
    table.addRow({"DSB->MITE switch penalty cycles",
                  formatEng(mixed.switchPenaltyCycles),
                  formatEng(ordered.switchPenaltyCycles), "9.0e8",
                  "1.5e6"});
    table.addRow({"IPC", formatFixed(mixed.ipc),
                  formatFixed(ordered.ipc), "0.67", "0.59"});
    std::printf("%s\n", table.render().c_str());

    bench::JsonReport report("fig4");
    report.integer("sim_iters", static_cast<long long>(kSimLcpIters));
    report.integer("paper_iters", static_cast<long long>(kPaperLcpIters));
    Values values;
    const auto emitLoop = [&](const std::string &key,
                              const LoopCounters &lc,
                              double paperMiteUops, double paperIpc) {
        bench::JsonReport &obj = report.object(key);
        obj.number("uops_mite_scaled", lc.uopsMite);
        obj.number("uops_dsb_scaled", lc.uopsDsb);
        obj.number("lcp_stall_cycles_scaled", lc.lcpStallCycles);
        obj.number("switch_penalty_cycles_scaled",
                   lc.switchPenaltyCycles);
        obj.number("ipc", lc.ipc);
        obj.number("paper_uops_mite", paperMiteUops);
        obj.number("paper_ipc", paperIpc);
        bench::JsonReport &counters = obj.object("counters");
        for (const obs::CounterInfo &info : obs::counterCatalog()) {
            counters.integer(info.name, static_cast<long long>(
                                            lc.counters.*(info.field)));
        }
        values[key + " LCP stalls"] = lc.lcpStallCycles;
        values[key + " switch penalty"] = lc.switchPenaltyCycles;
        values[key + " IPC"] = lc.ipc;
    };
    emitLoop("mixed", mixed, 8.4e9, 0.67);
    emitLoop("ordered", ordered, 8.7e9, 0.59);
    report.writeFile(benchJsonFileName("fig4"));
    return values;
}

Artifact
fig4()
{
    Artifact art = measured("fig4", "Fig. 4 — LCP loop performance "
                            "counters (Gold 6226, scaled to 800M "
                            "iterations)", measureFig4);
    art.claims = {
        {"ordered issue has more LCP stall cycles than mixed issue",
         [](const Repro &r) {
             return value(r, "fig4", "ordered LCP stalls") >
                 value(r, "fig4", "mixed LCP stalls");
         }},
        {"mixed issue has over 10x the DSB-to-MITE switch penalty "
         "cycles of ordered issue",
         [](const Repro &r) {
             return value(r, "fig4", "mixed switch penalty") >
                 10.0 * value(r, "fig4", "ordered switch penalty");
         }},
        {"mixed-issue IPC is above ordered-issue IPC",
         [](const Repro &r) {
             return value(r, "fig4", "mixed IPC") >
                 value(r, "fig4", "ordered IPC");
         }},
    };
    return art;
}

/** Fig. 10: under patch1 the below-capacity loop runs on the LSD, with
 *  timing and power apart from the DSB-delivered above-capacity loop;
 *  under the LSD-disabling patch2 the two coincide. The detector
 *  classifies the patch from that divergence. */
Values
measureFig10()
{
    PatchDetector detector(gold6226());
    const PatchSignature sig1 = detector.measure(patch1(), 41);
    const PatchSignature sig2 = detector.measure(patch2(), 42);

    TextTable table("Loop signatures (12-block loop, per iteration; "
                    "24-block loop normalized)");
    table.setHeader({"Patch", "Small loop (cyc)", "Large loop (cyc)",
                     "Small loop (W)", "Large loop (W)",
                     "LSD uop share"});
    for (const PatchSignature *sig : {&sig1, &sig2}) {
        table.addRow({sig->patchName,
                      formatFixed(sig->smallLoopCycles, 1),
                      formatFixed(sig->largeLoopCycles, 1),
                      formatFixed(sig->smallLoopWatts, 1),
                      formatFixed(sig->largeLoopWatts, 1),
                      formatPercent(sig->smallLoopLsdShare, 0)});
    }
    std::printf("%s\n", table.render().c_str());

    // Detection trial over several measurement seeds.
    int correct = 0;
    constexpr int kTrials = 20;
    for (int t = 0; t < kTrials; ++t) {
        if (detector.detectLsdEnabled(patch1(),
                                      100 + static_cast<unsigned>(t)))
            ++correct;
        if (!detector.detectLsdEnabled(patch2(),
                                       200 + static_cast<unsigned>(t)))
            ++correct;
    }
    const double accuracy =
        static_cast<double>(correct) / (2.0 * kTrials);
    std::printf("Patch classification accuracy over %d trials: %.1f%%\n",
                2 * kTrials, accuracy * 100.0);

    bench::JsonReport report("fig10_patch_detect");
    for (const PatchSignature *sig : {&sig1, &sig2}) {
        bench::JsonReport &row = report.object(sig->patchName);
        row.number("small_loop_cycles", sig->smallLoopCycles)
            .number("large_loop_cycles", sig->largeLoopCycles)
            .number("small_loop_watts", sig->smallLoopWatts)
            .number("large_loop_watts", sig->largeLoopWatts)
            .number("small_loop_lsd_share", sig->smallLoopLsdShare);
    }
    report.integer("trials", 2 * kTrials);
    report.number("classification_accuracy", accuracy);
    report.writeFile(benchJsonFileName("fig10"));
    std::printf("Wrote %s\n", benchJsonFileName("fig10").c_str());
    return {{"accuracy", accuracy}};
}

Artifact
fig10()
{
    Artifact art = measured("fig10", "Fig. 10 — microcode patch "
                            "detection (Gold 6226)", measureFig10);
    art.claims = {
        {"patch classification accuracy over 40 trials is above 95%",
         [](const Repro &r) {
             return value(r, "fig10", "accuracy") > 0.95;
         }},
    };
    return art;
}

/** Table VII: the L1 miss rates of the Spectre v1 variants — the
 *  frontend channel and L1I Flush+Reload / Prime+Probe against the MEM
 *  F+R, L1D F+R and L1D LRU baselines of [Xiong & Szefer, HPCA'20]. */
Values
measureTable7()
{
    const char *paperRate[] = {"2.81%", "4.79%", "4.48%", "0.45%",
                               "0.48%", "0.21%"};
    std::vector<int> secrets;
    Rng rng(12345);
    for (int i = 0; i < 24; ++i)
        secrets.push_back(static_cast<int>(rng.uniformInt(0, 31)));

    TextTable table("Spectre v1 disclosure channels");
    table.setHeader({"Channel", "L1 Miss Rate (sim)", "Paper",
                     "Recovery accuracy"});
    Core core(gold6226(), 99);
    SpectreAttack attack(core);
    const auto variants = allSpectreVariants();
    Values missRates;
    for (std::size_t i = 0; i < variants.size(); ++i) {
        const SpectreResult res = attack.run(variants[i], secrets);
        table.addRow({toString(variants[i]),
                      formatPercent(res.l1MissRate), paperRate[i],
                      formatPercent(res.accuracy)});
        missRates[toString(variants[i])] = res.l1MissRate;
    }
    std::printf("%s\n", table.render().c_str());
    return missRates;
}

Artifact
table7()
{
    Artifact art = measured("table7", "Table VII — Spectre v1 variants: "
                            "L1 miss rates (Gold 6226)", measureTable7);
    art.claims = {
        {"the frontend channel has the lowest L1 miss rate of all "
         "variants (no data-cache footprint, warm L1I)",
         [](const Repro &r) {
             const char *frontend = toString(SpectreVariant::Frontend);
             const auto variants = allSpectreVariants();
             return std::all_of(variants.begin(), variants.end(),
                 [&](SpectreVariant v) {
                     return v == SpectreVariant::Frontend ||
                         value(r, "table7", frontend) <
                             value(r, "table7", toString(v));
                 });
         }},
    };
    return art;
}

/** Fig. 11: the attacker's IPC traces while each CNN victim runs on
 *  the sibling SMT thread. The paper reports 3.58 solo and 1.8-2.2
 *  paired on its 4-wide machine; this model's backend is 6-wide, so
 *  the absolute levels scale while the ratio and the per-victim
 *  waveforms carry over. */
Values
measureFig11()
{
    TraceConfig config;
    const double baseline = attackerBaselineIpc(gold6226(), config);
    std::printf("Attacker baseline IPC (no victim): %.2f "
                "(paper: 3.58 on a 4-wide backend)\n\n", baseline);

    bench::JsonReport report("fig11_ml_traces");
    report.number("baseline_ipc", baseline);
    bench::JsonReport &traces = report.object("traces");
    Values values = {{"baseline", baseline}};
    std::vector<std::vector<double>> seen;
    double leastDistance = std::nan("");
    for (const VictimWorkload &victim : cnnWorkloads()) {
        const auto trace =
            attackerIpcTrace(gold6226(), victim, config, 4242);
        traces.numberArray(victim.name(), trace);
        OnlineStats stats;
        for (double v : trace)
            stats.add(v);
        std::printf("Victim: %s  (mean %.2f, min %.2f, max %.2f)\n",
                    victim.name().c_str(), stats.mean(), stats.min(),
                    stats.max());
        // The first 50 samples as a strip chart of levels 0-9 over
        // 0.3-0.8x the baseline.
        std::printf("  IPC trace (50 samples): ");
        for (std::size_t i = 0; i < 50 && i < trace.size(); ++i) {
            const double lo = baseline * 0.3;
            const double hi = baseline * 0.8;
            int level = static_cast<int>((trace[i] - lo) / (hi - lo) *
                                         9.0);
            level = std::max(0, std::min(9, level));
            std::printf("%d", level);
        }
        std::printf("\n");
        values[victim.name()] = stats.mean();
        for (const std::vector<double> &other : seen) {
            leastDistance =
                std::fmin(leastDistance, euclideanDistance(trace, other));
        }
        seen.push_back(trace);
    }
    values["least distance between two victims' traces"] = leastDistance;

    report.writeFile(benchJsonFileName("fig11"));
    std::printf("\nWrote %s\n", benchJsonFileName("fig11").c_str());
    return values;
}

Artifact
fig11()
{
    Artifact art = measured("fig11", "Fig. 11 — attacker IPC traces vs "
                            "CNN victims (Gold 6226)", measureFig11);
    art.claims = {
        {"each CNN victim's mean attacker IPC is 0.4-0.7x the solo "
         "baseline (paper: 1.8-2.2 vs 3.58, 0.50-0.61x)",
         [](const Repro &r) {
             const double baseline = value(r, "fig11", "baseline");
             const auto victims = cnnWorkloads();
             return std::all_of(victims.begin(), victims.end(),
                 [&](const VictimWorkload &victim) {
                     const double ipc = value(r, "fig11", victim.name());
                     return ipc >= 0.4 * baseline &&
                         ipc <= 0.7 * baseline;
                 });
         }},
        {"no two victims produce the same trace",
         [](const Repro &r) {
             return value(r, "fig11",
                          "least distance between two victims' "
                          "traces") > 0;
         }},
    };
    return art;
}

/**
 * Fig. 12 and Sec. XI-B: a fingerprint study of @p workloads, three
 * runs each, on the Gold 6226. Intra-distance (same victim, repeated
 * runs) must stay far below inter-distance (different victims), so
 * nearest-reference classification identifies the victim. @p table
 * prints the study's distances; @p paperIntra and @p paperInter are
 * the paper's means.
 */
Artifact
fingerprintStudy(const std::string &stem, const std::string &benchmark,
                 const std::string &title,
                 std::vector<VictimWorkload> (*workloads)(),
                 double paperIntra, double paperInter,
                 void (*table)(const FingerprintStudy &))
{
    Artifact art = measured(stem, title, [=] {
        const FingerprintStudy study = runFingerprintStudy(
            gold6226(), workloads(), TraceConfig(), 3);
        table(study);
        std::printf("Mean intra-distance: %.3f (paper: %.3f)\n",
                    study.meanIntraDistance, paperIntra);
        std::printf("Mean inter-distance: %.3f (paper: %.3f)\n",
                    study.meanInterDistance, paperInter);
        std::printf("Nearest-reference classification accuracy: "
                    "%.1f%%\n", study.classificationAccuracy * 100.0);

        bench::JsonReport report(benchmark);
        report.stringArray("workloads", study.names);
        report.numberMatrix("distance_matrix", study.distanceMatrix);
        report.number("mean_intra_distance", study.meanIntraDistance);
        report.number("mean_inter_distance", study.meanInterDistance);
        report.number("classification_accuracy",
                      study.classificationAccuracy);
        report.writeFile(benchJsonFileName(stem));
        std::printf("Wrote %s\n", benchJsonFileName(stem).c_str());
        return Values{{"intra", study.meanIntraDistance},
                      {"inter", study.meanInterDistance},
                      {"accuracy", study.classificationAccuracy}};
    });
    art.claims = {
        {"mean inter-distance is over 2x mean intra-distance",
         [stem](const Repro &r) {
             return value(r, stem, "inter") > 2.0 * value(r, stem, "intra");
         }},
        {"nearest-reference classification accuracy is above 90%",
         [stem](const Repro &r) {
             return value(r, stem, "accuracy") > 0.9;
         }},
    };
    return art;
}

Artifact
fig12()
{
    return fingerprintStudy(
        "fig12", "fig12_distance_matrix",
        "Fig. 12 — CNN fingerprint distance matrix (Gold 6226)",
        cnnWorkloads, 0.550, 1.937, [](const FingerprintStudy &study) {
            TextTable matrix("Mean pairwise Euclidean distance "
                             "(diagonal = intra)");
            std::vector<std::string> header = {""};
            for (const auto &name : study.names)
                header.push_back(name);
            matrix.setHeader(header);
            for (std::size_t a = 0; a < study.names.size(); ++a) {
                std::vector<std::string> row = {study.names[a]};
                for (std::size_t b = 0; b < study.names.size(); ++b) {
                    row.push_back(
                        formatFixed(study.distanceMatrix[a][b], 3));
                }
                matrix.addRow(row);
            }
            std::printf("%s\n", matrix.render().c_str());
        });
}

/** The paper's Geekbench5 study; here ten synthetic mobile victims. */
Artifact
sec11b()
{
    return fingerprintStudy(
        "sec11b", "sec11b_app_fingerprint",
        "Sec. XI-B — mobile application fingerprinting (Gold 6226)",
        mobileWorkloads, 0.232, 4.793, [](const FingerprintStudy &study) {
            TextTable table("Per-workload distances");
            table.setHeader({"Workload", "Intra (same app)",
                             "Min inter (other apps)"});
            for (std::size_t a = 0; a < study.names.size(); ++a) {
                double minInter = -1.0;
                for (std::size_t b = 0; b < study.names.size(); ++b) {
                    if (a != b && (minInter < 0.0 ||
                                   study.distanceMatrix[a][b] < minInter))
                        minInter = study.distanceMatrix[a][b];
                }
                table.addRow({study.names[a],
                              formatFixed(study.distanceMatrix[a][a], 3),
                              formatFixed(minInter, 3)});
            }
            std::printf("%s\n", table.render().c_str());
        });
}

/** A defense deployment of the mitigation study. */
struct Defense
{
    const char *name;
    std::map<std::string, double> overrides;
};

/**
 * The mitigation study: the frontend defenses of the paper's final
 * section (src/defense) against every channel family on the Gold 6226.
 *
 *  - Timing channels: flush-on-domain-switch and MITE-only delivery
 *    kill the stealthy non-MT DSB channels (the purely
 *    microarchitectural ones); the fast variants keep their
 *    architectural duration leak, and the slow-switch channel lives on
 *    the MITE path and shrugs the DSB defenses off.
 *  - MT channels: static DSB+LSD partitioning drives both SMT channels
 *    to ~50% error (the repartition observable never fires and the
 *    statically split LSD replay makes the receiver's timing
 *    sibling-independent); flushing on domain switches does not help,
 *    as the MT attack has no domain switch.
 *  - Power channels: RAPL quantization/update-interval coarsening (the
 *    PLATYPUS-class mitigation) and worst-case padding kill them.
 *  - Defense x environment: a flush quantum composes with co-runner
 *    intensity (env.*); the defended error dominates the undefended
 *    curve at every interference level.
 *  - Fingerprinting under static DSB/LSD partitioning (Sec. XI
 *    robustness) keeps its classification accuracy.
 *
 * Values: each cell's error-rate mean as "<section>/<defense>/
 * <channel>" (the first cell of that name), the two fingerprint
 * accuracies, and the number of error rows.
 */
Values
measureDefenses()
{
    const std::string cpu = gold6226().name;
    // "none" is the undefended baseline every claim is measured
    // against.
    const Defense kNone = {"none", {}};
    const Defense kFlush = {"flush-on-switch",
                            {{"defense.flush_switch_quantum", 1}}};
    const Defense kPartition = {"static-partition",
                                {{"defense.partition_dsb", 1},
                                 {"defense.partition_lsd", 1}}};
    const Defense kMiteOnly = {"mite-only", {{"defense.disable_dsb", 1}}};
    const Defense kRandomize = {"randomized-index",
                                {{"defense.randomize_sets", 1},
                                 {"defense.randomize_epoch_slots", 8}}};
    const Defense kSmooth = {"smoothing", {{"defense.smoothing", 1}}};
    const Defense kRaplQuantum = {"rapl-quantize",
                                  {{"defense.rapl_quantum_uj", 50000}}};
    const Defense kRaplInterval = {"rapl-coarse-interval",
                                   {{"defense.rapl_interval_scale", 40}}};

    std::vector<ExperimentSpec> specs;
    std::vector<std::string> sectionOf; // per spec
    const auto add = [&](const char *section, const SweepSpec &sweep) {
        for (ExperimentSpec &spec : expandSweep(sweep)) {
            specs.push_back(std::move(spec));
            sectionOf.push_back(section);
        }
    };
    const auto addDefended = [&](const char *section, SweepSpec sweep,
                                 const Defense &defense) {
        sweep.label = defense.name;
        for (const auto &[key, val] : defense.overrides)
            sweep.baseOverrides[key] = val;
        add(section, sweep);
    };

    // Non-MT timing channels. An all-1s message makes a dead cell
    // legible: a channel reduced to coin flips (or to a constant
    // decode) sits near 50% edit-distance error, a live one near 0.
    // The smoothing cell uses the alternating pattern instead — its
    // worst-case padding produces a *constant* decoder, which would
    // trivially "match" an all-ones message while transmitting
    // nothing.
    SweepSpec timing = sweep({"nonmt-fast-eviction",
                              "nonmt-stealthy-eviction",
                              "nonmt-fast-misalignment",
                              "nonmt-stealthy-misalignment", "slow-switch"},
                             {cpu}, 503);
    timing.patterns = {MessagePattern::AllOnes};
    timing.trials = 3;
    timing.messageBits = 48;
    for (const Defense *defense :
         {&kNone, &kFlush, &kMiteOnly, &kRandomize})
        addDefended("timing", timing, *defense);
    SweepSpec smoothTiming = timing;
    smoothTiming.patterns = {MessagePattern::Alternating};
    addDefended("timing", smoothTiming, kSmooth);

    // MT channels. Seed 9 pins the exact trial set.
    SweepSpec mt = sweep({"mt-eviction", "mt-misalignment"}, {cpu}, 9);
    mt.patterns = {MessagePattern::AllOnes};
    mt.trials = 4;
    mt.messageBits = 48;
    mt.preambleBits = 32;
    for (const Defense *defense : {&kNone, &kFlush, &kPartition})
        addDefended("mt", mt, *defense);

    // Power channels at the Table V operating point.
    SweepSpec power = sweep({"power-eviction", "power-misalignment"},
                            {cpu}, 61);
    power.trials = 3;
    power.messageBits = 12;
    power.preambleBits = 8;
    power.baseOverrides["powerRounds"] = kSimPowerRounds;
    for (const Defense *defense :
         {&kNone, &kRaplQuantum, &kRaplInterval, &kSmooth})
        addDefended("power", power, *defense);

    // Defense x environment: the flush quantum as a sweep axis
    // (0 = undefended) against co-runner intensity.
    SweepSpec interaction = sweep(
        {"nonmt-stealthy-eviction"}, {cpu}, 540, "",
        {{"defense.flush_switch_quantum", {0, 8}},
         {"env.corunner_intensity", {0.0, 0.5, 1.0}}});
    interaction.patterns = {MessagePattern::AllOnes};
    interaction.trials = 3;
    interaction.messageBits = 48;
    add("interaction", interaction);

    const Rows rows = ExperimentRunner().run(specs);
    std::map<std::string, Rows> bySection;
    for (std::size_t i = 0; i < rows.size(); ++i)
        bySection[sectionOf[i]].push_back(rows[i]);

    bench::JsonReport report("table_defenses");
    Values values = {{"error rows", static_cast<double>(std::count_if(
        rows.begin(), rows.end(), [](const ExperimentResult &res) {
            return !res.ok && !res.skipped;
        }))}};
    for (const auto &[section, sectionRows] : bySection) {
        std::printf("%s\n",
                    SweepSummarySink("Defenses: " + section + " channels")
                        .render(sectionRows).c_str());
        bench::JsonReport &cells = report.object(section + "_cells");
        for (const Cell &cell : aggregateSweep(sectionRows)) {
            cells.object(cell.label + "/" + cell.channel)
                .string("defense", cell.label)
                .string("channel", cell.channel)
                .string("pattern", cell.pattern)
                .integer("ok_trials", cell.okTrials)
                .number("error_rate_mean", error(cell))
                .number("error_rate_sd", cell.errorRate.stddev())
                .number("transmission_kbps_mean", rate(cell))
                .number("effective_kbps_mean", cell.effectiveKbps.mean())
                .number("capacity_kbps_mean", cell.capacityKbps.mean());
            values.emplace(section + "/" + cell.label + "/" + cell.channel,
                           error(cell));
        }
    }

    TraceConfig config;
    config.samples = 80;
    DefenseSpec partition;
    partition.partition.dsb = true;
    partition.partition.lsd = true;
    const FingerprintStudy plain = runFingerprintStudy(
        gold6226(), mobileWorkloads(), config, 3);
    const FingerprintStudy defended = runFingerprintStudy(
        gold6226(), mobileWorkloads(), config, 3, 1000, partition);
    bench::JsonReport &fp = report.object("fingerprint");
    fp.string("defense", "static-partition");
    fp.number("accuracy_undefended", plain.classificationAccuracy);
    fp.number("accuracy_partitioned", defended.classificationAccuracy);
    fp.number("mean_intra_undefended", plain.meanIntraDistance);
    fp.number("mean_inter_undefended", plain.meanInterDistance);
    fp.number("mean_intra_partitioned", defended.meanIntraDistance);
    fp.number("mean_inter_partitioned", defended.meanInterDistance);
    std::printf("Fingerprint classification accuracy: %.1f%% "
                "undefended vs %.1f%% under DSB/LSD "
                "partitioning (paper Sec. XI: survives)\n\n",
                plain.classificationAccuracy * 100.0,
                defended.classificationAccuracy * 100.0);
    values["fingerprint accuracy undefended"] =
        plain.classificationAccuracy;
    values["fingerprint accuracy partitioned"] =
        defended.classificationAccuracy;

    report.writeFile(benchJsonFileName("defenses"));
    std::printf("Wrote %s\n", benchJsonFileName("defenses").c_str());
    return values;
}

/** The claim that defense cell @p cell's error-rate mean is at least
 *  (@p atLeast) or at most @p bound. */
Claim
defenseError(const std::string &cell, bool atLeast, double bound)
{
    char text[160];
    std::snprintf(text, sizeof(text), "%s error %s %g%%", cell.c_str(),
                  atLeast ? ">=" : "<=", bound * 100);
    return {text, [=](const Repro &r) {
                const double err = value(r, "defenses", cell);
                return atLeast ? err >= bound : err <= bound;
            }};
}

Artifact
defenses()
{
    Artifact art = measured("defenses", "Frontend defenses vs covert "
                            "channels (Gold 6226)", measureDefenses);
    art.claims = {
        {"every trial ran or was skipped (no error rows)",
         [](const Repro &r) {
             return value(r, "defenses", "error rows") <= 0;
         }},
        // Static partitioning kills both MT channels...
        defenseError("mt/static-partition/mt-eviction", true, 0.5),
        defenseError("mt/static-partition/mt-misalignment", true, 0.5),
        // ...while the undefended cells decode, and flushing (no
        // domain switches in the MT attack) does not close them.
        defenseError("mt/none/mt-eviction", false, 0.3),
        defenseError("mt/flush-on-switch/mt-eviction", false, 0.3),
        // Flush-on-switch and MITE-only kill the stealthy non-MT
        // channel; slow-switch survives MITE-only delivery.
        defenseError("timing/none/nonmt-stealthy-eviction", false, 0.1),
        defenseError("timing/flush-on-switch/nonmt-stealthy-eviction",
                     true, 0.4),
        defenseError("timing/mite-only/nonmt-stealthy-eviction", true,
                     0.4),
        {"timing/mite-only/slow-switch error is at most 5 points above "
         "timing/none/slow-switch",
         [](const Repro &r) {
             return value(r, "defenses", "timing/mite-only/slow-switch") <=
                 value(r, "defenses", "timing/none/slow-switch") + 0.05;
         }},
        // RAPL coarsening kills the power channels.
        defenseError("power/none/power-eviction", false, 0.05),
        defenseError("power/rapl-quantize/power-eviction", true, 0.25),
        defenseError("power/rapl-coarse-interval/power-eviction", true,
                     0.25),
        {"at every co-runner intensity, a flush quantum of 8 leaves "
         "nonmt-stealthy-eviction at least the undefended error",
         [](const Repro &r) {
             const auto err = [&r](const char *quantum,
                                   const char *intensity) {
                 return value(r, "defenses",
                              std::string("interaction/defense."
                                          "flush_switch_quantum=") +
                                  quantum + " env.corunner_intensity=" +
                                  intensity + "/nonmt-stealthy-eviction");
             };
             return err("8", "0") >= err("0", "0") &&
                 err("8", "0.5") >= err("0", "0.5") &&
                 err("8", "1") >= err("0", "1");
         }},
        // Fingerprinting survives the partitioning that kills the MT
        // channels.
        {"fingerprint accuracy under static partitioning is within 5 "
         "points of undefended",
         [](const Repro &r) {
             return value(r, "defenses",
                          "fingerprint accuracy partitioned") >=
                 value(r, "defenses", "fingerprint accuracy undefended") -
                 0.05;
         }},
        {"fingerprint accuracy under static partitioning is at least 90%",
         [](const Repro &r) {
             return value(r, "defenses",
                          "fingerprint accuracy partitioned") >= 0.9;
         }},
    };
    return art;
}

/** In run order: a claim may read the results of an earlier artifact. */
std::vector<Artifact>
artifacts()
{
    return {table2(), table3(), table4(), table5(), table6(), fig8(),
            tableNoise(), ablation(), fig2(), fig4(), fig9(), fig10(),
            table7(), fig11(), fig12(), sec11b(), defenses()};
}

// ---- The generic path ----

/** "<label or channels> over <key> = v1|v2|..., n trials per cell". */
std::string
sweepTitle(const SweepSpec &spec)
{
    std::string title = spec.label;
    if (title.empty()) {
        for (const std::string &channel : spec.channels)
            title += (title.empty() ? "" : ", ") + channel;
    }
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
        title += (a ? ", " : " over ") + spec.axes[a].key + " = ";
        for (std::size_t v = 0; v < spec.axes[a].values.size(); ++v) {
            char value[32];
            std::snprintf(value, sizeof(value), "%g",
                          spec.axes[a].values[v]);
            title += (v ? "|" : "") + std::string(value);
        }
    }
    if (spec.trials > 1)
        title += ", " + std::to_string(spec.trials) + " trials per cell";
    return title;
}

/** Print @p rows: one paper-annotated trial table, or one summary per
 *  sweep (rows [ends[s-1], ends[s]) are sweep s) when any sweep has
 *  axes or several trials. */
void
render(const Artifact &art, const Rows &rows,
       const std::vector<std::size_t> &ends)
{
    const bool swept = std::any_of(art.sweeps.begin(), art.sweeps.end(),
        [](const SweepSpec &spec) {
            return !spec.axes.empty() || spec.trials > 1;
        });
    if (!swept) {
        TextTableSink text("Sim value (paper value)");
        for (const PaperCell &cell : art.paper)
            text.annotatePaper(cell.label, cell.cpu, cell.values);
        std::printf("%s\n", text.render(rows).c_str());
        return;
    }
    for (std::size_t s = 0, begin = 0; s < art.sweeps.size();
         begin = ends[s++]) {
        const Rows slice(rows.begin() + static_cast<std::ptrdiff_t>(begin),
                         rows.begin() + static_cast<std::ptrdiff_t>(ends[s]));
        std::printf("%s\n", SweepSummarySink(sweepTitle(art.sweeps[s]))
                                .render(slice).c_str());
    }
}

/** Run @p art's sweeps as one runner batch, print them and write
 *  BENCH_<stem>.json. */
Rows
runSweeps(const Artifact &art)
{
    std::vector<ExperimentSpec> specs;
    std::vector<std::size_t> ends;
    for (const SweepSpec &spec : art.sweeps) {
        for (ExperimentSpec &trial : expandSweep(spec))
            specs.push_back(std::move(trial));
        ends.push_back(specs.size());
    }
    const Rows rows = ExperimentRunner().run(specs);
    render(art, rows, ends);
    const std::string path = benchJsonFileName(art.stem);
    JsonSink(art.benchmark).writeFile(rows, path);
    std::printf("Wrote %s\n", path.c_str());
    return rows;
}

} // namespace

int
main()
{
    Repro repro;
    int claims = 0;
    int failed = 0;
    const auto report = [&](const std::string &stem,
                            const std::string &text, bool ok) {
        std::printf("%s %s: %s\n", ok ? "PASS" : "FAIL", stem.c_str(),
                    text.c_str());
        ++claims;
        failed += ok ? 0 : 1;
    };
    for (const Artifact &art : artifacts()) {
        bench::banner(art.title.c_str());
        Results &results = repro[art.stem];
        if (art.measure) {
            results.values = art.measure();
        } else {
            results.rows = runSweeps(art);
            report(art.stem, "every trial ran or was skipped (no error rows)",
                   std::all_of(results.rows.begin(), results.rows.end(),
                               [](const ExperimentResult &res) {
                                   return res.ok || res.skipped;
                               }));
        }
        for (const Claim &claim : art.claims)
            report(art.stem, claim.text, claim.holds(repro));
        for (const std::string &gap : art.gaps)
            std::printf("note %s: fidelity gap: %s\n", art.stem.c_str(),
                        gap.c_str());
        std::printf("\n");
    }
    std::printf("lf_repro: %d of %d claims failed\n", failed, claims);
    return failed == 0 ? 0 : 1;
}
