/**
 * @file
 * Fig. 9: package power histogram for micro-op delivery via LSD, DSB,
 * or MITE+DSB (Gold 6226), sampled through the simulated RAPL
 * interface at its native update interval.
 *
 * Expected shape: LSD lowest (~52 W), DSB middle (~57 W), MITE+DSB
 * highest (~65 W) — the separations the power channels decode.
 */

#include <cstdio>

#include "common/stats.hh"
#include "common/table.hh"
#include "isa/mix_block.hh"
#include "run/report.hh"
#include "sim/core.hh"
#include "sim/cpu_model.hh"
#include "sim/executor.hh"
#include "sim/period_skip.hh"

using namespace lf;

namespace {

Histogram
powerSamples(const CpuModel &model, int blocks, std::uint64_t seed)
{
    Core core(model, seed);
    std::vector<BlockSpec> specs;
    for (int i = 0; i < blocks; ++i)
        specs.push_back({i, false});
    const auto chain = buildMixBlockChain(0x400000, 5, specs);
    core.setProgram(0, &chain.program);
    runLoopIters(core, 0, chain, 50); // warm up

    // Sample average power over RAPL update windows.
    Histogram hist(40.0, 80.0, 80);
    const Cycles window = 150000;
    std::vector<Cycles> none;
    for (int s = 0; s < 400; ++s) {
        const MicroJoules e0 = core.readRapl();
        const Cycles c0 = core.cycle();
        // One loop iteration per round, so whole repeating periods
        // of the window are skipped (sim/period_skip.hh).
        runRounds(core, window / 10, none, [&](std::vector<Cycles> &) {
            runLoopIters(core, 0, chain, 1);
        });
        const MicroJoules e1 = core.readRapl();
        const double seconds =
            core.secondsOf(static_cast<double>(core.cycle() - c0));
        hist.add((e1 - e0) * 1e-6 / seconds);
    }
    return hist;
}

} // namespace

int
main()
{
    bench::banner("Fig. 9 — power histogram per frontend path "
                  "(Gold 6226)");

    // LSD: 8-block loop on the LSD-enabled model.
    const Histogram lsd = powerSamples(gold6226(), 8, 31);

    // DSB: same loop with LSD fused off.
    CpuModel no_lsd = gold6226();
    no_lsd.frontend.lsdEnabled = false;
    const Histogram dsb = powerSamples(no_lsd, 8, 32);

    // MITE+DSB: 9-block alias thrash.
    const Histogram mite = powerSamples(gold6226(), 9, 33);

    std::printf("\nLSD delivery (watts):\n%s\n", lsd.render().c_str());
    std::printf("DSB delivery (watts):\n%s\n", dsb.render().c_str());
    std::printf("MITE+DSB delivery (watts):\n%s\n",
                mite.render().c_str());

    TextTable summary("Average package power (W)");
    summary.setHeader({"Path", "Mean W (sim)", "Paper Fig. 9 (approx)"});
    summary.addRow({"LSD", formatFixed(lsd.mean()), "~52"});
    summary.addRow({"DSB", formatFixed(dsb.mean()), "~57"});
    summary.addRow({"MITE+DSB", formatFixed(mite.mean()), "~65"});
    std::printf("%s\n", summary.render().c_str());

    return bench::shapeCheck("LSD < DSB < MITE+DSB",
                             lsd.mean() < dsb.mean() &&
                                 dsb.mean() < mite.mean());
}
