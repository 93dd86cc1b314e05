/**
 * @file
 * Boundary specs: every override key set to 0, 1, 2, 31, 255, -1 and
 * 0.5, on one channel per family on E-2174G (4-bit messages, 1
 * trial), run through ExperimentRunner with no up-front validation.
 * No spec may abort the process, every row is ok, skipped, or an
 * error with a reason, and the JSON bytes are the same at 1 and 4
 * threads. 65536 is left out: there N, rounds, preambleBits and the
 * like are legal workloads that take many seconds each.
 */

#include <gtest/gtest.h>

#include "run/runner.hh"
#include "run/sinks.hh"

namespace lf {
namespace {

TEST(BoundarySpecs, EveryRowIsOkSkippedOrAnErrorAtAnyThreadCount)
{
    std::vector<ExperimentSpec> specs;
    ExperimentSpec spec;
    spec.cpu = "E-2174G";
    spec.messageBits = 4;
    for (const auto &keys : {channelOverrideKeys(), modelOverrideKeys(),
                             envOverrideKeys(), defenseOverrideKeys()}) {
        for (const char *channel :
             {"nonmt-fast-eviction", "nonmt-stealthy-misalignment",
              "mt-eviction", "slow-switch", "power-eviction",
              "sgx-nonmt-fast-eviction", "sgx-mt-eviction"}) {
            spec.channel = channel;
            for (const std::string &key : keys) {
                for (const double value : {0.0, 1.0, 2.0, 31.0, 255.0,
                                           -1.0, 0.5}) {
                    spec.overrides = {{key, value}};
                    specs.push_back(spec);
                }
            }
        }
    }

    const std::vector<ExperimentResult> serial =
        ExperimentRunner(1).run(specs);
    for (const ExperimentResult &res : serial) {
        EXPECT_TRUE(res.ok || res.skipped || !res.error.empty())
            << res.spec.channel << " " << res.spec.overrides.begin()->first
            << "=" << res.spec.overrides.begin()->second;
    }
    EXPECT_EQ(JsonSink("boundary").render(ExperimentRunner(4).run(specs)),
              JsonSink("boundary").render(serial));
}

} // namespace
} // namespace lf
