/**
 * @file
 * Shared declarations of the perfbench binary: the workload
 * interface, one repetition's outcome, and the span analysis of the
 * traced pass.
 *
 * The binary links the library and calls only its public functions.
 * Nothing under src/ is instrumented for it: the traced pass records
 * its own spans around the public calls it makes (through the
 * library's obs trace API, so they share one timeline with the
 * trial-phase spans the runner already records), and reads exact
 * counts from existing public outputs.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/** Input sizes. Full is what the benchmark measures; Small is the
 *  reduced size the benchmark's own test runs. */
enum class Size
{
    Full,
    Small,
};

/** What one repetition of a workload produced. */
struct Outcome
{
    double wallS = 0.0;  //!< Timed phase, host seconds.
    /** FNV-1a 64 of the workload's output bytes, hex. */
    std::string digest;
    /** Exact simulated statistics: must repeat bit for bit across
     *  repetitions, passes and commits that leave the model alone. */
    std::map<std::string, double> exact;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** First few failure reasons, for the report. */
    std::vector<std::string> failures;
    /** Deterministic simulated cycles behind sim_mcycles_per_s. */
    double simCycles = 0.0;
    /** Per-layer metrics (traced pass only). */
    std::map<std::string, double> layers;
    /** Total and self milliseconds per span name (traced pass). */
    std::map<std::string, double> spanMs;
    std::map<std::string, double> selfMs;

    /** Fail @p rows more operations, but never more than are
     *  attempted and not failed yet: set #attempted first. */
    void fail(const std::string &reason, std::uint64_t rows = 1);
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Everything before the first timed trial; timed as setup_s.
     *  Called before every repetition, and on its own several times
     *  more. @p workDir is a fresh directory for this repetition. */
    virtual void setup(const std::string &workDir) = 0;

    /** The timed phase plus its checks. @p traced records spans and
     *  fills Outcome::layers. */
    virtual Outcome run(bool traced) = 0;
};

std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed, Size size);

/** @name Span analysis of the traced pass */
/// @{
/** One complete span from the library's trace rings. */
struct Span
{
    std::string name;
    std::uint64_t tid = 0;
    std::uint64_t startUs = 0;
    std::uint64_t durUs = 0;
    std::uint64_t arg = 0;
    bool hasArg = false;
};

/** Drain the library's trace rings into spans (complete events only)
 *  and clear them. */
std::vector<Span> collectSpans();

/** Total and self time (span minus its direct children on the same
 *  thread), in milliseconds, summed per span name. */
void spanTotals(const std::vector<Span> &spans,
                std::map<std::string, double> &totalMs,
                std::map<std::string, double> &selfMs);

/** The spans named @p name. */
std::vector<const Span *> spansNamed(const std::vector<Span> &spans,
                                     const std::string &name);

/** Sum and mean of the durations of @p spans, in microseconds. */
double sumUs(const std::vector<const Span *> &spans);
double meanUs(const std::vector<const Span *> &spans);
/// @}

/** Seconds a fixed, library-independent probe took just now (see
 *  probe.cc); throws if the probe could not run. */
double hostProbeS();

/** FNV-1a 64 of @p bytes as 16 hex digits. */
std::string digestOf(const std::string &bytes);

/** Monotonic host time in seconds. */
double nowS();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
