/**
 * @file
 * Small reporting helpers shared by the bench binaries: a section
 * banner, a PASS/FAIL shape-check line, and a JSON writer for named
 * metrics. The result-batch plumbing lives in sweep.hh/sinks.hh.
 */

#ifndef LF_RUN_REPORT_HH
#define LF_RUN_REPORT_HH

#include <memory>
#include <string>
#include <vector>

namespace lf {
namespace bench {

/** Section banner on stdout. */
void banner(const char *title);

/** Print "Shape check (<what>): PASS|FAIL" and return the bench exit
 *  code (0 on pass, 1 on fail). */
int shapeCheck(const char *what, bool ok);

/**
 * Minimal ordered JSON-object writer for the measurement-style
 * benches (the fingerprint figures, the defense study) whose outputs
 * are named metrics rather than ExperimentResult batches — those keep
 * using JsonSink. Values render with the sinks' round-trip-exact
 * number format, so BENCH_*.json files stay byte-stable run to run.
 *
 *   JsonReport report("fig12");
 *   report.number("mean_intra_distance", study.meanIntraDistance);
 *   report.numberArray("trace", trace);
 *   JsonReport &nested = report.object("accuracy");
 *   nested.number("defended", 0.97);
 *   report.writeFile(benchJsonFileName("fig12"));
 */
class JsonReport
{
  public:
    /** @param benchmark Top-level "benchmark" field value; nested
     *  objects pass the empty string. */
    explicit JsonReport(const std::string &benchmark = "");

    JsonReport &number(const std::string &key, double value);
    /** A JSON null — "this metric was not measurable here" (e.g.
     *  thread-scaling ratios on hosts with too few cores), as opposed
     *  to a measured zero. */
    JsonReport &nullValue(const std::string &key);
    JsonReport &integer(const std::string &key, long long value);
    JsonReport &boolean(const std::string &key, bool value);
    JsonReport &string(const std::string &key,
                       const std::string &value);
    JsonReport &numberArray(const std::string &key,
                            const std::vector<double> &values);
    JsonReport &stringArray(const std::string &key,
                            const std::vector<std::string> &values);
    /** 2-D number array (e.g. a distance matrix). */
    JsonReport &numberMatrix(
        const std::string &key,
        const std::vector<std::vector<double>> &values);

    /** Add a nested object field and return a writer for it (valid
     *  until the next mutation of this report). */
    JsonReport &object(const std::string &key);

    /** The serialized object. */
    std::string render() const;

    /** render() to @p path; fatal on I/O failure. */
    void writeFile(const std::string &path) const;

  private:
    JsonReport &field(const std::string &key, std::string rendered);

    struct Field
    {
        std::string key;
        std::string rendered;   //!< Empty for nested objects.
        std::unique_ptr<JsonReport> child;
    };

    std::vector<Field> fields_;
};

} // namespace bench
} // namespace lf

#endif // LF_RUN_REPORT_HH
