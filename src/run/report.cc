#include "run/report.hh"

#include <cstdio>
#include <fstream>

#include "common/logging.hh"
#include "run/sinks.hh"

namespace lf {
namespace bench {

namespace {

// jsonNumber()/jsonString() come from run/sinks.hh: one definition
// of the BENCH_*.json value format for both emitters.

std::string
jsonNumberArray(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? "," : "") + jsonNumber(values[i]);
    return out + "]";
}

} // namespace

void
banner(const char *title)
{
    std::printf("==============================================\n");
    std::printf("%s\n", title);
    std::printf("==============================================\n");
}

int
shapeCheck(const char *what, bool ok)
{
    std::printf("Shape check (%s): %s\n", what, ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}

JsonReport::JsonReport(const std::string &benchmark)
{
    if (!benchmark.empty())
        string("benchmark", benchmark);
}

JsonReport &
JsonReport::field(const std::string &key, std::string rendered)
{
    fields_.push_back({key, std::move(rendered), nullptr});
    return *this;
}

JsonReport &
JsonReport::number(const std::string &key, double value)
{
    return field(key, jsonNumber(value));
}

JsonReport &
JsonReport::nullValue(const std::string &key)
{
    return field(key, "null");
}

JsonReport &
JsonReport::integer(const std::string &key, long long value)
{
    return field(key, std::to_string(value));
}

JsonReport &
JsonReport::boolean(const std::string &key, bool value)
{
    return field(key, value ? "true" : "false");
}

JsonReport &
JsonReport::string(const std::string &key, const std::string &value)
{
    return field(key, jsonString(value));
}

JsonReport &
JsonReport::numberArray(const std::string &key,
                        const std::vector<double> &values)
{
    return field(key, jsonNumberArray(values));
}

JsonReport &
JsonReport::stringArray(const std::string &key,
                        const std::vector<std::string> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? "," : "") + jsonString(values[i]);
    return field(key, out + "]");
}

JsonReport &
JsonReport::numberMatrix(const std::string &key,
                         const std::vector<std::vector<double>> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? "," : "") + jsonNumberArray(values[i]);
    return field(key, out + "]");
}

JsonReport &
JsonReport::object(const std::string &key)
{
    fields_.push_back({key, "", std::make_unique<JsonReport>()});
    return *fields_.back().child;
}

std::string
JsonReport::render() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
        const Field &f = fields_[i];
        out += (i ? "," : "") + jsonString(f.key) + ":" +
            (f.child ? f.child->render() : f.rendered);
    }
    return out + "}";
}

void
JsonReport::writeFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        lf_fatal("cannot open %s for writing", path.c_str());
    os << render() << "\n";
    if (!os.good())
        lf_fatal("write to %s failed", path.c_str());
}

} // namespace bench
} // namespace lf
