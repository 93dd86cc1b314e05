/**
 * @file
 * Span analysis for the traced pass: parse the library's Chrome
 * trace rendering back into spans and derive self time.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "bench.hh"
#include "campaign/grid_hash.hh"
#include "obs/trace.hh"

namespace perfbench {

namespace {

/** The unsigned integer after @p key inside [@p from, @p to), if
 *  present. */
bool
numberAfter(const std::string &text, const char *key, std::size_t from,
            std::size_t to, std::uint64_t &out)
{
    const std::size_t at = text.find(key, from);
    if (at == std::string::npos || at >= to)
        return false;
    out = std::strtoull(text.c_str() + at + std::strlen(key), nullptr,
                        10);
    return true;
}

} // namespace

void
Outcome::fail(const std::string &reason, std::uint64_t rows)
{
    failed += std::min(rows, attempted - failed);
    if (failures.size() < 8)
        failures.push_back(reason);
}

std::vector<Span>
collectSpans()
{
    // renderTraceJson() is the rings' only public read-out; its event
    // objects are flat apart from "args", so each event is the text
    // between one `{"name":"` and the next.
    const std::string json = lf::obs::renderTraceJson();
    lf::obs::clearTrace();
    static const char kOpen[] = "{\"name\":\"";
    std::vector<Span> spans;
    std::size_t at = json.find(kOpen);
    while (at != std::string::npos) {
        const std::size_t name_begin = at + sizeof kOpen - 1;
        const std::size_t name_end = json.find('"', name_begin);
        std::size_t next = json.find(kOpen, name_end);
        const std::size_t end =
            next == std::string::npos ? json.size() : next;
        if (json.compare(json.find("\"ph\":\"", name_end) + 6, 1, "X") ==
            0) {
            Span span;
            span.name = json.substr(name_begin, name_end - name_begin);
            numberAfter(json, "\"tid\":", name_end, end, span.tid);
            numberAfter(json, "\"ts\":", name_end, end, span.startUs);
            numberAfter(json, "\"dur\":", name_end, end, span.durUs);
            span.hasArg =
                numberAfter(json, "\"v\":", name_end, end, span.arg);
            spans.push_back(std::move(span));
        }
        at = next;
    }
    return spans;
}

void
spanTotals(const std::vector<Span> &spans,
           std::map<std::string, double> &totalMs,
           std::map<std::string, double> &selfMs)
{
    // Per thread, walk spans in start order (outer first on ties) with
    // a stack of open ancestors; a span's self time is its duration
    // minus the durations of the spans directly inside it.
    std::vector<const Span *> order;
    for (const Span &s : spans)
        order.push_back(&s);
    std::sort(order.begin(), order.end(),
              [](const Span *a, const Span *b) {
                  if (a->tid != b->tid)
                      return a->tid < b->tid;
                  if (a->startUs != b->startUs)
                      return a->startUs < b->startUs;
                  return a->durUs > b->durUs;
              });
    std::map<const Span *, double> self;
    std::vector<const Span *> open;
    for (const Span *s : order) {
        while (!open.empty() &&
               (open.back()->tid != s->tid ||
                open.back()->startUs + open.back()->durUs <=
                    s->startUs)) {
            open.pop_back();
        }
        self[s] += static_cast<double>(s->durUs);
        if (!open.empty())
            self[open.back()] -= static_cast<double>(s->durUs);
        open.push_back(s);
    }
    for (const auto &[span, us] : self) {
        totalMs[span->name] += static_cast<double>(span->durUs) / 1e3;
        selfMs[span->name] += us / 1e3;
    }
}

std::vector<const Span *>
spansNamed(const std::vector<Span> &spans, const std::string &name)
{
    std::vector<const Span *> out;
    for (const Span &s : spans) {
        if (s.name == name)
            out.push_back(&s);
    }
    return out;
}

double
sumUs(const std::vector<const Span *> &spans)
{
    double total = 0.0;
    for (const Span *s : spans)
        total += static_cast<double>(s->durUs);
    return total;
}

double
meanUs(const std::vector<const Span *> &spans)
{
    return spans.empty() ? 0.0
                         : sumUs(spans) / static_cast<double>(spans.size());
}

std::string
digestOf(const std::string &bytes)
{
    return lf::hashHex(lf::fnv1a64(bytes));
}

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace perfbench
