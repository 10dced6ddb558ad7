#include "trace_attr.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <set>

namespace perfbench {

namespace {

/** Number after `"key":` inside [pos, end), or NaN. */
double
number_after(const std::string &json, const char *key, size_t pos,
             size_t end)
{
    size_t at = json.find(key, pos);
    if (at == std::string::npos || at >= end)
        return std::nan("");
    return std::strtod(json.c_str() + at + std::strlen(key), nullptr);
}

} // namespace

std::vector<SpanEvent>
parse_chrome_trace(const std::string &json)
{
    std::vector<SpanEvent> events;
    const std::string open = "{\"name\":\"";
    size_t pos = json.find(open);
    while (pos != std::string::npos) {
        size_t next = json.find(open, pos + open.size());
        size_t end = next == std::string::npos ? json.size() : next;
        size_t name_begin = pos + open.size();
        size_t name_end = json.find('"', name_begin);
        if (name_end == std::string::npos)
            break;
        bool complete =
            json.compare(name_end, 10, "\",\"ph\":\"X\"") == 0;
        if (complete) {
            SpanEvent ev;
            ev.name = json.substr(name_begin, name_end - name_begin);
            ev.tid = static_cast<int>(
                number_after(json, "\"tid\":", name_end, end));
            ev.ts_us = number_after(json, "\"ts\":", name_end, end);
            ev.dur_us = number_after(json, "\"dur\":", name_end, end);
            if (std::isfinite(ev.ts_us) && std::isfinite(ev.dur_us))
                events.push_back(std::move(ev));
        }
        pos = next;
    }
    return events;
}

double
LayerTimes::self(const std::string &label) const
{
    auto it = self_s.find(label);
    return it == self_s.end() ? 0.0 : it->second;
}

double
LayerTimes::inclusive(const std::string &label) const
{
    auto it = inclusive_s.find(label);
    return it == inclusive_s.end() ? 0.0 : it->second;
}

double
LayerTimes::total_self() const
{
    double total = 0.0;
    for (const auto &[label, s] : self_s)
        total += s;
    return total;
}

void
LayerTimes::add(const LayerTimes &other)
{
    for (const auto &[label, s] : other.self_s)
        self_s[label] += s;
    for (const auto &[label, s] : other.inclusive_s)
        inclusive_s[label] += s;
    for (const auto &[label, n] : other.count)
        count[label] += n;
}

LayerTimes
attribute(const std::vector<SpanEvent> &events, const std::string &root)
{
    std::set<int> tuning_tids;
    for (const SpanEvent &ev : events)
        if (ev.name == root)
            tuning_tids.insert(ev.tid);

    // The export prints timestamps with six significant digits, so
    // interval ends are fuzzy by about 1e-5 of the largest stamp.
    double max_ts = 1.0;
    for (const SpanEvent &ev : events)
        max_ts = std::max(max_ts, ev.ts_us + ev.dur_us);
    const double tol = max_ts * 1e-5;

    LayerTimes out;
    for (int tid : tuning_tids) {
        std::vector<const SpanEvent *> spans;
        for (const SpanEvent &ev : events)
            if (ev.tid == tid)
                spans.push_back(&ev);
        // Parents before children: earlier start first, and the
        // longer span first when two start together.
        std::sort(spans.begin(), spans.end(),
                  [](const SpanEvent *a, const SpanEvent *b) {
                      if (a->ts_us != b->ts_us)
                          return a->ts_us < b->ts_us;
                      return a->dur_us > b->dur_us;
                  });

        struct Open {
            const SpanEvent *ev;
            double child_us;
        };
        std::vector<Open> stack;
        auto close = [&] {
            const Open &top = stack.back();
            out.self_s[top.ev->name] +=
                (top.ev->dur_us - top.child_us) / 1e6;
            out.inclusive_s[top.ev->name] += top.ev->dur_us / 1e6;
            ++out.count[top.ev->name];
            stack.pop_back();
            if (!stack.empty())
                stack.back().child_us += top.ev->dur_us;
        };
        for (const SpanEvent *ev : spans) {
            double end = ev->ts_us + ev->dur_us;
            while (!stack.empty()) {
                const SpanEvent *top = stack.back().ev;
                if (ev->ts_us >= top->ts_us - tol &&
                    end <= top->ts_us + top->dur_us + tol)
                    break;
                close();
            }
            // Only spans under a root span belong to a tune.
            if (stack.empty() && ev->name != root)
                continue;
            stack.push_back({ev, 0.0});
        }
        while (!stack.empty())
            close();
    }
    return out;
}

} // namespace perfbench
