#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace benchsuite {

Tracer::Tracer() : m_epoch(clock::now()) {}

double Tracer::now() const {
    return std::chrono::duration<double>(clock::now() - m_epoch).count();
}

std::int64_t Tracer::begin(const std::string& name, const std::string& layer,
                           std::int64_t parent, std::int64_t trace_id) {
    const double t = now();
    std::lock_guard<std::mutex> lk(m_mutex);
    Span s;
    s.id = m_next++;
    s.parent = parent;
    s.trace_id = trace_id;
    s.name = name;
    s.layer = layer;
    s.t0 = s.t1 = t;
    m_open[s.id] = m_spans.size();
    m_spans.push_back(std::move(s));
    return m_spans.back().id;
}

void Tracer::end(std::int64_t id) {
    const double t = now();
    std::lock_guard<std::mutex> lk(m_mutex);
    auto it = m_open.find(id);
    if (it == m_open.end()) return;
    m_spans[it->second].t1 = t;
    m_open.erase(it);
}

std::int64_t Tracer::add(const std::string& name, const std::string& layer,
                         std::int64_t parent, std::int64_t trace_id, double t0,
                         double t1, bool derived) {
    std::lock_guard<std::mutex> lk(m_mutex);
    Span s;
    s.id = m_next++;
    s.parent = parent;
    s.trace_id = trace_id;
    s.name = name;
    s.layer = layer;
    s.t0 = t0;
    s.t1 = t1;
    s.derived = derived;
    m_spans.push_back(std::move(s));
    return m_spans.back().id;
}

std::vector<Span> Tracer::spans() const {
    std::lock_guard<std::mutex> lk(m_mutex);
    return m_spans;
}

std::map<std::string, double> Tracer::selfTimeByLayer() const {
    const std::vector<Span> all = spans();
    std::map<std::int64_t, double> child_cover;
    std::map<std::int64_t, const Span*> by_id;
    for (const Span& s : all) by_id[s.id] = &s;
    for (const Span& s : all) {
        if (s.parent == 0) continue;
        auto p = by_id.find(s.parent);
        if (p == by_id.end()) continue;
        // Only the part of the child inside its parent's interval counts.
        const double lo = std::max(s.t0, p->second->t0);
        const double hi = std::min(s.t1, p->second->t1);
        if (hi > lo) child_cover[s.parent] += hi - lo;
    }
    std::map<std::string, double> self;
    for (const Span& s : all) {
        const double d = s.t1 - s.t0;
        const double c = child_cover.count(s.id) ? child_cover[s.id] : 0.0;
        self[s.layer] += std::max(0.0, d - c);
    }
    return self;
}

namespace {
std::string jsonEscape(const std::string& s) {
    std::string o;
    for (char c : s) {
        if (c == '"' || c == '\\') o += '\\';
        o += c;
    }
    return o;
}
} // namespace

bool Tracer::writeJson(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    const std::vector<Span> all = spans();
    os << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span& s = all[i];
        char buf[160];
        std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f", s.t0 * 1e6,
                      (s.t1 - s.t0) * 1e6);
        os << "{\"name\":\"" << jsonEscape(s.name) << "\",\"cat\":\""
           << jsonEscape(s.layer) << "\",\"ph\":\"X\"," << buf
           << ",\"pid\":1,\"tid\":" << s.trace_id << ",\"args\":{\"id\":" << s.id
           << ",\"parent\":" << s.parent << ",\"derived\":"
           << (s.derived ? "true" : "false") << "}}"
           << (i + 1 < all.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    return static_cast<bool>(os);
}

const std::vector<std::pair<std::string, std::string>>& regionLayers() {
    static const std::vector<std::pair<std::string, std::string>> k = {
        {"castro::hydro", "castro"},
        {"castro::react", "microphysics"},
        {"castro::gravity", "castro"},
        {"gravity/amr-solve", "castro"},
        {"mg/solve", "solvers"},
        {"maestro::advect", "maestro"},
        {"maestro::buoyancy", "maestro"},
        {"maestro::react", "microphysics"},
        {"maestro::projection", "solvers"},
    };
    return k;
}

void addRegionSpans(Tracer& tr, std::int64_t parent, std::int64_t trace_id,
                    double t0, const std::map<std::string, double>& before,
                    const std::map<std::string, double>& after) {
    auto delta = [&](const std::string& r) {
        const auto a = after.find(r);
        const auto b = before.find(r);
        const double va = a == after.end() ? 0.0 : a->second;
        const double vb = b == before.end() ? 0.0 : b->second;
        return std::max(0.0, va - vb);
    };
    // Nested chain: castro::gravity > gravity/amr-solve > mg/solve. Regions
    // outside the chain are siblings laid out back to back.
    static const std::map<std::string, std::string> nested_in = {
        {"gravity/amr-solve", "castro::gravity"},
        {"mg/solve", "gravity/amr-solve"},
    };
    std::map<std::string, std::pair<std::int64_t, std::pair<double, double>>> placed;
    double cursor = t0;
    for (const auto& [region, layer] : regionLayers()) {
        double d = delta(region);
        if (d <= 0.0) continue;
        std::int64_t par = parent;
        double start = cursor;
        auto n = nested_in.find(region);
        if (n != nested_in.end()) {
            auto p = placed.find(n->second);
            if (p != placed.end()) {
                par = p->second.first;
                start = p->second.second.first;
                d = std::min(d, p->second.second.second - start);
            }
        }
        const std::int64_t id =
            tr.add(region, layer, par, trace_id, start, start + d, true);
        placed[region] = {id, {start, start + d}};
        if (par == parent) cursor = start + d;
    }
}

} // namespace benchsuite
