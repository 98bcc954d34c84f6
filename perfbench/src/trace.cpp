#include "bench.hpp"

#include "socgen/common/textfile.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>

namespace perfbench {

// -----------------------------------------------------------------------------
// Tracer

std::uint32_t Tracer::threadIndex() {
    const std::uint64_t key = std::hash<std::thread::id>{}(std::this_thread::get_id());
    const auto it = threads_.find(key);
    if (it != threads_.end()) {
        return it->second;
    }
    const auto index = static_cast<std::uint32_t>(threads_.size());
    threads_.emplace(key, index);
    return index;
}

Tracer::SpanId Tracer::open(std::string name, std::uint64_t op, SpanId parent,
                            TimePoint begin) {
    if (!enabled_) {
        return kNone;
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{std::move(name), op, parent, sinceEpochUs(begin), -1.0,
                          threadIndex()});
    return static_cast<SpanId>(spans_.size() - 1);
}

void Tracer::close(SpanId id, TimePoint end) {
    if (!enabled_ || id == kNone) {
        return;
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].endUs = sinceEpochUs(end);
}

Tracer::SpanId Tracer::record(std::string name, std::uint64_t op, SpanId parent,
                              TimePoint begin, TimePoint end) {
    const SpanId id = open(std::move(name), op, parent, begin);
    close(id, end);
    return id;
}

std::map<std::string, double> Tracer::selfTimesUs() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
    for (const Span& s : spans_) {
        if (s.parent != kNone && s.endUs >= 0.0) {
            children[static_cast<std::size_t>(s.parent)].emplace_back(s.beginUs, s.endUs);
        }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (s.endUs < 0.0) {
            continue;
        }
        // Union of the children's intervals, clipped to this span.
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double runBegin = 0.0;
        double runEnd = -1.0;
        for (const auto& [b0, e0] : kids) {
            const double b = std::max(b0, s.beginUs);
            const double e = std::min(e0, s.endUs);
            if (e <= b) {
                continue;
            }
            if (b > runEnd) {
                covered += std::max(0.0, runEnd - runBegin);
                runBegin = b;
                runEnd = e;
            } else {
                runEnd = std::max(runEnd, e);
            }
        }
        covered += std::max(0.0, runEnd - runBegin);
        self[s.name] += (s.endUs - s.beginUs) - covered;
    }
    return self;
}

std::map<std::string, double> Tracer::totalTimesUs() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, double> total;
    for (const Span& s : spans_) {
        if (s.endUs >= 0.0) {
            total[s.name] += s.endUs - s.beginUs;
        }
    }
    return total;
}

void Tracer::writeChromeJson(const std::string& path) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    char line[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (s.endUs < 0.0) {
            continue;
        }
        std::snprintf(line, sizeof line,
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                      "\"dur\":%.3f,\"args\":{\"op\":%llu,\"span\":%zu,\"parent\":%lld}}",
                      i == 0 ? "" : ",\n", s.name.c_str(), s.tid, s.beginUs,
                      s.endUs - s.beginUs, static_cast<unsigned long long>(s.op), i,
                      static_cast<long long>(s.parent));
        out += line;
    }
    out += "\n]}\n";
    socgen::writeFileAtomic(path, out);
}

// -----------------------------------------------------------------------------
// StageRecorder

std::string StageRecorder::stageKind(const std::string& stage) {
    return stage.rfind("hls:", 0) == 0 ? std::string("hls") : stage;
}

void StageRecorder::setScope(std::uint64_t op, Tracer::SpanId parent) {
    const std::lock_guard<std::mutex> lock(mutex_);
    op_ = op;
    parent_ = parent;
    open_.clear();
}

void StageRecorder::onEvent(const socgen::core::FlowEvent& event) {
    using socgen::core::FlowEventKind;
    const TimePoint now = Clock::now();
    const std::lock_guard<std::mutex> lock(mutex_);
    switch (event.kind) {
    case FlowEventKind::StageBegin:
        if (recordSpans_) {
            open_[event.stage] =
                tracer_.open("core.stage." + stageKind(event.stage), op_, parent_, now);
        }
        break;
    case FlowEventKind::StageCommit:
    case FlowEventKind::StageDegraded:
    case FlowEventKind::StageFailed: {
        hostMs_[stageKind(event.stage)] += event.hostMs;
        const auto it = open_.find(event.stage);
        if (it != open_.end()) {
            tracer_.close(it->second, now);
            open_.erase(it);
        }
        break;
    }
    case FlowEventKind::CacheHit:
    case FlowEventKind::StoreHit:
        ++reuse_;
        break;
    default:
        break;
    }
}

std::size_t StageRecorder::reuseEvents() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return reuse_;
}

std::map<std::string, double> StageRecorder::stageHostMs() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return hostMs_;
}

// -----------------------------------------------------------------------------

void addSpanLayers(const Tracer& tracer, std::size_t ops,
                   std::map<std::string, double>& layers) {
    if (ops == 0) {
        return;
    }
    const double n = static_cast<double>(ops);
    for (const auto& [name, us] : tracer.selfTimesUs()) {
        std::string metric;
        if (name == "op") {
            metric = "trace.other.us";
        } else if (name == "core.flow") {
            metric = "core.flow.self_us";
        } else if (name == "soc.board.build") {
            metric = "soc.board.build_us";
        } else if (name == "soc.board.run") {
            metric = "soc.board.run_us";
        } else if (name.rfind("core.", 0) == 0 || name.rfind("hls.", 0) == 0 ||
                   name.rfind("rtl.", 0) == 0) {
            metric = name + ".us";
        }
        if (!metric.empty() && name != "hls.replay") {
            layers[metric] = us / n;
        }
    }
    const auto totals = tracer.totalTimesUs();
    if (const auto it = totals.find("op"); it != totals.end()) {
        layers["trace.op.us"] = it->second / n;
    }
}

} // namespace perfbench
