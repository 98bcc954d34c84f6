#include "socgen/core/stage_graph.hpp"

#include "socgen/common/error.hpp"
#include "socgen/common/log.hpp"
#include "socgen/common/stopwatch.hpp"
#include "socgen/common/strings.hpp"

#include <atomic>
#include <future>
#include <memory>
#include <thread>

namespace socgen::core {

// ---------------------------------------------------------------------------
// StageGraph

Stage& StageGraph::add(Stage stage) {
    if (stage.name.empty()) {
        throw StageGraphError("stage with an empty name");
    }
    if (index_.count(stage.name) > 0) {
        throw StageGraphError("duplicate stage \"" + stage.name + "\"");
    }
    index_.emplace(stage.name, stages_.size());
    stages_.push_back(std::move(stage));
    return stages_.back();
}

bool StageGraph::has(const std::string& name) const {
    return index_.count(name) > 0;
}

std::vector<std::size_t> StageGraph::topologicalOrder() const {
    const std::size_t n = stages_.size();
    std::vector<std::size_t> inDegree(n, 0);
    std::vector<std::vector<std::size_t>> dependents(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (const std::string& dep : stages_[i].deps) {
            const auto it = index_.find(dep);
            if (it == index_.end()) {
                throw StageGraphError(format("stage \"%s\" depends on unknown stage "
                                             "\"%s\"",
                                             stages_[i].name.c_str(), dep.c_str()));
            }
            dependents[it->second].push_back(i);
            ++inDegree[i];
        }
    }
    // Kahn's algorithm with an insertion-ordered ready scan: the lowest
    // insertion index among ready stages goes next, making the order a
    // deterministic function of the graph alone.
    std::vector<std::size_t> order;
    order.reserve(n);
    std::vector<char> emitted(n, 0);
    for (std::size_t produced = 0; produced < n; ++produced) {
        std::size_t pick = n;
        for (std::size_t i = 0; i < n; ++i) {
            if (!emitted[i] && inDegree[i] == 0) {
                pick = i;
                break;
            }
        }
        if (pick == n) {
            std::string cycle;
            for (std::size_t i = 0; i < n; ++i) {
                if (!emitted[i]) {
                    cycle += cycle.empty() ? "" : ", ";
                    cycle += stages_[i].name;
                }
            }
            throw StageGraphError("dependency cycle among stages: " + cycle);
        }
        emitted[pick] = 1;
        order.push_back(pick);
        for (const std::size_t dependent : dependents[pick]) {
            --inDegree[dependent];
        }
    }
    return order;
}

std::vector<std::string> StageGraph::topologicalNames() const {
    std::vector<std::string> names;
    for (const std::size_t index : topologicalOrder()) {
        names.push_back(stages_[index].name);
    }
    return names;
}

// ---------------------------------------------------------------------------
// StageFaultHooks

StageFaultHooks::StageFaultHooks(const sim::FaultPlan& plan) {
    for (const auto& event : plan.events()) {
        if (event.kind == sim::FaultKind::FlowCrash ||
            event.kind == sim::FaultKind::ArtifactCorrupt ||
            event.kind == sim::FaultKind::StageHang) {
            pending_.push_back(event);
        }
    }
}

void StageFaultHooks::maybeCrash(const std::string& stage, std::uint64_t phase) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (it->kind == sim::FaultKind::FlowCrash && it->target == stage &&
            it->a == phase) {
            pending_.erase(it);
            throw FlowCrashError(format("injected crash at stage %s (%s)", stage.c_str(),
                                        phase == 0 ? "at begin" : "pre-commit"));
        }
    }
}

void StageFaultHooks::maybeHang(const std::string& stage) {
    std::uint64_t milliseconds = 0;
    bool armed = false;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = pending_.begin(); it != pending_.end(); ++it) {
            if (it->kind == sim::FaultKind::StageHang && it->target == stage) {
                milliseconds = it->a;
                pending_.erase(it);
                armed = true;
                break;
            }
        }
    }
    if (armed) {
        Logger::global().info(format("fault: stage %s hanging for %llu ms", stage.c_str(),
                                     static_cast<unsigned long long>(milliseconds)));
        std::this_thread::sleep_for(std::chrono::milliseconds(milliseconds));
    }
}

bool StageFaultHooks::consumeCorrupt(const std::string& target) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (it->kind == sim::FaultKind::ArtifactCorrupt && it->target == target) {
            pending_.erase(it);
            return true;
        }
    }
    return false;
}

bool StageFaultHooks::empty() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return pending_.empty();
}

// ---------------------------------------------------------------------------
// StageGraphExecutor

StageGraphExecutor::StageGraphExecutor(ExecutorConfig config, FlowEventBus* bus,
                                       StageFaultHooks* hooks)
    : config_(std::move(config)), bus_(bus), hooks_(hooks) {}

std::exception_ptr StageGraphExecutor::runStage(const Stage& stage, Finished& done) {
    if (bus_ != nullptr) {
        FlowEvent event;
        event.kind = FlowEventKind::StageBegin;
        event.stage = stage.name;
        bus_->publish(std::move(event));
    }

    Stopwatch watch;
    StageRun meta;
    StageOutput output;
    std::exception_ptr error;
    try {
        if (hooks_ != nullptr) {
            hooks_->maybeCrash(stage.name, 0);
        }
        // One supervisor per stage: its destructor joins abandoned
        // (timed-out) attempts before any stage-local state dies.
        StageSupervisor supervisor(config_.stagePolicy);
        std::atomic<int> attemptCounter{0};
        std::any value = supervisor.run(
            stage.name,
            [this, &stage, &attemptCounter] {
                const int attempt = attemptCounter.fetch_add(1) + 1;
                if (attempt > 1 && bus_ != nullptr) {
                    FlowEvent event;
                    event.kind = FlowEventKind::StageRetry;
                    event.stage = stage.name;
                    event.attempt = static_cast<unsigned>(attempt);
                    bus_->publish(std::move(event));
                }
                if (hooks_ != nullptr) {
                    hooks_->maybeHang(stage.name);
                }
                return stage.attempt ? stage.attempt(StageContext{attempt}) : std::any{};
            },
            &meta);
        output = stage.commit ? stage.commit(std::move(value), meta) : StageOutput{};
        if (hooks_ != nullptr) {
            hooks_->maybeCrash(stage.name, 1);
        }
    } catch (...) {
        error = std::current_exception();
    }
    const double hostMs = watch.elapsedMs();

    if (bus_ != nullptr) {
        for (int t = 0; t < meta.timeouts; ++t) {
            FlowEvent event;
            event.kind = FlowEventKind::StageTimeout;
            event.stage = stage.name;
            bus_->publish(std::move(event));
        }
    }

    std::string absorbedNote;
    if (error != nullptr && stage.absorbFailure) {
        try {
            std::rethrow_exception(error);
        } catch (const std::exception& e) {
            absorbedNote = stage.absorbFailure(e, meta);
        } catch (...) {
            // Non-std exceptions are never absorbable.
        }
    }

    stats_.stageTimeouts += static_cast<std::size_t>(meta.timeouts);
    if (meta.attempts > 1) {
        stats_.stageRetries += static_cast<std::size_t>(meta.attempts - 1);
    }

    if (error != nullptr && absorbedNote.empty()) {
        if (bus_ != nullptr) {
            FlowEvent event;
            event.kind = FlowEventKind::StageFailed;
            event.stage = stage.name;
            event.attempt = static_cast<unsigned>(meta.attempts);
            event.hostMs = hostMs;
            try {
                std::rethrow_exception(error);
            } catch (const std::exception& e) {
                event.detail = e.what();
            } catch (...) {
                event.detail = "non-standard exception";
            }
            bus_->publish(std::move(event));
        }
        return error;
    }

    if (error != nullptr) {
        done.absorbedNote = absorbedNote;
        if (bus_ != nullptr) {
            FlowEvent event;
            event.kind = FlowEventKind::StageDegraded;
            event.stage = stage.name;
            event.detail = absorbedNote;
            event.attempt = static_cast<unsigned>(meta.attempts);
            event.hostMs = hostMs;
            bus_->publish(std::move(event));
        }
    } else {
        done.output = std::move(output);
        if (bus_ != nullptr) {
            FlowEvent event;
            event.kind = FlowEventKind::StageCommit;
            event.stage = stage.name;
            event.detail = done.output.digest;
            event.attempt = static_cast<unsigned>(meta.attempts);
            event.toolSeconds = done.output.toolSeconds;
            event.hostMs = hostMs;
            bus_->publish(std::move(event));
        }
    }
    return nullptr;
}

void StageGraphExecutor::record(const Stage& stage, const Finished& done) {
    if (!done.absorbedNote.empty()) {
        if (config_.journal != nullptr) {
            config_.journal->noteEvent(stage.name, done.absorbedNote);
        }
    } else {
        const auto it = config_.digestsAtOpen.find(stage.name);
        if (it != config_.digestsAtOpen.end()) {
            // The stage was committed by a previous run; re-executing it
            // must reproduce the same output (the flow is deterministic).
            if (stage.trackResume) {
                ++stats_.resumedStages;
            }
            if (it->second != done.output.digest) {
                ++stats_.digestMismatches;
                if (bus_ != nullptr) {
                    FlowEvent event;
                    event.kind = FlowEventKind::DigestMismatch;
                    event.stage = stage.name;
                    event.detail = "recomputed output differs from the journal's "
                                   "committed digest";
                    bus_->publish(std::move(event));
                }
            }
        }
        if (config_.journal != nullptr && !done.output.digest.empty()) {
            config_.journal->commit(stage.name, done.output.digest);
        }
    }
    if (stage.postCommit) {
        stage.postCommit();
    }
}

void StageGraphExecutor::execute(const StageGraph& graph) {
    const std::vector<std::size_t> order = graph.topologicalOrder();
    stats_ = {};

    if (bus_ != nullptr) {
        FlowEvent event;
        event.kind = FlowEventKind::FlowBegin;
        event.detail = format("%zu stages", order.size());
        bus_->publish(std::move(event));
    }

    // Write-ahead discipline: every begin record lands before any stage
    // starts work, in topological order, so the journal prefix identifies
    // the run's shape.
    if (config_.journal != nullptr) {
        for (const std::size_t index : order) {
            config_.journal->begin(graph.stages()[index].name);
        }
    }

    std::exception_ptr error;
    for (const std::size_t index : order) {
        const Stage& stage = graph.stages()[index];
        Finished done;
        if (config_.scheduler == nullptr) {
            error = runStage(stage, done);
        } else {
            // The scheduler picks the thread; this one waits for the
            // stage before it sends the next. A task the scheduler drops
            // unrun breaks the promise, which fails the flow.
            auto task = std::make_shared<std::packaged_task<std::exception_ptr()>>(
                [this, &stage, &done] { return runStage(stage, done); });
            std::future<std::exception_ptr> finished = task->get_future();
            config_.scheduler->submit([task = std::move(task)] { (*task)(); });
            try {
                error = finished.get();
            } catch (...) {
                error = std::current_exception();
            }
        }
        if (error != nullptr) {
            break;
        }
        record(stage, done);
    }

    if (bus_ != nullptr) {
        FlowEvent event;
        event.kind = FlowEventKind::FlowEnd;
        event.detail = error == nullptr ? "ok" : "failed";
        bus_->publish(std::move(event));
    }
    if (error != nullptr) {
        std::rethrow_exception(error);
    }
}

} // namespace socgen::core
