// Discrete-event timeline for overlap simulation.
//
// Models the resources the paper's multi-GPU code juggles (Sec. V-A,
// Fig. 8): the GPU's single compute engine (kernels from all CUDA streams
// serialize on it in issue order), the GPU's copy (DMA) engine for
// asynchronous host<->device transfers, and the node's network interface
// for MPI. Tasks declare a resource, a duration, and dependencies; issue
// order is insertion order, matching CUDA stream semantics. The makespan
// of the resulting schedule is the simulated wall time of one step.
#pragma once

#include <string>
#include <vector>

#include "src/common/error.hpp"

namespace asuca::gpusim {

using TaskId = int;
using ResourceId = int;

struct TimelineTask {
    std::string name;
    ResourceId resource = 0;
    double duration = 0;
    std::vector<TaskId> deps;
    double start = -1;
    double end = -1;
};

class Timeline {
  public:
    ResourceId add_resource(std::string name) {
        resources_.push_back(std::move(name));
        return static_cast<ResourceId>(resources_.size() - 1);
    }

    /// Add a task. All dependencies must already exist (issue order is
    /// causal order, as in a CUDA stream program).
    TaskId add_task(std::string name, ResourceId resource, double duration,
                    std::vector<TaskId> deps = {}) {
        ASUCA_REQUIRE(resource >= 0 &&
                          resource < static_cast<ResourceId>(resources_.size()),
                      "unknown resource " << resource);
        ASUCA_REQUIRE(duration >= 0, "negative duration for task " << name);
        const auto id = static_cast<TaskId>(tasks_.size());
        for (TaskId d : deps) {
            ASUCA_REQUIRE(d >= 0 && d < id,
                          "task '" << name << "' depends on future task "
                                   << d);
        }
        tasks_.push_back(TimelineTask{std::move(name), resource, duration,
                                      std::move(deps)});
        return id;
    }

    /// Compute the schedule and return the makespan. Each resource runs
    /// one task at a time, first-come-first-served by *readiness* (the
    /// time all dependencies complete), with issue order breaking ties —
    /// matching how a host thread drives a DMA engine or NIC: work that
    /// becomes ready first is submitted first, regardless of program
    /// order.
    double run() {
        std::vector<double> resource_free(resources_.size(), 0.0);
        std::vector<bool> done(tasks_.size(), false);
        std::size_t remaining = tasks_.size();
        double makespan = 0.0;

        while (remaining > 0) {
            // For every resource, find the unscheduled dep-satisfied task
            // with the earliest readiness.
            bool progressed = false;
            for (std::size_t r = 0; r < resources_.size(); ++r) {
                std::size_t best = tasks_.size();
                double best_ready = 0.0;
                for (std::size_t i = 0; i < tasks_.size(); ++i) {
                    if (done[i] ||
                        tasks_[i].resource != static_cast<ResourceId>(r)) {
                        continue;
                    }
                    double ready = 0.0;
                    bool deps_done = true;
                    for (TaskId d : tasks_[i].deps) {
                        const auto du = static_cast<std::size_t>(d);
                        if (!done[du]) {
                            deps_done = false;
                            break;
                        }
                        ready = std::max(ready, tasks_[du].end);
                    }
                    if (!deps_done) continue;
                    if (best == tasks_.size() || ready < best_ready) {
                        best = i;
                        best_ready = ready;
                    }
                }
                if (best == tasks_.size()) continue;
                auto& t = tasks_[best];
                t.start = std::max(best_ready, resource_free[r]);
                t.end = t.start + t.duration;
                resource_free[r] = t.end;
                done[best] = true;
                --remaining;
                makespan = std::max(makespan, t.end);
                progressed = true;
            }
            ASUCA_ASSERT(progressed || remaining == 0,
                         "timeline deadlock: " << remaining
                                               << " tasks unschedulable");
        }
        makespan_ = makespan;
        return makespan;
    }

    double makespan() const { return makespan_; }

    const TimelineTask& task(TaskId id) const {
        return tasks_[static_cast<std::size_t>(id)];
    }

    /// Total busy time of a resource (for breakdown plots).
    double resource_busy(ResourceId r) const {
        double busy = 0.0;
        for (const auto& t : tasks_) {
            if (t.resource == r) busy += t.duration;
        }
        return busy;
    }

  private:
    std::vector<std::string> resources_;
    std::vector<TimelineTask> tasks_;
    double makespan_ = 0.0;
};

}  // namespace asuca::gpusim
