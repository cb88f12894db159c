// Outer task layer for rank-parallel execution: a fixed team of worker
// threads, one per task slot, that repeatedly runs a broadcast job.
//
// This sits ABOVE the ThreadPool: the multi-domain runner dispatches one
// long-lived task per rank onto a TaskLayer worker, and each task may in
// turn issue `parallel_for` j-slab loops against its own per-rank
// ThreadPool (installed with ThreadPool::ScopedOverride). The separation
// matters because rank tasks BLOCK mid-flight — they wait on halo
// channels from neighbor ranks — so they must all be resident on their
// own threads at once; multiplexing them onto a work-sharing pool
// narrower than the rank count would deadlock (a resident rank would
// spin on a halo from a rank that never gets a thread).
//
// run() publishes the job under the mutex, wakes every worker, and waits
// for all of them to finish; exceptions thrown by tasks are captured and
// the first one is rethrown on the calling thread. The mutex/condvars
// are touched only at job boundaries, never inside a task.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/observability/trace.hpp"

namespace asuca {

class TaskLayer {
  public:
    /// Spawn `num_tasks` persistent workers (one per task index).
    explicit TaskLayer(std::size_t num_tasks) {
        ASUCA_REQUIRE(num_tasks >= 1, "TaskLayer needs at least one task");
        threads_.reserve(num_tasks);
        for (std::size_t t = 0; t < num_tasks; ++t) {
            threads_.emplace_back([this, t] { worker(t); });
        }
    }

    ~TaskLayer() {
        {
            std::lock_guard lock(mutex_);
            stopping_ = true;
        }
        cv_work_.notify_all();
        for (auto& th : threads_) th.join();
    }

    TaskLayer(const TaskLayer&) = delete;
    TaskLayer& operator=(const TaskLayer&) = delete;

    std::size_t num_tasks() const { return threads_.size(); }

    /// Run `job(task_index)` on every worker concurrently and wait for all
    /// of them. Every task's exception is collected (readable afterwards
    /// via errors(), with the throwing task's index) and the lowest-index
    /// one is rethrown here.
    void run(const std::function<void(std::size_t)>& job) {
        std::unique_lock lock(mutex_);
        job_ = &job;
        remaining_ = threads_.size();
        errors_.clear();
        ++epoch_;
        cv_work_.notify_all();
        cv_done_.wait(lock, [&] { return remaining_ == 0; });
        job_ = nullptr;
        if (!errors_.empty()) {
            std::size_t first = 0;
            for (std::size_t n = 1; n < errors_.size(); ++n)
                if (errors_[n].first < errors_[first].first) first = n;
            std::rethrow_exception(errors_[first].second);
        }
    }

    /// (task index, exception) pairs from the last run(); empty when the
    /// last job succeeded on every task. The caller that caught run()'s
    /// rethrow inspects this to attribute the failure — with concurrent
    /// ranks a single fault typically fails several tasks at once (the
    /// faulty one plus peers whose channels got poisoned), and recovery
    /// policy needs to see all of them to pick the root cause.
    const std::vector<std::pair<std::size_t, std::exception_ptr>>& errors()
        const {
        return errors_;
    }

  private:
    void worker(std::size_t index) {
        obs::name_this_thread("task worker");
        std::uint64_t seen_epoch = 0;
        for (;;) {
            const std::function<void(std::size_t)>* job = nullptr;
            {
                std::unique_lock lock(mutex_);
                cv_work_.wait(lock, [&] {
                    return stopping_ || epoch_ != seen_epoch;
                });
                if (stopping_) return;
                seen_epoch = epoch_;
                job = job_;
            }
            std::exception_ptr err;
            try {
                obs::TraceSpan span("task", static_cast<long long>(index),
                                    "task");
                (*job)(index);
            } catch (...) {
                err = std::current_exception();
            }
            {
                std::lock_guard lock(mutex_);
                // Moved, not copied: a copy left here would drop its
                // reference after the unlock, racing the caller that
                // already owns (and may free) the exception.
                if (err) errors_.emplace_back(index, std::move(err));
                if (--remaining_ == 0) cv_done_.notify_all();
            }
        }
    }

    std::vector<std::thread> threads_;
    std::mutex mutex_;
    std::condition_variable cv_work_;
    std::condition_variable cv_done_;
    const std::function<void(std::size_t)>* job_ = nullptr;
    std::uint64_t epoch_ = 0;
    std::size_t remaining_ = 0;
    std::vector<std::pair<std::size_t, std::exception_ptr>> errors_;
    bool stopping_ = false;
};

}  // namespace asuca
