#include "src/parallel/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <utility>

#include "src/common/error.hpp"

namespace asuca {

namespace {

/// Set while the current thread runs a parallel_for body; nested calls
/// check it and fall back to inline execution.
thread_local bool t_in_region = false;

/// Per-thread pool override installed by ThreadPool::ScopedOverride.
thread_local ThreadPool* t_pool_override = nullptr;

/// Thread count requested via ASUCA_NUM_THREADS (0 = unset/invalid).
std::size_t env_thread_count() {
    const char* env = std::getenv("ASUCA_NUM_THREADS");
    if (env == nullptr || *env == '\0') return 0;
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || v < 1) return 0;
    return static_cast<std::size_t>(v);
}

std::unique_ptr<ThreadPool>& global_holder() {
    static std::unique_ptr<ThreadPool> pool;
    return pool;
}

std::size_t resolve_thread_count(std::size_t num_threads) {
    if (num_threads == 0) num_threads = env_thread_count();
    if (num_threads == 0) {
        num_threads = std::max(1u, std::thread::hardware_concurrency());
    }
    return num_threads;
}

/// One spin-wait round: a pause hint to the core (or its sibling thread).
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads)
    : n_threads_(resolve_thread_count(num_threads)),
      claims_(std::make_unique<Claim[]>(n_threads_)) {
    workers_.reserve(n_threads_ - 1);
    for (std::size_t t = 1; t < n_threads_; ++t) {
        workers_.emplace_back([this, t] { worker_loop(t); });
    }
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard lock(mutex_);
        stopping_ = true;
    }
    cv_work_.notify_all();
    for (auto& w : workers_) w.join();
}

bool ThreadPool::in_parallel_region() { return t_in_region; }

ThreadPool& ThreadPool::global() {
    if (t_pool_override != nullptr) return *t_pool_override;
    auto& holder = global_holder();
    if (!holder) holder = std::make_unique<ThreadPool>();
    return *holder;
}

ThreadPool::ScopedOverride::ScopedOverride(ThreadPool& pool)
    : prev_(t_pool_override) {
    t_pool_override = &pool;
}

ThreadPool::ScopedOverride::~ScopedOverride() { t_pool_override = prev_; }

void ThreadPool::set_global_threads(std::size_t num_threads) {
    ASUCA_ASSERT(!in_parallel_region(),
                 "cannot replace the global pool from inside parallel_for");
    global_holder() = std::make_unique<ThreadPool>(num_threads);
}

template <class Ready>
void ThreadPool::await(Ready ready, std::condition_variable& cv,
                       std::atomic<int>& parked) {
    const auto start = std::chrono::steady_clock::now();
    for (unsigned round = 1; !ready(); ++round) {
        cpu_relax();
        if (round % kSpinsPerYield != 0) continue;
        if (std::chrono::steady_clock::now() - start < kSpinBudget) {
            std::this_thread::yield();
            continue;
        }
        // Park. Counting first makes a waker that changes the state after
        // our re-check below see parked > 0 and notify under the mutex.
        std::unique_lock lock(mutex_);
        ++parked;
        cv.wait(lock, ready);
        --parked;
        return;
    }
}

void ThreadPool::wake(std::condition_variable& cv,
                      const std::atomic<int>& parked) {
    if (parked.load() == 0) return;
    std::lock_guard lock(mutex_);
    cv.notify_all();
}

void ThreadPool::worker_loop(std::size_t self) {
    std::uint64_t seen = 0;
    for (;;) {
        std::uint64_t s = 0;
        await(
            [&] {
                s = seq_.load();
                return stopping_.load() || (s != seen && (s & 1) != 0);
            },
            cv_work_, parked_workers_);
        if (stopping_.load()) return;
        seen = s;
        ++active_;
        // Attached: the region stays open until we detach, unless it was
        // closed (or replaced) before the increment, which this re-check
        // sees.
        if (seq_.load() == s) run_chunks(self);
        if (--active_ == 0) wake(cv_done_, parked_callers_);
    }
}

void ThreadPool::run_chunks(std::size_t self) {
    const Region& r = region_;
    t_in_region = true;
    for (std::size_t v = 0; v < n_threads_; ++v) {
        // Own slab first, then the others in turn.
        const std::size_t owner = (self + v) % n_threads_;
        const Index first = static_cast<Index>(owner) * r.per_thread;
        const Index count = std::min(r.per_thread, r.n_chunks - first);
        auto& next = claims_[owner].next;
        // A plain load skips exhausted slabs without an RMW on another
        // thread's cache line.
        if (count <= 0 || next.load(std::memory_order_relaxed) >= count) {
            continue;
        }
        for (;;) {
            const Index k = next.fetch_add(1, std::memory_order_relaxed);
            if (k >= count) break;
            const Index begin = (first + k) * r.chunk;
            const Index end = std::min(begin + r.chunk, r.n);
            try {
                r.fn(r.ctx, begin, end);
            } catch (...) {
                std::lock_guard lock(mutex_);
                if (!error_) error_ = std::current_exception();
            }
        }
    }
    t_in_region = false;
}

void ThreadPool::run_region(Index n, BodyFn fn, void* ctx) {
    // Over-decompose mildly (2 chunks per thread) for load balance; loop
    // bodies in the dycore have uniform cost so this is sufficient.
    const Index threads = static_cast<Index>(n_threads_);
    const Index want = std::min<Index>(n, threads * 2);
    region_.fn = fn;
    region_.ctx = ctx;
    region_.n = n;
    region_.chunk = (n + want - 1) / want;
    region_.n_chunks = (n + region_.chunk - 1) / region_.chunk;
    region_.per_thread = (region_.n_chunks + threads - 1) / threads;
    for (std::size_t t = 0; t < n_threads_; ++t) {
        claims_[t].next.store(0, std::memory_order_relaxed);
    }
    const std::uint64_t s = seq_.load() + 1;
    seq_.store(s);  // publish
    wake(cv_work_, parked_workers_);
    run_chunks(0);
    // Every chunk is claimed now; close the region and wait for the
    // workers still running theirs.
    seq_.store(s + 1);
    await([&] { return active_.load() == 0; }, cv_done_, parked_callers_);
    // Written before the writers detached, so no lock is needed.
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

}  // namespace asuca
