// A low-overhead work-sharing thread pool: the shared-memory parallel
// substrate the CPU reference implementation runs on (the role OpenMP
// plays in the original Fortran ASUCA).
//
// Design goals, in order:
//   * zero allocation on the `parallel_for` hot path — the loop body is
//     passed through a type-erased trampoline (a function pointer plus the
//     caller's stack address), never wrapped in a std::function, and the
//     claim words are allocated with the pool;
//   * a region costs a few atomic operations while the pool is busy —
//     idle threads spin on an atomic sequence number for kSpinBudget
//     before they park on a condition variable, and nobody is woken
//     through the kernel unless someone parked;
//   * owner-first claiming — chunk c belongs to thread c / per_thread, so
//     consecutive regions over the same j-range give each thread the same
//     j-slab (and its cache lines); a thread runs its own chunks first and
//     then steals the unclaimed chunks of the others;
//   * graceful degradation — trip counts too small to amortize a region,
//     single-threaded pools, and *nested* parallel_for calls all run the
//     body inline on the calling thread (nesting arises naturally when a
//     parallelized kernel calls another parallelized helper);
//   * deterministic decomposition — chunk boundaries depend only on the
//     trip count and the pool width, never on timing or on which thread
//     runs a chunk, and no parallelized loop in the model reduces across
//     chunks, so results are bit-identical for any thread count.
//
// Region protocol. `seq_` is odd while a region is open and even while
// the pool is idle; all operations on seq_ and active_ are seq_cst.
//   publish  The caller (thread 0) writes the region fields and resets
//            the claim words while seq_ is even, then stores seq_ = s
//            (odd). Workers that load s see those writes.
//   attach   A worker that sees an odd s it has not worked on increments
//            active_, then loads seq_ again; unless it still reads s it
//            decrements active_ and goes back to waiting without reading
//            the region fields or claim words.
//   claim    Thread t owns claim word t, which counts the claimed chunks
//            of its slab [t*per_thread, (t+1)*per_thread). It claims with
//            fetch_add on its own word until the slab is exhausted, then
//            on the other threads' words in turn.
//   close    When the caller's own claim pass ends, every chunk has been
//            claimed. It stores seq_ = s + 1 and waits for active_ == 0;
//            workers detach only after their last claimed chunk returns,
//            so the region is then complete.
// A worker that wakes late never touches a finished region: if its
// re-check after attaching read s, its increment precedes the close in
// the seq_cst order, so the caller's wait counts it and the region stays
// alive until it detaches; otherwise it leaves without reading anything.
// Nor does it touch the next region's claim words: those are reset only
// after active_ has drained, and a worker attached to an earlier sequence
// number has detached by then or fails its re-check.
//
// Waiting (workers for the next region, the caller for active_ == 0)
// spins with a pause instruction and a yield every kSpinsPerYield rounds
// for kSpinBudget, then parks on a condition variable. A parked thread
// counts itself before it re-checks under the mutex; a waker changes the
// state first and notifies under the mutex only when that count is
// nonzero, so no wake-up is lost and a busy pool makes no futex call.
// Exceptions thrown by loop bodies are captured (the first one wins) and
// rethrown on the calling thread once the region is complete.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/common/types.hpp"

namespace asuca {

class ThreadPool {
  public:
    /// `num_threads == 0` selects the hardware concurrency (minimum 1).
    explicit ThreadPool(std::size_t num_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    std::size_t num_threads() const { return n_threads_; }

    /// Trip counts below this run inline: a slab count this small cannot
    /// amortize the region's synchronization.
    static constexpr Index kMinParallelN = 4;

    /// How long an idle thread spins before it parks. It should cover the
    /// longest gaps between the regions of a model step, or workers park
    /// and pay a futex wake-up on the next region. EXPERIMENTS.md
    /// ("Spin-then-park thread pool") records the budget runs behind it.
    static constexpr std::chrono::microseconds kSpinBudget{1000};

    /// Run `body(begin, end)` over chunked subranges of [0, n) in parallel
    /// and wait for completion. The calling thread participates. Small
    /// `n`, single-threaded pools, and nested calls execute inline.
    template <class Body>
    void parallel_for(Index n, Body&& body) {
        if (n <= 0) return;
        if (workers_.empty() || n < kMinParallelN || in_parallel_region()) {
            body(Index(0), n);
            return;
        }
        using B = std::remove_reference_t<Body>;
        run_region(
            n,
            [](void* ctx, Index b, Index e) { (*static_cast<B*>(ctx))(b, e); },
            const_cast<void*>(static_cast<const void*>(&body)));
    }

    /// Convenience: per-index body.
    template <class Body>
    void parallel_for_each(Index n, Body&& body) {
        parallel_for(n, [&](Index b, Index e) {
            for (Index i = b; i < e; ++i) body(i);
        });
    }

    /// True while the calling thread is executing a parallel_for body (of
    /// any pool); nested parallel_for calls then degrade to inline serial
    /// execution instead of deadlocking or erroring.
    static bool in_parallel_region();

    /// Process-wide pool. Sized from the `ASUCA_NUM_THREADS` environment
    /// variable when set (tests/benches pin the thread count without code
    /// changes), otherwise from the hardware. Constructed on first use.
    static ThreadPool& global();

    /// Replace the global pool with one of `num_threads` threads (0 = the
    /// ASUCA_NUM_THREADS / hardware default). For thread-scaling benches
    /// and determinism tests; callers must ensure no parallel_for is in
    /// flight on the old pool.
    static void set_global_threads(std::size_t num_threads);

    /// Route this thread's `global()` (and therefore every `parallel_for`
    /// it issues) to `pool` while the guard is alive. The multi-domain
    /// runner gives each rank worker its own sub-pool this way, so rank
    /// tasks can keep calling the ordinary kernel entry points: their
    /// j-slab loops land on the rank's pool (or run inline when the pool
    /// is single-threaded) instead of colliding on the process pool,
    /// whose run_region supports only one caller at a time.
    class ScopedOverride {
      public:
        explicit ScopedOverride(ThreadPool& pool);
        ~ScopedOverride();
        ScopedOverride(const ScopedOverride&) = delete;
        ScopedOverride& operator=(const ScopedOverride&) = delete;

      private:
        ThreadPool* prev_;
    };

  private:
    using BodyFn = void (*)(void* ctx, Index begin, Index end);

    /// The published parallel_for. Written by the caller only while seq_
    /// is even; read by workers only while attached to an open region.
    struct Region {
        BodyFn fn = nullptr;
        void* ctx = nullptr;
        Index n = 0;
        Index chunk = 0;       ///< chunk length (the last may be shorter)
        Index n_chunks = 0;
        Index per_thread = 0;  ///< chunks per owner slab
    };

    /// Claimed-chunk count of one owner's slab, on its own cache line.
    struct alignas(64) Claim {
        std::atomic<Index> next{0};
    };

    /// Pause-spin rounds between yields (and spin-budget checks).
    static constexpr unsigned kSpinsPerYield = 64;

    void run_region(Index n, BodyFn fn, void* ctx);
    void run_chunks(std::size_t self);
    void worker_loop(std::size_t self);
    template <class Ready>
    void await(Ready ready, std::condition_variable& cv,
               std::atomic<int>& parked);
    void wake(std::condition_variable& cv, const std::atomic<int>& parked);

    const std::size_t n_threads_;
    Region region_;
    std::unique_ptr<Claim[]> claims_;  ///< one per thread, reset per region
    alignas(64) std::atomic<std::uint64_t> seq_{0};  ///< odd = region open
    std::atomic<bool> stopping_{false};
    alignas(64) std::atomic<int> active_{0};  ///< attached workers
    std::atomic<int> parked_workers_{0};
    std::atomic<int> parked_callers_{0};
    std::mutex mutex_;  ///< guards the parking handshake and error_
    std::condition_variable cv_work_;
    std::condition_variable cv_done_;
    std::exception_ptr error_;  ///< first failure of the current region
    std::vector<std::thread> workers_;
};

/// Shorthand for the global pool's parallel_for.
template <class Body>
inline void parallel_for(Index n, Body&& body) {
    ThreadPool::global().parallel_for(n, static_cast<Body&&>(body));
}

/// parallel_for over an arbitrary index window [begin, end) — the j-slab
/// loops that cover halo rings use this.
template <class Body>
inline void parallel_for_range(Index begin, Index end, Body&& body) {
    if (end <= begin) return;
    ThreadPool::global().parallel_for(end - begin, [&](Index b, Index e) {
        body(begin + b, begin + e);
    });
}

}  // namespace asuca
