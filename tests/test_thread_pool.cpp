// Tests for the thread-pool parallel substrate.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/parallel/thread_pool.hpp"

namespace asuca {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
    ThreadPool pool(4);
    const Index n = 10007;  // prime: uneven chunks
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](Index b, Index e) {
        for (Index i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
    });
    for (Index i = 0; i < n; ++i) {
        EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << i;
    }
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
    ThreadPool pool(3);
    const Index n = 100000;
    std::atomic<long long> sum{0};
    pool.parallel_for(n, [&](Index b, Index e) {
        long long local = 0;
        for (Index i = b; i < e; ++i) local += i;
        sum += local;
    });
    EXPECT_EQ(sum.load(), static_cast<long long>(n) * (n - 1) / 2);
}

TEST(ThreadPool, EmptyAndSingleRangesWork) {
    ThreadPool pool(2);
    int calls = 0;
    pool.parallel_for(0, [&](Index, Index) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallel_for(1, [&](Index b, Index e) {
        EXPECT_EQ(b, 0);
        EXPECT_EQ(e, 1);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, PropagatesExceptions) {
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallel_for(1000,
                                   [&](Index b, Index) {
                                       if (b > 0) {
                                           throw std::runtime_error("boom");
                                       }
                                   }),
                 std::runtime_error);
    // Pool stays usable afterwards.
    std::atomic<int> ok{0};
    pool.parallel_for_each(10, [&](Index) { ok++; });
    EXPECT_EQ(ok.load(), 10);
}

TEST(ThreadPool, SingleThreadRunsInline) {
    ThreadPool pool(1);
    EXPECT_EQ(pool.num_threads(), 1u);
    const auto caller = std::this_thread::get_id();
    pool.parallel_for(100, [&](Index, Index) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(ThreadPool, GlobalPoolIsReusable) {
    std::atomic<int> total{0};
    for (int round = 0; round < 5; ++round) {
        parallel_for(1000, [&](Index b, Index e) {
            total += static_cast<int>(e - b);
        });
    }
    EXPECT_EQ(total.load(), 5000);
}

TEST(ThreadPool, NestedParallelForRunsInlineSerially) {
    ThreadPool pool(4);
    std::atomic<long long> total{0};
    std::atomic<int> outer_bodies{0};
    pool.parallel_for(64, [&](Index ob, Index oe) {
        ++outer_bodies;
        EXPECT_TRUE(ThreadPool::in_parallel_region());
        // Nested call: must execute the whole range inline on this
        // thread, in one body invocation, without deadlocking.
        const auto me = std::this_thread::get_id();
        int inner_bodies = 0;
        pool.parallel_for(1000, [&](Index b, Index e) {
            ++inner_bodies;
            EXPECT_EQ(std::this_thread::get_id(), me);
            long long local = 0;
            for (Index i = b; i < e; ++i) local += 1;
            total += local * (oe - ob);
        });
        EXPECT_EQ(inner_bodies, 1);
    });
    EXPECT_GE(outer_bodies.load(), 1);
    EXPECT_EQ(total.load(), 64LL * 1000LL);
    EXPECT_FALSE(ThreadPool::in_parallel_region());
}

TEST(ThreadPool, HonorsNumThreadsEnvVar) {
    ::setenv("ASUCA_NUM_THREADS", "3", 1);
    {
        ThreadPool pool(0);
        EXPECT_EQ(pool.num_threads(), 3u);
    }
    // Malformed values fall back to hardware concurrency (>= 1).
    ::setenv("ASUCA_NUM_THREADS", "garbage", 1);
    {
        ThreadPool pool(0);
        EXPECT_GE(pool.num_threads(), 1u);
    }
    ::unsetenv("ASUCA_NUM_THREADS");
    // An explicit count always wins over the environment.
    ::setenv("ASUCA_NUM_THREADS", "7", 1);
    {
        ThreadPool pool(2);
        EXPECT_EQ(pool.num_threads(), 2u);
    }
    ::unsetenv("ASUCA_NUM_THREADS");
}

TEST(ThreadPool, SetGlobalThreadsReplacesThePool) {
    ThreadPool::set_global_threads(3);
    EXPECT_EQ(ThreadPool::global().num_threads(), 3u);
    std::atomic<int> total{0};
    parallel_for(100, [&](Index b, Index e) {
        total += static_cast<int>(e - b);
    });
    EXPECT_EQ(total.load(), 100);
    ThreadPool::set_global_threads(0);  // back to the default
}

TEST(ThreadPool, ParallelForRangeCoversHaloExtendedRange) {
    ThreadPool::set_global_threads(4);
    const Index lo = -3, hi = 29;
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(hi - lo));
    parallel_for_range(lo, hi, [&](Index b, Index e) {
        EXPECT_GE(b, lo);
        EXPECT_LE(e, hi);
        for (Index j = b; j < e; ++j) {
            hits[static_cast<std::size_t>(j - lo)]++;
        }
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
    ThreadPool::set_global_threads(0);
}

/// Run one region of `n` on `pool` and check that every index was
/// covered exactly once.
void expect_covers_once(ThreadPool& pool, Index n) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    pool.parallel_for(n, [&](Index b, Index e) {
        for (Index i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
    });
    for (Index i = 0; i < n; ++i) {
        ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
            << "index " << i << " of " << n;
    }
}

/// Records which thread ran each chunk of an 8-chunk region (n = 8 on
/// 4 threads: chunk c is index c, and chunks 2t and 2t + 1 form thread
/// t's slab). The chunk `stalled` blocks until its slab sibling has run,
/// which can only happen if another thread steals it.
struct StallProbe {
    static constexpr Index kN = 8;
    explicit StallProbe(Index stalled) : stalled(stalled) {}

    void run_chunk(Index c) {
        if (c == stalled) {
            const auto sibling = static_cast<std::size_t>(c ^ 1);
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(20);
            while (!done[sibling].load() &&
                   std::chrono::steady_clock::now() < deadline) {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
        }
        ran_on[static_cast<std::size_t>(c)] = std::this_thread::get_id();
        done[static_cast<std::size_t>(c)] = true;
    }

    const Index stalled;
    std::thread::id ran_on[kN];
    std::atomic<bool> done[kN] = {};
};

TEST(ThreadPool, RegionAfterWorkersParkedCoversRangeOnce) {
    ThreadPool pool(4);
    for (int round = 0; round < 3; ++round) {
        // Idle well past the spin budget: every worker parks.
        std::this_thread::sleep_for(20 * ThreadPool::kSpinBudget);
        expect_covers_once(pool, 10007);
        // Parked again, a region whose first chunk waits for its sibling
        // returns only if a woken worker steals that sibling.
        std::this_thread::sleep_for(20 * ThreadPool::kSpinBudget);
        StallProbe probe(0);
        pool.parallel_for(StallProbe::kN, [&](Index b, Index e) {
            for (Index c = b; c < e; ++c) probe.run_chunk(c);
        });
        EXPECT_NE(probe.ran_on[0], probe.ran_on[1])
            << "no parked worker woke to steal";
    }
}

TEST(ThreadPool, BackToBackSmallRegionsCoverRangeOnce) {
    ThreadPool pool(4);
    constexpr Index kMaxN = 40;
    std::vector<std::atomic<int>> hits(kMaxN);
    for (int r = 0; r < 10000; ++r) {
        // Trip counts from kMinParallelN up, below and above 2 chunks per
        // thread, so slabs of 1 and 2 chunks (and empty ones) all occur.
        const Index n = ThreadPool::kMinParallelN + r % (kMaxN - 3);
        pool.parallel_for(n, [&](Index b, Index e) {
            for (Index i = b; i < e; ++i) {
                hits[static_cast<std::size_t>(i)].fetch_add(
                    1, std::memory_order_relaxed);
            }
        });
        for (Index i = 0; i < kMaxN; ++i) {
            const int want = i < n ? 1 : 0;
            ASSERT_EQ(hits[static_cast<std::size_t>(i)].exchange(0), want)
                << "region " << r << " (n = " << n << "), index " << i;
        }
    }
}

TEST(ThreadPool, OtherThreadsStealAroundAStalledChunk) {
    ThreadPool pool(4);
    // Chunk 0 is the caller's; chunk 6 belongs to the last worker.
    for (const Index stalled : {Index(0), Index(6)}) {
        SCOPED_TRACE(testing::Message() << "stalled chunk " << stalled);
        StallProbe probe(stalled);
        pool.parallel_for(StallProbe::kN, [&](Index b, Index e) {
            for (Index c = b; c < e; ++c) probe.run_chunk(c);
        });
        for (Index c = 0; c < StallProbe::kN; ++c) {
            EXPECT_TRUE(probe.done[c].load()) << "chunk " << c;
        }
        const auto stalled_at = static_cast<std::size_t>(stalled);
        EXPECT_NE(probe.ran_on[stalled_at], probe.ran_on[stalled_at ^ 1])
            << "the stalled chunk's sibling was not stolen";
    }
}

TEST(ThreadPool, ExceptionFromAnOwnedChunkIsRethrownOnce) {
    ThreadPool pool(4);
    for (int round = 0; round < 20; ++round) {
        StallProbe probe(0);
        int caught = 0;
        try {
            pool.parallel_for(StallProbe::kN, [&](Index b, Index e) {
                for (Index c = b; c < e; ++c) {
                    probe.run_chunk(c);
                    // The caller's first chunk fails after its sibling
                    // was stolen.
                    if (c == 0) throw std::runtime_error("owned chunk");
                }
            });
        } catch (const std::runtime_error&) {
            ++caught;
        }
        ASSERT_EQ(caught, 1);
        for (Index c = 0; c < StallProbe::kN; ++c) {
            EXPECT_TRUE(probe.done[c].load()) << "chunk " << c;
        }
        // The next region neither rethrows nor loses indices.
        expect_covers_once(pool, 1000);
    }
}

TEST(ThreadPool, DestroyingSpinningPoolsIsPrompt) {
    // Right after a region every worker is spinning; destruction must stop
    // them, and join, without a wake-up they could miss. The bound is
    // loose on purpose: on a loaded host a spinning worker waits a
    // scheduler slice before it sees the stop, so teardowns of a few
    // milliseconds are normal there; a missed stop would hang.
    constexpr int kPools = 50;
    const auto t0 = std::chrono::steady_clock::now();
    for (int p = 0; p < kPools; ++p) {
        ThreadPool pool(4);
        expect_covers_once(pool, 64);
    }
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
}

}  // namespace
}  // namespace asuca
