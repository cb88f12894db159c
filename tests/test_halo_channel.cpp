// Unit tests for the asynchronous halo channels backing the concurrent
// multi-domain executor: SPSC double-buffering, cross-thread ordering,
// poison release of a blocked waiter, and the pack/unpack strip geometry
// (including the x-then-y corner resolution) of HaloExchanger.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

#include "src/cluster/halo_channel.hpp"
#include "src/field/array3.hpp"

namespace asuca::cluster {
namespace {

TEST(HaloChannel, RoundTripsOneMessage) {
    HaloChannel<double> ch;
    auto& buf = ch.begin_post(3);
    buf[0] = 1.5;
    buf[1] = -2.0;
    buf[2] = 7.25;
    ch.finish_post();
    EXPECT_EQ(ch.in_flight(), 1u);

    const auto& msg = ch.begin_receive();
    ASSERT_EQ(msg.size(), 3u);
    EXPECT_EQ(msg[0], 1.5);
    EXPECT_EQ(msg[1], -2.0);
    EXPECT_EQ(msg[2], 7.25);
    ch.finish_receive();
    EXPECT_EQ(ch.in_flight(), 0u);
}

TEST(HaloChannel, DoubleBufferReusesSlotsAcrossManyMessages) {
    HaloChannel<double> ch;
    // Keep the channel at its slot capacity, then drain one-for-one: the
    // two slots must be reused without mixing message contents, and
    // message sizes may change between reuses.
    auto post = [&](double tag, std::size_t size) {
        auto& buf = ch.begin_post(size);
        for (std::size_t i = 0; i < size; ++i) {
            buf[i] = tag + static_cast<double>(i);
        }
        ch.finish_post();
    };
    auto expect_receive = [&](double tag, std::size_t size) {
        const auto& msg = ch.begin_receive();
        ASSERT_EQ(msg.size(), size);
        for (std::size_t i = 0; i < size; ++i) {
            EXPECT_EQ(msg[i], tag + static_cast<double>(i));
        }
        ch.finish_receive();
    };

    post(100.0, 4);
    post(200.0, 2);
    EXPECT_EQ(ch.in_flight(), HaloChannel<double>::kSlots);
    for (int m = 2; m < 7; ++m) {
        expect_receive(100.0 * (m - 1), static_cast<std::size_t>(m % 3 + 2));
        post(100.0 * (m + 1), static_cast<std::size_t>((m + 2) % 3 + 2));
    }
    expect_receive(600.0, 3);
    expect_receive(700.0, 4);
    EXPECT_EQ(ch.in_flight(), 0u);
}

TEST(HaloChannel, CrossThreadMessagesArriveCompleteAndInOrder) {
    constexpr int kMessages = 500;
    constexpr std::size_t kSize = 64;
    HaloChannel<double> ch;
    std::thread producer([&] {
        for (int m = 0; m < kMessages; ++m) {
            auto& buf = ch.begin_post(kSize);
            for (std::size_t i = 0; i < kSize; ++i) {
                buf[i] = static_cast<double>(m) * 1000.0 +
                         static_cast<double>(i);
            }
            ch.finish_post();
        }
    });
    // The consumer deliberately lags so the producer hits the slot-count
    // backpressure path; every message must still arrive whole.
    int bad = 0;
    for (int m = 0; m < kMessages; ++m) {
        const auto& msg = ch.begin_receive();
        if (msg.size() != kSize) ++bad;
        for (std::size_t i = 0; i < kSize; ++i) {
            if (msg[i] != static_cast<double>(m) * 1000.0 +
                              static_cast<double>(i)) {
                ++bad;
            }
        }
        ch.finish_receive();
    }
    producer.join();
    EXPECT_EQ(bad, 0);
    EXPECT_EQ(ch.in_flight(), 0u);
}

// A rank that throws poisons every channel of its runner; a peer blocked
// on one must unwind at once, however the channel was configured (here:
// not at all). A waiter still blocked 2 s after poison() is released by
// one post, so a regression fails the test instead of hanging it.
TEST(HaloChannel, PoisonReleasesABlockedWaiterOnADefaultChannel) {
    HaloChannel<double> ch;
    std::atomic<bool> returned{false};
    HaloFault seen = HaloFault::None;
    std::thread waiter([&] {
        try {
            ch.begin_receive();
            ch.finish_receive();
        } catch (const HaloFaultError& e) {
            seen = e.fault;
        }
        returned.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ch.poison();
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (!returned.load() && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const bool released = returned.load();
    if (!released) {
        try {
            ch.begin_post(1)[0] = 0.0;
            ch.finish_post();
        } catch (const HaloFaultError&) {
            // The post itself refused: the waiter times out instead.
        }
    }
    waiter.join();
    EXPECT_TRUE(released) << "waiter still blocked 2 s after poison()";
    EXPECT_EQ(seen, HaloFault::Poisoned);
}

// ---------------------------------------------------------------------
// HaloExchanger strip geometry on a 2x2 periodic decomposition.
// ---------------------------------------------------------------------

constexpr Index kNxl = 8, kNyl = 6, kNz = 4, kHalo = 3;

double pattern(Index gi, Index gj, Index k, Index gnx, Index gny) {
    const Index wi = ((gi % gnx) + gnx) % gnx;
    const Index wj = ((gj % gny) + gny) % gny;
    return 10000.0 * static_cast<double>(wi) +
           100.0 * static_cast<double>(wj) + static_cast<double>(k);
}

/// Build one rank-local field of a px x py decomposition whose interior
/// carries the global pattern and whose halos are poisoned. `sx/sy` mark
/// face-staggered axes (the shared face belongs to both ranks).
Array3<double> make_rank_field(Index rx, Index ry, Index px, Index py,
                               Index sx, Index sy) {
    Array3<double> a({kNxl + sx, kNyl + sy, kNz}, kHalo, Layout::XZY,
                     -99999.0);
    const Index gnx = px * kNxl, gny = py * kNyl;
    for (Index j = 0; j < kNyl + sy; ++j)
        for (Index k = -kHalo; k < kNz + kHalo; ++k)
            for (Index i = 0; i < kNxl + sx; ++i)
                a(i, j, k) = pattern(rx * kNxl + i, ry * kNyl + j, k, gnx,
                                     gny);
    return a;
}

/// Drive a full exchange of one field family across all ranks in the
/// four bulk phases (all posts, then all receives, per direction) and
/// verify every halo cell — corners included — equals the periodic wrap
/// of the global pattern, exactly what the single-domain fill produces.
void check_exchanged_halos(Index sx, Index sy) {
    const Index px = 2, py = 2;
    HaloExchanger<double> ex(px, py, kNxl, kNyl);
    std::vector<Array3<double>> fields;
    for (Index ry = 0; ry < py; ++ry)
        for (Index rx = 0; rx < px; ++rx)
            fields.push_back(make_rank_field(rx, ry, px, py, sx, sy));

    for (Index r = 0; r < px * py; ++r) ex.post_x(r, fields[size_t(r)]);
    for (Index r = 0; r < px * py; ++r) ex.recv_x(r, fields[size_t(r)]);
    // The y strips span the full padded x range, so the x halos filled
    // above propagate into the corners.
    for (Index r = 0; r < px * py; ++r) ex.post_y(r, fields[size_t(r)]);
    for (Index r = 0; r < px * py; ++r) ex.recv_y(r, fields[size_t(r)]);

    const Index gnx = px * kNxl, gny = py * kNyl;
    for (Index r = 0; r < px * py; ++r) {
        const auto& a = fields[size_t(r)];
        const Index rx = r % px, ry = r / px;
        for (Index j = -kHalo; j < kNyl + sy + kHalo; ++j)
            for (Index k = -kHalo; k < kNz + kHalo; ++k)
                for (Index i = -kHalo; i < kNxl + sx + kHalo; ++i)
                    ASSERT_EQ(a(i, j, k),
                              pattern(rx * kNxl + i, ry * kNyl + j, k, gnx,
                                      gny))
                        << "rank " << r << " at (" << i << "," << j << ","
                        << k << ")";
    }
}

TEST(HaloExchanger, CenteredFieldHalosEqualPeriodicWrap) {
    check_exchanged_halos(0, 0);
}

TEST(HaloExchanger, XStaggeredFieldHalosEqualPeriodicWrap) {
    check_exchanged_halos(1, 0);
}

TEST(HaloExchanger, YStaggeredFieldHalosEqualPeriodicWrap) {
    check_exchanged_halos(0, 1);
}

TEST(HaloExchanger, SingleRankColumnWrapsOntoItself) {
    // px = 1: a rank's west and east neighbors are itself; the channels
    // must still deliver the periodic wrap (the SPSC producer and
    // consumer are the same thread here).
    const Index px = 1, py = 2;
    HaloExchanger<double> ex(px, py, kNxl, kNyl);
    std::vector<Array3<double>> fields;
    for (Index ry = 0; ry < py; ++ry)
        fields.push_back(make_rank_field(0, ry, px, py, 0, 0));

    for (Index r = 0; r < px * py; ++r) ex.post_x(r, fields[size_t(r)]);
    for (Index r = 0; r < px * py; ++r) ex.recv_x(r, fields[size_t(r)]);
    for (Index r = 0; r < px * py; ++r) ex.post_y(r, fields[size_t(r)]);
    for (Index r = 0; r < px * py; ++r) ex.recv_y(r, fields[size_t(r)]);

    const Index gnx = kNxl, gny = py * kNyl;
    for (Index r = 0; r < px * py; ++r) {
        const auto& a = fields[size_t(r)];
        for (Index j = -kHalo; j < kNyl + kHalo; ++j)
            for (Index i = -kHalo; i < kNxl + kHalo; ++i)
                ASSERT_EQ(a(i, j, 0),
                          pattern(i, (r / px) * kNyl + j, 0, gnx, gny));
    }
}

}  // namespace
}  // namespace asuca::cluster
