// Asynchronous halo channels for the concurrent multi-domain runner.
//
// Instead of a global barrier at every exchange point, each (receiving
// rank, side) pair gets its own HaloChannel: a single-producer
// single-consumer, double-buffered message queue. The producing rank
// PACKS its boundary strip into a slot and POSTS it with a release-store;
// the consuming rank waits for the post with acquire-loads and UNPACKS
// the strip into its halo cells. The double buffer lets a producer run up
// to one full exchange point ahead of a slow consumer before blocking —
// the in-process analog of the paper's posted MPI sends overlapping GPU
// compute (Sec. V-A).
//
// Strip geometry reproduces the single-domain periodic fill exactly:
//   x pass  — strips cover interior rows j in [0, ny_field) and the full
//             padded k range; the west halo receives the west neighbor's
//             easternmost interior columns, the east halo (plus the
//             shared face of x-staggered fields) receives the east
//             neighbor's westernmost columns.
//   y pass  — strips cover the FULL padded i range (so the freshly
//             exchanged x halos propagate to the corners, exactly like
//             the single-domain periodic fill) and rows [0, h + sy) /
//             [ny - h, ny) of the producer.
// Because both passes copy the same cells the periodic fill writes, from
// the same source cells (local extents are at least one halo wide, so
// every strip lies in one neighbor's interior), a channel-exchanged run
// is bitwise identical to the single-domain run (validated in
// tests/test_multidomain.cpp).
//
// Failure detection: every wait is a brief yield-spin followed by a
// condition-variable wait bounded by the channel deadline (see the
// comment above wait_until_ready), every message carries an integrity
// word — sequence number plus the 4-lane paired FNV checksum of
// hash::Fnv4/fnv1a_elems4, accumulated inside the pack loop and verified
// inside the unpack loop one cache-resident row slab at a time, so
// payload bytes are never re-read cold for a separate checksum pass —
// and a channel can be POISONED: marked dead so every current and
// future wait fails immediately. A wait that fails throws HaloFaultError
// carrying the channel identity and a suspect rank, so the runner can
// attribute the failure instead of hanging.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/hash.hpp"
#include "src/common/types.hpp"
#include "src/field/array3.hpp"
#include "src/observability/metrics.hpp"
#include "src/observability/trace.hpp"

namespace asuca::cluster {

/// Deadline of every halo wait unless the runner configures another.
inline constexpr std::chrono::nanoseconds kDefaultHaloDeadline =
    std::chrono::seconds(5);

/// What a channel operation detected.
enum class HaloFault {
    None,
    Timeout,   ///< deadline expired while waiting on the peer
    Corrupt,   ///< integrity word mismatch (sequence or checksum)
    Poisoned,  ///< channel was poisoned by a failing rank
};

inline const char* halo_fault_name(HaloFault f) {
    switch (f) {
        case HaloFault::None: return "none";
        case HaloFault::Timeout: return "timeout";
        case HaloFault::Corrupt: return "corrupt";
        case HaloFault::Poisoned: return "poisoned";
    }
    return "unknown";
}

inline const char* side_name(int side) {
    switch (side) {
        case 0: return "west";
        case 1: return "east";
        case 2: return "south";
        case 3: return "north";
    }
    return "?";
}

/// Structured failure verdict from a channel: which channel
/// (owner rank + side), which message, what went wrong, and which rank
/// is the likely culprit (the producer for receive-side faults, the
/// consumer for post-side backpressure timeouts).
class HaloFaultError : public Error {
  public:
    HaloFaultError(HaloFault fault_kind, Index owner, Index peer,
                   Index suspect, int side, std::uint64_t seq,
                   const std::string& what)
        : Error(what), fault(fault_kind), owner_rank(owner), peer_rank(peer),
          suspect_rank(suspect), side(side), sequence(seq) {}

    HaloFault fault;
    Index owner_rank;    ///< rank whose halo this channel feeds
    Index peer_rank;     ///< producing rank of the channel
    Index suspect_rank;  ///< rank most likely at fault
    int side;
    std::uint64_t sequence;
};

/// SPSC double-buffered message channel. The producer and consumer must
/// each be a single thread (they may be the same thread, e.g. the
/// periodic self-neighbor of a 1-wide decomposition). Message sizes may
/// vary per message; slot storage is grown on demand and then reused, so
/// the steady state allocates nothing.
template <class T>
class HaloChannel {
  public:
    static constexpr std::uint64_t kSlots = 2;

    /// Identify the channel (owner rank + producing peer + side) for
    /// failure verdicts and trace-span attribution, and set its wait
    /// deadline. The exchanger calls this at construction, before any
    /// concurrent use.
    void configure(std::chrono::nanoseconds deadline, Index owner,
                   Index peer, int side) {
        deadline_ = deadline;
        owner_rank_ = owner;
        peer_rank_ = peer;
        side_ = side;
    }

    /// Mark the channel dead: every wait (current and future) on it
    /// fails with HaloFault::Poisoned.
    void poison() {
        poisoned_.store(true, std::memory_order_release);
        notify_waiters();
    }
    bool poisoned() const {
        return poisoned_.load(std::memory_order_acquire);
    }

    /// Producer: claim the slot buffer for the next message, blocking
    /// while both slots hold unconsumed messages. The wait
    /// (backpressure: the consumer is behind) is a trace span attributed
    /// to the PRODUCING rank's thread; a timeout names the consumer (the
    /// owner of this channel), which stopped draining.
    std::vector<T>& begin_post(std::size_t size) {
        obs::TraceSpan span("halo_post_wait", peer_rank_, "halo");
        wait_until_ready(owner_rank_, next_post_, [&] {
            return next_post_ - consumed_.load(std::memory_order_acquire) <
                   kSlots;
        });
        auto& slot = slots_[next_post_ % kSlots];
        slot.resize(size);
        return slot;
    }

    /// Producer: publish the message packed into the begin_post() buffer,
    /// computing its integrity word first; passing `corrupt_in_flight`
    /// flips one payload bit AFTER the checksum — the fault injector's
    /// model of in-transit corruption, guaranteed to be detected by the
    /// consumer's verification.
    void finish_post(bool corrupt_in_flight = false) {
        const auto& slot = slots_[next_post_ % kSlots];
        publish(hash::fnv1a_elems4(slot.data(), slot.size()),
                corrupt_in_flight);
    }

    /// Producer: publish with a checksum the packer accumulated while
    /// filling the buffer (the fused-integrity path — payload bytes are
    /// touched exactly once). `sum` must equal fnv1a_elems4 over the
    /// final buffer contents.
    void finish_post_hashed(std::uint64_t sum,
                            bool corrupt_in_flight = false) {
        publish(sum, corrupt_in_flight);
    }

    /// Consumer: wait for the next message, verify its integrity word
    /// and return it. The wait fails at the deadline instead of blocking
    /// forever, and is a trace span attributed to the CONSUMING (owner)
    /// rank's thread — on a timeline, halo_wait time is exactly the
    /// communication the overlap modes are supposed to hide (paper
    /// Sec. V-A).
    const std::vector<T>& begin_receive() {
        const auto& slot = begin_receive_deferred();
        verify_receive(hash::fnv1a_elems4(slot.data(), slot.size()));
        return slot;
    }

    /// Consumer: like begin_receive() but DEFERS the checksum check —
    /// the unpacker accumulates the hash while copying the payload out
    /// and then calls verify_receive(). The sequence number is still
    /// verified here (it is metadata, not payload). A timeout names the
    /// producer (peer), which missed its deadline.
    const std::vector<T>& begin_receive_deferred() {
        obs::TraceSpan span("halo_wait", owner_rank_, "halo");
        wait_until_ready(peer_rank_, next_receive_, [&] {
            return posted_.load(std::memory_order_acquire) > next_receive_;
        });
        if (meta_seq_[next_receive_ % kSlots] != next_receive_) {
            throw_fault(HaloFault::Corrupt, peer_rank_, next_receive_);
        }
        return slots_[next_receive_ % kSlots];
    }

    /// Consumer: compare the unpacker-accumulated checksum against the
    /// message's integrity word. Must be called between
    /// begin_receive_deferred() and finish_receive().
    void verify_receive(std::uint64_t sum) {
        if (obs::metrics_enabled()) {
            static auto& words = obs::MetricsRegistry::global().counter(
                "resilience.integrity_words");
            words.add(slots_[next_receive_ % kSlots].size());
        }
        if (meta_sum_[next_receive_ % kSlots] != sum) {
            throw_fault(HaloFault::Corrupt, peer_rank_, next_receive_);
        }
    }

    /// Consumer: release the begin_receive() slot for producer reuse.
    void finish_receive() {
        ++next_receive_;
        consumed_.store(next_receive_, std::memory_order_release);
        notify_waiters();
    }

    /// Messages posted and not yet consumed (test/diagnostic use; exact
    /// only when called from the producer or while both sides are idle).
    std::uint64_t in_flight() const {
        return posted_.load(std::memory_order_acquire) -
               consumed_.load(std::memory_order_acquire);
    }

  private:
    /// Wait until `ready()` holds: a brief yield-spin for the common
    /// already-posted case, then a condition-variable wait bounded by
    /// the channel deadline. A cv rather than sleep polling, because
    /// sleep_for() is subject to the kernel's timer slack (~50us) —
    /// per-message oversleeps that both tax and jitter every exchange.
    /// Each side takes wait_mu_ (empty critical section) and notifies
    /// after its counter release, so a waiter that saw a stale
    /// predicate under the lock is guaranteed a notify after it sleeps —
    /// no lost wakeups, no polling quantum — and poison() releases a
    /// waiter without touching the counters. Poison, then a missed
    /// deadline, throw with `suspect` and message number `seq`.
    template <class Pred>
    void wait_until_ready(Index suspect, std::uint64_t seq, Pred ready) {
        const auto done = [&] { return poisoned() || ready(); };
        bool ok = done();
        for (int spin = 0; !ok && spin < 64; ++spin) {
            std::this_thread::yield();
            ok = done();
        }
        if (!ok) {
            std::unique_lock<std::mutex> lock(wait_mu_);
            ok = wait_cv_.wait_for(lock, deadline_, done);
        }
        if (poisoned()) throw_fault(HaloFault::Poisoned, suspect, seq);
        if (!ok) throw_fault(HaloFault::Timeout, suspect, seq);
    }

    void notify_waiters() {
        { std::lock_guard<std::mutex> lock(wait_mu_); }
        wait_cv_.notify_all();
    }

    /// Shared tail of finish_post / finish_post_hashed: attach the
    /// integrity word, apply armed corruption, bump metrics, release.
    void publish(std::uint64_t sum, bool corrupt_in_flight) {
        auto& slot = slots_[next_post_ % kSlots];
        meta_seq_[next_post_ % kSlots] = next_post_;
        meta_sum_[next_post_ % kSlots] = sum;
        if (corrupt_in_flight && !slot.empty()) {
            flip_low_bit(slot[slot.size() / 2]);
        }
        if (obs::metrics_enabled()) {
            static auto& messages =
                obs::MetricsRegistry::global().counter("halo.messages");
            static auto& bytes =
                obs::MetricsRegistry::global().counter("halo.bytes");
            messages.add(1);
            bytes.add(slot.size() * sizeof(T));
        }
        ++next_post_;
        posted_.store(next_post_, std::memory_order_release);
        notify_waiters();
    }

    static void flip_low_bit(T& v) {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        bytes[0] ^= 1u;  // lowest mantissa bit: silent without a checksum
        std::memcpy(&v, bytes, sizeof(T));
    }

    /// `seq` is the throwing side's own counter (next_post_ on the
    /// producer, next_receive_ on the consumer): the other side's plain
    /// counter may be written concurrently.
    [[noreturn]] void throw_fault(HaloFault fault, Index suspect,
                                  std::uint64_t seq) const {
        std::string what = std::string("halo channel ") +
                           halo_fault_name(fault) + ": rank " +
                           std::to_string(owner_rank_) + " " +
                           side_name(side_) + " channel (producer rank " +
                           std::to_string(peer_rank_) + "), message #" +
                           std::to_string(seq) + ", suspect rank " +
                           std::to_string(suspect);
        throw HaloFaultError(fault, owner_rank_, peer_rank_, suspect, side_,
                             seq, what);
    }

    std::vector<T> slots_[kSlots];
    std::uint64_t meta_seq_[kSlots] = {0, 0};  ///< integrity: sequence
    std::uint64_t meta_sum_[kSlots] = {0, 0};  ///< integrity: checksum
    std::atomic<std::uint64_t> posted_{0};    ///< release by producer
    std::atomic<std::uint64_t> consumed_{0};  ///< release by consumer
    std::atomic<bool> poisoned_{false};
    std::uint64_t next_post_ = 0;     ///< producer-local sequence
    std::uint64_t next_receive_ = 0;  ///< consumer-local sequence
    std::chrono::nanoseconds deadline_ = kDefaultHaloDeadline;
    std::mutex wait_mu_;
    std::condition_variable wait_cv_;
    Index owner_rank_ = -1;
    Index peer_rank_ = -1;
    int side_ = -1;
};

/// All channels of a px x py periodic decomposition plus the pack/unpack
/// geometry. One channel per (receiving rank, side); the producer of the
/// channel into rank r's side W is r's west neighbor, and so on. Every
/// rank must issue its posts and receives in the same program order (all
/// ranks run the same step program), which keeps each SPSC channel's
/// message stream self-describing — no tags needed.
template <class T>
class HaloExchanger {
  public:
    enum Side : int { West = 0, East = 1, South = 2, North = 3 };

    /// `deadline` bounds every wait on every channel.
    HaloExchanger(Index px, Index py, Index nxl, Index nyl,
                  std::chrono::nanoseconds deadline = kDefaultHaloDeadline)
        : px_(px), py_(py), nxl_(nxl), nyl_(nyl),
          channels_(static_cast<std::size_t>(px * py) * 4),
          arms_(static_cast<std::size_t>(px * py)) {
        for (Index r = 0; r < px_ * py_; ++r) {
            for (int s = 0; s < 4; ++s) {
                channel(r, static_cast<Side>(s))
                    .configure(deadline, r,
                               producer_of(r, static_cast<Side>(s)), s);
            }
        }
    }

    /// Poison every channel: all waits across all ranks fail
    /// immediately, so no rank can hang on a dead peer. Idempotent and
    /// callable from any thread.
    void poison_all() {
        for (auto& ch : channels_) ch.poison();
    }

    /// The producing rank of channel (r, side).
    Index producer_of(Index r, Side side) const {
        switch (side) {
            case West: return neighbor(r, -1, 0);
            case East: return neighbor(r, +1, 0);
            case South: return neighbor(r, 0, -1);
            case North: return neighbor(r, 0, +1);
        }
        return r;
    }

    // --- fault injection arming (resilience tests/benchmarks) ---------
    // Armed per PRODUCING rank and consumed by that rank's own thread on
    // its next post (single-writer per slot: no synchronization needed).

    /// Corrupt one bit of the next strip rank `r` posts (after the
    /// checksum is computed, so the consumer detects it).
    void arm_corrupt(Index r) { arms_.at(static_cast<std::size_t>(r)).corrupt = true; }
    /// Delay rank `r`'s next post by `d` (models a slow link).
    void arm_delay(Index r, std::chrono::nanoseconds d) {
        arms_.at(static_cast<std::size_t>(r)).delay = d;
    }

    /// Pack and post both x-direction strips of `a` (owned by rank r):
    /// the westernmost columns feed the west neighbor's EAST halo, the
    /// easternmost columns feed the east neighbor's WEST halo.
    void post_x(Index r, const Array3<T>& a) {
        obs::TraceSpan span("halo_pack_x", r, "halo");
        const Index h = a.halo();
        const Index sx = a.nx() - nxl_;  // 1 for x-staggered fields
        take_delay(r);
        // West edge -> west neighbor's East-side channel.
        pack_cols(channel(neighbor(r, -1, 0), East), a, 0, h + sx,
                  take_corrupt(r));
        // East edge -> east neighbor's West-side channel.
        pack_cols(channel(neighbor(r, +1, 0), West), a, nxl_ - h, nxl_,
                  false);
    }

    /// Receive both x-direction strips into rank r's halos.
    void recv_x(Index r, Array3<T>& a) {
        obs::TraceSpan span("halo_unpack_x", r, "halo");
        const Index h = a.halo();
        const Index sx = a.nx() - nxl_;
        unpack_cols(channel(r, West), a, -h, 0);
        unpack_cols(channel(r, East), a, nxl_, nxl_ + h + sx);
    }

    /// Pack and post both y-direction strips (full padded i range — the
    /// x halos of `a` must already be received, mirroring the periodic
    /// fill's x-then-y ordering that resolves the corners).
    void post_y(Index r, const Array3<T>& a) {
        obs::TraceSpan span("halo_pack_y", r, "halo");
        const Index h = a.halo();
        const Index sy = a.ny() - nyl_;
        take_delay(r);
        pack_rows(channel(neighbor(r, 0, -1), North), a, 0, h + sy,
                  take_corrupt(r));
        pack_rows(channel(neighbor(r, 0, +1), South), a, nyl_ - h, nyl_,
                  false);
    }

    /// Receive both y-direction strips into rank r's halos.
    void recv_y(Index r, Array3<T>& a) {
        obs::TraceSpan span("halo_unpack_y", r, "halo");
        const Index h = a.halo();
        const Index sy = a.ny() - nyl_;
        unpack_rows(channel(r, South), a, -h, 0);
        unpack_rows(channel(r, North), a, nyl_, nyl_ + h + sy);
    }

    /// Direct channel access.
    HaloChannel<T>& channel(Index rank, Side side) {
        return channels_[static_cast<std::size_t>(rank) * 4 +
                         static_cast<std::size_t>(side)];
    }

    Index neighbor(Index r, Index dx, Index dy) const {
        const Index rx = r % px_, ry = r / px_;
        const Index wx = ((rx + dx) % px_ + px_) % px_;
        const Index wy = ((ry + dy) % py_ + py_) % py_;
        return wy * px_ + wx;
    }

  private:
    struct ArmState {
        bool corrupt = false;
        std::chrono::nanoseconds delay{0};
    };

    bool take_corrupt(Index r) {
        auto& arm = arms_[static_cast<std::size_t>(r)];
        const bool c = arm.corrupt;
        arm.corrupt = false;
        return c;
    }

    void take_delay(Index r) {
        auto& arm = arms_[static_cast<std::size_t>(r)];
        if (arm.delay.count() > 0) {
            const auto d = arm.delay;
            arm.delay = std::chrono::nanoseconds{0};
            std::this_thread::sleep_for(d);
        }
    }

    /// Columns [i0, i1) of `a`, all interior rows, full padded k range.
    /// The FNV integrity word is accumulated IN the pack loop, one row
    /// slab at a time: the slab is copied (vectorizable, no hash chain
    /// in the loop) and then folded from the staging buffer while it is
    /// still store-buffer/L1 resident, so the payload is never re-read
    /// from cold memory for a separate checksum pass.
    void pack_cols(HaloChannel<T>& ch, const Array3<T>& a, Index i0,
                   Index i1, bool corrupt) {
        const Index h = a.halo();
        const Index ny = a.ny(), nz = a.nz();
        auto& buf = ch.begin_post(static_cast<std::size_t>(
            (i1 - i0) * ny * (nz + 2 * h)));
        hash::Fnv4 hh;
        std::size_t n = 0;
        for (Index j = 0; j < ny; ++j) {
            const std::size_t n0 = n;
            for (Index k = -h; k < nz + h; ++k)
                for (Index i = i0; i < i1; ++i) buf[n++] = a(i, j, k);
            hh.add_run(buf.data() + n0, n - n0);
        }
        ch.finish_post_hashed(hh.digest(), corrupt);
    }

    /// Unpack into columns [i0, i1) (halo side), same traversal order.
    /// The verify side is fused the same way: each row slab is folded
    /// from the (cache-resident) message buffer as it is copied out,
    /// and the digest checked against the message's word.
    void unpack_cols(HaloChannel<T>& ch, Array3<T>& a, Index i0, Index i1) {
        const Index h = a.halo();
        const Index ny = a.ny(), nz = a.nz();
        const auto& buf = ch.begin_receive_deferred();
        ASUCA_ASSERT(buf.size() == static_cast<std::size_t>(
                                       (i1 - i0) * ny * (nz + 2 * h)),
                     "halo channel x-strip size mismatch");
        hash::Fnv4 hh;
        std::size_t n = 0;
        for (Index j = 0; j < ny; ++j) {
            const std::size_t n0 = n;
            for (Index k = -h; k < nz + h; ++k)
                for (Index i = i0; i < i1; ++i) a(i, j, k) = buf[n++];
            hh.add_run(buf.data() + n0, n - n0);
        }
        ch.verify_receive(hh.digest());
        ch.finish_receive();
    }

    /// Rows [j0, j1) of `a`, FULL padded i range, full padded k range.
    void pack_rows(HaloChannel<T>& ch, const Array3<T>& a, Index j0,
                   Index j1, bool corrupt) {
        const Index h = a.halo();
        const Index nx = a.nx(), nz = a.nz();
        auto& buf = ch.begin_post(static_cast<std::size_t>(
            (j1 - j0) * (nx + 2 * h) * (nz + 2 * h)));
        hash::Fnv4 hh;
        std::size_t n = 0;
        for (Index j = j0; j < j1; ++j) {
            const std::size_t n0 = n;
            for (Index k = -h; k < nz + h; ++k)
                for (Index i = -h; i < nx + h; ++i) buf[n++] = a(i, j, k);
            hh.add_run(buf.data() + n0, n - n0);
        }
        ch.finish_post_hashed(hh.digest(), corrupt);
    }

    void unpack_rows(HaloChannel<T>& ch, Array3<T>& a, Index j0, Index j1) {
        const Index h = a.halo();
        const Index nx = a.nx(), nz = a.nz();
        const auto& buf = ch.begin_receive_deferred();
        ASUCA_ASSERT(buf.size() == static_cast<std::size_t>(
                                       (j1 - j0) * (nx + 2 * h) * (nz + 2 * h)),
                     "halo channel y-strip size mismatch");
        hash::Fnv4 hh;
        std::size_t n = 0;
        for (Index j = j0; j < j1; ++j) {
            const std::size_t n0 = n;
            for (Index k = -h; k < nz + h; ++k)
                for (Index i = -h; i < nx + h; ++i) a(i, j, k) = buf[n++];
            hh.add_run(buf.data() + n0, n - n0);
        }
        ch.verify_receive(hh.digest());
        ch.finish_receive();
    }

    Index px_, py_, nxl_, nyl_;
    std::vector<HaloChannel<T>> channels_;
    std::vector<ArmState> arms_;  ///< per-rank injection arming
};

}  // namespace asuca::cluster
