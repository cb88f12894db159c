// Double-buffered, incremental in-memory rollback snapshots.
//
// A rollback point is a raw copy of every rank's padded state, kept per
// rank in plain buffers:
//
//   * Rank-side capture. When a step is due a rollback point, each rank
//     copies its own freshly computed state into the STAGING side at the
//     end of its step program, on its own worker thread — no snapshot
//     thread, no cross-rank coordination, and no rank ever waits on
//     another rank's copy. The copy runs before the driver injects field
//     faults or scans the states, so it holds exactly the bits the step
//     computed.
//   * Double buffer. The COMMITTED side stays restorable while the
//     staging side fills. The driver promotes staging -> committed only
//     after the step's health scan passes; a step that fails (an
//     exception, a watchdog finding) leaves the committed side in place,
//     and the next round simply overwrites the abandoned staging copy.
//   * Incremental: the time-invariant reference fields (rho_ref, p_ref,
//     rhotheta_ref, cs2) are copied ONCE per configuration and only
//     restored thereafter — per-field dirty tracking degenerates to
//     "dynamic fields every round, static fields never again". On top
//     of that, every copy tracks dirty j-slabs: a capture memcmp's each
//     contiguous j row against the destination buffer and copies only
//     the rows that changed since that buffer last held them (see
//     RankFieldCopy); a capture into a fresh buffer is a full copy.
//
// The restored bytes are the full padded arrays, so halos revive
// exactly. Validated against gather()-visible state and replay bitwise
// equality in tests/test_resilience.cpp.
#pragma once

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/types.hpp"
#include "src/core/state.hpp"
#include "src/observability/metrics.hpp"
#include "src/observability/trace.hpp"

namespace asuca::resilience {

namespace detail {

/// The fields a snapshot must copy every round (everything a step
/// mutates, full padded windows so halos revive exactly).
template <class T, class StateT, class F>
void for_each_dynamic_field(StateT& s, F&& f) {
    f(s.rho);
    f(s.rhou);
    f(s.rhov);
    f(s.rhow);
    f(s.rhotheta);
    f(s.p);
    for (auto& q : s.tracers) f(q);
}

/// The time-invariant reference fields: copied once, restored on demand.
template <class T, class StateT, class F>
void for_each_static_field(StateT& s, F&& f) {
    f(s.rho_ref);
    f(s.p_ref);
    f(s.rhotheta_ref);
    f(s.cs2);
}

}  // namespace detail

/// Raw copies of one rank's dynamic fields. Buffers are sized on first
/// capture and reused; the steady state allocates nothing.
///
/// Captures track dirty regions at j-slab granularity: j is the
/// OUTERMOST axis in both storage layouts (layout.hpp — sy is the
/// largest stride in ZXY and XZY alike), so one j-slab is one contiguous
/// chunk of size()/padded_y elements in the flat buffer. A capture
/// memcmp's each slab against the destination buffer and copies only the
/// slabs that changed — correct under ANY buffer staleness (double
/// buffering, missed rounds) because the comparison target IS the
/// destination: equal means the buffer already holds the source bytes,
/// different means they get copied now. The returned byte count is the
/// bytes actually copied (what resilience.snapshot_bytes reports); a
/// localized update copies only the rows it touched. First capture into
/// a fresh buffer is always a full copy.
template <class T>
class RankFieldCopy {
  public:
    /// Returns the number of bytes copied.
    std::size_t capture_dynamic(const State<T>& s) {
        std::size_t idx = 0, bytes = 0;
        detail::for_each_dynamic_field<T>(s, [&](const Array3<T>& a) {
            bytes += copy_in(idx++, a);
        });
        return bytes;
    }

    std::size_t capture_static(const State<T>& s) {
        std::size_t idx = 0, bytes = 0;
        detail::for_each_static_field<T>(s, [&](const Array3<T>& a) {
            bytes += copy_in(idx++, a);
        });
        return bytes;
    }

    void restore_dynamic(State<T>& s) const {
        std::size_t idx = 0;
        detail::for_each_dynamic_field<T>(s, [&](Array3<T>& a) {
            copy_out(idx++, a);
        });
    }

    void restore_static(State<T>& s) const {
        std::size_t idx = 0;
        detail::for_each_static_field<T>(s, [&](Array3<T>& a) {
            copy_out(idx++, a);
        });
    }

  private:
    std::size_t copy_in(std::size_t idx, const Array3<T>& a) {
        if (idx >= bufs_.size()) bufs_.resize(idx + 1);
        auto& buf = bufs_[idx];
        const bool fresh = buf.size() != a.size();
        buf.resize(a.size());
        if (fresh) {
            std::memcpy(buf.data(), a.data(), a.size() * sizeof(T));
            return a.size() * sizeof(T);
        }
        // One contiguous chunk per padded j row (j is outermost in both
        // layouts); compare-then-copy each against the destination.
        const auto rows =
            static_cast<std::size_t>(a.padded_extents().y);
        const std::size_t chunk = a.size() / rows;
        const std::size_t chunk_bytes = chunk * sizeof(T);
        std::size_t bytes = 0;
        const T* src = a.data();
        T* dst = buf.data();
        for (std::size_t r = 0; r < rows; ++r) {
            const std::size_t at = r * chunk;
            if (std::memcmp(dst + at, src + at, chunk_bytes) != 0) {
                std::memcpy(dst + at, src + at, chunk_bytes);
                bytes += chunk_bytes;
            }
        }
        return bytes;
    }

    void copy_out(std::size_t idx, Array3<T>& a) const {
        ASUCA_ASSERT(idx < bufs_.size() && bufs_[idx].size() == a.size(),
                     "snapshot buffer/field shape mismatch");
        std::memcpy(a.data(), bufs_[idx].data(), a.size() * sizeof(T));
    }

    std::vector<std::vector<T>> bufs_;
};

/// Double-buffered rollback snapshots of a set of ranks. Thread roles:
///   driver — configure / invalidate / capture_sync / promote / restore,
///            only while no rank program is running (between steps);
///   rank r — stage(r, ...), on rank r's own worker; distinct ranks may
///            stage concurrently, since each writes only its own buffers.
template <class T>
class RollbackSnapshots {
  public:
    using Source = std::function<const State<T>&(Index)>;

    void configure(Index ranks) {
        ASUCA_REQUIRE(ranks >= 1, "snapshots need at least one rank");
        nranks_ = ranks;
        for (auto& side : bufs_) {
            side.assign(static_cast<std::size_t>(ranks), RankFieldCopy<T>{});
        }
        statics_.assign(static_cast<std::size_t>(ranks), RankFieldCopy<T>{});
        staged_bytes_.assign(static_cast<std::size_t>(ranks), kNotStaged);
        statics_valid_ = false;
        valid_ = false;
        last_round_bytes_ = 0;
    }

    bool valid() const { return valid_; }
    long long step() const { return committed_step_; }
    double mass() const { return committed_mass_; }
    /// Bytes actually copied by the most recently committed round (a
    /// localized-update round copies only its dirty j-slabs).
    std::size_t last_round_bytes() const { return last_round_bytes_; }

    /// Drop every snapshot (and the statics) — the rank states are about
    /// to be replaced wholesale (scatter, checkpoint load).
    void invalidate() {
        valid_ = false;
        statics_valid_ = false;
        discard_staged();
    }

    /// Capture from `src` on the calling thread, directly into the
    /// COMMITTED side. Used for the initial rollback point.
    void capture_sync(const Source& src, long long step, double mass) {
        obs::TraceSpan span("snapshot_sync", "resilience");
        std::size_t bytes = 0;
        for (Index r = 0; r < nranks_; ++r) {
            const State<T>& s = src(r);
            bytes += bufs_[committed_][static_cast<std::size_t>(r)]
                         .capture_dynamic(s);
            if (!statics_valid_) {
                bytes += statics_[static_cast<std::size_t>(r)]
                             .capture_static(s);
            }
        }
        statics_valid_ = true;
        committed_step_ = step;
        committed_mass_ = mass;
        valid_ = true;
        last_round_bytes_ = bytes;
        count_bytes(bytes);
    }

    /// Rank r copies its own state into the STAGING side.
    void stage(Index r, const State<T>& s) {
        obs::TraceSpan span("snapshot_copy", r, "resilience");
        const int staging = committed_ ^ 1;
        staged_bytes_[static_cast<std::size_t>(r)] =
            bufs_[staging][static_cast<std::size_t>(r)].capture_dynamic(s);
    }

    /// Make the staged round the rollback point of `step`. Every rank
    /// must have staged since the last promote, restore or invalidate.
    void promote(long long step, double mass) {
        std::size_t bytes = 0;
        for (const std::size_t b : staged_bytes_) {
            ASUCA_REQUIRE(b != kNotStaged,
                          "promoting a snapshot round some rank never staged");
            bytes += b;
        }
        committed_ ^= 1;
        committed_step_ = step;
        committed_mass_ = mass;
        valid_ = true;
        last_round_bytes_ = bytes;
        count_bytes(bytes);
        discard_staged();
    }

    /// Restore the committed snapshot: dynamic fields from the committed
    /// buffers, static fields from the once-captured copies. A staged,
    /// unpromoted round is dropped.
    void restore(const std::function<State<T>&(Index)>& dst) {
        ASUCA_REQUIRE(valid_, "no committed snapshot to restore");
        obs::TraceSpan span("snapshot_restore", "resilience");
        for (Index r = 0; r < nranks_; ++r) {
            State<T>& s = dst(r);
            bufs_[committed_][static_cast<std::size_t>(r)]
                .restore_dynamic(s);
            statics_[static_cast<std::size_t>(r)].restore_static(s);
        }
        discard_staged();
    }

  private:
    static constexpr std::size_t kNotStaged =
        std::numeric_limits<std::size_t>::max();

    void discard_staged() {
        std::fill(staged_bytes_.begin(), staged_bytes_.end(), kNotStaged);
    }

    static void count_bytes(std::size_t bytes) {
        if (bytes == 0 || !obs::metrics_enabled()) return;
        static auto& counter = obs::MetricsRegistry::global().counter(
            "resilience.snapshot_bytes");
        counter.add(bytes);
    }

    Index nranks_ = 0;
    std::vector<RankFieldCopy<T>> bufs_[2];  ///< double buffer
    std::vector<RankFieldCopy<T>> statics_;  ///< copied once
    /// Bytes each rank copied into the staging side this round, or
    /// kNotStaged.
    std::vector<std::size_t> staged_bytes_;
    bool statics_valid_ = false;
    int committed_ = 0;  ///< which side of bufs_ is restorable
    bool valid_ = false;
    std::size_t last_round_bytes_ = 0;
    long long committed_step_ = 0;
    double committed_mass_ = 0.0;
};

}  // namespace asuca::resilience
