#pragma once

// FNV-1a hashing shared by the integrity paths (halo channels, checkpoints,
// scenario fingerprints).  Two granularities:
//
//  - fnv1a_bytes: the classic byte-at-a-time variant, and the repo's only
//    byte-wise FNV-1a loop.  The wrapped-blob frame checksum, the v3
//    per-section checksums, the durable store's file names and
//    state_fingerprint are all defined in terms of it, so it must never
//    change.  Note kFnvOffset is 1469598103934665603, not the standard
//    basis 14695981039346656037; every stored digest depends on it.
//  - fnv1a_value / fnv1a_elems: element-at-a-time — one xor+multiply per
//    scalar value instead of one per byte.  ~8x cheaper for double payloads.
//  - Fnv4 / fnv1a_elems4: the 4-lane paired variant the halo integrity word
//    uses — see the section comment below.  Neither element-wise word is
//    byte-compatible with fnv1a_bytes; both sides of a halo message use the
//    same variant so these are purely in-memory protocols.

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace asuca::hash {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline std::uint64_t fnv1a_bytes(const void* data, std::size_t n,
                                 std::uint64_t h = kFnvOffset) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

// Fold one scalar value into the running hash.  Values wider than 8 bytes
// fall back to the byte loop; everything the model uses (float/double/ints)
// fits in a single 64-bit lane.
template <class T>
inline std::uint64_t fnv1a_value(std::uint64_t h, const T& v) {
    static_assert(sizeof(T) <= 8, "fnv1a_value expects scalar types");
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(T));
    h ^= bits;
    h *= kFnvPrime;
    return h;
}

template <class T>
inline std::uint64_t fnv1a_elems(const T* p, std::size_t n,
                                 std::uint64_t h = kFnvOffset) {
    for (std::size_t i = 0; i < n; ++i) h = fnv1a_value(h, p[i]);
    return h;
}

// --- 4-lane paired variant ----------------------------------------------
//
// The single-lane fold is a loop-carried xor-multiply chain: each element
// waits ~3 cycles on the previous multiply, which caps the hash at the
// multiplier's LATENCY.  Even with latency hidden, one multiply per
// element caps it at the multiplier's THROUGHPUT (~1/cycle).  The halo
// integrity word therefore uses a widened protocol:
//
//   - elements are taken as 64-bit words in stream order and xor-combined
//     in PAIRS (word 2q ^ word 2q+1), one FNV-1a fold per pair;
//   - pair q feeds lane q mod 4; the four lanes are independent chains,
//     so the multiplies pipeline;
//   - the digest folds a trailing unpaired word (odd streams) into the
//     lane the next pair would have used, then folds the four lane words
//     in order starting from kFnvOffset.
//
// Eight elements per four independent multiplies ≈ half a cycle per
// element.  Any single corrupted element still flips its pair word and
// so the digest; only a corruption that flips the SAME bits in both
// elements of one pair cancels, which no real fault mode produces.  The
// digest is NOT equal to fnv1a_elems — it is an in-memory protocol and
// both sides of a halo message use it.

inline constexpr std::uint64_t kLaneInit[4] = {
    kFnvOffset, kFnvOffset ^ 0x9e3779b97f4a7c15ull,
    kFnvOffset ^ 0xc2b2ae3d27d4eb4full, kFnvOffset ^ 0x165667b19e3779f9ull};

template <class T>
inline std::uint64_t to_bits(const T& v) {
    static_assert(sizeof(T) <= 8, "to_bits expects scalar types");
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(T));
    return bits;
}

/// Streaming accumulator for the 4-lane paired protocol: add() elements
/// in message order (add_run for contiguous spans — much faster),
/// digest() at the end.  Equals fnv1a_elems4 over the same sequence.
class Fnv4 {
  public:
    template <class T>
    void add(const T& v) {
        const std::uint64_t bits = to_bits(v);
        if (idx_ & 1u) {
            const unsigned lane = (idx_ >> 1) & 3u;
            lanes_[lane] = fnv1a_value(lanes_[lane], pending_ ^ bits);
        } else {
            pending_ = bits;
        }
        ++idx_;
    }

    /// Fold a contiguous run, continuing the global element rotation.
    /// The 8-wide body keeps the four lanes in registers; the scalar
    /// prologue/epilogue handle spans that start or end off an
    /// 8-element boundary.
    template <class T>
    void add_run(const T* p, std::size_t len) {
        std::size_t i = 0;
        while (i < len && (idx_ & 7u)) add(p[i++]);
        if (i + 8 <= len) {
            std::uint64_t h0 = lanes_[0], h1 = lanes_[1], h2 = lanes_[2],
                          h3 = lanes_[3];
            const std::size_t i0 = i;
            for (; i + 8 <= len; i += 8) {
                h0 = fnv1a_value(h0, to_bits(p[i]) ^ to_bits(p[i + 1]));
                h1 = fnv1a_value(h1, to_bits(p[i + 2]) ^ to_bits(p[i + 3]));
                h2 = fnv1a_value(h2, to_bits(p[i + 4]) ^ to_bits(p[i + 5]));
                h3 = fnv1a_value(h3, to_bits(p[i + 6]) ^ to_bits(p[i + 7]));
            }
            lanes_[0] = h0;
            lanes_[1] = h1;
            lanes_[2] = h2;
            lanes_[3] = h3;
            idx_ += i - i0;
        }
        while (i < len) add(p[i++]);
    }

    std::uint64_t digest() const {
        std::uint64_t tail[4] = {lanes_[0], lanes_[1], lanes_[2], lanes_[3]};
        if (idx_ & 1u) {
            const unsigned lane = (idx_ >> 1) & 3u;
            tail[lane] = fnv1a_value(tail[lane], pending_);
        }
        std::uint64_t h = kFnvOffset;
        for (const std::uint64_t l : tail) h = fnv1a_value(h, l);
        return h;
    }

  private:
    std::uint64_t lanes_[4] = {kLaneInit[0], kLaneInit[1], kLaneInit[2],
                               kLaneInit[3]};
    std::uint64_t pending_ = 0;
    std::size_t idx_ = 0;
};

/// Block form of the 4-lane paired protocol (the reference the halo
/// channels recompute against).
template <class T>
inline std::uint64_t fnv1a_elems4(const T* p, std::size_t n) {
    Fnv4 h;
    h.add_run(p, n);
    return h.digest();
}

}  // namespace asuca::hash
