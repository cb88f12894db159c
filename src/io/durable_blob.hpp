// Durable blobs: the repo's one on-disk container — crash-safe file
// writes plus a self-checking frame around an arbitrary payload.
//
// Everything the repo keeps for a restart lands on disk through here:
// single-domain checkpoints (io::save_checkpoint), multi-rank checkpoints
// (MultiDomainRunner::save_checkpoint) and the forecast service's
// durable store (analysis epochs and the JSON result cache,
// src/server/checkpoint_store.hpp). Two properties matter:
//
//   * Atomicity — a crash mid-write must never leave a half-written
//     file under the final name. write_file_atomic() writes to a
//     same-directory temp name and commits with std::filesystem::rename,
//     which POSIX guarantees is atomic within a filesystem: readers see
//     the old bytes or the new bytes, never a torn mix, and a failed
//     write throws with the previous file still in place.
//   * Detectability — bytes CAN rot on disk (torn sector under the old
//     name, bit flip, truncation by a crashed writer on non-POSIX
//     semantics). wrap_blob() frames a payload as magic + payload length
//     + whole-payload FNV-1a, and verify_wrapped_blob() rejects a damaged
//     frame without knowing anything about the payload's meaning, so a
//     store can skip a damaged epoch before anything touches model state
//     and fall back to an older one.
//
// The frame is payload-agnostic: this header knows nothing of the
// checkpoint v3 stream. src/io/checkpoint.hpp wraps its stream on save
// and unwraps it before staging on load.
#pragma once

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/common/error.hpp"
#include "src/common/hash.hpp"

namespace asuca::io {

/// Read a whole file into a string. Throws asuca::Error when the file
/// cannot be opened or read, or is not a regular file (a directory opens
/// but reports a bogus size).
inline std::string read_file(const std::string& path) {
    std::error_code ec;
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    ASUCA_REQUIRE(in.good() && std::filesystem::is_regular_file(path, ec),
                  "cannot open " << path);
    const auto bytes = static_cast<std::streamsize>(in.tellg());
    in.seekg(0);
    std::string out(static_cast<std::size_t>(bytes), '\0');
    in.read(out.data(), bytes);
    ASUCA_REQUIRE(in.good(), "short read from " << path);
    return out;
}

/// Crash-safe write: the bytes land under a same-directory temp name and
/// are committed by an atomic rename, so `path` only ever names a fully
/// written file. Overwrites an existing file atomically. Throws on I/O
/// failure (the temp file is cleaned up best-effort).
inline void write_file_atomic(const std::string& path,
                              const std::string& bytes) {
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        ASUCA_REQUIRE(out.good(), "cannot open " << tmp);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        out.flush();
        if (!out.good()) {
            out.close();
            std::error_code ec;
            std::filesystem::remove(tmp, ec);
            ASUCA_REQUIRE(false, "write failed: " << tmp);
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        ASUCA_REQUIRE(false, "atomic rename to " << path << " failed");
    }
}

namespace detail {
/// "ASWB1" — ASuca Wrapped Blob v1 — packed little-endian into a word.
inline constexpr std::uint64_t kWrapMagic = 0x0000003142575341ull;
/// Frame header: magic, payload bytes and payload FNV-1a, one u64 each.
inline constexpr std::size_t kWrapHeader = 3 * sizeof(std::uint64_t);
}  // namespace detail

/// Frame an arbitrary payload as a wrapped blob:
/// [magic u64][payload_bytes u64][fnv1a u64][payload].
inline std::string wrap_blob(const std::string& payload) {
    const std::uint64_t header[3] = {
        detail::kWrapMagic, payload.size(),
        hash::fnv1a_bytes(payload.data(), payload.size())};
    std::string out(detail::kWrapHeader, '\0');
    std::memcpy(out.data(), header, sizeof(header));
    out += payload;
    return out;
}

/// Verify a wrapped blob's framing and checksum (hashed in place).
/// Returns true for an intact blob; on failure returns false with the
/// first problem in `*why` (when non-null). Never throws.
inline bool verify_wrapped_blob(const std::string& blob,
                                std::string* why = nullptr) {
    const auto fail = [&](const std::string& reason) {
        if (why != nullptr) *why = reason;
        return false;
    };
    if (blob.size() < detail::kWrapHeader) {
        return fail("truncated (wrapped-blob header)");
    }
    std::uint64_t header[3] = {};
    std::memcpy(header, blob.data(), sizeof(header));
    if (header[0] != detail::kWrapMagic) return fail("not a wrapped blob");
    const std::size_t bytes = blob.size() - detail::kWrapHeader;
    if (header[1] != bytes) return fail("wrapped-blob length mismatch");
    if (header[2] != hash::fnv1a_bytes(blob.data() + detail::kWrapHeader,
                                       bytes)) {
        return fail("wrapped-blob checksum mismatch");
    }
    return true;
}

/// Verify the frame and strip it in place, returning the payload; throws
/// asuca::Error naming the first problem when the frame is damaged. Pass
/// an rvalue (`unwrap_blob(read_file(path))`) and nothing is copied.
inline std::string unwrap_blob(std::string blob) {
    std::string why;
    ASUCA_REQUIRE(verify_wrapped_blob(blob, &why),
                  "damaged wrapped blob: " << why);
    blob.erase(0, detail::kWrapHeader);
    return blob;
}

}  // namespace asuca::io
