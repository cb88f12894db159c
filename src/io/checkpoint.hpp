// Binary checkpoint / exact-restart of the model state (format v3).
//
// Production forecast systems restart bit-exactly from checkpoints; this
// writes every prognostic and reference field (full padded extents, so a
// restart needs no halo refill) plus shape/species metadata for
// validation on load.
//
// v2 added a named side-state section after the field arrays, carrying
// prognostic state that lives OUTSIDE State<T>: accumulated surface
// precipitation (Kessler and per-species sedimentation accumulators) and
// the model clock's step counter. A v1 restart silently zeroed all of
// these; v1 files are now rejected via the version field. Each side entry
// is (name, tag, payload) with tag 0 = f64 scalar and tag 1 = a full
// Array2<double> (with halo); names are matched strictly both ways, so a
// checkpoint from a configuration with different physics enabled fails
// loudly instead of part-restoring.
//
// v3 appends an FNV-1a checksum to every payload section (each field
// array and each side-state entry), so a bit-flipped byte anywhere in a
// stream is rejected with a clean error instead of silently restoring
// corrupt physics. Old versions are rejected via the version field.
//
// On disk, the v3 stream is the payload of a wrapped blob
// (src/io/durable_blob.hpp: magic, length, whole-payload FNV-1a, written
// by atomic rename), the one container every durable file uses.
// save_checkpoint() frames the stream and commits it by rename, so a
// failed or interrupted save leaves the previous checkpoint intact;
// load_checkpoint() reads the file, verifies and strips the frame, and
// only then stages the stream. This header is the only one that knows
// the v3 layout.
//
// Error-path guarantees (specified by the CheckpointRestartNegative
// tests): a damaged frame, a truncated stream, a corrupted section
// length, a flipped payload bit and a wrong-version header all throw
// asuca::Error. The FILE loader load_checkpoint() is additionally
// TRANSACTIONAL — it stages into copies and commits only after the whole
// stream verified, so a failed load leaves the destination state and
// side-state bitwise untouched. The side-state section is
// staged-then-committed even on the stream path. The stream loader's
// field arrays read in place: every caller loads into a state it
// discards on failure — a warm start's freshly built model
// (server/ensemble.hpp) or the multi-rank loader's staged copies
// (MultiDomainRunner::load_checkpoint). Rollback snapshots do not use
// this format; they are raw array copies (resilience/snapshot.hpp).
//
// The serializer core is stream-based (save_state/load_state) so a
// multi-rank checkpoint can carry one section per rank in a single
// blob and the forecast service can hold analysis blobs in memory;
// save_checkpoint/load_checkpoint are file wrappers over it.
#pragma once

#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/hash.hpp"
#include "src/core/state.hpp"
#include "src/field/array2.hpp"
#include "src/io/durable_blob.hpp"

namespace asuca::io {

/// Named non-State prognostic side state to round-trip with a checkpoint.
/// Pointees must outlive the save/load call; load writes through them.
struct SideState {
    std::vector<std::pair<std::string, double*>> scalars;
    std::vector<std::pair<std::string, Array2<double>*>> arrays;

    std::size_t count() const { return scalars.size() + arrays.size(); }

    void add(std::string name, double* value) {
        scalars.emplace_back(std::move(name), value);
    }
    void add(std::string name, Array2<double>* array) {
        arrays.emplace_back(std::move(name), array);
    }
};

namespace detail {

inline constexpr std::uint64_t kMagic = 0x4153554341434b50ull;  // "ASUCACKP"
inline constexpr std::uint32_t kVersion = 3;

inline constexpr std::uint8_t kTagScalar = 0;
inline constexpr std::uint8_t kTagArray2 = 1;

/// The per-section integrity checksum v3 appends after every payload:
/// byte-wise FNV-1a, the same hash the wrapped-blob frame uses.
inline void write_checksum(std::ostream& out, const void* data,
                           std::size_t bytes) {
    const std::uint64_t sum = hash::fnv1a_bytes(data, bytes);
    out.write(reinterpret_cast<const char*>(&sum), sizeof(sum));
}

/// Read the stored checksum and verify it against the just-read payload.
inline void verify_checksum(std::istream& in, const void* data,
                            std::size_t bytes, const char* what) {
    std::uint64_t stored = 0;
    in.read(reinterpret_cast<char*>(&stored), sizeof(stored));
    ASUCA_REQUIRE(in.good(),
                  "checkpoint truncated (" << what << " checksum)");
    ASUCA_REQUIRE(stored == hash::fnv1a_bytes(data, bytes),
                  "checkpoint corrupted: " << what
                                           << " checksum mismatch (payload "
                                           << "bytes damaged on disk?)");
}

template <class T>
void write_array(std::ostream& out, const Array3<T>& a) {
    const Int3 e = a.extents();
    const std::int64_t meta[4] = {e.x, e.y, e.z, a.halo()};
    out.write(reinterpret_cast<const char*>(meta), sizeof(meta));
    out.write(reinterpret_cast<const char*>(a.data()),
              static_cast<std::streamsize>(a.size() * sizeof(T)));
    write_checksum(out, a.data(), a.size() * sizeof(T));
}

template <class T>
void read_array(std::istream& in, Array3<T>& a) {
    std::int64_t meta[4];
    in.read(reinterpret_cast<char*>(meta), sizeof(meta));
    ASUCA_REQUIRE(in.good(), "checkpoint truncated (array header)");
    const Int3 e = a.extents();
    ASUCA_REQUIRE(meta[0] == e.x && meta[1] == e.y && meta[2] == e.z &&
                      meta[3] == a.halo(),
                  "checkpoint array shape " << meta[0] << "x" << meta[1]
                                            << "x" << meta[2] << "/h"
                                            << meta[3]
                                            << " does not match the model");
    in.read(reinterpret_cast<char*>(a.data()),
            static_cast<std::streamsize>(a.size() * sizeof(T)));
    ASUCA_REQUIRE(in.good(), "checkpoint truncated (array data)");
    verify_checksum(in, a.data(), a.size() * sizeof(T), "field array");
}

inline void write_side(std::ostream& out, const SideState& side) {
    const auto n = static_cast<std::uint32_t>(side.count());
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    auto write_name = [&](const std::string& name, std::uint8_t tag) {
        const auto len = static_cast<std::uint32_t>(name.size());
        out.write(reinterpret_cast<const char*>(&len), sizeof(len));
        out.write(name.data(), static_cast<std::streamsize>(len));
        out.write(reinterpret_cast<const char*>(&tag), sizeof(tag));
    };
    for (const auto& [name, value] : side.scalars) {
        write_name(name, kTagScalar);
        out.write(reinterpret_cast<const char*>(value), sizeof(double));
        write_checksum(out, value, sizeof(double));
    }
    for (const auto& [name, array] : side.arrays) {
        write_name(name, kTagArray2);
        const std::int64_t meta[3] = {array->nx(), array->ny(),
                                      array->halo()};
        out.write(reinterpret_cast<const char*>(meta), sizeof(meta));
        out.write(reinterpret_cast<const char*>(array->data()),
                  static_cast<std::streamsize>(array->size() *
                                               sizeof(double)));
        write_checksum(out, array->data(), array->size() * sizeof(double));
    }
}

/// Read the side-state section. Staged-then-committed: every payload is
/// read and checksum-verified into temporaries first, and the callers'
/// destinations are only written once the WHOLE section parsed — a
/// corrupt or truncated side section never part-restores accumulators.
inline void read_side(std::istream& in, const SideState& side) {
    std::uint32_t n = 0;
    in.read(reinterpret_cast<char*>(&n), sizeof(n));
    ASUCA_REQUIRE(in.good(), "checkpoint truncated (side-state count)");
    ASUCA_REQUIRE(n == side.count(),
                  "checkpoint carries " << n << " side-state entries, model "
                                        << "expects " << side.count());
    std::vector<char> seen(side.count(), 0);
    std::vector<std::pair<double*, double>> staged_scalars;
    std::vector<std::pair<Array2<double>*, std::vector<double>>> staged_arrays;
    for (std::uint32_t e = 0; e < n; ++e) {
        std::uint32_t len = 0;
        in.read(reinterpret_cast<char*>(&len), sizeof(len));
        ASUCA_REQUIRE(in.good() && len <= 4096,
                      "checkpoint truncated (side-state name)");
        std::string name(len, '\0');
        in.read(name.data(), static_cast<std::streamsize>(len));
        std::uint8_t tag = 0xff;
        in.read(reinterpret_cast<char*>(&tag), sizeof(tag));
        ASUCA_REQUIRE(in.good(), "checkpoint truncated (side-state tag)");
        if (tag == kTagScalar) {
            double* dst = nullptr;
            for (std::size_t s = 0; s < side.scalars.size(); ++s) {
                if (side.scalars[s].first == name) {
                    ASUCA_REQUIRE(!seen[s], "duplicate side-state entry "
                                                << name);
                    seen[s] = 1;
                    dst = side.scalars[s].second;
                    break;
                }
            }
            ASUCA_REQUIRE(dst != nullptr,
                          "checkpoint side-state scalar '"
                              << name << "' unknown to this configuration");
            double value = 0.0;
            in.read(reinterpret_cast<char*>(&value), sizeof(double));
            ASUCA_REQUIRE(in.good(),
                          "checkpoint truncated (side-state data)");
            verify_checksum(in, &value, sizeof(double), "side-state scalar");
            staged_scalars.emplace_back(dst, value);
        } else if (tag == kTagArray2) {
            Array2<double>* dst = nullptr;
            for (std::size_t s = 0; s < side.arrays.size(); ++s) {
                if (side.arrays[s].first == name) {
                    const std::size_t slot = side.scalars.size() + s;
                    ASUCA_REQUIRE(!seen[slot], "duplicate side-state entry "
                                                   << name);
                    seen[slot] = 1;
                    dst = side.arrays[s].second;
                    break;
                }
            }
            ASUCA_REQUIRE(dst != nullptr,
                          "checkpoint side-state array '"
                              << name << "' unknown to this configuration");
            std::int64_t meta[3];
            in.read(reinterpret_cast<char*>(meta), sizeof(meta));
            ASUCA_REQUIRE(in.good() && meta[0] == dst->nx() &&
                              meta[1] == dst->ny() && meta[2] == dst->halo(),
                          "checkpoint side-state array '"
                              << name << "' shape does not match the model");
            std::vector<double> payload(dst->size());
            in.read(reinterpret_cast<char*>(payload.data()),
                    static_cast<std::streamsize>(payload.size() *
                                                 sizeof(double)));
            ASUCA_REQUIRE(in.good(),
                          "checkpoint truncated (side-state data)");
            verify_checksum(in, payload.data(),
                            payload.size() * sizeof(double),
                            "side-state array");
            staged_arrays.emplace_back(dst, std::move(payload));
        } else {
            ASUCA_REQUIRE(false, "checkpoint side-state entry '"
                                     << name << "' has unknown tag "
                                     << static_cast<int>(tag));
        }
    }
    // Whole section verified — commit.
    for (const auto& [dst, value] : staged_scalars) *dst = value;
    for (auto& [dst, payload] : staged_arrays) {
        std::memcpy(dst->data(), payload.data(),
                    payload.size() * sizeof(double));
    }
}

}  // namespace detail

/// Serialize `state` (plus optional side state) at simulation time `time`
/// to a binary stream. The stream form is what the resilience layer uses
/// for in-memory rank snapshots.
template <class T>
void save_state(std::ostream& out, const State<T>& state, double time,
                const SideState& side = {}) {
    const std::uint64_t magic = detail::kMagic;
    const std::uint32_t version = detail::kVersion;
    const std::uint32_t elem_size = sizeof(T);
    const std::uint32_t n_tracers =
        static_cast<std::uint32_t>(state.tracers.size());
    out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out.write(reinterpret_cast<const char*>(&elem_size), sizeof(elem_size));
    out.write(reinterpret_cast<const char*>(&n_tracers), sizeof(n_tracers));
    out.write(reinterpret_cast<const char*>(&time), sizeof(time));
    for (std::uint32_t n = 0; n < n_tracers; ++n) {
        const auto sp = static_cast<std::int32_t>(state.species.at(n));
        out.write(reinterpret_cast<const char*>(&sp), sizeof(sp));
    }
    detail::write_array(out, state.rho);
    detail::write_array(out, state.rhou);
    detail::write_array(out, state.rhov);
    detail::write_array(out, state.rhow);
    detail::write_array(out, state.rhotheta);
    detail::write_array(out, state.p);
    detail::write_array(out, state.rho_ref);
    detail::write_array(out, state.p_ref);
    detail::write_array(out, state.rhotheta_ref);
    detail::write_array(out, state.cs2);
    for (const auto& q : state.tracers) detail::write_array(out, q);
    detail::write_side(out, side);
    ASUCA_REQUIRE(out.good(), "checkpoint stream write failed");
}

/// Deserialize into `state` (shapes, species and side-state names must
/// match); returns the stored simulation time.
template <class T>
double load_state(std::istream& in, State<T>& state,
                  const SideState& side = {}) {
    std::uint64_t magic = 0;
    std::uint32_t version = 0, elem_size = 0, n_tracers = 0;
    double time = 0.0;
    in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
    in.read(reinterpret_cast<char*>(&version), sizeof(version));
    in.read(reinterpret_cast<char*>(&elem_size), sizeof(elem_size));
    in.read(reinterpret_cast<char*>(&n_tracers), sizeof(n_tracers));
    in.read(reinterpret_cast<char*>(&time), sizeof(time));
    ASUCA_REQUIRE(in.good(), "checkpoint truncated (file header)");
    ASUCA_REQUIRE(magic == detail::kMagic, "not an ASUCA checkpoint");
    ASUCA_REQUIRE(version == detail::kVersion,
                  "unsupported checkpoint version "
                      << version << " (expected " << detail::kVersion
                      << "; v1 lacks microphysics side state, v2 lacks "
                      << "payload checksums — neither restarts safely)");
    ASUCA_REQUIRE(elem_size == sizeof(T),
                  "checkpoint precision (" << elem_size
                                           << " B) does not match model ("
                                           << sizeof(T) << " B)");
    ASUCA_REQUIRE(n_tracers == state.tracers.size(),
                  "checkpoint has " << n_tracers << " tracers, model has "
                                    << state.tracers.size());
    for (std::uint32_t n = 0; n < n_tracers; ++n) {
        std::int32_t sp = -1;
        in.read(reinterpret_cast<char*>(&sp), sizeof(sp));
        ASUCA_REQUIRE(sp == static_cast<std::int32_t>(state.species.at(n)),
                      "checkpoint species order differs at slot " << n);
    }
    detail::read_array(in, state.rho);
    detail::read_array(in, state.rhou);
    detail::read_array(in, state.rhov);
    detail::read_array(in, state.rhow);
    detail::read_array(in, state.rhotheta);
    detail::read_array(in, state.p);
    detail::read_array(in, state.rho_ref);
    detail::read_array(in, state.p_ref);
    detail::read_array(in, state.rhotheta_ref);
    detail::read_array(in, state.cs2);
    for (auto& q : state.tracers) detail::read_array(in, q);
    detail::read_side(in, side);
    return time;
}

/// Write a checkpoint of `state` at simulation time `time`: the v3
/// stream, framed as a wrapped blob and committed by atomic rename. A
/// save that throws leaves the previous file at `path` intact.
template <class T>
void save_checkpoint(const std::string& path, const State<T>& state,
                     double time, const SideState& side = {}) {
    std::ostringstream out(std::ios::binary);
    save_state(out, state, time, side);
    write_file_atomic(path, wrap_blob(std::move(out).str()));
}

/// Load a checkpoint into `state` (shapes and species must match);
/// returns the stored simulation time. The frame is verified and
/// stripped first, then the stream deserializes into a staged copy that
/// commits only after every section checksum verified — a damaged file
/// throws and leaves `state` and the side-state destinations bitwise
/// untouched.
template <class T>
double load_checkpoint(const std::string& path, State<T>& state,
                       const SideState& side = {}) {
    std::istringstream in(unwrap_blob(read_file(path)), std::ios::binary);
    State<T> staged = state;
    // read_side already stages its own commits, so a load that fails in
    // any section only ever touched `staged`.
    const double time = load_state(in, staged, side);
    state = std::move(staged);
    return time;
}

/// The complete side state of an AsucaModel-like object: the step counter
/// plus every enabled precipitation accumulator. Duck-typed on the model
/// so this header stays independent of src/core/model.hpp; `steps` must
/// outlive the returned SideState (load writes the restored counter there,
/// save reads the current one from it).
template <class Model>
SideState model_side_state(Model& model, double* steps) {
    SideState side;
    side.add("model.steps", steps);
    if (model.config().microphysics) {
        side.add("kessler.precip_mm",
                 &model.microphysics().accumulated_precip());
        side.add("kessler.precip_rate", &model.microphysics().precip_rate());
    }
    if (model.config().ice_sedimentation) {
        for (std::size_t n = 0; n < model.state().species.count(); ++n) {
            const Species sp = model.state().species.at(n);
            if (!has_fall_speed(sp)) continue;
            if (sp == Species::Rain && model.config().microphysics) continue;
            side.add(std::string("sedimentation.precip_mm.") +
                         std::string(name_of(sp)),
                     &model.ice_sedimentation().accumulated(sp));
        }
    }
    return side;
}

/// Checkpoint a whole model: state + clock + precipitation accumulators.
template <class Model>
void save_model_checkpoint(const std::string& path, Model& model) {
    double steps = static_cast<double>(model.step_count());
    const SideState side = model_side_state(model, &steps);
    save_checkpoint(path, model.state(), model.time(), side);
}

/// Restore a whole model from a checkpoint written by
/// save_model_checkpoint; the model configuration (grid, species, enabled
/// physics) must match the one that wrote it.
template <class Model>
void load_model_checkpoint(const std::string& path, Model& model) {
    double steps = 0.0;
    const SideState side = model_side_state(model, &steps);
    const double time = load_checkpoint(path, model.state(), side);
    model.set_clock(time, static_cast<std::int64_t>(steps));
}

}  // namespace asuca::io
