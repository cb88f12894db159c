// The transport-neutral wire API of the forecast service: versioned
// request/response envelopes, a strict ScenarioSpec <-> JSON codec, and
// the typed error taxonomy — everything a client outside this process
// needs to speak to a ForecastServer, with no socket code in sight
// (socket_server.hpp frames these envelopes over TCP; a future HTTP or
// queue front-end would reuse them unchanged).
//
// Design rules, in order:
//
//   * Versioned, not implicit. Every frame carries `"v": 1`; a frame
//     with any other version is rejected as bad_request BEFORE field
//     parsing, so a v2 server can dispatch on the version instead of
//     guessing from field shapes.
//   * Strict on input. spec_from_json() rejects unknown fields (a
//     typo'd "step" must not silently become the default horizon),
//     wrong types, non-integral or non-finite numerics, out-of-range
//     values and over-long strings — each with a typed bad_request
//     carrying the offending key. Lenient-reader protocols turn client
//     bugs into silently-wrong forecasts; a weather service must not.
//   * Exact round-trip. Doubles serialize via the io::JsonValue "%.17g"
//     contract; uint64 fields (perturb_seed, fingerprint) do NOT fit in
//     a JSON double above 2^53, so they ride as strings (seed decimal,
//     fingerprint hex). `canonicalize(parse(serialize(s)))` equals
//     `canonicalize(s)` bitwise — the property test in test_wire.cpp —
//     so a spec's canonical_key (and therefore its cache identity and
//     its bits) survives the wire.
//   * Errors are data. ServerError{code, detail} serializes into every
//     response; `degraded` is the one non-failure code (the admission
//     ladder shed resolution and says so instead of hiding it).
#pragma once

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "src/io/json.hpp"
#include "src/server/scenario.hpp"

namespace asuca::server::wire {

inline constexpr int kWireVersion = 1;
/// Longest string any wire field accepts. Scenario names and error codes
/// are short enumerations; warm-start keys are canonical_key-sized.
/// Anything longer is a malformed (or malicious) frame, rejected before
/// it can bloat the queue or the stores.
inline constexpr std::size_t kMaxWireString = 256;

/// A typed wire-layer failure: what a response's "error" member carries,
/// and what the codec throws (as WireError) on malformed input.
struct ServerError {
    ErrorCode code = ErrorCode::none;
    std::string detail;
};

class WireError : public Error {
  public:
    WireError(ErrorCode code, const std::string& what)
        : Error(what), code_(code) {}
    ErrorCode code() const { return code_; }

  private:
    ErrorCode code_;
};

/// One forecast submission. `id` is the client's correlation tag (echoed
/// verbatim in the response); `deadline_ms` > 0 overrides the server's
/// per-request retry/deadline budget for this request only.
struct ForecastRequestV1 {
    ScenarioSpec spec;
    std::uint64_t id = 0;
    std::string client;          ///< optional free-form client tag
    std::int64_t deadline_ms = 0;  ///< 0 = server default
};

/// One forecast answer. Mirrors ForecastResult minus the in-process
/// state pointer; `fingerprint` is the bitwise identity card (hex), so
/// "bitwise identical across the wire" is a string comparison.
struct ForecastResponseV1 {
    std::uint64_t id = 0;
    bool ok = false;
    ServerError error;  ///< code==none on clean success, degraded on shed
    ScenarioSpec executed;
    int degrade_level = 0;
    long long steps_run = 0;
    std::uint64_t fingerprint = 0;
    double max_w = 0.0;
    double total_mass = 0.0;
    double latency_ms = 0.0;
    bool deduped = false;
    std::string served_from = "executed";
};

// ---------------------------------------------------------------------
// Field-level helpers (all throw WireError{bad_request} on bad input).
// ---------------------------------------------------------------------

namespace detail {

[[noreturn]] inline void reject(const std::string& what) {
    throw WireError(ErrorCode::bad_request, what);
}

inline const io::JsonValue& member(const io::JsonValue& obj,
                                   const std::string& key) {
    if (!obj.is_object() || !obj.has(key)) {
        reject("missing required field \"" + key + "\"");
    }
    return obj.at(key);
}

inline std::string get_string(const io::JsonValue& v,
                              const std::string& key) {
    if (!v.is_string()) reject("field \"" + key + "\" must be a string");
    const std::string& s = v.as_string();
    if (s.size() > kMaxWireString) {
        reject("field \"" + key + "\" exceeds " +
               std::to_string(kMaxWireString) + " characters");
    }
    return s;
}

inline bool get_bool(const io::JsonValue& v, const std::string& key) {
    if (!v.is_bool()) reject("field \"" + key + "\" must be a boolean");
    return v.as_bool();
}

inline double get_finite(const io::JsonValue& v, const std::string& key) {
    if (!v.is_number()) reject("field \"" + key + "\" must be a number");
    const double d = v.as_number();
    // The parser itself cannot produce NaN (no nan literal in JSON), but
    // overflow ("1e999") parses to Inf via strtod — reject it here.
    if (!(d == d) || d > 1.0e308 || d < -1.0e308) {
        reject("field \"" + key + "\" is not a finite number");
    }
    return d;
}

inline long long get_int(const io::JsonValue& v, const std::string& key,
                         long long lo, long long hi) {
    const double d = get_finite(v, key);
    // Small enough that the double carried it exactly, and integral
    // (range first: converting an out-of-range double is undefined).
    if (d > 9.007199254740992e15 || d < -9.007199254740992e15 ||
        d != static_cast<double>(static_cast<long long>(d))) {
        reject("field \"" + key + "\" must be an integer");
    }
    const long long n = static_cast<long long>(d);
    if (n < lo || n > hi) {
        reject("field \"" + key + "\" out of range [" + std::to_string(lo) +
               ", " + std::to_string(hi) + "]: " + std::to_string(n));
    }
    return n;
}

/// uint64 fields ride as decimal strings (full range, exact); for
/// ergonomics a plain JSON integer is accepted up to 2^53.
inline std::uint64_t get_u64(const io::JsonValue& v,
                             const std::string& key) {
    if (v.is_number()) {
        return static_cast<std::uint64_t>(
            get_int(v, key, 0, 9007199254740992ll));
    }
    const std::string s = get_string(v, key);
    if (s.empty() || s.size() > 20 ||
        s.find_first_not_of("0123456789") != std::string::npos) {
        reject("field \"" + key + "\" must be a decimal uint64 string");
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long u = std::strtoull(s.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0') {
        reject("field \"" + key + "\" does not fit in uint64");
    }
    return static_cast<std::uint64_t>(u);
}

/// An error code by its wire name (error_code_name's inverse).
inline ErrorCode get_error_code(const io::JsonValue& v,
                                const std::string& key) {
    const std::string name = get_string(v, key);
    for (const ErrorCode c :
         {ErrorCode::none, ErrorCode::bad_request, ErrorCode::over_capacity,
          ErrorCode::deadline_exceeded, ErrorCode::internal_fault,
          ErrorCode::degraded}) {
        if (name == error_code_name(c)) return c;
    }
    reject("field \"" + key + "\" is not an error code: \"" + name + "\"");
}

inline std::string u64_to_string(std::uint64_t u) {
    return std::to_string(static_cast<unsigned long long>(u));
}

inline std::string fingerprint_to_hex(std::uint64_t fp) {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fp));
    return buf;
}

inline std::uint64_t fingerprint_from_hex(const io::JsonValue& v,
                                          const std::string& key) {
    const std::string s = get_string(v, key);
    if (s.size() != 16 ||
        s.find_first_not_of("0123456789abcdef") != std::string::npos) {
        reject("field \"" + key + "\" must be a 16-digit lowercase hex "
               "fingerprint");
    }
    return static_cast<std::uint64_t>(std::strtoull(s.c_str(), nullptr, 16));
}

}  // namespace detail

// ---------------------------------------------------------------------
// ScenarioSpec codec.
// ---------------------------------------------------------------------

inline io::JsonValue spec_to_json(const ScenarioSpec& s) {
    io::JsonValue j;
    j.set("scenario", s.scenario);
    j.set("nx", static_cast<long long>(s.nx));
    j.set("ny", static_cast<long long>(s.ny));
    j.set("nz", static_cast<long long>(s.nz));
    j.set("steps", s.steps);
    j.set("physics", s.physics);
    j.set("px", static_cast<long long>(s.px));
    j.set("py", static_cast<long long>(s.py));
    j.set("warm_start", s.warm_start);
    j.set("member", s.member);
    j.set("perturb_seed", detail::u64_to_string(s.perturb_seed));
    j.set("perturb_amplitude", s.perturb_amplitude);
    j.set("coarsen", s.coarsen);
    j.set("inject", s.inject);
    return j;
}

/// Strict inverse of spec_to_json: unknown fields, wrong types,
/// non-integral / non-finite / out-of-range numerics and over-long
/// strings all throw WireError{bad_request}. scenario/nx/ny/nz/steps are
/// required; everything else defaults like the in-process struct. The
/// ranges here are WIRE bounds (what a frame may carry); semantic
/// validation (known scenario names, mesh minimums, decomposition rules)
/// stays in canonicalize(), which submit() runs on every spec.
inline ScenarioSpec spec_from_json(const io::JsonValue& j) {
    if (!j.is_object()) detail::reject("spec must be a JSON object");
    ScenarioSpec s;
    bool saw_scenario = false, saw_nx = false, saw_ny = false,
         saw_nz = false, saw_steps = false;
    for (const auto& [key, v] : j.as_object()) {
        if (key == "scenario") {
            s.scenario = detail::get_string(v, key);
            saw_scenario = true;
        } else if (key == "nx" || key == "ny" || key == "nz") {
            const auto n =
                static_cast<Index>(detail::get_int(v, key, 1, 1 << 20));
            (key == "nx" ? s.nx : key == "ny" ? s.ny : s.nz) = n;
            (key == "nx" ? saw_nx : key == "ny" ? saw_ny : saw_nz) = true;
        } else if (key == "steps") {
            s.steps = static_cast<int>(
                detail::get_int(v, key, 1, 1000000000));
            saw_steps = true;
        } else if (key == "physics") {
            s.physics = detail::get_bool(v, key);
        } else if (key == "px" || key == "py") {
            (key == "px" ? s.px : s.py) =
                static_cast<Index>(detail::get_int(v, key, 1, 4096));
        } else if (key == "overlap") {
            // Retired field (the runner has one schedule): v1 frames and
            // durable results that still carry it parse, and it is
            // dropped; only the three names it ever took are accepted.
            const std::string mode = detail::get_string(v, key);
            if (mode != "none" && mode != "split" && mode != "pipeline") {
                detail::reject("field \"overlap\" must be none, split or "
                               "pipeline");
            }
        } else if (key == "warm_start") {
            s.warm_start = detail::get_string(v, key);
        } else if (key == "member") {
            s.member =
                static_cast<int>(detail::get_int(v, key, 0, 1000000));
        } else if (key == "perturb_seed") {
            s.perturb_seed = detail::get_u64(v, key);
        } else if (key == "perturb_amplitude") {
            const double a = detail::get_finite(v, key);
            if (a < 0.0 || a > 1.0e6) {
                detail::reject("field \"perturb_amplitude\" out of range "
                               "[0, 1e6]");
            }
            s.perturb_amplitude = a;
        } else if (key == "coarsen") {
            s.coarsen = static_cast<int>(
                detail::get_int(v, key, 0, kMaxDegradeLevel));
        } else if (key == "inject") {
            s.inject = detail::get_string(v, key);
        } else {
            detail::reject("unknown spec field \"" + key + "\"");
        }
    }
    if (!saw_scenario || !saw_nx || !saw_ny || !saw_nz || !saw_steps) {
        detail::reject("spec requires scenario, nx, ny, nz and steps");
    }
    return s;
}

// ---------------------------------------------------------------------
// Request envelope.
// ---------------------------------------------------------------------

inline io::JsonValue request_to_json(const ForecastRequestV1& r) {
    io::JsonValue j;
    j.set("v", kWireVersion);
    j.set("type", "forecast");
    j.set("id", detail::u64_to_string(r.id));
    if (!r.client.empty()) j.set("client", r.client);
    if (r.deadline_ms > 0) j.set("deadline_ms", r.deadline_ms);
    j.set("spec", spec_to_json(r.spec));
    return j;
}

/// Version gate shared by every envelope parser: reject non-v1 frames
/// before touching any other field.
inline void require_v1(const io::JsonValue& j) {
    if (!j.is_object()) detail::reject("frame must be a JSON object");
    const long long v = detail::get_int(detail::member(j, "v"), "v", 0,
                                        1000000);
    if (v != kWireVersion) {
        detail::reject("unsupported wire version " + std::to_string(v) +
                       " (this server speaks v" +
                       std::to_string(kWireVersion) + ")");
    }
}

inline ForecastRequestV1 request_from_json(const io::JsonValue& j) {
    require_v1(j);
    ForecastRequestV1 r;
    bool saw_spec = false;
    for (const auto& [key, v] : j.as_object()) {
        if (key == "v") {
            // validated by require_v1
        } else if (key == "type") {
            if (detail::get_string(v, key) != "forecast") {
                detail::reject("request type must be \"forecast\"");
            }
        } else if (key == "id") {
            r.id = detail::get_u64(v, key);
        } else if (key == "client") {
            r.client = detail::get_string(v, key);
        } else if (key == "deadline_ms") {
            r.deadline_ms = detail::get_int(v, key, 0, 86400000);
        } else if (key == "spec") {
            r.spec = spec_from_json(v);
            saw_spec = true;
        } else {
            detail::reject("unknown request field \"" + key + "\"");
        }
    }
    if (!saw_spec) detail::reject("request requires a \"spec\" object");
    return r;
}

/// Parse one newline-delimited frame into a request. Any failure —
/// truncated JSON, trailing garbage, unknown fields, bad ranges — comes
/// back as WireError{bad_request} with the parser's diagnosis.
inline ForecastRequestV1 parse_request_line(const std::string& line) {
    io::JsonValue j;
    try {
        j = io::json_parse(line);
    } catch (const Error& e) {
        detail::reject(std::string("malformed JSON frame: ") + e.what());
    }
    return request_from_json(j);
}

// ---------------------------------------------------------------------
// Response envelope.
// ---------------------------------------------------------------------

inline io::JsonValue response_to_json(const ForecastResponseV1& r) {
    io::JsonValue j;
    j.set("v", kWireVersion);
    j.set("id", detail::u64_to_string(r.id));
    j.set("ok", r.ok);
    io::JsonValue err;
    err.set("code", error_code_name(r.error.code));
    err.set("detail", r.error.detail);
    j.set("error", std::move(err));
    if (r.ok) {
        j.set("executed", spec_to_json(r.executed));
        j.set("degrade_level", r.degrade_level);
        j.set("steps_run", r.steps_run);
        j.set("fingerprint", detail::fingerprint_to_hex(r.fingerprint));
        j.set("max_w", r.max_w);
        j.set("total_mass", r.total_mass);
        j.set("latency_ms", r.latency_ms);
        j.set("deduped", r.deduped);
        j.set("served_from", r.served_from);
    }
    return j;
}

inline ForecastResponseV1 response_from_json(const io::JsonValue& j) {
    require_v1(j);
    ForecastResponseV1 r;
    for (const auto& [key, v] : j.as_object()) {
        if (key == "v") {
        } else if (key == "id") {
            r.id = detail::get_u64(v, key);
        } else if (key == "ok") {
            r.ok = detail::get_bool(v, key);
        } else if (key == "error") {
            if (!v.is_object()) detail::reject("\"error\" must be an object");
            r.error.code =
                detail::get_error_code(detail::member(v, "code"), "error.code");
            // Not capped at kMaxWireString: server failure details
            // (fatal-fault and watchdog reports) run longer.
            const io::JsonValue& d = detail::member(v, "detail");
            if (!d.is_string()) {
                detail::reject("field \"error.detail\" must be a string");
            }
            r.error.detail = d.as_string();
        } else if (key == "executed") {
            r.executed = spec_from_json(v);
        } else if (key == "degrade_level") {
            r.degrade_level = static_cast<int>(
                detail::get_int(v, key, 0, kMaxDegradeLevel));
        } else if (key == "steps_run") {
            r.steps_run = detail::get_int(v, key, 0, 1000000000);
        } else if (key == "fingerprint") {
            r.fingerprint = detail::fingerprint_from_hex(v, key);
        } else if (key == "max_w") {
            r.max_w = detail::get_finite(v, key);
        } else if (key == "total_mass") {
            r.total_mass = detail::get_finite(v, key);
        } else if (key == "latency_ms") {
            r.latency_ms = detail::get_finite(v, key);
        } else if (key == "deduped") {
            r.deduped = detail::get_bool(v, key);
        } else if (key == "served_from") {
            r.served_from = detail::get_string(v, key);
        } else {
            detail::reject("unknown response field \"" + key + "\"");
        }
    }
    return r;
}

inline ForecastResponseV1 parse_response_line(const std::string& line) {
    io::JsonValue j;
    try {
        j = io::json_parse(line);
    } catch (const Error& e) {
        detail::reject(std::string("malformed JSON frame: ") + e.what());
    }
    return response_from_json(j);
}

/// The completed-request -> response mapping both the socket front-end
/// and the durable result cache use. A successful answer that the
/// admission ladder degraded carries code `degraded` with the shed
/// levels spelled out — a client must be able to tell a full-resolution
/// answer from a load-shed one without diffing specs.
inline ForecastResponseV1 result_to_response(std::uint64_t id,
                                             const ForecastResult& res) {
    ForecastResponseV1 r;
    r.id = id;
    r.ok = res.ok();
    r.executed = res.executed;
    r.degrade_level = res.degrade_level;
    r.steps_run = res.steps_run;
    r.fingerprint = res.fingerprint;
    r.max_w = res.max_w;
    r.total_mass = res.total_mass;
    r.latency_ms = res.latency_ms;
    r.deduped = res.deduped;
    r.served_from = res.served_from;
    if (!res.ok()) {
        r.error.code = res.code == ErrorCode::none ? ErrorCode::internal_fault
                                                   : res.code;
        r.error.detail = res.error;
    } else if (res.degrade_level > 0) {
        r.error.code = ErrorCode::degraded;
        r.error.detail =
            "admission ladder level " + std::to_string(res.degrade_level) +
            (res.degrade_level >= 2 ? ": horizon halved, grid coarsened 2x"
                                    : ": horizon halved");
    }
    return r;
}

inline ForecastResponseV1 error_response(std::uint64_t id, ErrorCode code,
                                         const std::string& detail) {
    ForecastResponseV1 r;
    r.id = id;
    r.ok = false;
    r.error.code = code;
    r.error.detail = detail;
    return r;
}

// ---------------------------------------------------------------------
// ForecastResult codec: the durable result cache's on-disk form. Only
// SUCCESSFUL results are spilled (failures must stay retryable), so
// there is no error member; the full state never travels — a reloaded
// result serves the fingerprint and diagnostics, exactly what the wire
// response carries.
// ---------------------------------------------------------------------

inline io::JsonValue result_to_json(const ForecastResult& res) {
    io::JsonValue j;
    j.set("v", kWireVersion);
    j.set("executed", spec_to_json(res.executed));
    j.set("degrade_level", res.degrade_level);
    j.set("steps_run", res.steps_run);
    j.set("fingerprint", detail::fingerprint_to_hex(res.fingerprint));
    j.set("max_w", res.max_w);
    j.set("total_mass", res.total_mass);
    j.set("latency_ms", res.latency_ms);
    return j;
}

inline ForecastResult result_from_json(const io::JsonValue& j) {
    require_v1(j);
    ForecastResult res;
    for (const auto& [key, v] : j.as_object()) {
        if (key == "v") {
        } else if (key == "executed") {
            res.executed = spec_from_json(v);
        } else if (key == "degrade_level") {
            res.degrade_level = static_cast<int>(
                detail::get_int(v, key, 0, kMaxDegradeLevel));
        } else if (key == "steps_run") {
            res.steps_run = detail::get_int(v, key, 0, 1000000000);
        } else if (key == "fingerprint") {
            res.fingerprint = detail::fingerprint_from_hex(v, key);
        } else if (key == "max_w") {
            res.max_w = detail::get_finite(v, key);
        } else if (key == "total_mass") {
            res.total_mass = detail::get_finite(v, key);
        } else if (key == "latency_ms") {
            res.latency_ms = detail::get_finite(v, key);
        } else {
            detail::reject("unknown result field \"" + key + "\"");
        }
    }
    return res;
}

}  // namespace asuca::server::wire
