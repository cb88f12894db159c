// The wire API's codec contract (src/server/wire.hpp), the
// transport-neutral half of the out-of-process forecast service:
//
//   * Exact round-trip — serialize -> parse -> canonicalize lands on the
//     SAME canonical_key (and bitwise-equal fields) as canonicalizing
//     the original, across randomized valid specs including uint64
//     seeds above 2^53 that a JSON double cannot carry.
//   * Strict rejection — truncated frames, unknown fields, wrong types,
//     non-integral / non-finite / out-of-range numerics, over-long
//     strings and version mismatches all throw WireError with the
//     bad_request taxonomy code. A lenient reader would turn client
//     typos into silently-wrong forecasts.
//   * Response/result mapping — the degraded/failure taxonomy serializes
//     losslessly, and the durable result cache's on-disk JSON reloads
//     into the same wire answer.
//   * Seeded fuzzing — byte mutations and member-type swaps of every
//     frame kind either parse or throw the codec's typed error, never
//     anything else.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "src/io/json.hpp"
#include "src/server/wire.hpp"

namespace asuca::server {
namespace {

ScenarioSpec small_spec(int steps = 2) {
    ScenarioSpec s;
    s.scenario = "warm_bubble";
    s.nx = 16;
    s.ny = 16;
    s.nz = 12;
    s.steps = steps;
    return s;
}

/// One wire round trip of a spec: what a client serializes is what the
/// server parses out of the frame.
ScenarioSpec roundtrip(const ScenarioSpec& s) {
    return wire::spec_from_json(
        io::json_parse(wire::spec_to_json(s).dump_compact()));
}

void expect_specs_equal(const ScenarioSpec& a, const ScenarioSpec& b) {
    EXPECT_EQ(a.scenario, b.scenario);
    EXPECT_EQ(a.nx, b.nx);
    EXPECT_EQ(a.ny, b.ny);
    EXPECT_EQ(a.nz, b.nz);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.physics, b.physics);
    EXPECT_EQ(a.px, b.px);
    EXPECT_EQ(a.py, b.py);
    EXPECT_EQ(a.warm_start, b.warm_start);
    EXPECT_EQ(a.member, b.member);
    EXPECT_EQ(a.perturb_seed, b.perturb_seed);
    // Bitwise, not approximate: the %.17g contract must be exact.
    EXPECT_EQ(a.perturb_amplitude, b.perturb_amplitude);
    EXPECT_EQ(a.coarsen, b.coarsen);
    EXPECT_EQ(a.inject, b.inject);
}

/// Expect `fn` to throw WireError carrying the bad_request code.
template <typename Fn>
void expect_bad_request(Fn&& fn, const char* what) {
    try {
        fn();
        FAIL() << what << ": no WireError thrown";
    } catch (const wire::WireError& e) {
        EXPECT_EQ(e.code(), ErrorCode::bad_request) << what;
    }
}

// ---------------------------------------------------------------------
// Round-trip properties.
// ---------------------------------------------------------------------

// The load-bearing property: a spec's cache identity — and therefore
// its bits — survives the wire. Randomized over the valid spec space.
TEST(WireRoundTrip, RandomValidSpecsKeepTheirCanonicalKey) {
    std::mt19937_64 rng(20260807);
    const char* scenarios[] = {"warm_bubble", "mountain_wave", "real_case"};
    const char* overlaps[] = {"none", "split", "pipeline"};
    for (int trial = 0; trial < 200; ++trial) {
        ScenarioSpec s;
        s.scenario = scenarios[rng() % 3];
        s.nx = static_cast<Index>(8 + 4 * (rng() % 7));
        s.ny = static_cast<Index>(8 + 4 * (rng() % 7));
        s.nz = static_cast<Index>(6 + (rng() % 10));
        s.steps = static_cast<int>(1 + rng() % 9);
        s.physics = (rng() % 2) == 0;
        s.member = static_cast<int>(rng() % 32);
        s.perturb_seed = rng();  // full uint64 range
        s.perturb_amplitude =
            (rng() % 4 == 0) ? 0.0
                             : 1.0e-3 * static_cast<double>(rng() % 1000) +
                                   1.0e-9;
        s.warm_start = (rng() % 2 == 0) ? "" : "analysis";
        s.coarsen = 0;
        const ScenarioSpec wired = roundtrip(s);
        expect_specs_equal(s, wired);
        const ScenarioSpec canon_direct = canonicalize(s);
        const ScenarioSpec canon_wired = canonicalize(wired);
        expect_specs_equal(canon_direct, canon_wired);
        ASSERT_EQ(canonical_key(canon_direct), canonical_key(canon_wired))
            << "trial " << trial;
        // v1 clients may still send the retired "overlap" field: it
        // parses and is dropped, leaving the spec and its key untouched.
        io::JsonValue legacy = wire::spec_to_json(s);
        legacy.set("overlap", overlaps[rng() % 3]);
        expect_specs_equal(s, wire::spec_from_json(
                                  io::json_parse(legacy.dump_compact())));
    }
}

// Seeds above 2^53 do not fit in a JSON double — the codec must carry
// them as decimal strings, exactly.
TEST(WireRoundTrip, SeedAbove2Pow53SurvivesExactly) {
    ScenarioSpec s = small_spec();
    s.warm_start = "analysis";
    s.perturb_amplitude = 1.0e-3;
    s.perturb_seed = 0xfedcba9876543210ull;  // ~1.8e19, >> 2^53
    const ScenarioSpec wired = roundtrip(s);
    EXPECT_EQ(wired.perturb_seed, 0xfedcba9876543210ull);
    EXPECT_EQ(canonical_key(canonicalize(s)),
              canonical_key(canonicalize(wired)));
}

TEST(WireRoundTrip, RequestEnvelopeCarriesIdClientAndDeadline) {
    wire::ForecastRequestV1 req;
    req.spec = small_spec();
    req.id = 0xdeadbeefcafef00dull;
    req.client = "tester";
    req.deadline_ms = 1500;
    const wire::ForecastRequestV1 back = wire::parse_request_line(
        wire::request_to_json(req).dump_compact());
    EXPECT_EQ(back.id, req.id);
    EXPECT_EQ(back.client, "tester");
    EXPECT_EQ(back.deadline_ms, 1500);
    expect_specs_equal(back.spec, req.spec);
}

TEST(WireRoundTrip, ResponseEnvelopeRoundTripsSuccessAndFailure) {
    wire::ForecastResponseV1 ok;
    ok.id = 9;
    ok.ok = true;
    ok.executed = canonicalize(small_spec());
    ok.degrade_level = 1;
    ok.error = {ErrorCode::degraded, "admission ladder level 1"};
    ok.steps_run = 1;
    ok.fingerprint = 0x0123456789abcdefull;
    ok.max_w = 1.25;
    ok.total_mass = 3.5e9;
    ok.latency_ms = 42.0;
    ok.served_from = "durable";
    const wire::ForecastResponseV1 ok2 = wire::parse_response_line(
        wire::response_to_json(ok).dump_compact());
    EXPECT_TRUE(ok2.ok);
    EXPECT_EQ(ok2.id, 9u);
    EXPECT_EQ(ok2.error.code, ErrorCode::degraded);
    EXPECT_EQ(ok2.fingerprint, 0x0123456789abcdefull);
    EXPECT_EQ(ok2.max_w, 1.25);
    EXPECT_EQ(ok2.served_from, "durable");

    const wire::ForecastResponseV1 bad = wire::parse_response_line(
        wire::response_to_json(
            wire::error_response(3, ErrorCode::over_capacity,
                                 "shed: request queue full"))
            .dump_compact());
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.id, 3u);
    EXPECT_EQ(bad.error.code, ErrorCode::over_capacity);
    EXPECT_EQ(bad.error.detail, "shed: request queue full");
}

// The durable result cache's on-disk JSON reloads into the same answer.
TEST(WireRoundTrip, DurableResultCodecIsLossless) {
    ForecastResult res;
    res.executed = canonicalize(small_spec());
    res.degrade_level = 2;
    res.steps_run = 1;
    res.fingerprint = 0xabcdef0123456789ull;
    res.max_w = 0.75;
    res.total_mass = 1.0e10;
    res.latency_ms = 17.5;
    const ForecastResult back = wire::result_from_json(
        io::json_parse(wire::result_to_json(res).dump_compact()));
    EXPECT_EQ(back.fingerprint, res.fingerprint);
    EXPECT_EQ(back.degrade_level, 2);
    EXPECT_EQ(back.steps_run, 1);
    EXPECT_EQ(back.max_w, 0.75);
    EXPECT_EQ(back.total_mass, 1.0e10);
    EXPECT_EQ(canonical_key(back.executed), canonical_key(res.executed));

    // A result spilled while specs still carried "overlap" reloads too.
    io::JsonValue old = wire::result_to_json(res);
    io::JsonValue executed = old.at("executed");
    executed.set("overlap", "split");
    old.set("executed", std::move(executed));
    const ForecastResult old_back =
        wire::result_from_json(io::json_parse(old.dump_compact()));
    EXPECT_EQ(old_back.fingerprint, res.fingerprint);
    EXPECT_EQ(canonical_key(old_back.executed), canonical_key(res.executed));
}

TEST(WireRoundTrip, DegradedResultMapsToTheDegradedCode) {
    ForecastResult res;
    res.executed = canonicalize(small_spec());
    res.steps_run = 1;
    res.degrade_level = 2;
    const wire::ForecastResponseV1 r = wire::result_to_response(5, res);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.error.code, ErrorCode::degraded);
    EXPECT_NE(r.error.detail.find("coarsened"), std::string::npos);
    // Failure with no specific code defaults to internal_fault.
    ForecastResult fail;
    fail.error = "boom";
    const wire::ForecastResponseV1 f = wire::result_to_response(6, fail);
    EXPECT_FALSE(f.ok);
    EXPECT_EQ(f.error.code, ErrorCode::internal_fault);
}

// ---------------------------------------------------------------------
// Strict rejection: every malformed frame is a typed bad_request.
// ---------------------------------------------------------------------

TEST(WireNegative, TruncatedAndMalformedFramesAreBadRequests) {
    for (const char* frame :
         {"{\"v\":1,\"type\":\"forecast\"",  // truncated mid-object
          "{\"v\":1,\"spec\":{\"scenario\":\"warm_bubble\"",  // nested cut
          "", "not json at all", "[1,2,3]", "42",
          "{\"v\":1} trailing garbage"}) {
        expect_bad_request([&] { wire::parse_request_line(frame); }, frame);
    }
}

TEST(WireNegative, UnknownFieldsAreRejectedNotIgnored) {
    // A typo'd "step" must not silently become the default horizon.
    io::JsonValue j = wire::spec_to_json(small_spec());
    j.set("step", 500);
    expect_bad_request([&] { wire::spec_from_json(j); }, "spec typo");

    wire::ForecastRequestV1 req;
    req.spec = small_spec();
    io::JsonValue r = wire::request_to_json(req);
    r.set("deadline", 1000);  // typo of deadline_ms
    expect_bad_request([&] { wire::request_from_json(r); },
                       "request typo");
}

TEST(WireNegative, MissingRequiredSpecFieldsAreRejected) {
    io::JsonValue j = wire::spec_to_json(small_spec());
    io::JsonValue partial;
    for (const auto& [key, v] : j.as_object()) {
        if (key != "steps") partial.set(key, v);
    }
    expect_bad_request([&] { wire::spec_from_json(partial); },
                       "missing steps");
    expect_bad_request(
        [&] {
            wire::parse_request_line("{\"v\":1,\"type\":\"forecast\"}");
        },
        "missing spec");
}

TEST(WireNegative, NonFiniteNumbersAreRejected) {
    // JSON has no NaN/Inf literals, but "1e999" overflows strtod to Inf
    // — the codec must catch it, not store it.
    expect_bad_request(
        [&] {
            wire::spec_from_json(io::json_parse(
                "{\"scenario\":\"warm_bubble\",\"nx\":16,\"ny\":16,"
                "\"nz\":12,\"steps\":2,\"perturb_amplitude\":1e999}"));
        },
        "inf amplitude");
}

TEST(WireNegative, OutOfRangeAndNonIntegralNumbersAreRejected) {
    const struct {
        const char* field;
        const char* value;
    } cases[] = {
        {"nx", "0"},          {"nx", "2097152"},  {"nx", "3.5"},
        // Far outside every integer type: rejected before any cast.
        {"nx", "1e300"},
        {"steps", "0"},       {"steps", "-4"},    {"px", "70000"},
        {"member", "-1"},     {"coarsen", "7"},
        {"perturb_amplitude", "-0.5"},
        // The retired overlap field accepts only the names it ever took.
        {"overlap", "\"sideways\""}, {"overlap", "2"},
    };
    for (const auto& c : cases) {
        std::string body =
            "{\"scenario\":\"warm_bubble\",\"ny\":16,\"nz\":12";
        if (std::string(c.field) != "nx") body += ",\"nx\":16";
        if (std::string(c.field) != "steps") body += ",\"steps\":2";
        body += std::string(",\"") + c.field + "\":" + c.value + "}";
        expect_bad_request([&] { wire::spec_from_json(io::json_parse(body)); },
                           c.field);
    }
}

TEST(WireNegative, OverlongStringsAreRejected) {
    const std::string huge(wire::kMaxWireString + 1, 'x');
    io::JsonValue j = wire::spec_to_json(small_spec());
    j.set("warm_start", huge);
    expect_bad_request([&] { wire::spec_from_json(j); },
                       "overlong warm_start");
}

TEST(WireNegative, BadSeedAndFingerprintEncodingsAreRejected) {
    io::JsonValue j = wire::spec_to_json(small_spec());
    for (const char* bad : {"", "12x4", "99999999999999999999999",
                            "-3", "0x12"}) {
        j.set("perturb_seed", std::string(bad));
        expect_bad_request([&] { wire::spec_from_json(j); }, bad);
    }
    for (const char* bad : {"", "123", "xyzv567890abcdef",
                            "0123456789ABCDEF",  // uppercase: not canonical
                            "0123456789abcdef0"}) {
        io::JsonValue r;
        r.set("v", wire::kWireVersion);
        r.set("id", "1");
        r.set("ok", true);
        io::JsonValue err;
        err.set("code", "none");
        err.set("detail", "");
        r.set("error", std::move(err));
        r.set("fingerprint", std::string(bad));
        expect_bad_request([&] { wire::response_from_json(r); }, bad);
    }
}

TEST(WireNegative, VersionAndTypeGatesHold) {
    expect_bad_request(
        [&] {
            wire::parse_request_line(
                "{\"v\":2,\"type\":\"forecast\",\"spec\":{}}");
        },
        "future version");
    expect_bad_request(
        [&] { wire::parse_request_line("{\"type\":\"forecast\"}"); },
        "missing version");
    io::JsonValue j;
    j.set("v", wire::kWireVersion);
    j.set("type", "divination");
    j.set("spec", wire::spec_to_json(small_spec()));
    expect_bad_request([&] { wire::request_from_json(j); }, "bad type");
}

TEST(WireNegative, DeepNestingIsABadRequestNotACrash) {
    // The JSON parser recurses once per '[' or '{'; past kMaxJsonDepth a
    // hostile line is rejected instead of exhausting the stack.
    for (const int depth : {io::kMaxJsonDepth + 1, 100000}) {
        expect_bad_request(
            [&] {
                wire::parse_request_line(
                    std::string(static_cast<std::size_t>(depth), '['));
            },
            "deep nesting");
    }
    const std::size_t limit = io::kMaxJsonDepth;
    EXPECT_NO_THROW(io::json_parse(std::string(limit, '[') +
                                   std::string(limit, ']')));
}

// ---------------------------------------------------------------------
// Seeded fuzzing: a mutated frame parses or throws the typed error.
// ---------------------------------------------------------------------

/// One seeded byte mutation of a (non-empty) frame: a bit flip, a
/// truncation, a run of random bytes, or inserted JSON structure
/// characters.
std::string mutate_bytes(std::string s, std::mt19937_64& rng) {
    const auto below = [&](std::size_t n) {
        return n == 0 ? std::size_t(0) : static_cast<std::size_t>(rng() % n);
    };
    switch (rng() % 4) {
        case 0:  // bit flip
            s[below(s.size())] ^= static_cast<char>(1u << (rng() % 8));
            break;
        case 1:  // truncation
            s.resize(below(s.size()));
            break;
        case 2: {  // run of random bytes
            const std::size_t at = below(s.size());
            const std::size_t len =
                1 + below(std::min<std::size_t>(16, s.size() - at));
            for (std::size_t k = 0; k < len; ++k) {
                s[at + k] = static_cast<char>(rng());
            }
            break;
        }
        default: {  // inserted structure characters
            static constexpr char kStructure[] = "[{\",:";
            for (std::size_t n = 1 + below(4); n > 0; --n) {
                s.insert(s.begin() + static_cast<std::ptrdiff_t>(
                                         below(s.size() + 1)),
                         kStructure[below(sizeof(kStructure) - 1)]);
            }
        }
    }
    return s;
}

int json_kind(const io::JsonValue& v) {
    return v.is_null() ? 0 : v.is_bool() ? 1 : v.is_number() ? 2
         : v.is_string() ? 3 : v.is_array() ? 4 : 5;
}

int count_members(const io::JsonValue& doc) {
    if (!doc.is_object()) return 0;
    int n = 0;
    for (const auto& [key, v] : doc.as_object()) n += 1 + count_members(v);
    return n;
}

/// `doc` with its `target`-th object member, counted depth-first over
/// every nesting level, replaced by `swap(member)`.
template <typename Swap>
io::JsonValue replace_member(const io::JsonValue& doc, int& target,
                             Swap&& swap) {
    if (!doc.is_object()) return doc;
    io::JsonValue out{io::JsonMembers{}};
    for (const auto& [key, v] : doc.as_object()) {
        out.set(key, target-- == 0 ? swap(v) : replace_member(v, target, swap));
    }
    return out;
}

/// One member of `doc`, at any depth, swapped for a value of another
/// JSON type.
std::string swap_member_type(const io::JsonValue& doc, std::mt19937_64& rng) {
    static const io::JsonValue kValues[] = {
        io::JsonValue(nullptr),         io::JsonValue(true),
        io::JsonValue(5),               io::JsonValue(-2.5),
        io::JsonValue(""),              io::JsonValue("nope"),
        io::JsonValue(io::JsonArray{}), io::JsonValue(io::JsonArray{5}),
        io::JsonValue(io::JsonMembers{}),
    };
    int target = static_cast<int>(
        rng() % static_cast<std::uint64_t>(count_members(doc)));
    return replace_member(doc, target,
                          [&](const io::JsonValue& member) {
                              const io::JsonValue* with = nullptr;
                              do {
                                  with = &kValues[rng() % std::size(kValues)];
                              } while (json_kind(*with) == json_kind(member));
                              return *with;
                          })
        .dump_compact();
}

struct WireFuzzTally {
    int parsed = 0;
    int rejected = 0;
};

/// Run `cases` seeded mutations of `doc` (alternating byte mutations of
/// its compact frame and member-type swaps) through `parse`, which must
/// either succeed or throw `Typed` carrying bad_request when `Typed` is
/// WireError. Any other exception fails the test.
template <typename Typed, typename Parse>
WireFuzzTally fuzz_frames(const io::JsonValue& doc, int cases,
                          std::uint64_t seed, Parse&& parse) {
    const std::string frame = doc.dump_compact();
    std::mt19937_64 rng(seed);
    WireFuzzTally tally;
    for (int c = 0; c < cases; ++c) {
        const std::string line = c % 2 == 0 ? mutate_bytes(frame, rng)
                                            : swap_member_type(doc, rng);
        try {
            parse(line);
            ++tally.parsed;
        } catch (const Typed& e) {
            if constexpr (std::is_same_v<Typed, wire::WireError>) {
                EXPECT_EQ(e.code(), ErrorCode::bad_request) << line;
            }
            ++tally.rejected;
        } catch (const std::exception& e) {
            ADD_FAILURE() << "case " << c << ": untyped exception \""
                          << e.what() << "\" for frame " << line;
        } catch (...) {
            ADD_FAILURE() << "case " << c << ": non-std exception for frame "
                          << line;
        }
        if (::testing::Test::HasFailure()) break;  // one report, not 4000
    }
    return tally;
}

constexpr int kFuzzCases = 4000;

wire::ForecastRequestV1 full_request() {
    wire::ForecastRequestV1 req;
    req.spec = small_spec();
    req.spec.px = 2;
    req.spec.warm_start = "analysis";
    req.spec.perturb_seed = 0xfedcba9876543210ull;
    req.spec.perturb_amplitude = 1.0e-3;
    req.id = 77;
    req.client = "fuzzer";
    req.deadline_ms = 2500;
    return req;
}

ForecastResult full_result() {
    ForecastResult res;
    res.executed = canonicalize(small_spec());
    res.degrade_level = 1;
    res.steps_run = 2;
    res.fingerprint = 0x0123456789abcdefull;
    res.max_w = 0.5;
    res.total_mass = 2.0e9;
    res.latency_ms = 12.5;
    return res;
}

TEST(WireFuzz, MutatedRequestFramesParseOrAreBadRequests) {
    const WireFuzzTally t = fuzz_frames<wire::WireError>(
        wire::request_to_json(full_request()), kFuzzCases,
        0x3172e0001ull,
        [](const std::string& line) { wire::parse_request_line(line); });
    EXPECT_GT(t.parsed, 0);
    EXPECT_GT(t.rejected, 0);
}

TEST(WireFuzz, MutatedResponseFramesParseOrAreBadRequests) {
    const ForecastResult res = full_result();
    const wire::ForecastResponseV1 ok = wire::result_to_response(4, res);
    const wire::ForecastResponseV1 failed = wire::error_response(
        5, ErrorCode::internal_fault, "multi-domain step 1 failed");
    std::uint64_t seed = 0x3172e0002ull;
    for (const auto* r : {&ok, &failed}) {
        const WireFuzzTally t = fuzz_frames<wire::WireError>(
            wire::response_to_json(*r), kFuzzCases, seed++,
            [](const std::string& line) { wire::parse_response_line(line); });
        EXPECT_GT(t.parsed, 0);
        EXPECT_GT(t.rejected, 0);
    }
}

TEST(WireFuzz, MutatedDurableResultsLoadOrThrowAsucaError) {
    const WireFuzzTally t = fuzz_frames<Error>(
        wire::result_to_json(full_result()), kFuzzCases, 0x3172e0004ull,
        [](const std::string& line) {
            wire::result_from_json(io::json_parse(line));
        });
    EXPECT_GT(t.parsed, 0);
    EXPECT_GT(t.rejected, 0);
}

// The two frames the fuzzer first tripped on: both threw a plain
// asuca::Error past parse_response_line's bad_request contract.
TEST(WireFuzz, ErrorDetailOfAnotherTypeIsABadRequest) {
    expect_bad_request(
        [] {
            wire::parse_response_line(
                "{\"v\":1,\"id\":\"1\",\"ok\":false,\"error\":"
                "{\"code\":\"bad_request\",\"detail\":5}}");
        },
        "numeric detail");
    // Details are not capped at kMaxWireString: fatal-fault and
    // watchdog reports run longer.
    const std::string report(4 * wire::kMaxWireString, 'w');
    const wire::ForecastResponseV1 r = wire::parse_response_line(
        wire::response_to_json(
            wire::error_response(2, ErrorCode::internal_fault, report))
            .dump_compact());
    EXPECT_EQ(r.error.detail, report);
}

TEST(WireFuzz, UnknownErrorCodeIsABadRequest) {
    expect_bad_request(
        [] {
            wire::parse_response_line(
                "{\"v\":1,\"id\":\"1\",\"ok\":false,\"error\":"
                "{\"code\":\"nope\",\"detail\":\"\"}}");
        },
        "unknown code");
}

}  // namespace
}  // namespace asuca::server
