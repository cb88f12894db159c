// End-to-end fault-tolerance specification (test-first): the one on-disk
// container (atomic writes, the wrapped-blob frame and its pinned
// checksum), a seeded mutation test of the durable parsers (the frame
// check and the v3 stream behind both checkpoint loaders), the durable
// checkpoint store (atomic spills, verified reloads, epoch fallback,
// restart recovery), incremental rollback snapshots, and the forecast
// server's retry ladder (worker quarantine, canary reinstatement,
// durable-epoch replay, retry/deadline budgets).
//
// Every suite here is named Durable* — tests/CMakeLists.txt keys the
// tier1-durability label (and the CI chaos gate) off that prefix.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/multidomain.hpp"
#include "src/common/hash.hpp"
#include "src/core/diagnostics.hpp"
#include "src/io/checkpoint.hpp"
#include "src/io/durable_blob.hpp"
#include "src/resilience/snapshot.hpp"
#include "src/server/forecast_server.hpp"

namespace asuca::server {
namespace {

namespace fs = std::filesystem;

using resilience::Fault;
using resilience::FaultKind;

struct TempDir {
    fs::path path;
    explicit TempDir(const char* name)
        : path(fs::temp_directory_path() / name) {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
    std::string str() const { return path.string(); }
    std::string file(const char* name) const {
        return (path / name).string();
    }
};

void expect_bitwise(const State<double>& a, const State<double>& b) {
    EXPECT_EQ(max_abs_diff(a.rho, b.rho), 0.0);
    EXPECT_EQ(max_abs_diff(a.rhou, b.rhou), 0.0);
    EXPECT_EQ(max_abs_diff(a.rhov, b.rhov), 0.0);
    EXPECT_EQ(max_abs_diff(a.rhow, b.rhow), 0.0);
    EXPECT_EQ(max_abs_diff(a.rhotheta, b.rhotheta), 0.0);
    EXPECT_EQ(max_abs_diff(a.p, b.p), 0.0);
    ASSERT_EQ(a.tracers.size(), b.tracers.size());
    for (std::size_t n = 0; n < a.tracers.size(); ++n) {
        EXPECT_EQ(max_abs_diff(a.tracers[n], b.tracers[n]), 0.0);
    }
}

ScenarioSpec small_spec(int steps = 2) {
    ScenarioSpec s;
    s.scenario = "warm_bubble";
    s.nx = 16;
    s.ny = 16;
    s.nz = 12;
    s.steps = steps;
    return s;
}

/// Wrap a spec the way an out-of-process client's frame would arrive —
/// every in-repo caller speaks the wire envelope API.
wire::ForecastRequestV1 envelope(const ScenarioSpec& spec) {
    wire::ForecastRequestV1 req;
    req.spec = spec;
    return req;
}

ScenarioSpec decomposed_spec(int steps = 2) {
    ScenarioSpec s = small_spec(steps);
    s.px = 2;
    s.py = 2;
    return s;
}

/// A real v3 checkpoint stream, as the server's in-memory store holds it.
/// The durable store frames whatever payload it is handed; tests feed it
/// actual serialized states so a reload is checked against real bytes.
std::string make_blob() {
    const ScenarioSpec spec = canonicalize(small_spec());
    AsucaModel<double> model(build_config(spec));
    init_model(model, spec);
    model.run(1);
    CheckpointStore mem;
    mem.capture("blob", model);
    return *mem.get("blob");
}

// ---------------------------------------------------------------------
// durable_blob.hpp: atomic file I/O and the wrapped-blob frame.
// ---------------------------------------------------------------------

TEST(DurableBlobIo, AtomicWriteRoundTripsBinaryAndReplaces) {
    TempDir tmp("asuca_durable_io");
    const std::string path = tmp.file("x.bin");
    const std::string binary("\x00\x01\xff\x7f ckpt", 9);
    io::write_file_atomic(path, binary);
    EXPECT_EQ(io::read_file(path), binary);
    io::write_file_atomic(path, "replacement");
    EXPECT_EQ(io::read_file(path), "replacement");
    // The temp file of the write-rename protocol must not survive.
    std::size_t files = 0;
    for ([[maybe_unused]] const auto& e : fs::directory_iterator(tmp.path))
        ++files;
    EXPECT_EQ(files, 1u);
    EXPECT_THROW(io::read_file(tmp.file("missing.bin")), Error);
    EXPECT_THROW(io::read_file(tmp.str()), Error);  // a directory
}

TEST(DurableBlobVerify, AcceptsIntactRejectsEveryDamageMode) {
    const std::string payload = make_blob();
    const std::string good = io::wrap_blob(payload);
    std::string why;
    EXPECT_TRUE(io::verify_wrapped_blob(good, &why)) << why;
    EXPECT_EQ(io::unwrap_blob(good), payload);

    std::string flipped = good;
    flipped[flipped.size() / 2] ^= 0x01;  // at-rest bit rot
    EXPECT_FALSE(io::verify_wrapped_blob(flipped, &why));
    EXPECT_FALSE(why.empty());
    EXPECT_THROW(io::unwrap_blob(flipped), Error);

    std::string truncated = good.substr(0, good.size() / 2);  // torn write
    EXPECT_FALSE(io::verify_wrapped_blob(truncated));

    EXPECT_FALSE(io::verify_wrapped_blob(""));
    EXPECT_FALSE(io::verify_wrapped_blob("not a checkpoint at all"));
    EXPECT_FALSE(io::verify_wrapped_blob(good + "trailing"));
    EXPECT_FALSE(io::verify_wrapped_blob(payload));  // an unframed stream

    // Known answer: stored checksums, store file names and fingerprints
    // all depend on the repo's FNV-1a (offset basis 1469598103934665603,
    // not the standard one), so the digest and the frame must not move.
    EXPECT_EQ(hash::fnv1a_bytes("foobar", 6), 0x88fad7c0a8ff07f2ull);
    const std::string frame = io::wrap_blob("foobar");
    ASSERT_EQ(frame.size(), 24u + 6u);
    std::uint64_t words[3];
    std::memcpy(words, frame.data(), sizeof(words));
    EXPECT_EQ(words[0], 0x0000003142575341ull);  // "ASWB1"
    EXPECT_EQ(words[1], 6u);
    EXPECT_EQ(words[2], 0x88fad7c0a8ff07f2ull);
    EXPECT_EQ(frame.substr(24), "foobar");
}

// ---------------------------------------------------------------------
// Seeded mutation test of the durable parsers. Half the cases damage
// the file, which the frame must always reject; the other half damage
// the v3 stream and re-frame it, so the stream parser is the only guard
// and may reject or load. A rejection must be a clean asuca::Error that
// leaves the destination bitwise untouched.
// ---------------------------------------------------------------------

/// One seeded mutation of `in`: a bit flip, a run of random bytes,
/// truncation, appended bytes or an extreme 8-byte word. Half the
/// positions land in the first or last 128 bytes, where the headers,
/// the side-state section and the frame live. Never returns `in`.
std::string mutate(const std::string& in, std::mt19937_64& rng) {
    const auto below = [&](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    const auto position = [&](std::size_t n) {
        const std::size_t edge = std::min<std::size_t>(n, 128);
        switch (below(4)) {
            case 0: return below(edge);
            case 1: return n - 1 - below(edge);
            default: return below(n);
        }
    };
    static constexpr std::uint64_t kExtreme[] = {
        0ull,
        ~0ull,
        0x7fffffffffffffffull,
        0x8000000000000000ull,
        0x7ff8000000000000ull,  // quiet NaN
        0xfff0000000000000ull,  // -inf
        0x00000000ffffffffull,
        0x0000000100000000ull};
    std::string out = in;
    switch (below(5)) {
        case 0:  // bit flip
            out[position(out.size())] ^= static_cast<char>(1u << below(8));
            break;
        case 1: {  // run of random bytes
            const std::size_t at = position(out.size());
            const std::size_t len =
                1 + below(std::min<std::size_t>(64, out.size() - at));
            for (std::size_t k = 0; k < len; ++k) {
                out[at + k] = static_cast<char>(rng());
            }
            break;
        }
        case 2:  // truncation
            out.resize(below(out.size()));
            break;
        case 3: {  // appended bytes
            const std::size_t len = 1 + below(32);
            for (std::size_t k = 0; k < len; ++k) {
                out.push_back(static_cast<char>(rng()));
            }
            break;
        }
        default: {  // extreme 8-byte word
            const std::size_t at = position(out.size() - 7);
            std::memcpy(out.data() + at,
                        &kExtreme[below(std::size(kExtreme))], 8);
            break;
        }
    }
    if (out == in) out[below(out.size())] ^= 0x01;
    return out;
}

/// Outcome tally of one fuzz run.
struct FuzzTally {
    int frame_rejected = 0;
    int stream_rejected = 0;
    int stream_loaded = 0;
};

/// Run `cases` seeded mutations of the checkpoint file `intact` through
/// `load` (which loads `path`). `untouched` checks the destination after
/// a rejection; `reset` restores it after a re-framed payload loaded.
FuzzTally fuzz_checkpoint_file(const std::string& path,
                               const std::string& intact, int cases,
                               std::uint64_t seed,
                               const std::function<void()>& load,
                               const std::function<void()>& untouched,
                               const std::function<void()>& reset) {
    const std::string payload = io::unwrap_blob(intact);
    std::mt19937_64 rng(seed);
    FuzzTally tally;
    for (int c = 0; c < cases; ++c) {
        const bool reframed = (c % 2) == 1;
        io::write_file_atomic(path, reframed
                                        ? io::wrap_blob(mutate(payload, rng))
                                        : mutate(intact, rng));
        try {
            load();
            EXPECT_TRUE(reframed) << "case " << c << ": damaged frame loaded";
            ++tally.stream_loaded;
            reset();
        } catch (const Error& e) {
            if (reframed) {
                ++tally.stream_rejected;
            } else {
                ++tally.frame_rejected;
                EXPECT_NE(std::string(e.what()).find("damaged wrapped blob"),
                          std::string::npos)
                    << "case " << c << ": " << e.what();
            }
            untouched();
        } catch (...) {
            ADD_FAILURE() << "case " << c << ": non-asuca::Error exception";
        }
        if (::testing::Test::HasFailure()) break;  // one report, not 900
    }
    return tally;
}

bool padded_equal(const State<double>& a, const State<double>& b) {
    const auto eq = [](const Array3<double>& x, const Array3<double>& y) {
        return x.size() == y.size() &&
               std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) ==
                   0;
    };
    if (a.tracers.size() != b.tracers.size()) return false;
    for (std::size_t n = 0; n < a.tracers.size(); ++n) {
        if (!eq(a.tracers[n], b.tracers[n])) return false;
    }
    return eq(a.rho, b.rho) && eq(a.rhou, b.rhou) && eq(a.rhov, b.rhov) &&
           eq(a.rhow, b.rhow) && eq(a.rhotheta, b.rhotheta) &&
           eq(a.p, b.p) && eq(a.rho_ref, b.rho_ref) &&
           eq(a.p_ref, b.p_ref) && eq(a.rhotheta_ref, b.rhotheta_ref) &&
           eq(a.cs2, b.cs2);
}

TEST(DurableFuzz, SingleDomainCheckpointRejectsCleanlyOrLoads) {
    TempDir tmp("asuca_durable_fuzz_single");
    const std::string path = tmp.file("single.ckpt");
    ScenarioSpec spec = small_spec(1);
    spec.scenario = "mountain_wave";
    spec.physics = true;
    spec.nx = 8;
    spec.ny = 8;
    spec.nz = 6;
    spec = canonicalize(spec);
    AsucaModel<double> model(build_config(spec));
    init_model(model, spec);
    ASSERT_EQ(model.state().tracers.size(), 3u);  // warm rain
    model.run(1);
    double steps = 1.0;
    Array2<double> precip(8, 8, 1, 0.5);
    io::SideState side;
    side.add("model.steps", &steps);
    side.add("precip", &precip);
    io::save_checkpoint(path, model.state(), model.time(), side);
    const std::string intact = io::read_file(path);

    // The destination has a different history, so a part-restore shows.
    AsucaModel<double> other(build_config(spec));
    init_model(other, spec);
    const State<double> before = other.state();
    State<double> dst = before;
    double dst_steps = -1.0;
    Array2<double> dst_precip(8, 8, 1, -2.0);
    const Array2<double> precip_before = dst_precip;
    io::SideState dst_side;
    dst_side.add("model.steps", &dst_steps);
    dst_side.add("precip", &dst_precip);

    const FuzzTally tally = fuzz_checkpoint_file(
        path, intact, 600, 0x5eed0001ull,
        [&] { io::load_checkpoint(path, dst, dst_side); },
        [&] {
            EXPECT_TRUE(padded_equal(dst, before));
            EXPECT_EQ(dst_steps, -1.0);
            EXPECT_EQ(std::memcmp(dst_precip.data(), precip_before.data(),
                                  dst_precip.size() * sizeof(double)),
                      0);
        },
        [&] {
            dst = before;
            dst_steps = -1.0;
            dst_precip = precip_before;
        });
    EXPECT_EQ(tally.frame_rejected, 300);
    EXPECT_GT(tally.stream_rejected, 0);
}

TEST(DurableFuzz, MultiRankCheckpointRejectsCleanlyOrLoads) {
    using cluster::MultiDomainRunner;
    TempDir tmp("asuca_durable_fuzz_multi");
    const std::string path = tmp.file("multi.ckpt");
    const std::string baseline = tmp.file("baseline.ckpt");
    GridSpec grid_spec;
    grid_spec.nx = 16;
    grid_spec.ny = 8;
    grid_spec.nz = 6;
    TimeStepperConfig cfg;
    cfg.dt = 4.0;
    cfg.n_short_steps = 4;
    const auto species = SpeciesSet::dry();
    Grid<double> grid(grid_spec);
    State<double> initial(grid, species);
    initialize_hydrostatic(grid, AtmosphereProfile::isothermal(280.0), 5.0,
                           0.0, initial);

    MultiDomainRunner<double> a(grid_spec, 2, 1, species, cfg);
    a.scatter(initial);
    a.step();
    a.save_checkpoint(path);
    const std::string intact = io::read_file(path);

    // Destination: a runner still at step 0. Its own checkpoint restores
    // it exactly after a re-framed payload loaded.
    MultiDomainRunner<double> b(grid_spec, 2, 1, species, cfg);
    b.scatter(initial);
    b.save_checkpoint(baseline);
    std::vector<State<double>> before;
    for (Index r = 0; r < b.rank_count(); ++r) {
        before.push_back(b.rank_state(r));
    }

    const FuzzTally tally = fuzz_checkpoint_file(
        path, intact, 300, 0x5eed0002ull, [&] { b.load_checkpoint(path); },
        [&] {
            EXPECT_EQ(b.step_index(), 0);
            for (Index r = 0; r < b.rank_count(); ++r) {
                EXPECT_TRUE(padded_equal(
                    b.rank_state(r), before[static_cast<std::size_t>(r)]))
                    << "rank " << r;
            }
        },
        [&] { b.load_checkpoint(baseline); });
    EXPECT_EQ(tally.frame_rejected, 150);
    EXPECT_GT(tally.stream_rejected, 0);
}

// ---------------------------------------------------------------------
// DurableCheckpointStore: spills, verified reloads, epochs, recovery.
// ---------------------------------------------------------------------

TEST(DurableStore, PutSpillsToDiskAndGetServesIdenticalBytes) {
    TempDir tmp("asuca_durable_store_rt");
    const std::string blob = make_blob();
    DurableCheckpointStore store({tmp.str(), 4, 2});
    store.put("analysis", blob);
    EXPECT_TRUE(store.contains("analysis"));
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.latest_epoch("analysis"), 1);
    // The on-disk epoch is the committed bytes in the one frame,
    // verifiable standalone.
    const std::string on_disk =
        io::read_file(store.epoch_path("analysis", 1));
    EXPECT_EQ(on_disk, io::wrap_blob(blob));
    EXPECT_TRUE(io::verify_wrapped_blob(on_disk));
    // RAM hit and (after an eviction) verified disk reload agree.
    ASSERT_NE(store.get("analysis"), nullptr);
    EXPECT_EQ(*store.get("analysis"), blob);
    store.drop_ram("analysis");
    ASSERT_NE(store.get("analysis"), nullptr);
    EXPECT_EQ(*store.get("analysis"), blob);
}

TEST(DurableStore, RestartRecoversIndexAndContinuesEpochNumbering) {
    TempDir tmp("asuca_durable_store_restart");
    const std::string blob = make_blob();
    {
        DurableCheckpointStore first({tmp.str(), 4, 3});
        first.put("analysis", blob);
        first.put("analysis", blob);
    }  // the process "crashes"; only the directory survives
    DurableCheckpointStore second({tmp.str(), 4, 3});
    EXPECT_TRUE(second.contains("analysis"));
    EXPECT_EQ(second.size(), 1u);
    EXPECT_EQ(second.latest_epoch("analysis"), 2);
    ASSERT_NE(second.get("analysis"), nullptr);  // cold cache: disk path
    EXPECT_EQ(*second.get("analysis"), blob);
    second.put("analysis", blob);  // numbering continues, no collision
    EXPECT_EQ(second.latest_epoch("analysis"), 3);
}

TEST(DurableStore, EpochRetentionPrunesBeyondKeepEpochs) {
    TempDir tmp("asuca_durable_store_epochs");
    const std::string blob = make_blob();
    DurableCheckpointStore store({tmp.str(), 4, 2});
    store.put("analysis", blob);
    store.put("analysis", blob);
    const std::string epoch1 = store.epoch_path("analysis", 1);
    store.put("analysis", blob);
    EXPECT_EQ(store.latest_epoch("analysis"), 3);
    EXPECT_FALSE(fs::exists(epoch1));  // pruned
    EXPECT_TRUE(fs::exists(store.epoch_path("analysis", 2)));
    EXPECT_TRUE(fs::exists(store.epoch_path("analysis", 3)));
}

TEST(DurableStore, LruEvictionStillServesEvictedNamesFromDisk) {
    TempDir tmp("asuca_durable_store_lru");
    const std::string blob = make_blob();
    DurableCheckpointStore store({tmp.str(), /*ram_entries=*/1, 2});
    store.put("a", blob);
    store.put("b", blob);  // evicts "a" from RAM, never from disk
    ASSERT_NE(store.get("a"), nullptr);
    EXPECT_EQ(*store.get("a"), blob);
    EXPECT_EQ(store.size(), 2u);
}

TEST(DurableStore, CorruptedNewestEpochFallsBackToThePreviousOne) {
    const std::string blob = make_blob();
    for (const bool truncate : {false, true}) {
        TempDir tmp("asuca_durable_store_corrupt");
        DurableCheckpointStore store({tmp.str(), 4, 2});
        store.put("analysis", blob);
        store.put("analysis", blob);
        ASSERT_TRUE(store.corrupt_latest_epoch("analysis", truncate));
        store.drop_ram("analysis");  // force the verified disk path
        // The damaged epoch 2 is rejected wholesale; epoch 1 serves the
        // exact committed bytes — the reload mutated nothing.
        const CheckpointStore::Blob got = store.get("analysis");
        ASSERT_NE(got, nullptr) << (truncate ? "truncate" : "bit-flip");
        EXPECT_EQ(*got, blob);
        EXPECT_FALSE(io::verify_wrapped_blob(
            io::read_file(store.epoch_path("analysis", 2))));
    }
}

TEST(DurableStore, EveryEpochDamagedFailsTheGetNotTheStore) {
    TempDir tmp("asuca_durable_store_allbad");
    const std::string blob = make_blob();
    DurableCheckpointStore store({tmp.str(), 4, /*keep_epochs=*/1});
    store.put("analysis", blob);
    ASSERT_TRUE(store.corrupt_latest_epoch("analysis"));
    store.drop_ram("analysis");
    EXPECT_TRUE(store.contains("analysis"));  // the name is still known...
    EXPECT_EQ(store.get("analysis"), nullptr);  // ...but nothing verifies
    store.put("analysis", blob);  // a fresh put heals the name
    EXPECT_NE(store.get("analysis"), nullptr);
}

// ---------------------------------------------------------------------
// Incremental rollback snapshots (j-slab dirty tracking).
// ---------------------------------------------------------------------

TEST(DurableSnapshot, IncrementalCaptureCopiesOnlyDirtySlabs) {
    const ScenarioSpec spec = canonicalize(small_spec());
    AsucaModel<double> model(build_config(spec));
    init_model(model, spec);
    State<double> s = model.state();

    resilience::RankFieldCopy<double> copy;
    const std::size_t full = copy.capture_dynamic(s);
    EXPECT_GT(full, 0u);
    EXPECT_EQ(copy.capture_dynamic(s), 0u);  // unchanged: nothing copied

    // One touched cell dirties exactly one j-slab of one field.
    s.rhotheta(2, 3, 4) += 1.0;
    const auto& th = s.rhotheta;
    const std::size_t slab_bytes =
        th.size() / static_cast<std::size_t>(th.padded_extents().y) *
        sizeof(double);
    EXPECT_EQ(copy.capture_dynamic(s), slab_bytes);

    // The incremental buffer restores the full state bitwise.
    State<double> dst = model.state();
    dst.rhou(1, 1, 1) = 42.0;  // stale bytes the restore must overwrite
    copy.restore_dynamic(dst);
    expect_bitwise(dst, s);
}

TEST(DurableSnapshot, SnapshotterReportsLocalizedRoundsAsFewerBytes) {
    const ScenarioSpec spec = canonicalize(small_spec());
    AsucaModel<double> model(build_config(spec));
    init_model(model, spec);
    State<double> s = model.state();
    const auto source = [&](Index) -> const State<double>& { return s; };

    resilience::RollbackSnapshots<double> snap;
    snap.configure(1);
    snap.capture_sync(source, 0, 0.0);
    const std::size_t first = snap.last_round_bytes();
    EXPECT_GT(first, 0u);  // fresh buffers: a full copy

    s.rhotheta(5, 5, 5) += 0.25;  // localized update
    snap.capture_sync(source, 1, 0.0);
    const std::size_t localized = snap.last_round_bytes();
    EXPECT_GT(localized, 0u);
    EXPECT_LT(localized, first / 4);  // copies slabs, not the state

    State<double> dst = model.state();
    snap.restore([&](Index) -> State<double>& { return dst; });
    expect_bitwise(dst, s);

    // A round staged by a step that never commits is not a rollback
    // point: restore still returns the committed bits.
    const State<double> committed = s;
    s.rhotheta(5, 5, 5) += 0.25;
    snap.stage(0, s);
    State<double> after = model.state();
    snap.restore([&](Index) -> State<double>& { return after; });
    expect_bitwise(after, committed);
    EXPECT_EQ(snap.step(), 1);
}

TEST(DurableSnapshot, GuardedRecoveryIsBitwiseWithAndWithoutIncremental) {
    // The rollback-and-replay guarantee holds with incremental
    // snapshots (the only capture mode): an injected transient fault
    // recovers to the clean run's exact bits.
    const ScenarioSpec spec = canonicalize(decomposed_spec(2));
    const ForecastResult clean = run_forecast(spec, nullptr, true);
    ASSERT_TRUE(clean.ok()) << clean.error;

    const ModelConfig<double> cfg = build_config(spec);
    AsucaModel<double> seed_model(cfg);
    init_model(seed_model, spec);
    cluster::MultiDomainConfig md;
    md.resilience.enabled = true;
    md.resilience.checkpoint_interval = 1;
    md.resilience.faults.push_back(
        {FaultKind::HaloCorrupt, 1, 1, VarId::RhoTheta, 0, 0, 0, {}});
    cluster::MultiDomainRunner<double> runner(
        cfg.grid, spec.px, spec.py, cfg.species, cfg.stepper, md);
    runner.scatter(seed_model.state());
    runner.advance(spec.steps);
    State<double> got(seed_model.grid(), cfg.species);
    got = seed_model.state();
    runner.gather(got);
    seed_model.stepper().apply_state_bcs(got);
    expect_bitwise(*clean.state, got);
    EXPECT_EQ(runner.injector().fired_count(), 1);
}

// ---------------------------------------------------------------------
// The server retry ladder: quarantine, canary reinstatement, durable
// replay, retry/deadline budgets, and injected request faults.
// ---------------------------------------------------------------------

ServerConfig ladder_config(const std::string& store_dir = "") {
    ServerConfig cfg;
    cfg.n_workers = 1;  // deterministic: worker 0 pops every job
    cfg.keep_state = true;
    cfg.degrade_under_load = false;
    cfg.store_dir = store_dir;
    cfg.retry_backoff = std::chrono::milliseconds(1);
    cfg.canary_backoff = std::chrono::milliseconds(1);
    return cfg;
}

TEST(DurableLadder, PoisonedWorkerEnsembleMatchesCleanRunBitwise) {
    TempDir tmp("asuca_durable_ladder_poison");
    const ScenarioSpec spec = canonicalize(small_spec());
    AsucaModel<double> analysis(build_config(spec));
    init_model(analysis, spec);
    analysis.run(1);

    EnsembleRequest req;
    req.base = spec;
    req.base.warm_start = "analysis";
    req.n_members = 2;
    req.seed = 7;
    req.amplitude = 1.0e-3;

    // Reference: the same ensemble on a healthy in-memory server.
    std::vector<std::shared_ptr<const State<double>>> want;
    {
        ForecastServer server(ladder_config());
        server.checkpoints().capture("analysis", analysis);
        for (auto& h : server.submit_ensemble(req)) {
            const ForecastResult& res = h.wait();
            ASSERT_TRUE(res.ok()) << res.error;
            want.push_back(res.state);
        }
    }

    // Faulted: worker 0's first popped job throws WorkerPoisonError.
    // The ladder must quarantine the slot, replay the member from the
    // DURABLE store, reinstate the slot via a clean canary, and land on
    // exactly the reference bits — the request never observes the fault.
    ServerConfig cfg = ladder_config(tmp.str());
    cfg.faults.push_back({FaultKind::WorkerPoison, 0, 0});
    ForecastServer server(cfg);
    ASSERT_NE(server.durable_store(), nullptr);
    server.checkpoints().capture("analysis", analysis);
    const auto handles = server.submit_ensemble(req);
    for (std::size_t m = 0; m < handles.size(); ++m) {
        const ForecastResult& res = handles[m].wait();
        ASSERT_TRUE(res.ok()) << res.error;
        ASSERT_NE(res.state, nullptr);
        expect_bitwise(*want[m], *res.state);
    }
    server.shutdown();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.retried, 1u);
    EXPECT_EQ(stats.quarantined, 1u);
    EXPECT_EQ(stats.reinstated, 1u);  // the canary brought the slot back
    EXPECT_FALSE(server.worker_quarantined(0));
}

TEST(DurableLadder, CorruptedEpochReplaysFromThePriorDurableEpoch) {
    TempDir tmp("asuca_durable_ladder_epoch");
    const ScenarioSpec spec = canonicalize(small_spec());
    AsucaModel<double> reference(build_config(spec));
    init_model(reference, spec);
    reference.run(1);

    ServerConfig cfg = ladder_config(tmp.str());
    cfg.faults.push_back({FaultKind::CheckpointCorrupt, 0, 0});
    ForecastServer server(cfg);
    server.checkpoints().capture("analysis", reference);  // epoch 1
    server.checkpoints().capture("analysis", reference);  // epoch 2
    DurableCheckpointStore* store = server.durable_store();
    ASSERT_NE(store, nullptr);
    ASSERT_EQ(store->latest_epoch("analysis"), 2);

    ScenarioSpec warm = spec;
    warm.warm_start = "analysis";
    warm.steps = 2;
    const ForecastResult& res = server.submit(envelope(warm)).wait();
    ASSERT_TRUE(res.ok()) << res.error;
    ASSERT_NE(res.state, nullptr);

    // The injected fault really damaged epoch 2 on disk...
    EXPECT_FALSE(io::verify_wrapped_blob(
        io::read_file(store->epoch_path("analysis", 2))));
    // ...yet the request continued bitwise from the surviving epoch, and
    // nothing escalated to the worker-level ladder.
    reference.run(2);
    expect_bitwise(reference.state(), *res.state);
    server.shutdown();
    EXPECT_EQ(server.stats().failed, 0u);
    EXPECT_EQ(server.stats().quarantined, 0u);
}

TEST(DurableLadder, TransientInjectionRecoversInlineWithoutTheLadder) {
    // "halo" and "nan" are transient: MultiDomainRunner's rollback
    // recovers them inside advance(); the server never sees a fault.
    const ScenarioSpec clean_spec = canonicalize(decomposed_spec(2));
    const ForecastResult clean = run_forecast(clean_spec, nullptr, true);
    ASSERT_TRUE(clean.ok()) << clean.error;

    ForecastServer server(ladder_config());
    for (const char* inject : {"halo", "nan"}) {
        ScenarioSpec s = decomposed_spec(2);
        s.inject = inject;
        const ForecastResult& res = server.submit(envelope(s)).wait();
        ASSERT_TRUE(res.ok()) << inject << ": " << res.error;
        ASSERT_NE(res.state, nullptr);
        expect_bitwise(*clean.state, *res.state);
    }
    server.shutdown();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.retried, 0u);
    EXPECT_EQ(stats.quarantined, 0u);
}

TEST(DurableLadder, FatalStallQuarantinesRetriesAndMatchesCleanBitwise) {
    // "stall" blows the halo deadline: FatalFaultError with suspect-rank
    // attribution reaches the worker, which quarantines its slot and
    // re-dispatches the request; the retry runs the clean product.
    const ScenarioSpec clean_spec = canonicalize(decomposed_spec(2));
    const ForecastResult clean = run_forecast(clean_spec, nullptr, true);
    ASSERT_TRUE(clean.ok()) << clean.error;

    ForecastServer server(ladder_config());
    ScenarioSpec s = decomposed_spec(2);
    s.inject = "stall";
    const ForecastResult& res = server.submit(envelope(s)).wait();
    ASSERT_TRUE(res.ok()) << res.error;
    ASSERT_NE(res.state, nullptr);
    expect_bitwise(*clean.state, *res.state);
    EXPECT_TRUE(res.executed.inject.empty());  // the retry ran clean
    server.shutdown();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.retried, 1u);
    EXPECT_EQ(stats.quarantined, 1u);
    EXPECT_EQ(stats.reinstated, 1u);
}

TEST(DurableLadder, RetryBudgetExhaustionFailsLoudlyAndServerRecovers) {
    ServerConfig cfg = ladder_config();
    cfg.max_request_retries = 0;  // no second chances
    cfg.faults.push_back({FaultKind::WorkerPoison, 0, 0});
    ForecastServer server(cfg);
    // Hold the handle: a failed entry leaves the result cache, so the
    // handle is what keeps the result alive past wait().
    const ForecastHandle h = server.submit(envelope(small_spec()));
    const ForecastResult& res = h.wait();
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.code, ErrorCode::internal_fault);
    EXPECT_NE(res.error.find("retries exhausted"), std::string::npos);
    EXPECT_NE(res.error.find("poison"), std::string::npos);
    // The slot still went through quarantine + canary, so the server
    // keeps serving — failure of one request is not failure of service.
    const ForecastResult& good = server.submit(envelope(small_spec(3))).wait();
    EXPECT_TRUE(good.ok()) << good.error;
    server.shutdown();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.quarantined, 1u);
}

TEST(DurableLadder, DeadlineBudgetStopsTheRetryLadder) {
    ServerConfig cfg = ladder_config();
    cfg.max_request_retries = 5;
    cfg.request_deadline = std::chrono::milliseconds(60);
    cfg.retry_backoff = std::chrono::milliseconds(120);  // > the deadline
    cfg.faults.push_back({FaultKind::WorkerPoison, 0, 0});
    cfg.faults.push_back({FaultKind::WorkerPoison, 0, 1});
    ForecastServer server(cfg);
    // Attempt 1 is poisoned and re-dispatched (the deadline has not hit
    // yet); by attempt 2's poison the backoff spent the budget, so the
    // ladder must stop even though 4 retries formally remain.
    const ForecastHandle h = server.submit(envelope(small_spec()));
    const ForecastResult& res = h.wait();
    EXPECT_FALSE(res.ok());
    // The taxonomy distinguishes WHY the ladder stopped: the budget ran
    // out mid-fault, so the typed code is deadline_exceeded, not the
    // retries-exhausted internal_fault.
    EXPECT_EQ(res.code, ErrorCode::deadline_exceeded);
    EXPECT_NE(res.error.find("deadline exceeded"), std::string::npos);
    server.shutdown();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.retried, 1u);
    EXPECT_EQ(stats.failed, 1u);
}

}  // namespace
}  // namespace asuca::server
