// End-to-end fault-tolerance specification (test-first): the durable
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
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/multidomain.hpp"
#include "src/core/diagnostics.hpp"
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

/// A real v3 checkpoint blob (the verifier walks the actual format, so
/// tests feed it actual serialized states, not synthetic bytes).
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
// durable_blob.hpp: atomic file I/O and structural blob verification.
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
}

TEST(DurableBlobVerify, AcceptsIntactRejectsEveryDamageMode) {
    const std::string good = make_blob();
    std::string why;
    EXPECT_TRUE(io::verify_checkpoint_blob(good, &why)) << why;

    std::string flipped = good;
    flipped[flipped.size() / 2] ^= 0x01;  // at-rest bit rot
    EXPECT_FALSE(io::verify_checkpoint_blob(flipped, &why));
    EXPECT_FALSE(why.empty());

    std::string truncated = good.substr(0, good.size() / 2);  // torn write
    EXPECT_FALSE(io::verify_checkpoint_blob(truncated));

    EXPECT_FALSE(io::verify_checkpoint_blob(""));
    EXPECT_FALSE(io::verify_checkpoint_blob("not a checkpoint at all"));
    EXPECT_FALSE(io::verify_checkpoint_blob(good + "trailing"));
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
    // The on-disk epoch is the committed bytes, verifiable standalone.
    const std::string on_disk =
        io::read_file(store.epoch_path("analysis", 1));
    EXPECT_EQ(on_disk, blob);
    EXPECT_TRUE(io::verify_checkpoint_blob(on_disk));
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
        EXPECT_FALSE(io::verify_checkpoint_blob(
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
    copy.set_incremental(true);
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

TEST(DurableSnapshot, FullCopyFallbackCopiesEverythingEveryRound) {
    const ScenarioSpec spec = canonicalize(small_spec());
    AsucaModel<double> model(build_config(spec));
    init_model(model, spec);
    State<double> s = model.state();

    resilience::RankFieldCopy<double> copy;  // incremental OFF (default)
    const std::size_t full = copy.capture_dynamic(s);
    EXPECT_GT(full, 0u);
    EXPECT_EQ(copy.capture_dynamic(s), full);  // no dirty tracking
    State<double> dst = model.state();
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
    snap.configure(1, /*incremental=*/true);
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
    // The rollback-and-replay guarantee must hold identically for
    // incremental snapshots and the tested full-copy fallback: an
    // injected transient fault recovers to the clean run's exact bits.
    const ScenarioSpec spec = canonicalize(decomposed_spec(2));
    const ForecastResult clean = run_forecast(spec, nullptr, true);
    ASSERT_TRUE(clean.ok()) << clean.error;

    const ModelConfig<double> cfg = build_config(spec);
    AsucaModel<double> seed_model(cfg);
    init_model(seed_model, spec);
    for (const bool incremental : {false, true}) {
        cluster::MultiDomainConfig md;
        md.resilience.enabled = true;
        md.resilience.checkpoint_interval = 1;
        md.resilience.incremental_snapshots = incremental;
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
        EXPECT_EQ(runner.injector().fired_count(), 1)
            << (incremental ? "incremental" : "full-copy");
    }
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
    EXPECT_FALSE(io::verify_checkpoint_blob(
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
