// Exact-restart guarantees of the v3 checkpoint format: running N steps,
// checkpointing, restarting and running M more steps must be bitwise
// identical to running N+M steps straight through — for a single-domain
// moist model (including the non-State side state v2 added: accumulated
// surface precipitation and the step counter) and for a decomposed
// MultiDomainRunner (per-rank padded sections, halos included).
//
// Every checkpoint file is one wrapped blob (magic, length, whole-payload
// checksum; src/io/durable_blob.hpp) around the v3 stream, written by
// atomic rename, so a save that fails keeps the previous checkpoint.
//
// The CheckpointRestartNegative suite specifies the error paths. A
// damaged frame (flipped byte, cut file, unframed stream) is rejected by
// the frame check. Stream damage behind an intact frame — a truncated
// stream, a corrupted section header, a bit-flipped payload (v3
// per-section checksums) and a wrong-version header — is damaged in the
// unwrapped payload and re-framed, so the stream parser is the only
// guard. Every case must throw a clean asuca::Error AND leave the
// destination state bitwise untouched (load_checkpoint is
// transactional). A truncated or bit-flipped multi-rank file must leave
// every rank untouched.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <vector>

#include "src/cluster/multidomain.hpp"
#include "src/core/diagnostics.hpp"
#include "src/core/scenarios.hpp"
#include "src/io/checkpoint.hpp"
#include "src/io/durable_blob.hpp"

namespace asuca {
namespace {

namespace fs = std::filesystem;

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

/// Bitwise equality of every array of two states, halos included.
void expect_padded_bitwise(const State<double>& a, const State<double>& b) {
    const auto eq = [](const Array3<double>& x, const Array3<double>& y) {
        ASSERT_EQ(x.size(), y.size());
        EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size() * sizeof(double)),
                  0);
    };
    eq(a.rho, b.rho);
    eq(a.rhou, b.rhou);
    eq(a.rhov, b.rhov);
    eq(a.rhow, b.rhow);
    eq(a.rhotheta, b.rhotheta);
    eq(a.p, b.p);
    eq(a.rho_ref, b.rho_ref);
    eq(a.p_ref, b.p_ref);
    eq(a.rhotheta_ref, b.rhotheta_ref);
    eq(a.cs2, b.cs2);
    ASSERT_EQ(a.tracers.size(), b.tracers.size());
    for (std::size_t n = 0; n < a.tracers.size(); ++n) {
        eq(a.tracers[n], b.tracers[n]);
    }
}

double max_abs_diff2(const Array2<double>& a, const Array2<double>& b) {
    EXPECT_EQ(a.nx(), b.nx());
    EXPECT_EQ(a.ny(), b.ny());
    double worst = 0.0;
    for (Index j = 0; j < a.ny(); ++j)
        for (Index i = 0; i < a.nx(); ++i)
            worst = std::max(worst, std::abs(a(i, j) - b(i, j)));
    return worst;
}

TEST(CheckpointRestart, SingleDomainMoistRoundTripIsBitwise) {
    const auto path = fs::temp_directory_path() / "asuca_restart_moist.bin";

    auto cfg = scenarios::real_case_config<double>(16, 16, 10);
    AsucaModel<double> a(cfg);
    scenarios::init_real_case(a);
    a.run(4);
    // Nonzero side state by construction: even if the microphysics has
    // not rained yet at step 4, the accumulator round-trip is exercised.
    a.microphysics().accumulated_precip()(2, 3) += 1.25;
    const double saved_precip = a.microphysics().accumulated_precip()(2, 3);
    io::save_model_checkpoint(path.string(), a);
    a.run(3);  // reference continues to step 7

    AsucaModel<double> b(cfg);  // fresh model, different history
    scenarios::init_real_case(b, /*v_max=*/5.0);
    b.run(1);
    io::load_model_checkpoint(path.string(), b);
    EXPECT_DOUBLE_EQ(b.time(), 16.0);  // 4 steps of dt = 4 s
    EXPECT_EQ(b.step_count(), 4);
    EXPECT_DOUBLE_EQ(b.microphysics().accumulated_precip()(2, 3),
                     saved_precip);
    b.run(3);

    expect_bitwise(a.state(), b.state());
    EXPECT_EQ(max_abs_diff2(a.microphysics().accumulated_precip(),
                            b.microphysics().accumulated_precip()),
              0.0);
    EXPECT_EQ(max_abs_diff2(a.microphysics().precip_rate(),
                            b.microphysics().precip_rate()),
              0.0);
    EXPECT_DOUBLE_EQ(a.time(), b.time());
    EXPECT_EQ(a.step_count(), b.step_count());
    fs::remove(path);
}

TEST(CheckpointRestart, RejectsVersion1File) {
    const auto path = fs::temp_directory_path() / "asuca_restart_v1.bin";
    {
        // A well-formed v1 header (correct magic, version = 1) in an
        // intact frame, so only the stream's version field can reject it.
        std::ostringstream out(std::ios::binary);
        const std::uint64_t magic = 0x4153554341434b50ull;
        const std::uint32_t version = 1, elem_size = 8, n_tracers = 0;
        const double time = 0.0;
        out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
        out.write(reinterpret_cast<const char*>(&version), sizeof(version));
        out.write(reinterpret_cast<const char*>(&elem_size),
                  sizeof(elem_size));
        out.write(reinterpret_cast<const char*>(&n_tracers),
                  sizeof(n_tracers));
        out.write(reinterpret_cast<const char*>(&time), sizeof(time));
        io::write_file_atomic(path.string(), io::wrap_blob(out.str()));
    }
    GridSpec spec;
    spec.nx = 8;
    spec.ny = 8;
    spec.nz = 6;
    Grid<double> grid(spec);
    State<double> state(grid, SpeciesSet::dry());
    try {
        io::load_checkpoint(path.string(), state);
        FAIL() << "v1 checkpoint accepted";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
    fs::remove(path);
}

TEST(CheckpointRestart, RejectsMismatchedSideState) {
    const auto path = fs::temp_directory_path() / "asuca_restart_side.bin";
    GridSpec spec;
    spec.nx = 8;
    spec.ny = 8;
    spec.nz = 6;
    Grid<double> grid(spec);
    State<double> state(grid, SpeciesSet::dry());
    double written = 42.0;
    io::SideState side;
    side.add("model.steps", &written);
    io::save_checkpoint(path.string(), state, 0.0, side);

    // Same count, unknown name: must fail loudly, not part-restore.
    double other = 0.0;
    io::SideState wrong_name;
    wrong_name.add("kessler.precip_total", &other);
    EXPECT_THROW(io::load_checkpoint(path.string(), state, wrong_name),
                 Error);

    // Entry-count mismatch (a configuration with different physics on).
    EXPECT_THROW(io::load_checkpoint(path.string(), state), Error);

    // The matching side state round-trips.
    double restored = 0.0;
    io::SideState right;
    right.add("model.steps", &restored);
    io::load_checkpoint(path.string(), state, right);
    EXPECT_DOUBLE_EQ(restored, 42.0);
    fs::remove(path);
}

TEST(CheckpointRestart, FailedSaveKeepsThePreviousCheckpoint) {
    // A save that cannot complete (here: its temp name is taken by a
    // directory) must throw and leave the committed checkpoint loadable,
    // bit for bit — a plain overwrite of the final path would not.
    const auto path = fs::temp_directory_path() / "asuca_restart_failsave.bin";
    const fs::path tmp = path.string() + ".tmp";
    fs::remove_all(tmp);
    GridSpec spec;
    spec.nx = 8;
    spec.ny = 8;
    spec.nz = 6;
    Grid<double> grid(spec);
    State<double> a(grid, SpeciesSet::warm_rain());
    State<double> b(grid, SpeciesSet::warm_rain());
    a.rhotheta.fill(300.0);
    b.rhotheta.fill(301.0);
    io::save_checkpoint(path.string(), a, 1.0);

    fs::create_directory(tmp);
    EXPECT_THROW(io::save_checkpoint(path.string(), b, 2.0), Error);
    fs::remove_all(tmp);

    State<double> got(grid, SpeciesSet::warm_rain());
    EXPECT_DOUBLE_EQ(io::load_checkpoint(path.string(), got), 1.0);
    expect_padded_bitwise(a, got);
    fs::remove(path);
}

TEST(CheckpointRestart, Decomposed2x2RoundTripIsBitwise) {
    using cluster::MultiDomainRunner;
    const auto path = fs::temp_directory_path() / "asuca_restart_2x2.bin";

    GridSpec spec;
    spec.nx = 24;
    spec.ny = 12;
    spec.nz = 10;
    spec.dx = 1000.0;
    spec.dy = 1000.0;
    spec.ztop = 10000.0;
    spec.terrain = bell_mountain(350.0, 3000.0, 12000.0, 6000.0);
    TimeStepperConfig cfg;
    cfg.dt = 4.0;
    cfg.n_short_steps = 6;
    cfg.diffusion.kh = 10.0;
    cfg.diffusion.kv = 1.0;
    cfg.sponge.z_start = 8000.0;
    const auto species = SpeciesSet::warm_rain();

    Grid<double> grid(spec);
    State<double> initial(grid, species);
    initialize_hydrostatic(grid, AtmosphereProfile::constant_n(292.0, 0.011),
                           8.0, 3.0, initial);
    set_relative_humidity(
        grid, [](double z) { return z < 2000.0 ? 0.8 : 0.3; }, initial);

    MultiDomainRunner<double> a(spec, 2, 2, species, cfg);
    a.scatter(initial);
    for (int n = 0; n < 4; ++n) a.step();
    a.save_checkpoint(path.string());
    for (int n = 0; n < 3; ++n) a.step();  // reference: step 7
    State<double> ref(grid, species);
    a.gather(ref);

    // A mismatched decomposition must be rejected before any load.
    MultiDomainRunner<double> wrong(spec, 1, 2, species, cfg);
    EXPECT_THROW(wrong.load_checkpoint(path.string()), Error);

    MultiDomainRunner<double> b(spec, 2, 2, species, cfg);
    b.scatter(initial);  // different history: still at step 0
    b.load_checkpoint(path.string());
    EXPECT_EQ(b.step_index(), 4);
    for (int n = 0; n < 3; ++n) b.step();
    State<double> got(grid, species);
    b.gather(got);

    expect_bitwise(ref, got);
    fs::remove(path);
}

// ---------------------------------------------------------------------
// Negative paths: corrupt checkpoints must fail cleanly and atomically.
// ---------------------------------------------------------------------

// Deterministic distinct fill so "untouched" is checkable bitwise.
void fill_pattern(State<double>& s, double salt) {
    auto fill = [&](Array3<double>& a, double base) {
        double* p = a.data();
        for (std::size_t n = 0; n < a.size(); ++n) {
            p[n] = base + salt * 0.125 + static_cast<double>(n) * 1.0e-3;
        }
    };
    fill(s.rho, 1.0);
    fill(s.rhou, 2.0);
    fill(s.rhov, 3.0);
    fill(s.rhow, 4.0);
    fill(s.rhotheta, 5.0);
    fill(s.p, 6.0);
    fill(s.rho_ref, 7.0);
    fill(s.p_ref, 8.0);
    fill(s.rhotheta_ref, 9.0);
    fill(s.cs2, 10.0);
    for (std::size_t n = 0; n < s.tracers.size(); ++n) {
        fill(s.tracers[n], 11.0 + static_cast<double>(n));
    }
}

std::string slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return std::move(buf).str();
}

void spit(const fs::path& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class CheckpointRestartNegative : public ::testing::Test {
  protected:
    void SetUp() override {
        // Unique per test: each TEST is its own ctest process, and two
        // of them racing on one shared temp file is a real -j flake.
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        path_ = fs::temp_directory_path() /
                (std::string("asuca_ckpt_negative_") + info->name() + ".bin");
        GridSpec spec;
        spec.nx = 8;
        spec.ny = 8;
        spec.nz = 6;
        grid_ = std::make_unique<Grid<double>>(spec);
        src_ = std::make_unique<State<double>>(*grid_, SpeciesSet::dry());
        fill_pattern(*src_, 1.0);
        double steps = 7.0;
        io::SideState side;
        side.add("model.steps", &steps);
        io::save_checkpoint(path_.string(), *src_, 3.5, side);
        file_ = slurp(path_);
        bytes_ = io::unwrap_blob(file_);
        // v3 stream layout: 28-byte file header (magic, version,
        // elem_size, n_tracers, time; no species for dry), then per-array
        // sections of 32-byte shape meta + payload + 8-byte checksum.
        header_bytes_ = 28;
        payload_bytes_ = src_->rho.size() * sizeof(double);
        ASSERT_GT(bytes_.size(), header_bytes_ + 32 + payload_bytes_ + 8);
    }

    void TearDown() override { fs::remove(path_); }

    /// Re-frame the damaged v3 stream `bytes` (an intact frame, so the
    /// stream parser is the only guard) and expect it rejected.
    void expect_rejected_without_mutation(const std::string& bytes,
                                          const std::string& what) {
        expect_file_rejected_without_mutation(io::wrap_blob(bytes), what);
    }

    /// Load the file `file` (written to the temp path) into a freshly
    /// patterned destination; expect Error carrying `what`, and the
    /// destination state and side scalar bitwise untouched.
    void expect_file_rejected_without_mutation(const std::string& file,
                                               const std::string& what) {
        spit(path_, file);
        State<double> dst(*grid_, SpeciesSet::dry());
        fill_pattern(dst, 2.0);
        const State<double> before = dst;
        double steps = -1.0;
        io::SideState side;
        side.add("model.steps", &steps);
        try {
            io::load_checkpoint(path_.string(), dst, side);
            FAIL() << "corrupt checkpoint accepted (" << what << ")";
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
                << "got: " << e.what();
        }
        expect_bitwise(before, dst);
        EXPECT_EQ(max_abs_diff(before.rho_ref, dst.rho_ref), 0.0);
        EXPECT_EQ(max_abs_diff(before.cs2, dst.cs2), 0.0);
        EXPECT_DOUBLE_EQ(steps, -1.0);  // side scalar not part-restored
    }

    fs::path path_;
    std::unique_ptr<Grid<double>> grid_;
    std::unique_ptr<State<double>> src_;
    std::string file_;   ///< the checkpoint file as saved (framed)
    std::string bytes_;  ///< its v3 stream (the frame's payload)
    std::size_t header_bytes_ = 0;
    std::size_t payload_bytes_ = 0;
};

TEST_F(CheckpointRestartNegative, IntactFileRoundTrips) {
    State<double> dst(*grid_, SpeciesSet::dry());
    fill_pattern(dst, 2.0);
    double steps = -1.0;
    io::SideState side;
    side.add("model.steps", &steps);
    const double time = io::load_checkpoint(path_.string(), dst, side);
    EXPECT_DOUBLE_EQ(time, 3.5);
    EXPECT_DOUBLE_EQ(steps, 7.0);
    expect_bitwise(*src_, dst);
}

TEST_F(CheckpointRestartNegative, DamagedFrameRejected) {
    // Damage to the file itself, not re-framed: the frame check rejects
    // it before the stream is parsed.
    std::string flipped = file_;
    flipped[flipped.size() / 2] =
        static_cast<char>(flipped[flipped.size() / 2] ^ 0x01);
    expect_file_rejected_without_mutation(flipped,
                                          "wrapped-blob checksum mismatch");
    expect_file_rejected_without_mutation(file_.substr(0, file_.size() / 2),
                                          "wrapped-blob length mismatch");
    // A bare v3 stream (the pre-frame file layout) is not a checkpoint
    // file any more.
    expect_file_rejected_without_mutation(bytes_, "not a wrapped blob");
}

TEST_F(CheckpointRestartNegative, TruncatedFileRejected) {
    // Cut mid-way through the first field array's payload.
    const std::string cut = bytes_.substr(
        0, header_bytes_ + 32 + payload_bytes_ / 2);
    expect_rejected_without_mutation(cut, "truncated");
}

TEST_F(CheckpointRestartNegative, TruncatedSideSectionRejected) {
    // Keep every field array, drop the tail of the side-state section:
    // the arrays parse, but nothing may be committed.
    const std::string cut = bytes_.substr(0, bytes_.size() - 6);
    expect_rejected_without_mutation(cut, "truncated");
}

TEST_F(CheckpointRestartNegative, CorruptedSectionLengthRejected) {
    // Damage the first array's shape meta (its extent header).
    std::string bad = bytes_;
    bad[header_bytes_] = static_cast<char>(bad[header_bytes_] ^ 0x3f);
    expect_rejected_without_mutation(bad, "does not match");
}

TEST_F(CheckpointRestartNegative, BitFlippedPayloadRejected) {
    // Flip ONE bit in the middle of the first array's payload: shape and
    // length still parse, only the v3 checksum can catch it.
    std::string bad = bytes_;
    const std::size_t at = header_bytes_ + 32 + payload_bytes_ / 2;
    bad[at] = static_cast<char>(bad[at] ^ 0x01);
    expect_rejected_without_mutation(bad, "checksum");
}

TEST_F(CheckpointRestartNegative, BitFlippedSidePayloadRejected) {
    // The side-state scalar payload sits 9 bytes before the final
    // checksum: [..., name, tag, value(8), checksum(8)] at file end.
    std::string bad = bytes_;
    const std::size_t at = bad.size() - 8 - 4;
    bad[at] = static_cast<char>(bad[at] ^ 0x01);
    expect_rejected_without_mutation(bad, "checksum");
}

TEST_F(CheckpointRestartNegative, WrongVersionHeaderRejected) {
    // Patch the version field (offset 8) to the superseded v2.
    std::string bad = bytes_;
    bad[8] = 2;
    expect_rejected_without_mutation(bad, "version");
}

/// Damage a valid 2x1 checkpoint with `damage`, load it into a runner
/// with a different history, and require a clean Error with every rank's
/// full padded state (halos and reference fields included) bitwise
/// untouched; the intact file must still restore afterwards.
void expect_damaged_multidomain_load_rejected(
    const char* name, const std::function<std::string(std::string)>& damage) {
    using cluster::MultiDomainRunner;
    const auto path = fs::temp_directory_path() /
                      (std::string("asuca_ckpt_neg_md_") + name + ".bin");

    GridSpec spec;
    spec.nx = 16;
    spec.ny = 8;
    spec.nz = 6;
    TimeStepperConfig cfg;
    cfg.dt = 4.0;
    cfg.n_short_steps = 4;
    const auto species = SpeciesSet::dry();
    Grid<double> grid(spec);

    State<double> initial(grid, species);
    initialize_hydrostatic(grid, AtmosphereProfile::isothermal(280.0), 5.0,
                           0.0, initial);

    MultiDomainRunner<double> a(spec, 2, 1, species, cfg);
    a.scatter(initial);
    a.step();
    a.save_checkpoint(path.string());
    const std::string bytes = slurp(path);
    spit(path, damage(bytes));

    MultiDomainRunner<double> b(spec, 2, 1, species, cfg);
    b.scatter(initial);  // different history: still at step 0
    std::vector<State<double>> before;
    for (Index r = 0; r < b.rank_count(); ++r) {
        before.push_back(b.rank_state(r));
    }
    EXPECT_THROW(b.load_checkpoint(path.string()), Error);
    EXPECT_EQ(b.step_index(), 0);
    for (Index r = 0; r < b.rank_count(); ++r) {
        expect_padded_bitwise(before[static_cast<std::size_t>(r)],
                              b.rank_state(r));
    }

    // And b still works: the intact original restores and matches a.
    spit(path, bytes);
    b.load_checkpoint(path.string());
    EXPECT_EQ(b.step_index(), 1);
    State<double> got(grid, species);
    b.gather(got);
    State<double> ref(grid, species);
    a.gather(ref);
    expect_bitwise(ref, got);
    fs::remove(path);
}

TEST(CheckpointRestartNegativeMultiDomain, TruncatedFileLeavesRanksIntact) {
    // Cut inside the second rank's section: rank 0's section is whole,
    // so only a transactional load leaves rank 0 untouched.
    expect_damaged_multidomain_load_rejected("truncated", [](std::string b) {
        return b.substr(0, b.size() * 3 / 4);
    });
}

TEST(CheckpointRestartNegativeMultiDomain, BitFlippedFileLeavesRanksIntact) {
    // One flipped bit in the second rank's payload: every length still
    // parses, only a checksum can catch it.
    expect_damaged_multidomain_load_rejected("bitflip", [](std::string b) {
        b[b.size() * 3 / 4] = static_cast<char>(b[b.size() * 3 / 4] ^ 0x01);
        return b;
    });
}

}  // namespace
}  // namespace asuca
