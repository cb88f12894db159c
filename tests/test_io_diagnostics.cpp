// Tests for the I/O writers (including the crash-safe JSON writer) and
// global diagnostics.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>

#include "src/core/diagnostics.hpp"
#include "src/core/initial.hpp"
#include "src/io/durable_blob.hpp"
#include "src/io/json.hpp"
#include "src/io/writers.hpp"

namespace asuca {
namespace {

namespace fs = std::filesystem;

/// Unique per test: each TEST is its own ctest process, and two of them
/// sharing one directory race on its removal under ctest -j.
struct TempDir {
    fs::path path;
    TempDir()
        : path(fs::temp_directory_path() /
               (std::string("asuca_io_test_") +
                ::testing::UnitTest::GetInstance()->current_test_info()->name())) {
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
    std::string file(const char* name) const { return (path / name).string(); }
};

TEST(IoWriters, CsvRoundTripsValues) {
    TempDir tmp;
    Array2<double> a(3, 2, 0);
    a(0, 0) = 1.5; a(1, 0) = -2.0; a(2, 0) = 0.25;
    a(0, 1) = 4.0; a(1, 1) = 5.0; a(2, 1) = 6.0;
    io::write_csv(tmp.file("a.csv"), a);

    std::ifstream in(tmp.file("a.csv"));
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "1.5,-2,0.25");
    std::getline(in, line);
    EXPECT_EQ(line, "4,5,6");
}

TEST(IoWriters, SliceCsvTakesRequestedLevel) {
    TempDir tmp;
    Array3<double> a({2, 2, 3}, 1, Layout::XZY);
    for (Index j = 0; j < 2; ++j)
        for (Index k = 0; k < 3; ++k)
            for (Index i = 0; i < 2; ++i)
                a(i, j, k) = static_cast<double>(100 * k + 10 * j + i);
    io::write_slice_csv(tmp.file("s.csv"), a, 2);
    std::ifstream in(tmp.file("s.csv"));
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "200,201");
}

TEST(IoWriters, PgmHasValidHeaderAndSize) {
    TempDir tmp;
    Array2<double> a(5, 4, 0);
    for (Index j = 0; j < 4; ++j)
        for (Index i = 0; i < 5; ++i)
            a(i, j) = static_cast<double>(i * j);
    io::write_pgm(tmp.file("a.pgm"), a);
    std::ifstream in(tmp.file("a.pgm"), std::ios::binary);
    std::string magic;
    int w = 0, h = 0, maxv = 0;
    in >> magic >> w >> h >> maxv;
    EXPECT_EQ(magic, "P5");
    EXPECT_EQ(w, 5);
    EXPECT_EQ(h, 4);
    EXPECT_EQ(maxv, 255);
    in.get();  // single whitespace after header
    std::vector<char> pixels(20);
    in.read(pixels.data(), 20);
    EXPECT_EQ(in.gcount(), 20);
}

TEST(IoWriters, ConstantFieldPgmDoesNotDivideByZero) {
    TempDir tmp;
    Array2<double> a(3, 3, 0, 7.0);
    EXPECT_NO_THROW(io::write_pgm(tmp.file("c.pgm"), a));
}

TEST(IoWriters, FailedJsonSaveKeepsThePreviousFile) {
    // Every writer commits by atomic rename — json_save and the CSV and
    // PGM writers alike: when the write cannot complete (here: its temp
    // name is taken by a directory) it throws, and the file already at
    // the path keeps its bytes.
    TempDir tmp;
    io::JsonValue old_doc;
    old_doc.set("version", 1);
    io::JsonValue new_doc;
    new_doc.set("version", 2);
    const Array2<double> old_map(2, 2, 0, 1.0);
    Array2<double> new_map(3, 2, 0, 2.0);
    new_map(0, 0) = -1.0;
    const Array3<double> old_cube({2, 2, 2}, 1, Layout::XZY, 1.0);
    const Array3<double> new_cube({3, 2, 2}, 1, Layout::XZY, 2.0);
    // Each writer, given whether to write the new content.
    using Write = std::function<void(const std::string&, bool)>;
    const std::pair<const char*, Write> writers[] = {
        {"doc.json",
         [&](const std::string& p, bool next) {
             io::json_save(p, next ? new_doc : old_doc);
         }},
        {"map.csv",
         [&](const std::string& p, bool next) {
             io::write_csv(p, next ? new_map : old_map);
         }},
        {"slice.csv",
         [&](const std::string& p, bool next) {
             io::write_slice_csv(p, next ? new_cube : old_cube, 1);
         }},
        {"map.pgm",
         [&](const std::string& p, bool next) {
             io::write_pgm(p, next ? new_map : old_map);
         }},
    };
    for (const auto& [name, write] : writers) {
        const std::string path = tmp.file(name);
        write(path, false);
        const std::string old_bytes = io::read_file(path);
        fs::create_directory(path + ".tmp");
        EXPECT_THROW(write(path, true), Error) << name;
        EXPECT_EQ(io::read_file(path), old_bytes) << name;
    }
    EXPECT_EQ(io::json_parse(io::read_file(tmp.file("doc.json"))).dump(),
              old_doc.dump());
}

TEST(Diagnostics, TotalMassMatchesAnalyticVolumeIntegral) {
    GridSpec spec;
    spec.nx = 6;
    spec.ny = 5;
    spec.nz = 4;
    spec.dx = 100.0;
    spec.dy = 100.0;
    spec.ztop = 400.0;
    Grid<double> grid(spec);
    Array3<double> rho({6, 5, 4}, grid.halo(), grid.layout(), 2.0);
    // Flat terrain: J = 1, mass = rho * V.
    EXPECT_NEAR(total_mass(grid, rho), 2.0 * 600.0 * 500.0 * 400.0, 1e-6);
}

TEST(Diagnostics, CourantNumberScalesWithWind) {
    GridSpec spec;
    spec.nx = 6;
    spec.ny = 5;
    spec.nz = 4;
    spec.dx = 1000.0;
    spec.dy = 1000.0;
    spec.ztop = 4000.0;
    Grid<double> grid(spec);
    State<double> s(grid, SpeciesSet::dry());
    initialize_hydrostatic(grid, AtmosphereProfile::isentropic(300.0), 20.0,
                           0.0, s);
    EXPECT_NEAR(courant_number(grid, s, 10.0), 20.0 * 10.0 / 1000.0, 1e-6);
    EXPECT_NEAR(courant_number(grid, s, 20.0),
                2.0 * courant_number(grid, s, 10.0), 1e-9);
}

TEST(Diagnostics, FiniteCheckCatchesNan) {
    GridSpec spec;
    spec.nx = 4;
    spec.ny = 4;
    spec.nz = 4;
    Grid<double> grid(spec);
    State<double> s(grid, SpeciesSet::dry());
    initialize_hydrostatic(grid, AtmosphereProfile::isentropic(300.0), 0.0,
                           0.0, s);
    EXPECT_TRUE(state_is_finite(s));
    s.rhow(2, 2, 2) = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(state_is_finite(s));
}

}  // namespace
}  // namespace asuca
