// Minimal field output: CSV slices for analysis and PGM images for a
// quick visual check (the Fig. 12 style wind/pressure/precipitation maps).
// Each file's bytes are built in memory and committed with
// write_file_atomic, as json_save does: a failed write throws and leaves
// any previous file at the path intact.
#pragma once

#include <algorithm>
#include <sstream>
#include <string>

#include "src/core/state.hpp"
#include "src/field/array2.hpp"
#include "src/field/array3.hpp"
#include "src/io/durable_blob.hpp"

namespace asuca::io {

/// Extract a horizontal slice of a 3-D array into a 2-D field.
template <class T>
Array2<double> slice_at(const Array3<T>& a, Index level) {
    Array2<double> out(a.nx(), a.ny(), 0);
    for (Index j = 0; j < a.ny(); ++j)
        for (Index i = 0; i < a.nx(); ++i)
            out(i, j) = static_cast<double>(a(i, j, level));
    return out;
}

/// Write a 2-D field as CSV (one row per j, columns are i).
template <class T>
void write_csv(const std::string& path, const Array2<T>& a) {
    std::ostringstream out;
    for (Index j = 0; j < a.ny(); ++j) {
        for (Index i = 0; i < a.nx(); ++i) {
            out << static_cast<double>(a(i, j))
                << (i + 1 < a.nx() ? ',' : '\n');
        }
    }
    write_file_atomic(path, out.str());
}

/// Write a horizontal (k = level) slice of a 3-D array as CSV.
template <class T>
void write_slice_csv(const std::string& path, const Array3<T>& a,
                     Index level) {
    write_csv(path, slice_at(a, level));
}

/// Write a 2-D field as an 8-bit PGM image, linearly scaled between the
/// field minimum and maximum (quick-look visualization).
template <class T>
void write_pgm(const std::string& path, const Array2<T>& a) {
    double lo = 1e300, hi = -1e300;
    for (Index j = 0; j < a.ny(); ++j) {
        for (Index i = 0; i < a.nx(); ++i) {
            const double v = static_cast<double>(a(i, j));
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
    }
    const double span = hi > lo ? hi - lo : 1.0;
    std::string bytes = "P5\n" + std::to_string(a.nx()) + " " +
                        std::to_string(a.ny()) + "\n255\n";
    for (Index j = a.ny() - 1; j >= 0; --j) {  // north at the top
        for (Index i = 0; i < a.nx(); ++i) {
            const double v = (static_cast<double>(a(i, j)) - lo) / span;
            bytes += static_cast<char>(
                static_cast<unsigned char>(255.0 * v + 0.5));
        }
    }
    write_file_atomic(path, bytes);
}

}  // namespace asuca::io
