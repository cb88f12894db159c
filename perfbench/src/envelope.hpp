// The run envelope: what produced a result (host, compiler, build, code
// version, resolved tunables), printed next to every result.
#pragma once

#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/field/simd.hpp"
#include "src/io/json.hpp"

extern char** environ;

namespace perfbench {

/// Every ASUCA_* variable in the environment, as NAME=VALUE. Each of them
/// (ASUCA_NUM_THREADS, ASUCA_COLUMN_BATCH, ASUCA_FORCE_GUARDED) silently
/// changes the program being measured, so a run refuses to start when
/// this list is not empty.
inline std::vector<std::string> asuca_environment() {
    std::vector<std::string> vars;
    for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
        if (std::strncmp(*e, "ASUCA_", 6) == 0) vars.emplace_back(*e);
    }
    return vars;
}

/// Size of the last-level cache in bytes, 0 when the C library cannot
/// tell.
inline long last_level_cache_bytes() {
#ifdef _SC_LEVEL3_CACHE_SIZE
    const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (l3 > 0) return l3;
#endif
#ifdef _SC_LEVEL2_CACHE_SIZE
    const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
    if (l2 > 0) return l2;
#endif
    return 0;
}

inline asuca::io::JsonValue run_envelope(const std::string& git_sha) {
    asuca::io::JsonValue env;
    env.set("nproc",
            static_cast<long long>(std::thread::hardware_concurrency()));
    env.set("compiler", PERFBENCH_COMPILER);
    env.set("build_type", PERFBENCH_BUILD_TYPE);
    env.set("cxx_flags", PERFBENCH_CXX_FLAGS);
    env.set("git_sha", git_sha.empty() ? "unknown" : git_sha);
    env.set("column_batch_width",
            static_cast<long long>(asuca::resolve_column_batch<double>(0)));
    env.set("llc_bytes", static_cast<long long>(last_level_cache_bytes()));
    asuca::io::JsonArray vars;
    for (const auto& v : asuca_environment()) vars.emplace_back(v);
    env.set("asuca_env", std::move(vars));
    return env;
}

}  // namespace perfbench
