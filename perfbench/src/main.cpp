// perfbench: the repository benchmark.
//
//   perfbench --workload step_single|step_2x2|serve_mix --seed N
//             --seconds S --trace 0|1 [--git-sha SHA]
//
// Prints the run envelope, the correctness checks and (traced) a
// per-kernel table, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1); a traced run also writes a Chrome trace under .bench_out/
// in the working directory. Exits 1 when a check failed, 2 on bad usage or when an
// ASUCA_* variable is set.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "envelope.hpp"
#include "src/io/json.hpp"

namespace {

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "step_single|step_2x2|serve_mix --seed N --seconds S "
                 "--trace 0|1 [--git-sha SHA]\n",
                 why);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::Options opt;
    std::string git_sha;
    if (argc % 2 == 0) return usage("options take one value each");
    for (int a = 1; a + 1 < argc; a += 2) {
        const std::string key = argv[a], val = argv[a + 1];
        if (key == "--workload") {
            opt.workload = val;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(val.c_str(), nullptr, 10);
        } else if (key == "--seconds") {
            opt.seconds = std::atof(val.c_str());
        } else if (key == "--trace") {
            opt.trace = val == "1";
        } else if (key == "--git-sha") {
            git_sha = val;
        } else {
            return usage(("unknown option " + key).c_str());
        }
    }
    if (!(opt.seconds > 0)) return usage("--seconds must be positive");
    const auto env = perfbench::asuca_environment();
    if (!env.empty()) {
        for (const auto& v : env) std::fprintf(stderr, "  %s\n", v.c_str());
        return usage("refusing to run: ASUCA_* variables change the "
                     "program being measured");
    }

    std::printf("envelope %s\n",
                perfbench::run_envelope(git_sha).dump_compact().c_str());
    std::printf("workload %s seed %llu seconds %g trace %d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    perfbench::Outcome out;
    perfbench::MetricSet metrics(opt.trace ? perfbench::per_layer_metrics()
                                           : perfbench::end_to_end_metrics());
    asuca::io::JsonValue result;
    try {
        if (opt.workload == "step_single") {
            perfbench::run_step_single(opt, out, metrics);
        } else if (opt.workload == "step_2x2") {
            perfbench::run_step_2x2(opt, out, metrics);
        } else if (opt.workload == "serve_mix") {
            perfbench::run_serve_mix(opt, out, metrics);
        } else {
            return usage(("unknown workload '" + opt.workload + "'").c_str());
        }
        result.set("correct", out.correct);
        result.set("attempted", out.attempted);
        result.set("failed", out.failed);
        result.set("metrics", metrics.to_json());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
        return 1;
    }
    std::fflush(stdout);
    std::printf("%s\n", result.dump_compact().c_str());
    return out.correct ? 0 : 1;
}
