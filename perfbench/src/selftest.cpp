// The benchmark's own tests: order statistics on known inputs, the seeded
// request mix, and the metric names against BENCHMARK.json.
//
//   perfbench_selftest path/to/BENCHMARK.json
#include <cmath>
#include <cstdio>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "metric_names.hpp"
#include "mix.hpp"
#include "stats.hpp"
#include "src/io/json.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
    std::printf("  %-64s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) ++failures;
}

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

void test_stats() {
    using perfbench::quantile;
    const std::vector<double> v = {4, 1, 3, 2};
    expect(near(perfbench::median(v), 2.5), "median of an even count");
    expect(near(perfbench::median({5, 1, 3}), 3.0), "median of an odd count");
    expect(near(quantile(v, 0.0), 1.0) && near(quantile(v, 1.0), 4.0),
           "quantile 0 and 1 are min and max");
    expect(near(quantile(v, 0.9), 3.7), "p90 interpolates (type 7)");
    expect(near(quantile({7}, 0.9), 7.0), "quantile of one sample");
    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i) hundred.push_back(i);
    const double p90 = quantile(hundred, 0.9);
    expect(near(p90, 90.1) && perfbench::count_above(hundred, p90) == 10,
           "10 of 100 samples lie beyond p90");
    std::vector<double> steady;
    for (int i = 1; i <= 60; ++i) steady.push_back(0.1 * i);
    expect(near(perfbench::chunked_rate(steady), 10.0),
           "chunked rate of a steady 10/s stream");
    std::vector<double> spell = steady;  // 1 s stall before the 11th op
    for (std::size_t i = 10; i < spell.size(); ++i) spell[i] += 1.0;
    expect(near(perfbench::chunked_rate(spell), 10.0),
           "a stall inside one chunk leaves the rate unchanged");
    bool threw = false;
    try {
        quantile({}, 0.5);
    } catch (const std::invalid_argument&) {
        threw = true;
    }
    expect(threw, "quantile of no samples throws");
}

std::vector<std::string> keys(const std::vector<perfbench::MixRequest>& mix) {
    std::vector<std::string> out;
    for (const auto& r : mix) {
        out.push_back(std::string(perfbench::kind_name(r.kind)) + " " +
                      asuca::server::canonical_key(
                          asuca::server::canonicalize(r.spec)));
    }
    return out;
}

void test_mix() {
    const std::size_t n = 2 * perfbench::kColdProducts;
    const auto a = keys(perfbench::make_mix(7, n));
    expect(a == keys(perfbench::make_mix(7, n)), "same seed, same request list");
    expect(a != keys(perfbench::make_mix(8, n)),
           "different seed, different request list");
    const auto mix = perfbench::make_mix(7, n);
    bool blocks = mix.size() == n;
    for (std::size_t b = 0; blocks && b < n; b += 4) {
        int count[3] = {0, 0, 0};
        for (std::size_t i = b; i < b + 4; ++i) {
            ++count[static_cast<int>(mix[i].kind)];
        }
        blocks = count[0] == 2 && count[1] == 1 && count[2] == 1;
    }
    expect(blocks, "every block holds 2 cold, 1 warm, 1 repeat");
    std::set<std::string> cold, repeats;
    std::size_t n_cold = 0;
    for (std::size_t i = 0; i < mix.size(); ++i) {
        if (mix[i].kind == perfbench::RequestKind::cold) {
            cold.insert(a[i]);
            ++n_cold;
        } else if (mix[i].kind == perfbench::RequestKind::repeat) {
            repeats.insert(a[i]);
        }
    }
    expect(cold.size() == n_cold, "no cold product is asked twice");
    expect(repeats.size() <= perfbench::repeat_pool().size(),
           "repeats come from the fixed pool");
}

void test_metric_names(const std::string& bench_json) {
    const auto doc = asuca::io::json_load(bench_json);
    const std::regex name_re("[A-Za-z0-9_.-]+");
    auto check_list = [&](const char* key,
                          const std::vector<perfbench::MetricDef>& defs) {
        std::set<std::string> declared;
        for (const auto& d : doc.at(key).as_array()) {
            declared.insert(d.at("name").as_string() + " " +
                            d.at("unit").as_string());
        }
        std::set<std::string> emitted;
        bool names_ok = true;
        for (const auto& d : defs) {
            names_ok = names_ok && std::regex_match(d.name, name_re) &&
                       d.name.size() <= 64;
            emitted.insert(d.name + " " + d.unit);
        }
        expect(names_ok, std::string(key) + ": names match [A-Za-z0-9_.-]+");
        expect(emitted.size() == defs.size(),
               std::string(key) + ": every name used once");
        expect(emitted == declared,
               std::string(key) + ": emitted names and units == BENCHMARK.json");
    };
    check_list("end_to_end", perfbench::end_to_end_metrics());
    check_list("per_layer", perfbench::per_layer_metrics());
}

}  // namespace

int main(int argc, char** argv) {
    if (argc != 2) {
        std::fprintf(stderr, "usage: perfbench_selftest BENCHMARK.json\n");
        return 2;
    }
    std::printf("order statistics\n");
    test_stats();
    std::printf("request mix\n");
    test_mix();
    std::printf("metric names\n");
    try {
        test_metric_names(argv[1]);
    } catch (const std::exception& e) {
        expect(false, std::string("read ") + argv[1] + ": " + e.what());
    }
    std::printf("%s (%d failed)\n", failures == 0 ? "PASS" : "FAIL", failures);
    return failures == 0 ? 0 : 1;
}
