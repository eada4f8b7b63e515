// Self-test of the benchmark's own arithmetic and bookkeeping:
//   e2e_selftest [path/to/BENCHMARK.json]
// pins the exact-percentile rule, median and quartiles (against values
// from Python's statistics module), the closure math, the results digest,
// the JSON writer/parser round trip and the contract line, and — given the
// path — that BENCHMARK.json and the metric catalogue list the same
// metrics with the same units and directions. Exit 1 on any failure.

#include <cmath>
#include <cstdio>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "catalog.hpp"
#include "json.hpp"
#include "report.hpp"
#include "stats.hpp"

namespace {

int g_checks = 0;
int g_failures = 0;

void check(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

void test_percentiles() {
  std::vector<double> v;
  for (int i = 200; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  check(e2e::exact_percentile(v, 0.95) == 190.0, "p95 of 1..200 is 190");
  check(e2e::exact_percentile(v, 0.50) == 100.0, "p50 of 1..200 is 100");
  check(e2e::exact_percentile(v, 1.0) == 200.0, "p100 is the max");
  check(e2e::samples_beyond(200, 0.95) == 10, "10 samples beyond p95 of 200");
  check(e2e::samples_beyond(199, 0.95) == 9, "9 samples beyond p95 of 199");
  check(e2e::exact_percentile({5, 1, 3}, 0.5) == 3.0, "p50 of {1,3,5}");
  check(e2e::exact_percentile({7}, 0.95) == 7.0, "percentile of one sample");
  bool threw = false;
  try {
    e2e::exact_percentile({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "percentile of empty sample throws");
}

void test_blocked_percentile() {
  check(e2e::percentile_blocks(650, 200) == 3, "650 samples make 3 blocks");
  check(e2e::percentile_blocks(150, 200) == 1, "a short sample is one block");
  std::vector<double> v;
  for (int i = 1; i <= 150; ++i) v.push_back(i);
  check(e2e::blocked_percentile(v, 0.95, 200) ==
            e2e::exact_percentile(v, 0.95),
        "one block is the plain percentile");
  // Three blocks of 200: 1..200, a burst block 1001..1200, 1..200 again.
  v.clear();
  for (int b = 0; b < 3; ++b) {
    for (int i = 1; i <= 200; ++i) v.push_back(b == 1 ? 1000 + i : i);
  }
  v.push_back(5000);  // a 601st sample joins the last block: its p95 is 191
  check(e2e::blocked_percentile(v, 0.95, 200) == 191.0,
        "a burst block does not set the median over blocks");
  check(e2e::exact_percentile(v, 0.95) > 1000.0,
        "the same burst sets the plain p95");
}

void test_median_quartiles() {
  check(e2e::median({4, 1, 3, 2}) == 2.5, "median of even sample");
  check(e2e::median({9, 1, 5}) == 5.0, "median of odd sample");
  // statistics.quantiles(..., n=4) reference values.
  e2e::Quartiles q = e2e::quartiles({1, 2, 3, 4});
  check(near(q.q1, 1.25) && near(q.q2, 2.5) && near(q.q3, 3.75),
        "quartiles of 1..4");
  q = e2e::quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  check(near(q.q1, 2.75) && near(q.q2, 5.5) && near(q.q3, 8.25),
        "quartiles of 1..10");
  q = e2e::quartiles({3.5, 1.25, 9.0, 2.0, 7.75});
  check(near(q.q1, 1.625) && near(q.q2, 3.5) && near(q.q3, 8.375),
        "quartiles of an unsorted sample");
  check(near(e2e::interquartile_mean({100, 1, 2, 3, 4, 5, 6, -50}), 3.5),
        "interquartile mean drops a quarter at each end");
  check(near(e2e::interquartile_mean({4, 2, 9}), 5.0),
        "interquartile mean of fewer than four keeps every value");
  check(near(e2e::iqr_share({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
             (8.25 - 2.75) / 5.5),
        "iqr share");
}

void test_closure() {
  check(near(e2e::closure(9.5, 10.0), 0.95), "closure ratio");
  check(e2e::closure(1.0, 0.0) == 0.0, "closure of an empty whole");
  check(e2e::closure_ok(0.95, 0.10), "0.95 within 10%");
  check(e2e::closure_ok(1.099, 0.10), "1.099 within 10%");
  check(!e2e::closure_ok(0.85, 0.10), "0.85 outside 10%");
  check(!e2e::closure_ok(std::nan(""), 0.10), "NaN never closes");
}

void test_digest() {
  e2e::Digest a, b, c;
  for (int x : {3, 1, 4}) a.add(x), b.add(x);
  for (int x : {1, 3, 4}) c.add(x);
  check(a.value() == b.value(), "digest is a function of its input");
  check(a.value() != c.value(), "digest depends on order");
  e2e::Digest empty;
  check(empty.value() == 14695981039346656037ULL, "FNV-1a offset basis");
}

void test_json() {
  using e2e::Json;
  Json j = Json::object();
  j.set("name", "quote \" backslash \\ tab \t newline \n");
  j.set("small", 1e-300);
  j.set("third", 1.0 / 3.0);
  j.set("big", 12345678901234.0);
  j.set("neg", -0.5);
  j.set("yes", true);
  j.set("none", Json());
  Json arr{Json::Array{}};
  arr.push(1);
  arr.push("two");
  Json inner = Json::object();
  inner.set("k", 3);
  arr.push(inner);
  j.set("list", arr);
  j.set("empty_list", Json{Json::Array{}});
  j.set("empty_obj", Json::object());
  check(Json::parse(j.dump()) == j, "compact JSON round trip");
  check(Json::parse(j.dump(2)) == j, "pretty JSON round trip");
  check(Json::parse(j.dump()).at("third").number() == 1.0 / 3.0,
        "doubles read back bit-exactly");
  const Json p = Json::parse(R"( {"a": [1, 2.5e3, -4], "b": {"c": "x\/y"}} )");
  check(p.at("a").array().size() == 3 && p.at("a").array()[1].number() == 2500,
        "parse numbers");
  check(p.at("b").at("c").str() == "x/y", "parse escaped slash");
  bool threw = false;
  try {
    Json::parse("{\"a\": 1,}");
  } catch (const std::runtime_error&) {
    threw = true;
  }
  check(threw, "malformed JSON is rejected");
}

void test_contract_line() {
  e2e::Report r;
  e2e::add_metric(r, "moves_per_s", 12.5);
  e2e::add_metric(r, "setup_s", 0.25);
  e2e::add_metric(r, "backend.calls", 7);
  r.add("move_samples", 300, "count", e2e::Tier::kInfo);
  const e2e::Json line =
      e2e::Json::parse(r.contract_line(true, 10, 0, e2e::Tier::kEndToEnd));
  std::set<std::string> keys;
  for (const auto& [k, v] : line.items()) keys.insert(k);
  check(keys == std::set<std::string>{"correct", "attempted", "failed",
                                      "metrics"},
        "contract line has exactly its four keys");
  const e2e::Json& m = line.at("metrics");
  check(m.items().size() == 2, "contract line carries one tier only");
  check(m.at("moves_per_s").at("value").number() == 12.5 &&
            m.at("moves_per_s").at("unit").str() == "moves/s",
        "metric value and catalogue unit");
  check(r.lines().find("move_samples 300 count\n") != std::string::npos,
        "name value unit lines");
}

void test_catalogue(const char* benchmark_json) {
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  for (const e2e::MetricDef& m : e2e::catalog()) {
    check(std::regex_match(m.name, name_re), "metric name shape: " + m.name);
    check(std::regex_match(m.unit, unit_re), "unit shape: " + m.unit);
    if (m.tier != e2e::Tier::kLayer) continue;
    bool mapped = false;
    for (const e2e::LayerLink& l : e2e::layer_map()) {
      mapped |= m.name.rfind(l.prefix, 0) == 0;
    }
    check(mapped, "layer map covers " + m.name);
  }
  if (benchmark_json == nullptr) return;
  std::string text;
  if (!e2e::read_file(benchmark_json, text)) {
    check(false, std::string("cannot read ") + benchmark_json);
    return;
  }
  const e2e::Json bench = e2e::Json::parse(text);
  for (const auto& [key, tier] :
       {std::pair{"end_to_end", e2e::Tier::kEndToEnd},
        std::pair{"per_layer", e2e::Tier::kLayer}}) {
    std::set<std::string> listed;
    for (const e2e::Json& m : bench.at(key).array()) {
      const std::string name = m.at("name").str();
      listed.insert(name);
      bool known = false;
      for (const e2e::MetricDef& d : e2e::catalog()) {
        if (d.name != name) continue;
        known = true;
        check(d.tier == tier, name + " listed under " + key);
        check(d.unit == m.at("unit").str(), name + " unit matches");
        check(m.at("better").str() ==
                  (d.higher_is_better ? "higher" : "lower"),
              name + " direction matches");
      }
      check(known, name + " is in the catalogue");
    }
    for (const e2e::MetricDef& d : e2e::catalog()) {
      if (d.tier == tier) {
        check(listed.count(d.name) == 1, d.name + " is listed in " + key);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    test_percentiles();
    test_blocked_percentile();
    test_median_quartiles();
    test_closure();
    test_digest();
    test_json();
    test_contract_line();
    test_catalogue(argc > 1 ? argv[1] : nullptr);
  } catch (const std::exception& e) {
    std::printf("FAIL exception: %s\n", e.what());
    ++g_failures;
  }
  std::printf("selftest: %d checks, %d failed\n", g_checks, g_failures);
  return g_failures == 0 ? 0 : 1;
}
