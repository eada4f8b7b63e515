#pragma once
// Shared calibration for the figure benches.
//
// Two cost vectors drive the DES. The figures run in virtual time because
// the paper's platforms (64 CPU workers, an A6000 behind PCIe) are
// modelled, not present: wall time on a small host would measure the
// host, not the schemes.
//
//  * `measured`  — in-tree operation costs profiled live on this machine
//    (§4.2 profiler, Gomoku-shaped synthetic tree) plus the real
//    PolicyValueNet's single-thread inference latency. Honest for this
//    host, but this repository's scalar GEMM on one core is 1-2 orders of
//    magnitude slower than the paper's vectorized inference, which shifts
//    every DNN/in-tree ratio.
//
//  * `paper`     — a documented calibration of the paper's testbed regime
//    (64-core Threadripper 3990X + RTX A6000): vectorized 5-conv/3-FC CPU
//    inference ≈ 150 µs/state, cache-resident in-tree select+backup ≈ 5 µs
//    per iteration, per-iteration shared-memory (DDR + lock coherence)
//    penalty ≈ 1 µs over a mean path of 4 levels, and the public
//    PCIe 4.0 / A6000 numbers in GpuTimingModel. Under this calibration
//    the published shapes (local→shared crossover on CPU, shared@16 →
//    local@32/64 with tuned B on GPU, the V-curve in B) are reproduced.
//
// Every bench prints both so readers can see exactly what drives which.
//
// JsonWriter below is the one writer of the BENCH_*.json row files.

#include <cstdio>
#include <string>

#include "eval/net_evaluator.hpp"
#include "nn/policy_value_net.hpp"
#include "perfmodel/profiler.hpp"
#include "sim/schemes.hpp"

namespace apm::bench {

inline HardwareSpec paper_hardware() {
  HardwareSpec hw;  // defaults already model the paper's testbed
  return hw;
}

inline ProfiledCosts paper_costs() {
  ProfiledCosts c;
  c.t_select_us = 4.0;
  c.t_expand_us = 1.5;
  c.t_backup_us = 1.0;
  c.t_dnn_cpu_us = 150.0;
  c.mean_depth = 4.0;
  c.t_shared_access_us = 2.0;
  c.tree_bytes = 9ull << 20;  // well inside the 256 MB LLC
  return c;
}

// Live profile of this host; `with_dnn` additionally measures the real
// 15×15 network (slow on a scalar single-core build — a few seconds).
inline ProfiledCosts measured_costs(bool with_dnn) {
  AlgoSpec algo;  // Gomoku 15×15 / 1600-playout shape
  ProfiledCosts c = profile_intree_costs(algo, paper_hardware(), 512);
  if (with_dnn) {
    PolicyValueNet net{NetConfig{}, 12345};
    NetEvaluator eval(net);
    c.t_dnn_cpu_us = profile_dnn_us(eval, algo, 4);
  }
  return c;
}

inline void print_costs(const char* tag, const ProfiledCosts& c) {
  std::printf(
      "[%s] select=%.2fus expand=%.2fus backup=%.2fus dnn_cpu=%.1fus "
      "shared_access=%.2fus depth=%.1f\n",
      tag, c.t_select_us, c.t_expand_us, c.t_backup_us, c.t_dnn_cpu_us,
      c.t_shared_access_us, c.mean_depth);
}

inline void print_banner(const char* what) {
  std::printf(
      "\n=== %s ===\n"
      "timing source: virtual-time DES calibrated per bench_common.hpp\n"
      "(the paper's 64-core + A6000 platform is modelled, not measured;\n"
      " see the bench_common.hpp header for both cost vectors)\n",
      what);
}

inline const int kWorkerCounts[] = {1, 2, 4, 8, 16, 32, 64};

// Owns one BENCH_*.json file: a JSON array of {"name", "value", "unit"}
// rows, written as they are added and closed when the writer goes out of
// scope.
class JsonWriter {
 public:
  explicit JsonWriter(const char* path) : f_(std::fopen(path, "w")) {
    if (f_ != nullptr) std::fprintf(f_, "[");
  }
  ~JsonWriter() {
    if (f_ == nullptr) return;
    std::fprintf(f_, "\n]\n");
    std::fclose(f_);
  }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  // False when the file could not be opened (the caller reports and exits).
  bool ok() const { return f_ != nullptr; }

  void entry(const std::string& name, double value, const char* unit) {
    std::fprintf(f_,
                 "%s\n  {\"name\": \"%s\", \"value\": %.4f, \"unit\": "
                 "\"%s\"}",
                 first_ ? "" : ",", name.c_str(), value, unit);
    first_ = false;
  }

 private:
  std::FILE* f_;
  bool first_ = true;
};

}  // namespace apm::bench
