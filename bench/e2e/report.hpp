#pragma once
// One writer for every number the end-to-end benchmark reports.
//
// A Report collects metrics (name, value, unit, tier) and emits them three
// ways: `name value unit` lines for a human, one JSON result file carrying
// the provenance stamp and everything the run measured, and the single
// contract line that closes standard output:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// whose metrics are exactly the end-to-end set (untraced run) or the
// per-layer set (traced run). Provenance names the commit, the dirty flag,
// the host (nproc, CPU model, ISA flags), the compiler, the build type and
// the seed, so a result file says where it came from.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif
#ifndef E2E_NATIVE
#define E2E_NATIVE 0
#endif

namespace e2e {

enum class Tier { kEndToEnd, kLayer, kInfo };

struct Provenance {
  std::string commit = "unknown";
  bool dirty = false;
  int nproc = 0;
  std::string cpu_model = "unknown";
  bool avx2 = false;
  bool avx512f = false;
  bool avx512_vnni = false;
  std::string compiler;
  std::string build_type;
  std::uint64_t seed = 0;

  // Host facts from CPUID and the build; commit/dirty are supplied by the
  // caller (the benchmark is often built from a tree that is not a git
  // checkout).
  static Provenance detect(std::string commit, bool dirty,
                           std::uint64_t seed) {
    Provenance p;
    p.commit = commit.empty() ? "unknown" : std::move(commit);
    p.dirty = dirty;
    p.seed = seed;
    p.nproc = static_cast<int>(std::thread::hardware_concurrency());
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
      for (unsigned i = 0; i < 3; ++i) {
        __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
      }
      char brand[sizeof regs + 1] = {};
      std::memcpy(brand, regs, sizeof regs);
      p.cpu_model = brand;
      p.cpu_model.erase(0, p.cpu_model.find_first_not_of(' '));
    }
    p.avx2 = __builtin_cpu_supports("avx2");
    p.avx512f = __builtin_cpu_supports("avx512f");
    p.avx512_vnni = __builtin_cpu_supports("avx512vnni");
#endif
#if defined(__clang__)
    p.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    p.compiler = "gcc " __VERSION__;
#endif
    p.build_type = std::string(E2E_BUILD_TYPE) +
                   (E2E_NATIVE ? " -march=native" : "");
    return p;
  }

  Json to_json() const {
    Json j = Json::object();
    j.set("commit", commit);
    j.set("dirty", dirty);
    j.set("nproc", nproc);
    j.set("cpu_model", cpu_model);
    Json isa = Json::object();
    isa.set("avx2", avx2);
    isa.set("avx512f", avx512f);
    isa.set("avx512_vnni", avx512_vnni);
    j.set("isa", isa);
    j.set("compiler", compiler);
    j.set("build_type", build_type);
    j.set("seed", static_cast<double>(seed));
    return j;
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Tier tier = Tier::kInfo;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit, Tier tier) {
    metrics_.push_back({std::move(name), value, std::move(unit), tier});
  }

  const Metric* find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

  // `name value unit`, one per line, in insertion order.
  std::string lines() const {
    std::string out;
    char buf[64];
    for (const Metric& m : metrics_) {
      std::snprintf(buf, sizeof buf, "%.6g", m.value);
      out += m.name + " " + buf + " " + m.unit + "\n";
    }
    return out;
  }

  // Metrics of one tier as {"name": {"value": v, "unit": u}}.
  Json metrics_json(Tier tier) const {
    Json j = Json::object();
    for (const Metric& m : metrics_) {
      if (m.tier != tier) continue;
      Json v = Json::object();
      v.set("value", m.value);
      v.set("unit", m.unit);
      j.set(m.name, v);
    }
    return j;
  }

  // The closing line of standard output.
  std::string contract_line(bool correct, long attempted, long failed,
                            Tier tier) const {
    Json j = Json::object();
    j.set("correct", correct);
    j.set("attempted", attempted);
    j.set("failed", failed);
    j.set("metrics", metrics_json(tier));
    return j.dump();
  }

  // Every metric of every tier, keyed by tier.
  Json all_json() const {
    Json j = Json::object();
    j.set("end_to_end", metrics_json(Tier::kEndToEnd));
    j.set("per_layer", metrics_json(Tier::kLayer));
    j.set("info", metrics_json(Tier::kInfo));
    return j;
  }

 private:
  std::vector<Metric> metrics_;
};

inline bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  return static_cast<bool>(out);
}

inline bool read_file(const std::string& path, std::string& text) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  text = ss.str();
  return true;
}

}  // namespace e2e
