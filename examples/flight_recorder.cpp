// Flight-recorder demo + CI smoke (ISSUE 10): runs a small K=4 service
// wave twice under the full telemetry pipeline — TelemetrySampler +
// per-lane SLOs + StallWatchdog over the real worker/stream/compactor
// heartbeats — and proves both directions of the watchdog contract:
//
//   phase 1  clean wave         -> ZERO dumps (no false positives: workers
//                                  that are merely slow or idle never fire)
//   phase 2  wave with one      -> the watchdog detects the active-but-
//            artificially        silent heartbeats mid-stall and writes
//            stalled backend     exactly one post-mortem bundle:
//                                  trace.json, telemetry.jsonl,
//                                  metrics.prom, retune.jsonl,
//                                  manifest.json
//
// The stall is injected INSIDE InferenceBackend::compute_batch — exactly
// where a wedged accelerator or a blocked device call would sit: the thread
// running the batch (the service worker whose request completed it) and
// every service worker awaiting that batch go silent while active, which
// is the signature the watchdog keys on.
//
// Usage: flight_recorder [dump_dir] [games_per_workload] [playouts]
//
// Exit is nonzero unless phase 1 produced no dump AND phase 2 produced a
// complete bundle with every artifact present — the CI smoke contract
// (CI additionally json-validates each artifact).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "eval/gpu_model.hpp"
#include "eval/net_evaluator.hpp"
#include "games/connect4.hpp"
#include "games/gomoku.hpp"
#include "obs/registry.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "serve/aggregate_controller.hpp"
#include "serve/match_service.hpp"

namespace {

// Wraps a real backend; when armed, the next compute_batch call blocks for
// `stall_ms` before delegating — a wedged accelerator with the request
// still in flight. Results are unchanged, so games still finish.
class StallingBackend final : public apm::InferenceBackend {
 public:
  StallingBackend(apm::InferenceBackend& inner, double stall_ms)
      : inner_(inner), stall_ms_(stall_ms) {}

  void arm() { armed_.store(true, std::memory_order_release); }
  int stalls() const { return stalls_.load(std::memory_order_relaxed); }

  int action_count() const override { return inner_.action_count(); }
  std::size_t input_size() const override { return inner_.input_size(); }
  double model_batch_us(int batch) const override {
    return inner_.model_batch_us(batch);
  }
  double compute_batch(const float* inputs, int batch,
                       apm::EvalOutput* outputs) override {
    if (armed_.exchange(false, std::memory_order_acq_rel)) {
      stalls_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<int>(stall_ms_)));
    }
    return inner_.compute_batch(inputs, batch, outputs);
  }

 private:
  apm::InferenceBackend& inner_;
  double stall_ms_;
  std::atomic<bool> armed_{false};
  std::atomic<int> stalls_{0};
};

}  // namespace

int main(int argc, char** argv) {
  const std::string dump_dir = argc > 1 ? argv[1] : "postmortem";
  const int games = argc > 2 ? std::atoi(argv[2]) : 2;
  const int playouts = argc > 3 ? std::atoi(argv[3]) : 24;

  std::filesystem::remove_all(dump_dir);

  // Tracing on from the start so worker tracks are named and the bundle's
  // trace.json covers the stall window.
  apm::obs::set_trace_capacity(std::size_t{1} << 15);
  apm::obs::set_tracing(true);
  apm::obs::set_thread_name("main");

  const apm::Gomoku gomoku(5, 4);
  const apm::Connect4 connect4;

  apm::PolicyValueNet net_g(apm::NetConfig::tiny(5), 101);
  apm::NetConfig c4_cfg = apm::NetConfig::tiny(6);
  c4_cfg.width = 7;
  c4_cfg.action_override = apm::Connect4::kCols;
  apm::PolicyValueNet net_c(c4_cfg, 102);

  apm::GpuTimingModel timing;
  timing.kernel_launch_us = 40.0;
  timing.compute_base_us = 200.0;
  timing.compute_per_sample_us = 10.0;
  apm::NetEvaluator eval_g(net_g), eval_c(net_c);
  apm::SimGpuBackend sim_g(eval_g, timing);
  apm::SimGpuBackend sim_c(eval_c, timing);
  // The gomoku lane gets the stall injector; 800 ms is far beyond the
  // watchdog timeout but bounded, so the wave still drains.
  StallingBackend backend_g(sim_g, /*stall_ms=*/800.0);

  apm::EvaluatorPool pool;
  const auto add = [&pool](const char* name, apm::InferenceBackend& backend) {
    // Per-lane SLO on request latency: generous enough that a clean wave
    // on a loaded CI box stays HEALTHY (the false-positive half of the
    // contract covers SLOs too).
    apm::obs::SloSpec slo;
    slo.enabled = true;
    slo.p99_target_us = 250'000.0;  // 250 ms
    return pool.add_model({.name = name,
                           .backend = &backend,
                           .batch_threshold = 1,
                           .stale_flush_us = 1000.0,
                           .cache_cfg = {.capacity = 1 << 13, .shards = 4,
                                         .ways = 4},
                           .tt = {},
                           .slo = slo});
  };
  add("net-gomoku", backend_g);
  add("net-connect4", sim_c);

  apm::ServiceConfig sc;
  sc.workers = 2;
  sc.aggregate.retune_every_moves = 4;

  const auto workload = [&](const apm::Game& g, const char* model,
                            bool background_compaction) {
    apm::ServiceWorkload w;
    w.proto = std::shared_ptr<const apm::Game>(g.clone());
    w.model = model;
    w.slots = 2;
    w.engine.mcts.num_playouts = playouts;
    w.engine.mcts.root_noise = true;
    w.engine.scheme = apm::Scheme::kSerial;
    w.engine.adapt = false;
    w.engine.background_compaction = background_compaction;
    return w;
  };

  apm::MatchService service(
      sc, pool,
      {workload(gomoku, "net-gomoku", /*background_compaction=*/true),
       workload(connect4, "net-connect4", /*background_compaction=*/false)});

  // Telemetry pipeline: the sampler publishes the service every 10 ms and
  // snapshots the registry into its frame ring; the watchdog scans the
  // worker/stream/compactor heartbeats and the sampler's health feed.
  apm::obs::TelemetrySamplerConfig scfg;
  scfg.sample_period_ms = 10;
  scfg.ring_capacity = 1024;
  apm::obs::TelemetrySampler sampler(scfg);
  sampler.add_source([&service] { service.publish_metrics(); });

  apm::obs::WatchdogConfig wcfg;
  wcfg.check_period_ms = 10;
  wcfg.stall_timeout_ms = 150.0;  // >> any legitimate move/batch gap here
  wcfg.max_dumps = 1;
  wcfg.dump_dir = dump_dir;
  apm::obs::StallWatchdog watchdog(wcfg);
  watchdog.set_telemetry(&sampler);
  watchdog.add_artifact("retune.jsonl", [&service] {
    return apm::retune_log_jsonl(service.retune_log(),
                                 service.retune_log_dropped());
  });

  sampler.start();
  watchdog.start();
  service.start();

  // --- phase 1: clean wave — the watchdog must stay silent ---------------
  std::printf("phase 1: clean K=4 wave (%d games/workload)...\n", games);
  service.enqueue(2 * games);
  service.drain();
  const int phase1_dumps = watchdog.dumps();
  std::printf("phase 1: %llu watchdog checks, %d dumps\n",
              static_cast<unsigned long long>(watchdog.checks()),
              phase1_dumps);

  // --- phase 2: stalled backend — the watchdog must fire once ------------
  std::printf("phase 2: arming a %d ms backend stall...\n", 800);
  backend_g.arm();
  service.enqueue(2 * games);
  service.drain();
  // The dump is written mid-stall by the watchdog thread; the drained wave
  // guarantees the stall window is over.
  const int total_dumps = watchdog.dumps();

  service.stop();
  watchdog.stop();
  sampler.stop();
  apm::obs::set_tracing(false);

  const apm::ServiceStats stats = service.stats();
  std::printf("phase 2: %d stalls injected, %d dumps, %d games total\n",
              backend_g.stalls(), total_dumps - phase1_dumps,
              stats.games_completed);

  // --- exit gates ---------------------------------------------------------
  bool ok = true;
  if (phase1_dumps != 0) {
    std::fprintf(stderr, "FAIL: clean wave produced %d dumps\n", phase1_dumps);
    ok = false;
  }
  if (backend_g.stalls() != 1) {
    std::fprintf(stderr, "FAIL: stall injector fired %d times\n",
                 backend_g.stalls());
    ok = false;
  }
  if (total_dumps - phase1_dumps != 1) {
    std::fprintf(stderr, "FAIL: stalled wave produced %d dumps\n",
                 total_dumps - phase1_dumps);
    ok = false;
  }
  if (stats.games_completed != 4 * games) {
    std::fprintf(stderr, "FAIL: %d/%d games completed\n",
                 stats.games_completed, 4 * games);
    ok = false;
  }
  const auto log = watchdog.dump_log();
  if (log.empty()) {
    std::fprintf(stderr, "FAIL: empty dump log\n");
    return 1;
  }
  const apm::obs::DumpReport& report = log.back();
  std::printf("bundle: %s (reason: %s)\n", report.dir.c_str(),
              report.reason.c_str());
  if (!report.ok) {
    std::fprintf(stderr, "FAIL: bundle reported incomplete\n");
    ok = false;
  }
  const char* required[] = {"trace.json", "telemetry.jsonl", "metrics.prom",
                            "retune.jsonl", "manifest.json"};
  for (const char* rel : required) {
    const std::string path = report.dir + "/" + rel;
    if (!std::filesystem::exists(path)) {
      std::fprintf(stderr, "FAIL: missing artifact %s\n", path.c_str());
      ok = false;
    } else {
      std::printf("  %-16s %ju bytes\n", rel,
                  static_cast<std::uintmax_t>(
                      std::filesystem::file_size(path)));
    }
  }
  if (report.reason.find("stall:") == std::string::npos) {
    std::fprintf(stderr, "FAIL: dump reason lacks a stall: %s\n",
                 report.reason.c_str());
    ok = false;
  }
  std::printf("%s\n", ok ? "flight-recorder contract holds" : "FAILED");
  return ok ? 0 : 1;
}
