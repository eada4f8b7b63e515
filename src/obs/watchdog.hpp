#pragma once
// Stall watchdog + flight recorder (ISSUE 10; design note in DESIGN_obs.md).
//
// The failure modes this catches are the ones parallel-MCTS serving
// actually exhibits: a backend hang freezes the thread running a batch (a
// service worker that completed it, or a lane's stream thread) with every
// other worker blocked on its requests, a lost wakeup parks a
// worker forever, an SLO breach burns quietly until someone pulls stats —
// and in all three cases the evidence (trace ring, telemetry frames,
// retune history) is gone by the time anyone asks. The watchdog watches
// continuously and, on trouble, writes the evidence out as a post-mortem
// bundle while it still exists.
//
// Heartbeat contract (the cheap half): every monitored thread owns one
// Heartbeat slot (HeartbeatLease) and
//  - calls beat() each time it makes progress (one move, one batch, one
//    compaction job). beat() is a relaxed load + relaxed store of the
//    thread's own counter — no RMW, no clock read, no fence; the cost is
//    pinned by bench/micro_obs. Single-writer: only the owning thread
//    beats.
//  - wraps every legitimate block (condition-variable wait, queue pop) in
//    an IdleScope, which marks the heartbeat idle for the duration. The
//    watchdog only times ACTIVE heartbeats, so a worker parked on an empty
//    queue never fires, and a slow-but-beating worker never fires either
//    (its counter advances between checks) — the false-positive guard
//    test_telemetry pins.
//
// Watchdog (the observer half): a background thread (or test-driven
// check_once) scans the HeartbeatRegistry every check_period_ms. An
// active heartbeat whose counter has not moved for stall_timeout_ms is
// STALLED. A stall — or an SLO breach reported by the attached
// TelemetrySampler — triggers a flight-recorder dump: one timestamped
// bundle directory containing
//     manifest.json    reason, trace-clock stamp, stalled names, file list
//     trace.json       Chrome trace-event export of the recent trace ring
//     telemetry.jsonl  the sampler's frame ring, oldest first
//     metrics.prom     Prometheus text exposition of the whole registry
//     <artifact>       every add_artifact() writer (e.g. the service's
//                      retune log as JSONL)
// The trace snapshot is taken while writers may still be live: the
// single-writer rings make that memory-safe, and the exporter skips the
// (at most one per thread) half-written newest slot — an acceptable tear
// for a post-mortem. max_dumps bounds dump storms; after a dump the
// watchdog re-arms only once every stall and breach has cleared.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <condition_variable>

namespace apm::obs {

class MetricsRegistry;
class TelemetrySampler;

// One monitored thread's progress stamp. Single-writer (the owning
// thread); the watchdog only loads.
class Heartbeat {
 public:
  // Progress stamp: relaxed load + relaxed store (NOT a fetch_add — the
  // owner is the only writer, so no RMW is needed). The overhead contract
  // row in bench/micro_obs measures exactly this.
  void beat() {
    count_.store(count_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
  }
  void set_active(bool on) { active_.store(on, std::memory_order_release); }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  bool active() const { return active_.load(std::memory_order_acquire); }
  // Immutable after the slot is created (reuse requires an exact name
  // match), so lock-free reads are safe.
  const std::string& name() const { return name_; }

 private:
  friend class HeartbeatRegistry;
  std::string name_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<bool> active_{false};
  bool leased_ = false;  // guarded by the registry mutex
};

// Process-wide heartbeat directory, following MetricsRegistry::global()'s
// immortal-singleton idiom. Slots are never destroyed; a released slot of
// the same name is REUSED by the next acquire (its counter keeps rising
// monotonically across leases, so reuse can never look like a stall) —
// repeated service construction in tests stays bounded.
class HeartbeatRegistry {
 public:
  // Threads share global(); private instances isolate watchdog tests.
  HeartbeatRegistry() = default;
  HeartbeatRegistry(const HeartbeatRegistry&) = delete;
  HeartbeatRegistry& operator=(const HeartbeatRegistry&) = delete;

  static HeartbeatRegistry& global();

  // Leases a slot named `name` (reusing a released slot of that name if
  // one exists). The returned pointer is process-lifetime stable. The
  // slot starts ACTIVE — callers that immediately block must enter an
  // IdleScope first.
  Heartbeat* acquire(const std::string& name);
  // Marks the slot idle and returns it to the free pool. The owning
  // thread must not beat() after release.
  void release(Heartbeat* hb);

  // Every currently-leased heartbeat (the watchdog's scan set).
  std::vector<Heartbeat*> leased() const;

  // Test support: drops every slot. No leases may be outstanding.
  void reset();

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Heartbeat>> slots_;
};

// RAII lease: acquire on construction, release on destruction — covers
// every exit path of a monitored thread's loop.
class HeartbeatLease {
 public:
  explicit HeartbeatLease(
      const std::string& name,
      HeartbeatRegistry& reg = HeartbeatRegistry::global())
      : reg_(&reg), hb_(reg.acquire(name)) {}
  ~HeartbeatLease() { reg_->release(hb_); }

  HeartbeatLease(const HeartbeatLease&) = delete;
  HeartbeatLease& operator=(const HeartbeatLease&) = delete;

  Heartbeat* get() const { return hb_; }
  Heartbeat* operator->() const { return hb_; }

 private:
  HeartbeatRegistry* reg_;
  Heartbeat* hb_;
};

// Marks a heartbeat idle for a scope (a legitimate block: cv wait, queue
// pop). Re-activates AND beats on exit, so the post-block activity window
// starts fresh.
class IdleScope {
 public:
  explicit IdleScope(Heartbeat* hb) : hb_(hb) {
    if (hb_ != nullptr) hb_->set_active(false);
  }
  ~IdleScope() {
    if (hb_ != nullptr) {
      hb_->set_active(true);
      hb_->beat();
    }
  }
  IdleScope(const IdleScope&) = delete;
  IdleScope& operator=(const IdleScope&) = delete;

 private:
  Heartbeat* hb_;
};

struct WatchdogConfig {
  int check_period_ms = 50;
  // An ACTIVE heartbeat silent this long is a stall. Must exceed the
  // longest legitimate between-beats gap (one move / one backend batch).
  double stall_timeout_ms = 1000.0;
  // Flight-recorder dumps this watchdog may write in total (dump-storm
  // bound); after each dump it re-arms only once the condition clears.
  int max_dumps = 1;
  // Bundle directories are created as <dump_dir>/pm-<seq>-<ts_ns>/.
  std::string dump_dir = "postmortem";
  HeartbeatRegistry* heartbeats = nullptr;  // nullptr = global()
  // Registry rendered into the bundle's metrics.prom (nullptr = global()).
  MetricsRegistry* metrics = nullptr;
};

struct DumpReport {
  bool ok = false;  // every artifact was written
  std::string reason;
  std::string dir;
  std::uint64_t ts_ns = 0;
  std::vector<std::string> files;  // bundle-relative names
};

class StallWatchdog {
 public:
  explicit StallWatchdog(WatchdogConfig cfg = {});
  ~StallWatchdog();

  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

  // Attaches the health feed + telemetry.jsonl source. Setup-time.
  void set_telemetry(TelemetrySampler* sampler);
  // Adds a bundle artifact: `filename` inside the bundle, written with
  // `writer`'s return value at dump time. Writers run on the watchdog
  // thread and must not block indefinitely. Setup-time.
  void add_artifact(std::string filename,
                    std::function<std::string()> writer);

  void start();
  void stop();

  // One synchronous scan — what the thread runs per period. Returns true
  // when this check fired a dump. `now_ns_override` (0 = real trace
  // clock) makes stall timing deterministic in tests.
  bool check_once(std::uint64_t now_ns_override = 0);

  // Manual trigger (always writes, still counted against max_dumps' log
  // but not gated by it).
  DumpReport dump_now(const std::string& reason);

  int dumps() const;
  std::uint64_t checks() const;
  std::vector<DumpReport> dump_log() const;

 private:
  struct HbState {
    std::uint64_t last_count = 0;
    std::uint64_t last_progress_ns = 0;  // last count change / idle sighting
  };

  void run();
  DumpReport write_dump(const std::string& reason);

  WatchdogConfig cfg_;
  HeartbeatRegistry* registry_;
  TelemetrySampler* sampler_ = nullptr;

  mutable std::mutex mu_;
  std::map<const Heartbeat*, HbState> state_;
  std::vector<std::pair<std::string, std::function<std::string()>>>
      artifacts_;
  std::vector<DumpReport> log_;
  int dumps_ = 0;
  std::uint64_t checks_ = 0;
  std::uint64_t dump_seq_ = 0;
  bool armed_ = true;  // cleared by a dump; re-set when trouble clears

  std::mutex run_mu_;
  std::condition_variable run_cv_;
  std::thread thread_;
  bool running_ = false;
  bool stop_ = false;
};

}  // namespace apm::obs
