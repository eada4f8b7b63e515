#pragma once
// Bench-side probes around the two layer boundaries the library exposes as
// interfaces: InferenceBackend::compute_batch (what a lane's stream thread
// calls) and Evaluator::evaluate_batch (the net forward behind it).
//
// Each decorator forwards to the real implementation and keeps always-on
// counters (calls, evaluations, busy nanoseconds — three relaxed atomic
// adds per batch). When the SpanLog is enabled (traced runs only) it also
// records one span per call, kept in memory and written at the end as a
// Chrome trace. Nothing inside the library is touched: the benchmark
// measures each layer from outside, through public APIs.

#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "eval/evaluator.hpp"
#include "eval/gpu_model.hpp"
#include "obs/trace.hpp"

namespace e2e {

struct Span {
  const char* name = nullptr;  // static
  const char* lane = nullptr;  // interned (obs::intern_label) or nullptr
  int tid = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int n = 0;  // batch size; 0 when not applicable
};

// Small dense id per thread: the trace track a span lands on.
inline int thread_track() {
  static std::atomic<int> next{1};
  thread_local const int id = next.fetch_add(1);
  return id;
}

// In-memory span store for traced runs. Bounded: spans past `capacity` are
// counted, not kept, so a long traced run cannot grow memory without limit
// (the counters below stay exact either way).
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity = std::size_t{1} << 16)
      : capacity_(capacity) {}

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  void record(const char* name, const char* lane, std::uint64_t start_ns,
              std::uint64_t end_ns, int n) {
    const int tid = thread_track();
    std::lock_guard lock(mutex_);
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    spans_.push_back({name, lane, tid, start_ns, end_ns, n});
  }

  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return spans_.size();
  }
  std::size_t dropped() const {
    std::lock_guard lock(mutex_);
    return dropped_;
  }

  // Chrome trace-event JSON ("X" complete events, microsecond timestamps on
  // the obs trace clock, so the file lines up with the obs export).
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard lock(mutex_);
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    std::fprintf(f,
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
                 "\"args\":{\"name\":\"e2e bench probes\"}}");
    for (const Span& s : spans_) {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\","
                   "\"pid\":2,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{",
                   s.name, s.tid, static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
      const char* sep = "";
      if (s.lane != nullptr) {
        std::fprintf(f, "\"lane\":\"%s\"", s.lane);
        sep = ",";
      }
      if (s.n > 0) std::fprintf(f, "%s\"n\":%d", sep, s.n);
      std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n],\"otherData\":{\"dropped_spans\":%zu}}\n", dropped_);
    const bool ok = std::ferror(f) == 0;
    return std::fclose(f) == 0 && ok;
  }

 private:
  const std::size_t capacity_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
  std::size_t dropped_ = 0;  // guarded by mutex_
};

// Scoped span for the benchmark's own phases (workload, serve.drain).
class PhaseSpan {
 public:
  PhaseSpan(SpanLog& log, const char* name)
      : log_(log), name_(name), start_(apm::obs::now_ns()) {}
  ~PhaseSpan() {
    if (log_.enabled()) {
      log_.record(name_, nullptr, start_, apm::obs::now_ns(), 0);
    }
  }
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

 private:
  SpanLog& log_;
  const char* name_;
  std::uint64_t start_;
};

// Monotonic per-decorator counters; a window is the difference of two
// snapshots.
struct CallCounts {
  std::uint64_t calls = 0;
  std::uint64_t evals = 0;
  std::uint64_t busy_ns = 0;

  CallCounts operator-(const CallCounts& base) const {
    return {calls - base.calls, evals - base.evals, busy_ns - base.busy_ns};
  }
};

class CallCounters {
 public:
  void add(int n, std::uint64_t ns) {
    calls_.fetch_add(1, std::memory_order_relaxed);
    evals_.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
    busy_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  CallCounts snapshot() const {
    return {calls_.load(std::memory_order_relaxed),
            evals_.load(std::memory_order_relaxed),
            busy_ns_.load(std::memory_order_relaxed)};
  }

 private:
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> evals_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
};

// Times Evaluator::evaluate_batch (the net forward pass).
class TimedEvaluator final : public apm::Evaluator {
 public:
  TimedEvaluator(apm::Evaluator& inner, SpanLog& log, const char* lane)
      : inner_(inner), log_(log), lane_(lane) {}

  int action_count() const override { return inner_.action_count(); }
  std::size_t input_size() const override { return inner_.input_size(); }
  void evaluate(const float* input, apm::EvalOutput& out) override {
    evaluate_batch(input, 1, &out);
  }
  void evaluate_batch(const float* inputs, int n,
                      apm::EvalOutput* outs) override {
    const std::uint64_t t0 = apm::obs::now_ns();
    inner_.evaluate_batch(inputs, n, outs);
    const std::uint64_t t1 = apm::obs::now_ns();
    counters_.add(n, t1 - t0);
    if (log_.enabled()) log_.record("nn.evaluate_batch", lane_, t0, t1, n);
  }

  CallCounts counts() const { return counters_.snapshot(); }

 private:
  apm::Evaluator& inner_;
  SpanLog& log_;
  const char* lane_;
  CallCounters counters_;
};

// Times InferenceBackend::compute_batch (stream-thread side of a lane).
class TimedBackend final : public apm::InferenceBackend {
 public:
  TimedBackend(apm::InferenceBackend& inner, SpanLog& log, const char* lane)
      : inner_(inner), log_(log), lane_(lane) {}

  int action_count() const override { return inner_.action_count(); }
  std::size_t input_size() const override { return inner_.input_size(); }
  double compute_batch(const float* inputs, int n,
                       apm::EvalOutput* outs) override {
    const std::uint64_t t0 = apm::obs::now_ns();
    const double modelled = inner_.compute_batch(inputs, n, outs);
    const std::uint64_t t1 = apm::obs::now_ns();
    counters_.add(n, t1 - t0);
    if (log_.enabled()) log_.record("backend.compute_batch", lane_, t0, t1, n);
    return modelled;
  }
  double model_batch_us(int n) const override {
    return inner_.model_batch_us(n);
  }

  CallCounts counts() const { return counters_.snapshot(); }

 private:
  apm::InferenceBackend& inner_;
  SpanLog& log_;
  const char* lane_;
  CallCounters counters_;
};

}  // namespace e2e
