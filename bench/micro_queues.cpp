// Micro-benchmarks for the concurrency substrate: the FIFO pipe of the
// local-tree scheme, lock primitives, and the batching queue.

#include <benchmark/benchmark.h>

#include <mutex>

#include "eval/async_batch.hpp"
#include "support/spinlock.hpp"
#include "support/sync_queue.hpp"

namespace {

using namespace apm;

void BM_SyncQueuePushPop(benchmark::State& state) {
  SyncQueue<int> q;
  for (auto _ : state) {
    q.push(1);
    benchmark::DoNotOptimize(q.pop());
  }
}
BENCHMARK(BM_SyncQueuePushPop);

void BM_SpinLockUncontended(benchmark::State& state) {
  SpinLock lock;
  long counter = 0;
  for (auto _ : state) {
    std::lock_guard guard(lock);
    benchmark::DoNotOptimize(++counter);
  }
}
BENCHMARK(BM_SpinLockUncontended);

void BM_MutexUncontended(benchmark::State& state) {
  std::mutex lock;
  long counter = 0;
  for (auto _ : state) {
    std::lock_guard guard(lock);
    benchmark::DoNotOptimize(++counter);
  }
}
BENCHMARK(BM_MutexUncontended);

void BM_AsyncBatchSubmitDrain(benchmark::State& state) {
  const int threshold = static_cast<int>(state.range(0));
  SyntheticEvaluator eval(16, 8, 0.0);
  GpuTimingModel model;
  SimGpuBackend backend(eval, model);
  AsyncBatchEvaluator queue(backend, threshold, 1, 0.0);
  const float input[8] = {};
  for (auto _ : state) {
    for (int i = 0; i < threshold; ++i) {
      queue.submit(input, [](EvalOutput) {});
    }
    queue.drain();
  }
  state.counters["us_per_request"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * threshold,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_AsyncBatchSubmitDrain)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
