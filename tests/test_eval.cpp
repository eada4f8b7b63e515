// Evaluator-layer tests: deterministic evaluators, NetEvaluator batch
// consistency, the GPU timing model's monotonicity contracts (§4.1), and
// the async batching queue (§3.3).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "eval/async_batch.hpp"
#include "eval/eval_cache.hpp"
#include "eval/evaluator.hpp"
#include "eval/gpu_model.hpp"
#include "eval/net_evaluator.hpp"
#include "support/timer.hpp"

namespace apm {
namespace {

TEST(UniformEvaluator, UniformPolicyZeroValue) {
  UniformEvaluator eval(10, 4);
  const float input[4] = {1, 2, 3, 4};
  EvalOutput out;
  eval.evaluate(input, out);
  ASSERT_EQ(out.policy.size(), 10u);
  for (float p : out.policy) EXPECT_FLOAT_EQ(p, 0.1f);
  EXPECT_FLOAT_EQ(out.value, 0.0f);
}

TEST(SyntheticEvaluator, DeterministicPerState) {
  SyntheticEvaluator eval(5, 3);
  const float a[3] = {1, 0, 0};
  const float b[3] = {0, 1, 0};
  EvalOutput out_a1, out_a2, out_b;
  eval.evaluate(a, out_a1);
  eval.evaluate(a, out_a2);
  eval.evaluate(b, out_b);
  EXPECT_EQ(out_a1.policy, out_a2.policy);
  EXPECT_FLOAT_EQ(out_a1.value, out_a2.value);
  EXPECT_NE(out_a1.policy, out_b.policy);
}

TEST(SyntheticEvaluator, PolicyIsDistributionAndValueBounded) {
  SyntheticEvaluator eval(30, 8);
  Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    float input[8];
    for (float& x : input) x = rng.uniform_float();
    EvalOutput out;
    eval.evaluate(input, out);
    float total = 0;
    for (float p : out.policy) {
      ASSERT_GT(p, 0.0f);
      total += p;
    }
    EXPECT_NEAR(total, 1.0f, 1e-4f);
    EXPECT_GE(out.value, -1.0f);
    EXPECT_LE(out.value, 1.0f);
  }
}

TEST(SyntheticEvaluator, LatencyKnobSlowsCalls) {
  SyntheticEvaluator fast(5, 3, 0.0);
  SyntheticEvaluator slow(5, 3, 200.0);
  const float input[3] = {1, 2, 3};
  EvalOutput out;
  Timer t;
  for (int i = 0; i < 10; ++i) fast.evaluate(input, out);
  const double fast_us = t.elapsed_us();
  t.reset();
  for (int i = 0; i < 10; ++i) slow.evaluate(input, out);
  const double slow_us = t.elapsed_us();
  EXPECT_GT(slow_us, fast_us + 1000.0);
}

TEST(NetEvaluator, BatchMatchesSingleEvaluations) {
  PolicyValueNet net(NetConfig::tiny(4), 9);
  NetEvaluator eval(net);
  Rng rng(10);
  const std::size_t isz = eval.input_size();
  std::vector<float> inputs(3 * isz);
  for (float& x : inputs) x = rng.uniform_float();

  std::vector<EvalOutput> batch_out(3);
  eval.evaluate_batch(inputs.data(), 3, batch_out.data());
  for (int i = 0; i < 3; ++i) {
    EvalOutput single;
    eval.evaluate(inputs.data() + i * isz, single);
    ASSERT_EQ(single.policy.size(), batch_out[i].policy.size());
    for (std::size_t a = 0; a < single.policy.size(); ++a) {
      EXPECT_NEAR(single.policy[a], batch_out[i].policy[a], 1e-5f);
    }
    EXPECT_NEAR(single.value, batch_out[i].value, 1e-5f);
  }

  // The paper trunk on 9x9 at batch 26: conv3's col buffer plus output
  // (64*9 + 128 rows of 81 floats per sample) fits 18 samples in the 4 MiB
  // conv scratch budget, so the batch is lowered in two chunks, 18 + 8.
  // Splitting the GEMM's columns keeps each output's arithmetic, so every
  // position must match its own batch-1 evaluation bit for bit, in fp32
  // and in int8 (activations quantize per column).
  NetConfig paper;
  paper.height = paper.width = 9;
  const PolicyValueNet trunk(paper, 13);
  const QuantizedPolicyValueNet qtrunk(trunk);
  NetEvaluator fp32(trunk);
  NetEvaluator int8(qtrunk);
  for (NetEvaluator* e : {&fp32, &int8}) {
    const int batch = 26;
    const std::size_t size = e->input_size();
    std::vector<float> planes(batch * size);
    for (float& x : planes) x = rng.uniform_float();
    std::vector<EvalOutput> outs(batch);
    e->evaluate_batch(planes.data(), batch, outs.data());
    for (int i = 0; i < batch; ++i) {
      EvalOutput single;
      e->evaluate(planes.data() + i * size, single);
      ASSERT_EQ(single.policy, outs[i].policy)
          << precision_name(e->precision()) << " i=" << i;
      ASSERT_EQ(single.value, outs[i].value)
          << precision_name(e->precision()) << " i=" << i;
    }
  }
}

TEST(GpuTimingModel, TransferGrowsLinearlyWithBatch) {
  GpuTimingModel m;
  EXPECT_GT(m.transfer_us(2), m.transfer_us(1));
  // Per-sample transfer cost decreases with B (launch amortisation).
  EXPECT_LT(m.transfer_us(32) / 32, m.transfer_us(1));
}

TEST(GpuTimingModel, ComputeMonotonicallyIncreases) {
  GpuTimingModel m;
  for (int b = 1; b < 128; ++b) {
    ASSERT_LE(m.compute_us(b), m.compute_us(b + 1)) << "b=" << b;
  }
}

TEST(GpuTimingModel, PcieTotalMonotonicallyDecreasesInB) {
  // §4.1: T_PCIe over N samples in N/B transfers decreases with B.
  GpuTimingModel m;
  const int n = 64;
  for (int b = 1; b < n; ++b) {
    ASSERT_GE(m.pcie_total_us(n, b), m.pcie_total_us(n, b + 1) - 1e-9)
        << "b=" << b;
  }
}

TEST(GpuTimingModel, SubSaturationBatchingIsCheap) {
  GpuTimingModel m;
  const double marginal_below =
      m.compute_us(m.saturation_batch) - m.compute_us(m.saturation_batch - 1);
  const double marginal_above =
      m.compute_us(m.saturation_batch + 2) -
      m.compute_us(m.saturation_batch + 1);
  EXPECT_LT(marginal_below, marginal_above);
}

TEST(SimGpuBackend, ComputesRealResultsWithModelledLatency) {
  SyntheticEvaluator eval(6, 4);
  GpuTimingModel model;
  SimGpuBackend backend(eval, model);
  const float inputs[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  EvalOutput outs[2];
  const double us = backend.compute_batch(inputs, 2, outs);
  EXPECT_NEAR(us, model.batch_total_us(2), 1e-9);
  EvalOutput direct;
  eval.evaluate(inputs, direct);
  EXPECT_EQ(outs[0].policy, direct.policy);
}

TEST(CpuBackend, ModelledLatencyTracksMeasured) {
  SyntheticEvaluator eval(6, 4, /*latency_us=*/50.0);
  CpuBackend backend(eval);
  const float inputs[4] = {1, 2, 3, 4};
  EvalOutput out;
  const double measured = backend.compute_batch(inputs, 1, &out);
  EXPECT_GE(measured, 45.0);
  EXPECT_NEAR(backend.model_batch_us(4), 4 * measured, measured);
}

TEST(AsyncBatch, ThresholdTriggersDispatch) {
  SyntheticEvaluator eval(5, 2);
  GpuTimingModel model;
  SimGpuBackend backend(eval, model);
  AsyncBatchEvaluator queue(backend, /*threshold=*/4, /*streams=*/1,
                            /*stale_flush_us=*/0.0);
  const float input[2] = {1, 2};
  std::vector<std::future<EvalOutput>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(queue.submit_future(input));
  for (auto& f : futures) {
    const EvalOutput out = f.get();
    EXPECT_EQ(out.policy.size(), 5u);
  }
  const BatchQueueStats stats = queue.stats();
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.full_batches, 2u);
  EXPECT_EQ(stats.max_batch, 4u);
}

TEST(AsyncBatch, FlushDispatchesPartialBatch) {
  SyntheticEvaluator eval(5, 2);
  GpuTimingModel model;
  SimGpuBackend backend(eval, model);
  AsyncBatchEvaluator queue(backend, 16, 1, /*stale_flush_us=*/0.0);
  const float input[2] = {3, 4};
  auto fut = queue.submit_future(input);
  queue.flush();
  EXPECT_EQ(fut.get().policy.size(), 5u);
  EXPECT_EQ(queue.stats().batches, 1u);
  EXPECT_EQ(queue.stats().full_batches, 0u);
}

TEST(AsyncBatch, StaleFlushCompletesWithoutExplicitFlush) {
  SyntheticEvaluator eval(5, 2);
  GpuTimingModel model;
  SimGpuBackend backend(eval, model);
  AsyncBatchEvaluator queue(backend, 64, 1, /*stale_flush_us=*/200.0);
  const float input[2] = {5, 6};
  auto fut = queue.submit_future(input);
  EXPECT_EQ(fut.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_EQ(queue.stats().stale_flushes, 1u);
  EXPECT_EQ(queue.stats().threshold_dispatches, 0u);
}

TEST(AsyncBatch, StaleFlushFiresAtTheFirstSlotDeadline) {
  // A lone partial batch dispatches at its first slot's deadline, never
  // before it. The median of five rounds bounds the lateness, so one slow
  // wake-up cannot fail the test.
  SyntheticEvaluator eval(5, 2);
  CpuBackend backend(eval);
  constexpr double kStaleUs = 30000.0;
  AsyncBatchEvaluator queue(backend, /*threshold=*/64, /*streams=*/1,
                            kStaleUs);
  const float input[2] = {5, 6};
  std::vector<double> waits_us;
  for (int round = 0; round < 5; ++round) {
    // Submitting just after a tick of a timer that polls every stale/2
    // would leave the batch pending for ~1.5x stale.
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int>(kStaleUs / 2) + 1000));
    Timer wait;
    queue.submit_future(input).get();
    waits_us.push_back(wait.elapsed_us());
  }
  for (const double w : waits_us) EXPECT_GE(w, kStaleUs);
  std::sort(waits_us.begin(), waits_us.end());
  EXPECT_LT(waits_us[2], 1.25 * kStaleUs);
  EXPECT_EQ(queue.stats().stale_flushes, 5u);
}

TEST(AsyncBatch, DispatchReasonCounters) {
  SyntheticEvaluator eval(5, 2);
  GpuTimingModel model;
  SimGpuBackend backend(eval, model);
  AsyncBatchEvaluator queue(backend, /*threshold=*/4, /*streams=*/1,
                            /*stale_flush_us=*/0.0);
  const float input[2] = {1, 2};
  std::vector<std::future<EvalOutput>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(queue.submit_future(input));
  for (int i = 0; i < 2; ++i) futures.push_back(queue.submit_future(input));
  queue.flush();
  for (auto& f : futures) f.get();
  const BatchQueueStats stats = queue.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.threshold_dispatches, 1u);
  EXPECT_EQ(stats.manual_flushes, 1u);
  EXPECT_EQ(stats.stale_flushes, 0u);
}

TEST(AsyncBatch, DrainWaitsForEverything) {
  SyntheticEvaluator eval(5, 2, /*latency_us=*/100.0);
  GpuTimingModel model;
  SimGpuBackend backend(eval, model);
  AsyncBatchEvaluator queue(backend, 3, 2, 0.0);
  std::atomic<int> done{0};
  const float input[2] = {7, 8};
  for (int i = 0; i < 7; ++i) {
    queue.submit(input, [&done](EvalOutput) { done.fetch_add(1); });
  }
  queue.drain();
  EXPECT_EQ(done.load(), 7);
}

TEST(AsyncBatch, ConcurrentSubmittersAllServed) {
  SyntheticEvaluator eval(5, 2);
  GpuTimingModel model;
  SimGpuBackend backend(eval, model);
  AsyncBatchEvaluator queue(backend, 8, 2, 500.0);
  std::atomic<int> done{0};
  constexpr int kThreads = 4, kPerThread = 50;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        const float input[2] = {9, 10};
        for (int i = 0; i < kPerThread; ++i) {
          queue.submit(input, [&done](EvalOutput) { done.fetch_add(1); });
        }
      });
    }
  }
  queue.drain();
  EXPECT_EQ(done.load(), kThreads * kPerThread);
  EXPECT_EQ(queue.stats().submitted, 200u);
}

// --- who runs a batch ---------------------------------------------------

// A CpuBackend that records the thread of every compute_batch call and, when
// held, parks each call on entry until release().
class ProbeBackend final : public InferenceBackend {
 public:
  explicit ProbeBackend(Evaluator& eval) : inner_(eval) {}
  int action_count() const override { return inner_.action_count(); }
  std::size_t input_size() const override { return inner_.input_size(); }
  double model_batch_us(int n) const override {
    return inner_.model_batch_us(n);
  }
  double compute_batch(const float* inputs, int n, EvalOutput* outs) override {
    {
      std::unique_lock lock(mu_);
      threads_.push_back(std::this_thread::get_id());
      ++entered_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return !held_; });
    }
    return inner_.compute_batch(inputs, n, outs);
  }

  void hold() {
    std::lock_guard lock(mu_);
    held_ = true;
  }
  void release() {
    std::lock_guard lock(mu_);
    held_ = false;
    cv_.notify_all();
  }
  void wait_entered(int calls) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return entered_ >= calls; });
  }
  std::vector<std::thread::id> threads() const {
    std::lock_guard lock(mu_);
    return threads_;
  }

 private:
  CpuBackend inner_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
  int entered_ = 0;
  std::vector<std::thread::id> threads_;
};

EvalOutput direct(Evaluator& eval, const float* input) {
  EvalOutput out;
  eval.evaluate(input, out);
  return out;
}

void expect_same(const EvalOutput& got, const EvalOutput& want) {
  EXPECT_EQ(got.policy, want.policy);
  EXPECT_EQ(got.value, want.value);
}

// Spins until `pred` holds (the queue exposes no event to wait on).
template <typename Pred>
void spin_until(Pred pred) {
  while (!pred()) std::this_thread::yield();
}

TEST(CallerRuns, ThresholdOneEvaluatesOnTheCallingThread) {
  SyntheticEvaluator eval(5, 2);
  ProbeBackend backend(eval);
  AsyncBatchEvaluator queue(backend, /*threshold=*/1, /*streams=*/1,
                            /*stale_flush_us=*/0.0);
  const float input[2] = {1, 2};
  SubmitOutcome how = SubmitOutcome::kCacheHit;
  expect_same(queue.evaluate(input, -1, AsyncBatchEvaluator::kNoHash, &how),
              direct(eval, input));
  EXPECT_EQ(how, SubmitOutcome::kQueued);
  EXPECT_EQ(backend.threads(),
            std::vector<std::thread::id>{std::this_thread::get_id()});
  const BatchQueueStats stats = queue.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.threshold_dispatches, 1u);
  EXPECT_EQ(queue.in_flight(), 0u);
}

TEST(CallerRuns, ZeroStreamQueueServesBlockingCallersOnTheirOwnThreads) {
  // The queue a search driver wraps a bare Evaluator in: threshold 1, no
  // stream thread and no stale timer. Each evaluate() completes its own
  // batch and runs it on its caller, so the queue needs no thread at all.
  SyntheticEvaluator eval(5, 2);
  ProbeBackend backend(eval);
  AsyncBatchEvaluator queue(backend, /*threshold=*/1, /*streams=*/0,
                            /*stale_flush_us=*/0.0);
  EXPECT_EQ(queue.num_streams(), 0);
  const float first_in[2] = {1, 2};
  const float second_in[2] = {3, 4};
  expect_same(queue.evaluate(first_in), direct(eval, first_in));
  std::thread::id other;
  EvalOutput second_out;
  std::jthread([&] {
    other = std::this_thread::get_id();
    second_out = queue.evaluate(second_in);
  }).join();
  expect_same(second_out, direct(eval, second_in));
  EXPECT_EQ(backend.threads(),
            (std::vector<std::thread::id>{std::this_thread::get_id(), other}));
  queue.drain();
  EXPECT_EQ(queue.in_flight(), 0u);
  EXPECT_EQ(queue.stats().threshold_dispatches, 2u);

  // An asynchronous dispatch would wait for a thread that never comes, so
  // it fails a check instead.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(queue.submit(first_in, [](EvalOutput) {}), "no stream thread");
}

TEST(CallerRuns, SecondBlockingCallerRunsTheBatchForBoth) {
  SyntheticEvaluator eval(5, 2);
  ProbeBackend backend(eval);
  AsyncBatchEvaluator queue(backend, /*threshold=*/2, /*streams=*/1,
                            /*stale_flush_us=*/0.0);
  const float first_in[2] = {1, 2};
  const float second_in[2] = {3, 4};
  EvalOutput first_out;
  std::jthread first([&] { first_out = queue.evaluate(first_in); });
  spin_until([&] { return queue.stats().submitted == 1; });
  const EvalOutput second_out = queue.evaluate(second_in);
  first.join();
  // The arrival that filled the batch ran it; each caller got its own slot.
  EXPECT_EQ(backend.threads(),
            std::vector<std::thread::id>{std::this_thread::get_id()});
  expect_same(first_out, direct(eval, first_in));
  expect_same(second_out, direct(eval, second_in));
  EXPECT_NE(first_out.policy, second_out.policy);
  EXPECT_EQ(queue.stats().batches, 1u);
  EXPECT_EQ(queue.stats().full_batches, 1u);
}

TEST(CallerRuns, SubmitCallbackNeverRunsOnItsOwnThreadButOnCacheHit) {
  SyntheticEvaluator eval(5, 2);
  ProbeBackend backend(eval);
  EvalCache cache;
  AsyncBatchEvaluator queue(backend, /*threshold=*/1, /*streams=*/1,
                            /*stale_flush_us=*/1000.0);
  queue.set_cache(&cache);
  const auto self = std::this_thread::get_id();
  const float input[2] = {1, 2};
  constexpr std::uint64_t kHash = 0x51;

  // Completing a batch asynchronously hands it to a stream thread.
  std::mutex mu;
  std::thread::id cb_thread;
  EXPECT_EQ(queue.submit(
                input,
                [&](EvalOutput) {
                  std::lock_guard lock(mu);
                  cb_thread = std::this_thread::get_id();
                },
                -1, kHash),
            SubmitOutcome::kQueued);
  queue.drain();
  {
    std::lock_guard lock(mu);
    EXPECT_NE(cb_thread, self);
  }
  ASSERT_EQ(backend.threads().size(), 1u);
  EXPECT_NE(backend.threads()[0], self);

  // A resident position completes synchronously on the submitting thread.
  std::thread::id hit_thread;
  EXPECT_EQ(queue.submit(
                input,
                [&](EvalOutput) { hit_thread = std::this_thread::get_id(); },
                -1, kHash),
            SubmitOutcome::kCacheHit);
  EXPECT_EQ(hit_thread, self);
  EXPECT_EQ(backend.threads().size(), 1u);
}

TEST(CallerRuns, BlockingCallerRunsAnAsynchronousSlotsCallback) {
  SyntheticEvaluator eval(5, 2);
  ProbeBackend backend(eval);
  AsyncBatchEvaluator queue(backend, /*threshold=*/2, /*streams=*/1,
                            /*stale_flush_us=*/0.0);
  const float async_in[2] = {1, 2};
  const float blocking_in[2] = {3, 4};
  std::mutex mu;
  std::thread::id cb_thread;
  EvalOutput async_out;
  queue.submit(async_in, [&](EvalOutput out) {
    std::lock_guard lock(mu);
    cb_thread = std::this_thread::get_id();
    async_out = std::move(out);
  });
  std::thread::id runner;
  EvalOutput blocking_out;
  std::jthread blocking([&] {
    runner = std::this_thread::get_id();
    blocking_out = queue.evaluate(blocking_in);
  });
  blocking.join();
  queue.drain();
  std::lock_guard lock(mu);
  // The blocking caller filled the batch, so it ran it — the asynchronous
  // slot's callback included (the CP.22 contract: callbacks run inside
  // someone else's search).
  EXPECT_EQ(cb_thread, runner);
  EXPECT_EQ(backend.threads(), std::vector<std::thread::id>{runner});
  expect_same(async_out, direct(eval, async_in));
  expect_same(blocking_out, direct(eval, blocking_in));
}

TEST(CallerRuns, UnfilledBatchIsStaleFlushedToAStreamThread) {
  SyntheticEvaluator eval(5, 2);
  ProbeBackend backend(eval);
  AsyncBatchEvaluator queue(backend, /*threshold=*/4, /*streams=*/1,
                            /*stale_flush_us=*/2000.0);
  const float input[2] = {5, 6};
  expect_same(queue.evaluate(input), direct(eval, input));
  ASSERT_EQ(backend.threads().size(), 1u);
  EXPECT_NE(backend.threads()[0], std::this_thread::get_id());
  EXPECT_EQ(queue.stats().stale_flushes, 1u);
  EXPECT_EQ(queue.stats().threshold_dispatches, 0u);
}

TEST(CallerRuns, InlineCompletionPublishesThenWakesCoalescedWaiters) {
  SyntheticEvaluator eval(5, 2);
  ProbeBackend backend(eval);
  EvalCache cache;
  AsyncBatchEvaluator queue(backend, /*threshold=*/1, /*streams=*/1,
                            /*stale_flush_us=*/1000.0);
  queue.set_cache(&cache);
  const float input[2] = {7, 8};
  constexpr std::uint64_t kHash = 0x77;
  const EvalOutput want = direct(eval, input);

  backend.hold();
  std::thread::id runner;
  EvalOutput runner_out;
  std::jthread primary([&] {
    runner = std::this_thread::get_id();
    runner_out = queue.evaluate(input, 0, kHash);
  });
  backend.wait_entered(1);  // the primary runs its batch and is parked

  // While it computes, a blocking and an asynchronous duplicate coalesce.
  SubmitOutcome blocking_how = SubmitOutcome::kQueued;
  EvalOutput blocking_out;
  std::jthread blocking([&] {
    blocking_out = queue.evaluate(input, 1, kHash, &blocking_how);
  });
  spin_until([&] { return queue.stats().coalesced == 1; });
  std::mutex mu;
  std::thread::id waiter_thread;
  bool resident_at_wake = false;
  EvalOutput waiter_out;
  EXPECT_EQ(queue.submit(
                input,
                [&](EvalOutput out) {
                  EvalOutput probe;
                  const bool hit = cache.lookup(kHash, probe, false);
                  std::lock_guard lock(mu);
                  waiter_thread = std::this_thread::get_id();
                  resident_at_wake = hit;
                  waiter_out = std::move(out);
                },
                2, kHash),
            SubmitOutcome::kCoalesced);

  backend.release();
  primary.join();
  blocking.join();
  queue.drain();

  EXPECT_EQ(backend.threads(), std::vector<std::thread::id>{runner});
  EXPECT_EQ(blocking_how, SubmitOutcome::kCoalesced);
  expect_same(runner_out, want);
  expect_same(blocking_out, want);
  {
    std::lock_guard lock(mu);
    EXPECT_EQ(waiter_thread, runner);
    EXPECT_TRUE(resident_at_wake);
    expect_same(waiter_out, want);
  }
  EXPECT_EQ(queue.stats().submitted, 1u);
  EXPECT_EQ(queue.stats().batches, 1u);
  EXPECT_EQ(queue.in_flight(), 0u);

  // Hashed submitters racing inline completions must coalesce or hit, so
  // each position takes exactly one slot: the result reaches the cache
  // before its hash leaves the in-flight registry. Many short rounds, each
  // on a fresh position, widen the race window.
  constexpr int kRounds = 300;
  std::atomic<std::uint64_t> racing{0};
  std::atomic<bool> stop{false};
  {
    std::vector<std::jthread> racers;
    for (int t = 0; t < 2; ++t) {
      racers.emplace_back([&, t] {
        while (!stop.load()) {
          const std::uint64_t h = racing.load();
          if (h != 0) queue.submit(input, [](EvalOutput) {}, 3 + t, h);
        }
      });
    }
    for (int round = 1; round <= kRounds; ++round) {
      racing.store(kHash + static_cast<std::uint64_t>(round));
      queue.evaluate(input, 0, kHash + static_cast<std::uint64_t>(round));
    }
    stop.store(true);
  }
  queue.drain();
  EXPECT_EQ(queue.stats().submitted, 1u + kRounds);
  EXPECT_EQ(queue.in_flight(), 0u);
}

TEST(CallerRuns, MixedDispatchOnAHashedQueueDrainsToZero) {
  // Blocking callers, an asynchronous submitter and the stale-flush timer
  // on one hashed queue: every request completes with its own position's
  // result, whichever thread ran its batch, and drain() leaves nothing in
  // flight. Every fourth request reuses one of a few shared positions, so
  // cache hits and coalescing ride along; the last blocking caller ends
  // alone, so its batches can only leave by the timer.
  SyntheticEvaluator eval(5, 2);
  ProbeBackend backend(eval);
  EvalCache cache;
  AsyncBatchEvaluator queue(backend, /*threshold=*/3, /*streams=*/2,
                            /*stale_flush_us=*/300.0);
  queue.set_cache(&cache);
  constexpr int kBlocking = 3, kRounds = 60, kSolo = 5;
  const auto position = [](int producer, int i) {
    return i % 4 == 0 ? (i / 4) % 6 : 100 * (producer + 1) + i;
  };
  const auto input_of = [](int p) {
    return std::array<float, 2>{static_cast<float>(p), 0.25f * p};
  };
  const auto hash_of = [](int p) {
    return 0x1000u + static_cast<std::uint64_t>(p);
  };
  std::atomic<int> wrong{0};
  std::atomic<int> async_done{0};
  std::atomic<int> others_left{kBlocking};  // blocking 0..1 + the submitter
  const auto check = [&](const float* in, const EvalOutput& out) {
    if (out.policy != direct(eval, in).policy) wrong.fetch_add(1);
  };
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kBlocking; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kRounds; ++i) {
          const auto in = input_of(position(t, i));
          check(in.data(), queue.evaluate(in.data(), t,
                                          hash_of(position(t, i))));
        }
        if (t + 1 < kBlocking) {
          others_left.fetch_sub(1);
          return;
        }
        spin_until([&] { return others_left.load() == 0; });
        for (int i = 0; i < kSolo; ++i) {
          const auto in = input_of(1000 + i);
          check(in.data(), queue.evaluate(in.data(), t, hash_of(1000 + i)));
        }
      });
    }
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        const int p = position(kBlocking, i);
        const auto in = input_of(p);
        queue.submit(
            in.data(),
            [&, in](EvalOutput out) {
              check(in.data(), out);
              async_done.fetch_add(1);
            },
            kBlocking, hash_of(p));
      }
      others_left.fetch_sub(1);
    });
  }
  queue.drain();
  EXPECT_EQ(queue.in_flight(), 0u);
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(async_done.load(), kRounds);
  const BatchQueueStats stats = queue.stats();
  EXPECT_EQ(stats.submitted + stats.cache_hits + stats.coalesced,
            static_cast<std::size_t>((kBlocking + 1) * kRounds + kSolo));
  EXPECT_GT(stats.cache_hits + stats.coalesced, 0u);
  EXPECT_GE(stats.stale_flushes, static_cast<std::size_t>(kSolo));
}

}  // namespace
}  // namespace apm
