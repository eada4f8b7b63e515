#pragma once
// The accelerator queue of §3.3: DNN inference requests accumulate until a
// threshold B is reached, then the whole batch is submitted to the backend.
//
// Who runs a batch. The request whose arrival completes the forming batch
// decides:
//   * a blocking evaluate() runs the batch on its own calling thread
//     (caller-runs), so K search threads blocked on K batches keep K cores
//     computing — the paper's Eq. 3, where each shared-tree worker pays its
//     own T_DNN on its own core;
//   * an asynchronous submit() hands the batch to the `num_streams` stream
//     threads, which play the role of the paper's N/B CUDA streams: while
//     one stream executes a batch, the submitter keeps issuing requests
//     (LocalTree's master overlapping compute with in-tree work).
// The stale-flush timer, flush(), drain() and set_batch_threshold() also
// dispatch to the stream threads. So `num_streams` bounds only
// asynchronous, timer and manual dispatch; blocking callers bring their
// own thread. A queue that only blocking callers use needs no stream at
// all: at threshold 1 every evaluate() completes and runs its own batch, so
// a 0-stream queue starts no thread and adds only uncontended lock
// round-trips per request (the search drivers wrap a bare Evaluator this
// way). Every dispatcher runs a batch through one routine (straggler wait,
// backend call, cache publish, in-flight retire, wake-ups, buffer
// recycling), so the result of a position never depends on which thread
// computed it or on what else shared its batch.
//
// Reserving a slot takes the lock; the request's planes are copied into
// the batch's contiguous input buffer *outside* it (concurrent submitters
// copy in parallel; a per-batch readiness counter lets whoever runs the
// batch wait for in-flight copies before handing the buffer to the backend
// as-is). Each input is therefore copied exactly once end-to-end and the
// mutex never covers a memcpy. Completed buffers are recycled through a
// small free list, keeping the steady state allocation-free; a blocking
// caller waits on a rendezvous on its own stack, not a shared promise.
//
// A stale-flush timer bounds the wait for a partial batch (needed at the
// tail of a move when fewer than B requests remain — e.g. the last
// iterations of a 1600-playout move with B = 20): a batch still forming
// stale_flush_us after its first slot was reserved is dispatched at that
// deadline. The timer thread sleeps until a batch opens that a threshold
// crossing did not dispatch at once, so a B=1 queue never wakes it. drain()
// forces completion of everything in flight at the end of a move.
//
// With an EvalCache attached (set_cache), requests carry the position's
// 64-bit Zobrist hash and duplicate inference is eliminated at the queue
// layer: a submission whose hash is resident in the cache completes
// immediately on the caller's thread without taking a batch slot, and one
// whose hash matches a request already forming or dispatched attaches as a
// *waiter* to that request instead of occupying a second slot — so the
// slots a batch does contain are unique positions, and real (unique-
// position) batch fill rises at the same threshold. A waiter attached to a
// primary in the still-forming batch counts toward the dispatch threshold
// (it is arrived demand waiting on that batch — without this, duplicate-
// heavy traffic would under-fill every batch and stall on the stale
// timer), but never toward the fill histogram. Waiters are woken (and the
// cache populated) when the carrying batch completes; drain() accounts for
// them exactly like slot-occupying requests, so a shutdown with waiters
// attached cannot return early or deadlock.

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "eval/eval_cache.hpp"
#include "eval/gpu_model.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "support/sync_queue.hpp"

namespace apm {

struct BatchQueueStats {
  std::size_t submitted = 0;       // requests accepted
  std::size_t batches = 0;         // backend invocations
  std::size_t full_batches = 0;    // batches of exactly the threshold size
  // Why batches were dispatched: the threshold crossing in submit(), the
  // stale-flush timer, or an explicit flush()/drain().
  std::size_t threshold_dispatches = 0;
  std::size_t stale_flushes = 0;
  std::size_t manual_flushes = 0;
  std::size_t max_batch = 0;
  double mean_batch = 0.0;
  double modelled_backend_us = 0.0;  // sum of backend-modelled latencies
  // Batch-fill histogram: fill_histogram[s] counts dispatched batches of
  // size s (index 0 unused). In multi-producer service mode this is the
  // cross-game batch-formation evidence (ISSUE 3).
  std::vector<std::size_t> fill_histogram;
  // Per-submitter occupancy: tag_slots[tag] counts accepted slot-occupying
  // requests from that tag (a MatchService game slot); untagged submissions
  // (tag < 0) accumulate in untagged_slots.
  std::vector<std::size_t> tag_slots;
  std::size_t untagged_slots = 0;
  // Eval-cache dedupe (zero without an attached cache): requests served
  // straight from the cache, and requests coalesced onto an in-flight
  // duplicate. Neither occupies a batch slot, so `submitted`, the fill
  // histogram, and `mean_batch` count unique positions only.
  std::size_t cache_hits = 0;
  std::size_t coalesced = 0;
};

// Field-wise `now - base` between two stats snapshots of the same queue
// (vector counters diffed element-wise; mean_batch recomputed from the
// diffed sums; max_batch recomputed from the histogram delta, since a
// lifetime maximum cannot be subtracted). Used by every consumer that
// attributes a window of shared-queue activity — per-move driver metrics
// and the MatchService's service-era stats.
BatchQueueStats stats_delta(const BatchQueueStats& now,
                            const BatchQueueStats& base);

// How a submit() was served (cache/coalescing telemetry for the drivers).
enum class SubmitOutcome {
  kQueued,    // occupied a slot in the forming batch (backend will run it)
  kCacheHit,  // completed synchronously from the eval cache, no slot
  kCoalesced  // attached as a waiter to an in-flight duplicate, no slot
};

class AsyncBatchEvaluator {
 public:
  using Callback = std::function<void(EvalOutput)>;

  // Requests submitted without a position hash bypass the cache and never
  // coalesce. (A genuine Zobrist hash of 0 is treated the same way — with
  // random tables that is a ~2⁻⁶⁴ event, and the only cost is one
  // uncached evaluation.)
  static constexpr std::uint64_t kNoHash = 0;

  // batch_threshold >= 1. stale_flush_us <= 0 disables the timer (then
  // only threshold crossings and flush()/drain() dispatch). num_streams may
  // be 0 only without the timer: such a queue serves blocking evaluate()
  // callers alone, and any asynchronous dispatch on it (a submit() that
  // completes a batch, or a flush, drain or retune that finds one forming)
  // fails an APM_CHECK instead of waiting for a thread that never comes.
  // `name` labels this queue (lane) in trace events and stream-thread
  // names; empty defaults to "eval".
  AsyncBatchEvaluator(InferenceBackend& backend, int batch_threshold,
                      int num_streams, double stale_flush_us = 2000.0,
                      std::string name = {});
  ~AsyncBatchEvaluator();

  AsyncBatchEvaluator(const AsyncBatchEvaluator&) = delete;
  AsyncBatchEvaluator& operator=(const AsyncBatchEvaluator&) = delete;

  // Copies `input` (input_size floats) into the forming batch buffer and
  // returns without waiting; a batch this arrival completes goes to the
  // stream threads. `cb` runs once the containing batch completes, on
  // whichever thread runs it: a stream thread, or a thread blocked in
  // evaluate() whose request completed the batch. It never runs inside
  // this call, except on a cache hit. Callbacks must not block for long
  // and must not call back into this queue (CP.22): they may run inside
  // another search's evaluate().
  // `tag` >= 0 attributes the request to a submitter (a MatchService game
  // slot) in the stats; negative = untagged.
  //
  // With a cache attached and `hash` != kNoHash, a resident hash completes
  // `cb` synchronously on THIS thread before returning (kCacheHit), and a
  // hash matching an in-flight request attaches `cb` as a waiter on it
  // (kCoalesced) — in both cases no batch slot is taken.
  SubmitOutcome submit(const float* input, Callback cb, int tag = -1,
                       std::uint64_t hash = kNoHash);

  // Blocking evaluation (shared-tree workers, serial search). Reserves a
  // slot exactly like submit() — cache hits and coalescing included — and
  // when this arrival completes the forming batch, runs that batch on the
  // calling thread, completing every other request in it too. Otherwise
  // waits for whoever completes the batch (another evaluate() caller, or a
  // stream thread via an asynchronous submit, the stale-flush timer or a
  // flush). `outcome`, when non-null, receives how the request was served.
  EvalOutput evaluate(const float* input, int tag = -1,
                      std::uint64_t hash = kNoHash,
                      SubmitOutcome* outcome = nullptr);

  // Future-returning submit(): the batch it completes still goes to the
  // stream threads. `outcome`, when non-null, receives how the request was
  // served.
  std::future<EvalOutput> submit_future(const float* input, int tag = -1,
                                        std::uint64_t hash = kNoHash,
                                        SubmitOutcome* outcome = nullptr);

  // Attaches (or detaches, nullptr) the evaluation cache consulted by
  // hash-carrying submissions. Requires the stale-flush timer: coalesced
  // waiters make a forming batch fill slower than its submitters expect,
  // so threshold crossings alone cannot guarantee liveness. Call before
  // submissions start, and keep the cache alive until every submission has
  // completed (this object's destructor drains, so "cache outlives the
  // evaluator" is the simple sufficient rule): concurrent submit() and
  // completion paths hold the raw pointer across their cache calls, so
  // set_cache(nullptr) stops NEW lookups but does not fence in-flight
  // ones. Waiters themselves are woken from the coalescing registry, never
  // the cache, so detaching cannot strand them.
  void set_cache(EvalCache* cache);
  EvalCache* cache() const {
    return cache_.load(std::memory_order_acquire);
  }

  // Dispatches the current partial batch immediately (if any).
  void flush();

  // Flushes and waits until every accepted request has completed. Partial
  // batches formed by racing submitters are re-flushed while waiting, so a
  // submitter blocked on a future it queued into a below-threshold batch is
  // always woken — the multi-producer shutdown path (a MatchService
  // stopping mid-game) cannot deadlock here. Only an unbounded stream of
  // *new* submissions keeps drain() from returning.
  void drain();

  // Runtime re-tune (the adaptive engine's B switch, §3.3/Algorithm 4): any
  // forming partial batch is dispatched first, so in-flight slot copies
  // never race a buffer resize; batches formed afterwards use the new
  // threshold. Safe to call concurrently with submit().
  void set_batch_threshold(int threshold);

  int batch_threshold() const {
    std::lock_guard lock(mutex_);
    return threshold_;
  }
  // Stream threads serving asynchronous, timer and manual dispatch.
  int num_streams() const { return static_cast<int>(streams_.size()); }
  // Requests accepted and not yet completed, coalesced waiters included;
  // 0 once drain() returns with no submitter racing it.
  std::size_t in_flight() const {
    return in_flight_.load(std::memory_order_acquire);
  }
  // The stale-flush deadline (µs after a batch's first slot); 0 when the
  // timer is disabled.
  // Multi-producer users (MatchService) require it for liveness at game
  // tails, where the remaining producers cannot fill a batch.
  double stale_flush_us() const { return stale_flush_us_; }
  const std::string& name() const { return name_; }
  BatchQueueStats stats() const;

  // Always-on latency shards (trace-clock nanoseconds; see obs/histogram):
  //  - batch-wait: slot reservation → batch dispatch, per slot;
  //  - backend:    one sample per backend invocation (wall time of
  //                compute_batch, including any emulated accelerator wait);
  //  - request:    submit() entry → result delivery, per request, covering
  //                cache hits (lookup cost), coalesced waiters, and slot
  //                owners alike — the queue-level end-to-end distribution.
  obs::HistogramSnapshot batch_wait_histogram() const {
    return hist_batch_wait_.snapshot();
  }
  obs::HistogramSnapshot backend_histogram() const {
    return hist_backend_.snapshot();
  }
  obs::HistogramSnapshot request_histogram() const {
    return hist_request_.snapshot();
  }

 private:
  // One forming/in-flight batch: a contiguous input buffer sized for the
  // full threshold up front (so concurrent submitters can copy into
  // disjoint slots without reallocation), the per-request callbacks
  // (mutated only under the lock), the count of completed slot copies, and
  // the completion buffers of whoever runs it. Heap-allocated so a
  // submitter can keep writing its slot while the batch is already
  // dispatched. Recycled via free_batches_.
  struct Batch {
    std::vector<float> inputs;       // capacity threshold * input_size
    std::vector<Callback> callbacks;
    // Per-slot position hash (kNoHash = uncached request). A hashed slot is
    // the unique in-flight primary for that hash: completion inserts the
    // result into the cache and wakes the hash's coalesced waiters.
    std::vector<std::uint64_t> hashes;
    // Per-slot submit-entry stamp (obs trace clock): batch-wait and
    // request-latency samples are computed from these. Written only under
    // the queue lock at slot reservation.
    std::vector<std::uint64_t> enq_ns;
    std::atomic<int> ready{0};       // slots fully copied
    // run_batch working vectors, recycled with the buffer whichever thread
    // runs it: per-slot outputs, and per-slot coalesced waiters (with their
    // enqueue stamps) taken off the registry.
    std::vector<EvalOutput> outputs;
    std::vector<std::vector<Callback>> waiters;
    std::vector<std::vector<std::uint64_t>> waiter_enq;
  };

  enum class DispatchReason { kThreshold, kStale, kManual };

  // submit() and evaluate() share this: serves a cache hit, coalesces, or
  // reserves a slot and copies `input` into it. A batch this arrival
  // completes is handed back through `caller_runs` when non-null (the
  // caller runs it), else pushed to the stream threads.
  SubmitOutcome enqueue(const float* input, Callback cb, int tag,
                        std::uint64_t hash,
                        std::unique_ptr<Batch>* caller_runs);
  // Detaches the forming batch and records its dispatch statistics.
  std::unique_ptr<Batch> close_locked(DispatchReason reason);
  // close_locked(), then hands the batch to the stream threads (drops and
  // retakes the lock around the push).
  void dispatch_locked(std::unique_lock<std::mutex>& lock,
                       DispatchReason reason);
  std::unique_ptr<Batch> acquire_batch_locked();
  // Computes a dispatched batch and completes every request it carries;
  // runs on a stream thread or on the evaluate() caller that closed it.
  void run_batch(std::unique_ptr<Batch> batch);
  void stream_loop();
  void flusher_loop(const std::stop_token& stop);

  InferenceBackend& backend_;
  int threshold_;  // guarded by mutex_ (runtime-tunable)
  const double stale_flush_us_;
  const std::string name_;  // lane label for traces and thread names

  // Always-on latency shards (cheap relaxed-atomic records; the trace
  // recorder is the gated half). See the accessor comment for semantics.
  obs::LatencyHistogram hist_batch_wait_;
  obs::LatencyHistogram hist_backend_;
  obs::LatencyHistogram hist_request_;

  // One in-flight primary's coalescing state: its waiters, and the forming
  // batch it occupies a slot in (`seq`, compared against pending_seq_ so a
  // waiter knows whether its primary is still forming or already
  // dispatched).
  struct InFlight {
    std::vector<Callback> waiters;
    std::vector<std::uint64_t> waiter_enq_ns;  // parallel to waiters
    std::uint64_t seq = 0;
  };

  mutable std::mutex mutex_;
  std::unique_ptr<Batch> pending_;
  std::uint64_t pending_seq_ = 0;  // bumped whenever a new batch starts
  // Waiters attached to primaries in the CURRENT forming batch. They count
  // toward the dispatch threshold — a coalesced request is real arrived
  // demand waiting on this batch, and without it K duplicate-heavy
  // producers would under-fill every batch and stall on the stale timer —
  // but never toward the fill histogram, which counts unique slots.
  int pending_attached_ = 0;
  // In-flight coalescing registry (guarded by mutex_): hash → state of the
  // unique primary request currently forming or dispatched under that
  // hash. An entry exists exactly from the primary's slot reservation until
  // its completion retires it (after the cache insert, so a racing
  // submitter always observes the position in-flight or resident).
  std::unordered_map<std::uint64_t, InFlight> inflight_waiters_;
  std::atomic<EvalCache*> cache_{nullptr};
  // Cache-hit counter kept off mutex_ so the hit fast path never touches
  // the queue lock; stats() folds it into the snapshot's cache_hits.
  std::atomic<std::size_t> cache_hits_{0};
  std::vector<std::unique_ptr<Batch>> free_batches_;
  std::chrono::steady_clock::time_point oldest_pending_;
  std::atomic<std::size_t> in_flight_{0};  // accepted, not yet completed
  std::condition_variable drained_cv_;
  // Wakes the stale-flush thread when a batch opens and stays pending.
  std::condition_variable_any flusher_cv_;

  BatchQueueStats stats_;
  double sum_batch_sizes_ = 0.0;
  SyncQueue<std::unique_ptr<Batch>> batch_queue_;
  std::vector<std::jthread> streams_;
  std::jthread flusher_;
};

}  // namespace apm
