#include "eval/async_batch.hpp"

#include <optional>

#include "obs/watchdog.hpp"
#include "support/check.hpp"

namespace apm {

BatchQueueStats stats_delta(const BatchQueueStats& now,
                            const BatchQueueStats& base) {
  BatchQueueStats d;
  d.submitted = now.submitted - base.submitted;
  d.batches = now.batches - base.batches;
  d.full_batches = now.full_batches - base.full_batches;
  d.threshold_dispatches = now.threshold_dispatches - base.threshold_dispatches;
  d.stale_flushes = now.stale_flushes - base.stale_flushes;
  d.manual_flushes = now.manual_flushes - base.manual_flushes;
  d.mean_batch = d.batches > 0 ? static_cast<double>(d.submitted) /
                                     static_cast<double>(d.batches)
                               : 0.0;
  d.modelled_backend_us = now.modelled_backend_us - base.modelled_backend_us;
  d.fill_histogram = now.fill_histogram;
  for (std::size_t i = 0;
       i < base.fill_histogram.size() && i < d.fill_histogram.size(); ++i) {
    d.fill_histogram[i] -= base.fill_histogram[i];
  }
  for (std::size_t size = 0; size < d.fill_histogram.size(); ++size) {
    if (d.fill_histogram[size] > 0) d.max_batch = size;
  }
  d.tag_slots = now.tag_slots;
  for (std::size_t i = 0; i < base.tag_slots.size() && i < d.tag_slots.size();
       ++i) {
    d.tag_slots[i] -= base.tag_slots[i];
  }
  d.untagged_slots = now.untagged_slots - base.untagged_slots;
  d.cache_hits = now.cache_hits - base.cache_hits;
  d.coalesced = now.coalesced - base.coalesced;
  return d;
}

AsyncBatchEvaluator::AsyncBatchEvaluator(InferenceBackend& backend,
                                         int batch_threshold, int num_streams,
                                         double stale_flush_us,
                                         std::string name)
    : backend_(backend),
      threshold_(batch_threshold),
      stale_flush_us_(stale_flush_us),
      name_(name.empty() ? std::string("eval") : std::move(name)) {
  APM_CHECK(batch_threshold >= 1);
  APM_CHECK(num_streams >= 0);
  APM_CHECK_MSG(num_streams > 0 || stale_flush_us <= 0.0,
                "the stale-flush timer dispatches to stream threads");
  streams_.reserve(static_cast<std::size_t>(num_streams));
  for (int i = 0; i < num_streams; ++i) {
    streams_.emplace_back([this] { stream_loop(); });
  }
  if (stale_flush_us_ > 0.0) {
    flusher_ = std::jthread(
        [this](const std::stop_token& stop) { flusher_loop(stop); });
  }
}

AsyncBatchEvaluator::~AsyncBatchEvaluator() {
  drain();
  if (flusher_.joinable()) {
    flusher_.request_stop();
    flusher_.join();
  }
  batch_queue_.close();
}

namespace {

// A blocking evaluate()'s meeting point with whichever thread completes its
// request. It lives on the caller's stack: the completing thread publishes
// and notifies under the mutex, so the caller cannot leave take() — and
// destroy this — before the notify is done.
class Rendezvous {
 public:
  void deliver(EvalOutput result) {
    std::lock_guard lock(mu_);
    out_ = std::move(result);
    done_ = true;
    cv_.notify_one();
  }
  EvalOutput take() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [this] { return done_; });
    return std::move(out_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  EvalOutput out_;
};

}  // namespace

SubmitOutcome AsyncBatchEvaluator::submit(const float* input, Callback cb,
                                          int tag, std::uint64_t hash) {
  return enqueue(input, std::move(cb), tag, hash, /*caller_runs=*/nullptr);
}

EvalOutput AsyncBatchEvaluator::evaluate(const float* input, int tag,
                                         std::uint64_t hash,
                                         SubmitOutcome* outcome) {
  Rendezvous rv;
  std::unique_ptr<Batch> completed;
  const SubmitOutcome how =
      enqueue(input, [&rv](EvalOutput out) { rv.deliver(std::move(out)); },
              tag, hash, &completed);
  if (outcome != nullptr) *outcome = how;
  if (completed) run_batch(std::move(completed));
  return rv.take();
}

SubmitOutcome AsyncBatchEvaluator::enqueue(
    const float* input, Callback cb, int tag, std::uint64_t hash,
    std::unique_ptr<Batch>* caller_runs) {
  APM_CHECK(cb != nullptr);
  // Request-lifetime origin on the trace clock: batch-wait and end-to-end
  // latency samples for this request are measured from here.
  const std::uint64_t t0 = obs::now_ns();
  const std::size_t isz = backend_.input_size();
  EvalCache* cache = cache_.load(std::memory_order_acquire);
  const bool hashed = cache != nullptr && hash != kNoHash;

  // Fast path: resident position. Only the cache's shard lock is touched —
  // the queue mutex never serialises cross-game cache hits (the hit
  // counter is a dedicated atomic, folded into stats() snapshots).
  if (hashed) {
    EvalOutput out;
    if (cache->lookup(hash, out)) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      hist_request_.record(obs::now_ns() - t0);
      obs::emit_instant("cache_hit", "eval", {{"lane", name_.c_str()}});
      cb(std::move(out));
      return SubmitOutcome::kCacheHit;
    }
  }

  in_flight_.fetch_add(1, std::memory_order_acq_rel);

  // Reserve a slot under the lock; copy the planes outside it. The batch
  // may dispatch (threshold crossing, below, or a concurrent flush) before
  // the copy finishes — whoever runs it waits on `ready` for stragglers.
  Batch* batch = nullptr;
  std::size_t slot = 0;
  {
    std::unique_lock lock(mutex_);
    // This arrival completed the forming batch: a blocking caller takes it
    // to run once its own slot copy has landed, else the streams get it.
    const auto complete_batch = [&] {
      if (caller_runs != nullptr) {
        *caller_runs = close_locked(DispatchReason::kThreshold);
      } else {
        dispatch_locked(lock, DispatchReason::kThreshold);
      }
    };
    if (hashed) {
      // Double-check under the queue lock: a completion inserts into the
      // cache before retiring its in-flight entry (the retire needs
      // mutex_), so a miss here *and* below means no result exists and
      // none is coming — this request must become the hash's primary.
      // Uncounted probe: the fast path already counted this request's one
      // lookup, so CacheStats rates stay per-request.
      EvalOutput out;
      if (cache->lookup(hash, out, /*count=*/false)) {
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        lock.unlock();
        hist_request_.record(obs::now_ns() - t0);
        obs::emit_instant("cache_hit", "eval", {{"lane", name_.c_str()}});
        cb(std::move(out));
        if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          std::lock_guard relock(mutex_);
          drained_cv_.notify_all();
        }
        return SubmitOutcome::kCacheHit;
      }
      auto it = inflight_waiters_.find(hash);
      if (it != inflight_waiters_.end()) {
        // Coalesce: ride the in-flight primary instead of a second slot.
        // Still counted in in_flight_, so drain() waits for the wake-up.
        it->second.waiters.push_back(std::move(cb));
        it->second.waiter_enq_ns.push_back(t0);
        ++stats_.coalesced;
        obs::emit_instant("coalesced", "eval", {{"lane", name_.c_str()}});
        // A waiter on a still-forming primary is arrived demand for that
        // batch: count it toward the dispatch threshold (not the fill
        // histogram) so duplicate-heavy traffic keeps the cache-off
        // dispatch cadence instead of stalling on the stale timer.
        if (pending_ && it->second.seq == pending_seq_) {
          ++pending_attached_;
          if (static_cast<int>(pending_->callbacks.size()) +
                  pending_attached_ >=
              threshold_) {
            complete_batch();
          }
        }
        return SubmitOutcome::kCoalesced;
      }
    }
    if (!pending_) {
      pending_ = acquire_batch_locked();
      ++pending_seq_;
    }
    if (hashed) {
      InFlight primary;
      primary.seq = pending_seq_;
      inflight_waiters_.emplace(hash, std::move(primary));
    }
    if (pending_->callbacks.empty()) {
      oldest_pending_ = std::chrono::steady_clock::now();
    }
    batch = pending_.get();
    slot = pending_->callbacks.size();
    pending_->callbacks.push_back(std::move(cb));
    pending_->hashes.push_back(hashed ? hash : kNoHash);
    pending_->enq_ns.push_back(t0);
    ++stats_.submitted;
    if (tag >= 0) {
      if (stats_.tag_slots.size() <= static_cast<std::size_t>(tag)) {
        stats_.tag_slots.resize(static_cast<std::size_t>(tag) + 1, 0);
      }
      ++stats_.tag_slots[static_cast<std::size_t>(tag)];
    } else {
      ++stats_.untagged_slots;
    }
    if (static_cast<int>(pending_->callbacks.size()) + pending_attached_ >=
        threshold_) {
      complete_batch();
    } else if (slot == 0 && stale_flush_us_ > 0.0) {
      flusher_cv_.notify_one();  // a batch opened: arm its deadline
    }
  }
  std::memcpy(batch->inputs.data() + slot * isz, input, isz * sizeof(float));
  batch->ready.fetch_add(1, std::memory_order_release);
  return SubmitOutcome::kQueued;
}

std::future<EvalOutput> AsyncBatchEvaluator::submit_future(
    const float* input, int tag, std::uint64_t hash, SubmitOutcome* outcome) {
  auto promise = std::make_shared<std::promise<EvalOutput>>();
  std::future<EvalOutput> fut = promise->get_future();
  const SubmitOutcome how = submit(
      input, [promise](EvalOutput out) { promise->set_value(std::move(out)); },
      tag, hash);
  if (outcome != nullptr) *outcome = how;
  return fut;
}

void AsyncBatchEvaluator::set_cache(EvalCache* cache) {
  APM_CHECK_MSG(cache == nullptr || stale_flush_us_ > 0.0,
                "eval cache needs the stale-flush timer: coalesced waiters "
                "slow a forming batch's fill, so threshold crossings alone "
                "cannot bound a blocked submitter's wait");
  cache_.store(cache, std::memory_order_release);
}

void AsyncBatchEvaluator::set_batch_threshold(int threshold) {
  APM_CHECK(threshold >= 1);
  std::unique_lock lock(mutex_);
  if (threshold == threshold_) return;
  // Dispatch everything formed under the OLD threshold: those buffers were
  // sized for it, and straggler copies may still be writing into them.
  // Loop: dispatch_locked() drops the lock to push, so a racing submit()
  // can install a fresh pending batch in that window.
  while (pending_ && !pending_->callbacks.empty()) {
    dispatch_locked(lock, DispatchReason::kManual);
  }
  // A leftover empty batch has no reserved slots (slots are taken under the
  // lock), so no copy is in flight — recycle it; acquire_batch_locked()
  // re-sizes its buffer for the new threshold.
  if (pending_) {
    free_batches_.push_back(std::move(pending_));
  }
  threshold_ = threshold;
}

void AsyncBatchEvaluator::flush() {
  std::unique_lock lock(mutex_);
  if (pending_ && !pending_->callbacks.empty()) {
    dispatch_locked(lock, DispatchReason::kManual);
  }
}

void AsyncBatchEvaluator::drain() {
  std::unique_lock lock(mutex_);
  for (;;) {
    // Re-flush on every pass: while we waited, a racing submitter may have
    // installed a fresh partial batch and blocked on its future — without
    // this loop that submitter (and drain) would wait forever on a batch
    // that can no longer fill.
    if (pending_ && !pending_->callbacks.empty()) {
      dispatch_locked(lock, DispatchReason::kManual);
      continue;  // dispatch_locked dropped the lock; re-check from scratch
    }
    if (in_flight_.load(std::memory_order_acquire) == 0) return;
    drained_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

BatchQueueStats AsyncBatchEvaluator::stats() const {
  std::lock_guard lock(mutex_);
  BatchQueueStats s = stats_;
  if (s.batches > 0) {
    s.mean_batch = sum_batch_sizes_ / static_cast<double>(s.batches);
  }
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  return s;
}

std::unique_ptr<AsyncBatchEvaluator::Batch>
AsyncBatchEvaluator::acquire_batch_locked() {
  std::unique_ptr<Batch> b;
  if (free_batches_.empty()) {
    b = std::make_unique<Batch>();
    b->callbacks.reserve(static_cast<std::size_t>(threshold_));
  } else {
    b = std::move(free_batches_.back());
    free_batches_.pop_back();
  }
  // Full-threshold slots up front so concurrent slot copies never resize.
  b->inputs.resize(static_cast<std::size_t>(threshold_) *
                   backend_.input_size());
  b->hashes.reserve(static_cast<std::size_t>(threshold_));
  b->enq_ns.reserve(static_cast<std::size_t>(threshold_));
  return b;
}

std::unique_ptr<AsyncBatchEvaluator::Batch> AsyncBatchEvaluator::close_locked(
    DispatchReason reason) {
  std::unique_ptr<Batch> batch = std::move(pending_);
  const int attached = pending_attached_;
  pending_attached_ = 0;  // attached waiters leave with their primaries
  ++stats_.batches;
  const std::size_t size = batch->callbacks.size();
  // Formation-wait samples (slot reservation → this dispatch) and the
  // batch_form span. The span starts at the oldest slot's enqueue, so in
  // Perfetto its width IS the formation wait the stale timer bounds.
  const std::uint64_t dispatch_ns = obs::now_ns();
  for (const std::uint64_t e : batch->enq_ns) {
    hist_batch_wait_.record(dispatch_ns >= e ? dispatch_ns - e : 0);
  }
  if (!batch->enq_ns.empty()) {
    const char* why = reason == DispatchReason::kThreshold ? "threshold"
                      : reason == DispatchReason::kStale   ? "stale"
                                                           : "manual";
    obs::emit_span("batch_form", "eval", batch->enq_ns.front(), dispatch_ns,
                   {{"size", size},
                    {"attached", attached},
                    {"reason", why},
                    {"threshold", threshold_}});
  }
  sum_batch_sizes_ += static_cast<double>(size);
  stats_.max_batch = std::max(stats_.max_batch, size);
  if (stats_.fill_histogram.size() <= size) {
    stats_.fill_histogram.resize(size + 1, 0);
  }
  ++stats_.fill_histogram[size];
  if (static_cast<int>(batch->callbacks.size()) == threshold_) {
    ++stats_.full_batches;
  }
  switch (reason) {
    case DispatchReason::kThreshold: ++stats_.threshold_dispatches; break;
    case DispatchReason::kStale: ++stats_.stale_flushes; break;
    case DispatchReason::kManual: ++stats_.manual_flushes; break;
  }
  return batch;
}

void AsyncBatchEvaluator::dispatch_locked(std::unique_lock<std::mutex>& lock,
                                          DispatchReason reason) {
  APM_CHECK_MSG(!streams_.empty(),
                "asynchronous dispatch on a queue with no stream thread");
  std::unique_ptr<Batch> batch = close_locked(reason);
  lock.unlock();
  const bool ok = batch_queue_.push(std::move(batch));
  APM_CHECK_MSG(ok, "batch queue closed while dispatching");
  lock.lock();
}

void AsyncBatchEvaluator::run_batch(std::unique_ptr<Batch> batch) {
  const int n = static_cast<int>(batch->callbacks.size());
  const auto un = static_cast<std::size_t>(n);
  // Wait for straggler slot copies (bounded by a memcpy per submitter).
  while (batch->ready.load(std::memory_order_acquire) != n) {
    std::this_thread::yield();
  }
  std::vector<EvalOutput>& outputs = batch->outputs;
  std::vector<std::vector<Callback>>& waiters = batch->waiters;
  std::vector<std::vector<std::uint64_t>>& waiter_enq = batch->waiter_enq;
  outputs.resize(un);
  const std::uint64_t eval_start = obs::now_ns();
  const double modelled_us =
      backend_.compute_batch(batch->inputs.data(), n, outputs.data());
  const std::uint64_t eval_end = obs::now_ns();
  hist_backend_.record(eval_end - eval_start);
  obs::emit_span("backend_eval", "eval", eval_start, eval_end,
                 {{"batch", n},
                  {"modelled_us", modelled_us},
                  {"lane", name_.c_str()}});
  waiters.resize(un);
  waiter_enq.resize(un);
  std::size_t released = 0;
  // Publish every result into the cache BEFORE retiring the in-flight
  // entries: a racing hashed submit() double-checks the cache and then
  // the registry under mutex_, so with inserts sequenced first it can
  // never miss both — it either hits the cache here or coalesces onto
  // the still-registered entry. The inserts themselves take only shard
  // locks; holding mutex_ across n policy-vector copies would stall
  // every submitter for the whole span.
  if (EvalCache* cache = cache_.load(std::memory_order_acquire)) {
    for (std::size_t i = 0; i < un; ++i) {
      if (batch->hashes[i] != kNoHash) {
        cache->insert(batch->hashes[i], outputs[i]);
      }
    }
  }
  {
    std::lock_guard lock(mutex_);
    stats_.modelled_backend_us += modelled_us;
    for (std::size_t i = 0; i < un; ++i) {
      const std::uint64_t h = batch->hashes[i];
      if (h == kNoHash) continue;
      // Waiters are taken regardless of the (possibly detached) cache —
      // their wake-up depends only on the registry.
      auto it = inflight_waiters_.find(h);
      if (it != inflight_waiters_.end()) {
        waiters[i] = std::move(it->second.waiters);
        waiter_enq[i] = std::move(it->second.waiter_enq_ns);
        inflight_waiters_.erase(it);
        released += waiters[i].size();
      }
    }
  }
  // End-to-end request latency (submit entry → results ready), one
  // sample per slot owner and per coalesced waiter, before callbacks so
  // caller continuation cost is excluded.
  const std::uint64_t done_ns = obs::now_ns();
  for (std::size_t i = 0; i < un; ++i) {
    const std::uint64_t e = batch->enq_ns[i];
    hist_request_.record(done_ns >= e ? done_ns - e : 0);
    for (const std::uint64_t w : waiter_enq[i]) {
      hist_request_.record(done_ns >= w ? done_ns - w : 0);
    }
  }
  // Callbacks run outside any lock (CP.22); each coalesced waiter gets
  // its own copy, the slot-owning primary consumes the original.
  for (std::size_t i = 0; i < un; ++i) {
    for (Callback& waiter : waiters[i]) {
      waiter(EvalOutput(outputs[i]));
    }
    batch->callbacks[i](std::move(outputs[i]));
  }
  {
    // Recycle the buffer for a future forming batch.
    std::lock_guard lock(mutex_);
    batch->callbacks.clear();
    batch->hashes.clear();
    batch->enq_ns.clear();
    waiters.clear();
    waiter_enq.clear();
    batch->ready.store(0, std::memory_order_relaxed);
    free_batches_.push_back(std::move(batch));
  }
  // Waiters count toward in_flight_ exactly like slot owners, so drain()
  // cannot return before every coalesced request has been woken.
  const std::size_t completed = un + released;
  if (in_flight_.fetch_sub(completed, std::memory_order_acq_rel) ==
      completed) {
    std::lock_guard lock(mutex_);
    drained_cv_.notify_all();
  }
}

void AsyncBatchEvaluator::stream_loop() {
  bool thread_named = false;
  // Watchdog heartbeat: beaten once per dispatched batch; the queue pop is
  // marked idle so a starved lane never reads as a stalled backend.
  obs::HeartbeatLease hb((name_.empty() ? std::string("eval") : name_) +
                         ".stream");
  for (;;) {
    std::optional<std::unique_ptr<Batch>> batch_opt;
    {
      obs::IdleScope idle(hb.get());
      batch_opt = batch_queue_.pop();
    }
    if (!batch_opt) break;
    // Lazy thread naming: only once tracing is (or becomes) enabled, so a
    // tracing-off process never allocates ring buffers for stream threads.
    if (!thread_named && obs::tracing_enabled()) {
      obs::set_thread_name((name_ + ".stream").c_str());
      thread_named = true;
    }
    run_batch(std::move(*batch_opt));
    hb->beat();  // one unit of progress = one backend batch
  }
}

void AsyncBatchEvaluator::flusher_loop(const std::stop_token& stop) {
  const auto stale =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::micro>(stale_flush_us_));
  const auto forming = [this] {
    return pending_ != nullptr && !pending_->callbacks.empty();
  };
  std::unique_lock lock(mutex_);
  // Sleep until a batch is forming, then until its first-slot deadline
  // unless it dispatches (or a newer batch replaces it) first.
  while (flusher_cv_.wait(lock, stop, forming)) {
    const std::uint64_t seq = pending_seq_;
    const bool left = flusher_cv_.wait_until(
        lock, stop, oldest_pending_ + stale,
        [&] { return !forming() || pending_seq_ != seq; });
    if (!left && !stop.stop_requested()) {
      dispatch_locked(lock, DispatchReason::kStale);
    }
  }
}

}  // namespace apm
