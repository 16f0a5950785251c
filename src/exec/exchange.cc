#include "src/exec/exchange.h"

#include <atomic>
#include <chrono>
#include <deque>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/exec/batch_pool.h"
#include "src/exec/sort_keys.h"
#include "src/exec/worker_pool.h"
#include "src/physical/parallel.h"
#include "src/trace/exec_profile.h"

namespace oodb {

namespace {

/// Process-wide recovery counters (per-execution counts travel on
/// ExecFaultStats). Resolved once; never freed.
struct RecoveryMetrics {
  Counter* partitions_retried;
  Counter* partitions_speculated;
  Counter* duplicate_suppressed;

  static const RecoveryMetrics& Get() {
    static const RecoveryMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      RecoveryMetrics m;
      m.partitions_retried = r.counter(
          "oodb_exec_partitions_retried_total",
          "Exchange partitions re-executed after a retryable fault.");
      m.partitions_speculated = r.counter(
          "oodb_exec_partitions_speculated_total",
          "Straggling partitions speculatively re-dispatched.");
      m.duplicate_suppressed = r.counter(
          "oodb_exec_duplicate_attempts_suppressed_total",
          "Losing partition attempts whose staged output was discarded.");
      return m;
    }();
    return m;
  }
};

/// Bounded MPSC queue of TupleBatches. Producers block when full, the
/// consumer blocks when empty; Abort() wakes everyone and makes every
/// subsequent Push/Pop fail, so a dying consumer never strands a producer
/// (and vice versa). Batches stranded in the queue by an abort are parked
/// back in the BatchPool, never leaked — the pooled-arena invariant holds
/// across cancelled and faulted queries.
class BatchQueue {
 public:
  BatchQueue(size_t capacity, int producers)
      : capacity_(capacity), producers_(producers) {}

  ~BatchQueue() {
    MutexLock lock(mu_);
    DrainToPoolLocked();
  }

  /// False when the queue was aborted; the batch is then left untouched in
  /// the caller's hands (so the caller can pool it).
  ///
  /// Wakeups are lazy: the consumer is only notified once the queue is at
  /// least half full (or by ProducerDone/Abort/Kick). Notifying on every
  /// push ping-pongs producer and consumer through the scheduler — on a
  /// machine with fewer cores than workers each notify wake-preempts the
  /// producer, costing a context-switch round trip per batch. Batching the
  /// wakeups keeps everyone correct (a non-empty queue whose producers all
  /// exit is flushed by ProducerDone; a full queue necessarily crossed the
  /// threshold) while letting each side run for several batches per slice.
  bool Push(TupleBatch&& batch) {
    UniqueLock lock(mu_);
    while (queue_.size() >= capacity_ && !abort_) not_full_.Wait(lock);
    if (abort_) return false;
    queue_.push_back(std::move(batch));
    if (queue_.size() * 2 >= capacity_) not_empty_.NotifyOne();
    return true;
  }

  /// False when every producer finished and the queue is drained, or on
  /// abort. Producers are re-woken once the queue has drained to half —
  /// the consumer never blocks while batches remain, so the threshold is
  /// always reached (see Push on why not per-pop).
  bool Pop(TupleBatch* out) {
    UniqueLock lock(mu_);
    while (queue_.empty() && producers_ != 0 && !abort_) not_empty_.Wait(lock);
    return PopLocked(out);
  }

  enum class PopResult { kBatch, kTimeout, kClosed };

  /// Pop with a bounded wait — the recovery-mode consumer loop, which must
  /// wake periodically to run straggler checks and governor ticks even
  /// when no producer has delivered anything (a hung worker must never
  /// hang the consumer past its deadline).
  PopResult PopFor(TupleBatch* out, double timeout_ms) {
    UniqueLock lock(mu_);
    // A fixed deadline (not a per-wait timeout) so spurious wakeups re-check
    // the predicate without extending the bounded wait.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(timeout_ms));
    while (queue_.empty() && producers_ != 0 && !abort_) {
      if (!not_empty_.WaitUntil(lock, deadline) && queue_.empty() &&
          producers_ != 0 && !abort_) {
        return PopResult::kTimeout;
      }
    }
    return PopLocked(out) ? PopResult::kBatch : PopResult::kClosed;
  }

  void ProducerDone() {
    MutexLock lock(mu_);
    --producers_;
    not_empty_.NotifyAll();
  }

  /// Recovery-mode end of stream: every partition delivered. Any batches
  /// still queued are drained by subsequent Pop calls, then Pop reports
  /// closed.
  void AllProducersDone() {
    MutexLock lock(mu_);
    producers_ = 0;
    not_empty_.NotifyAll();
  }

  /// Wakes the consumer regardless of the lazy-notify threshold (a small
  /// partition-atomic delivery may never half-fill the queue).
  void Kick() {
    MutexLock lock(mu_);
    not_empty_.NotifyAll();
  }

  void Abort() {
    MutexLock lock(mu_);
    abort_ = true;
    DrainToPoolLocked();
    not_full_.NotifyAll();
    not_empty_.NotifyAll();
  }

 private:
  bool PopLocked(TupleBatch* out) REQUIRES(mu_) {
    if (queue_.empty()) return false;
    *out = std::move(queue_.front());
    queue_.pop_front();
    if (queue_.size() * 2 <= capacity_) not_full_.NotifyAll();
    return true;
  }

  /// Returns every queued batch to the BatchPool. In-flight arenas must
  /// survive a mid-pipeline abort as pooled arenas, or every
  /// cancelled/faulted query leaks its queue depth in allocations. Takes the
  /// BatchPool lock under mu_ (batch_queue -> batch_pool, in rank order).
  void DrainToPoolLocked() REQUIRES(mu_) {
    while (!queue_.empty()) {
      BatchPool::Instance().Return(std::move(queue_.front()));
      queue_.pop_front();
    }
  }

  Mutex mu_{lock_rank::kBatchQueue};
  CondVar not_full_, not_empty_;
  std::deque<TupleBatch> queue_ GUARDED_BY(mu_);
  size_t capacity_;
  int producers_ GUARDED_BY(mu_);
  bool abort_ GUARDED_BY(mu_) = false;
};

class ExchangeExec : public ExecNode {
 public:
  ExchangeExec(ExecEnv env, const PlanNode& plan)
      : env_(env), plan_(&plan), codec_(plan.op.sort.keys) {}

  ~ExchangeExec() override { Shutdown(); }

  Status Open() override {
    const PlanNode& child = *plan_->children[0];
    driver_ = FindPartitionableScan(child);
    dop_ = driver_ != nullptr ? std::max(1, plan_->op.dop) : 1;
    env_.clock().cpu_s +=
        env_.timing().exchange_startup_s * static_cast<double>(dop_);
    recover_ = env_.recovery != nullptr && env_.recovery->enabled;
    merge_ = plan_->op.merge;
    if (merge_) return OpenMerge();
    // Deep (but still bounded) buffering: 16 batches per worker. Producers
    // that never hit the bound run their whole partition without a blocking
    // wait — on a machine with fewer cores than workers that turns the
    // stream into long uninterrupted runs per thread instead of a
    // block/wake ping-pong per batch, and on larger machines the extra
    // depth only relaxes backpressure.
    //
    // In recovery mode the producer count is not the end-of-stream signal
    // (attempts are dynamic: retries and speculative re-dispatches); the
    // consumer closes the queue itself once every partition has delivered.
    queue_ = std::make_unique<BatchQueue>(
        16 * static_cast<size_t>(dop_),
        recover_ ? std::numeric_limits<int>::max() : dop_);
    if (recover_) {
      OpenRecovery();
      return Status::OK();
    }
    worker_clocks_.assign(dop_, SimClock{});
    if (env_.profile != nullptr) {
      // One private profile per worker, merged at join like the clocks.
      // Workers never attribute I/O per node (store-shared counters race
      // while siblings run); their CPU deltas come off the private clock.
      worker_profiles_.clear();
      for (int w = 0; w < dop_; ++w) {
        worker_profiles_.push_back(std::make_unique<ExecProfile>());
        worker_profiles_.back()->set_io_timed(false);
      }
    }
    pending_ = dop_;
    for (int w = 0; w < dop_; ++w) {
      WorkerPool::Instance().Submit([this, w] {
        WorkerMain(w);
        MutexLock lock(pending_mu_);
        if (--pending_ == 0) pending_cv_.NotifyAll();
      });
    }
    return Status::OK();
  }

  Result<size_t> Next(TupleBatch* out) override {
    OODB_RETURN_IF_ERROR(env_.Tick());
    out->Clear();
    if (done_) return Finish();
    if (merge_) return NextMerge(out);
    if (recover_) return NextRecovery(out);
    TupleBatch batch;
    if (!queue_->Pop(&batch)) {
      done_ = true;
      return Finish();
    }
    return Deliver(out, std::move(batch));
  }

  void Close() override { Shutdown(); }

 private:
  // ------------------------- shared plumbing -------------------------

  /// Hands `batch` to the caller, pooling the arena the caller still holds
  /// from the previous Next — steady-state flow allocates nothing.
  Result<size_t> Deliver(TupleBatch* out, TupleBatch&& batch) {
    env_.clock().cpu_s += static_cast<double>(batch.size()) *
                          env_.timing().exchange_flow_tuple_s;
    BatchPool::Instance().Return(std::move(*out));
    *out = std::move(batch);
    return out->size();
  }

  ExecEnv MakeWorkerEnv(SimClock* clock, ExecProfile* profile, int partition,
                        int attempt) {
    ExecEnv wenv = env_;
    wenv.cpu_clock = clock;
    wenv.profile = profile;
    if (driver_ != nullptr && dop_ > 1) {
      wenv.partition_node = driver_;
      wenv.partition_index = partition;
      wenv.partition_count = dop_;
    }
    wenv.fault_worker = partition;
    wenv.fault_attempt = env_.fault_attempt + attempt;
    return wenv;
  }

  /// Applies an injector action to a worker pipeline: charges the simulated
  /// straggler delay to the worker's private clock, sleeps the real
  /// component, and surfaces the injected kill.
  static Status ApplyFault(const ExecFaultInjector::Action& act,
                           SimClock* clock) {
    clock->cpu_s += act.sim_delay_s;
    if (act.sleep_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(act.sleep_ms));
    }
    return act.status;
  }

  // ----------------------- streaming fast path -----------------------

  void WorkerMain(int w) {
    ExecEnv wenv = MakeWorkerEnv(
        &worker_clocks_[w],
        worker_profiles_.empty() ? nullptr : worker_profiles_[w].get(), w,
        /*attempt=*/0);
    Status status = RunWorker(wenv, w);
    if (!status.ok()) {
      {
        MutexLock lock(error_mu_);
        if (first_error_.ok()) first_error_ = status;
      }
      // Wake a consumer blocked on an emptying queue and stop siblings
      // early: with a governor the sticky trip does this anyway; without
      // one the abort is the only cross-worker stop signal.
      queue_->Abort();
    }
    queue_->ProducerDone();
  }

  Status RunWorker(const ExecEnv& wenv, int w) {
    OODB_ASSIGN_OR_RETURN(std::unique_ptr<ExecNode> node,
                          BuildExecNode(wenv, *plan_->children[0]));
    OODB_RETURN_IF_ERROR(node->Open());
    Status status = Status::OK();
    while (true) {
      TupleBatch batch =
          BatchPool::Instance().Take(wenv.num_bindings(), wenv.batch_size);
      Result<size_t> n = node->Next(&batch);
      if (!n.ok()) {
        status = n.status();
        BatchPool::Instance().Return(std::move(batch));
        break;
      }
      if (*n == 0) {
        BatchPool::Instance().Return(std::move(batch));
        break;
      }
      // Serialization point: a selection-marked batch compacts here, once,
      // before crossing the queue — consumers see contiguous rows and the
      // flow-tuple charge below stays per *live* row.
      batch.Compact();
      if (wenv.exec_faults != nullptr) {
        status = ApplyFault(
            wenv.exec_faults->OnBatchBoundary(w, wenv.fault_attempt),
            wenv.cpu_clock);
        if (status.ok()) {
          status = ApplyFault(
              wenv.exec_faults->OnPush(w, wenv.fault_attempt), wenv.cpu_clock);
        }
        if (!status.ok()) {
          BatchPool::Instance().Return(std::move(batch));
          break;
        }
      }
      if (!queue_->Push(std::move(batch))) {
        // Consumer went away (abort): the push left the batch with us.
        BatchPool::Instance().Return(std::move(batch));
        break;
      }
    }
    node->Close();
    return status;
  }

  // --------------------- order-preserving merge ----------------------
  //
  // op.merge: each worker's partition is a contiguous chunk of the driver
  // scan and the child plan sorts it (or top-k's it) locally, so every
  // per-worker stream arrives in op.sort order. Instead of the shared
  // interleaving queue, each worker pushes into its own FIFO and the
  // consumer runs a k-way merge over the stream heads — ties go to the
  // lower partition index, which together with contiguous partitioning and
  // stable per-partition sorts reproduces the *global* stable sort order
  // exactly. op.limit > 0 stops the merge after k rows (each producer was
  // already limited to k by its local TopK; the merge re-truncates the
  // union).
  //
  // Fault recovery composes differently here: staged partition-atomic
  // delivery into a shared queue would lose stream identity, so a merge
  // worker retries its own partition inline (fresh pipeline per attempt,
  // staging batches until the attempt succeeds) and only then publishes to
  // its queue. Straggler speculation is not applied to merge exchanges.

  struct MergeCursor {
    TupleBatch batch;
    size_t pos = 0;
    bool open = false;       ///< batch holds rows (pos < batch.size())
    bool exhausted = false;  ///< stream closed and drained
    /// Encoded sort keys of the current row (SortKeyCodec) and whether
    /// they are exact.
    std::vector<uint64_t> keys;
    bool exact = true;

    EncodedRow head() const {
      return EncodedRow{keys.data(), exact, batch.ref(pos)};
    }
  };

  Status OpenMerge() {
    queues_.clear();
    for (int w = 0; w < dop_; ++w) {
      queues_.push_back(std::make_unique<BatchQueue>(16, /*producers=*/1));
    }
    cursors_ = std::vector<MergeCursor>(static_cast<size_t>(dop_));
    worker_clocks_.assign(dop_, SimClock{});
    if (env_.profile != nullptr) {
      worker_profiles_.clear();
      for (int w = 0; w < dop_; ++w) {
        worker_profiles_.push_back(std::make_unique<ExecProfile>());
        worker_profiles_.back()->set_io_timed(false);
      }
      env_.profile->Register(plan_)->merge_streams = dop_;
    }
    pending_ = dop_;
    for (int w = 0; w < dop_; ++w) {
      WorkerPool::Instance().Submit([this, w] {
        MergeWorkerMain(w);
        MutexLock lock(pending_mu_);
        if (--pending_ == 0) pending_cv_.NotifyAll();
      });
    }
    return Status::OK();
  }

  void MergeWorkerMain(int w) {
    BatchQueue* queue = queues_[static_cast<size_t>(w)].get();
    Status status;
    int attempt = 0;
    while (true) {
      ExecEnv wenv = MakeWorkerEnv(
          &worker_clocks_[w],
          worker_profiles_.empty() ? nullptr : worker_profiles_[w].get(), w,
          attempt);
      if (!worker_profiles_.empty() && attempt > 0) {
        // Fresh profile per attempt: only the successful attempt's counters
        // survive, so ANALYZE reflects delivered rows, not failed tries.
        worker_profiles_[w] = std::make_unique<ExecProfile>();
        worker_profiles_[w]->set_io_timed(false);
        wenv.profile = worker_profiles_[w].get();
      }
      status = recover_ ? RunMergeWorkerStaged(wenv, w, queue)
                        : RunMergeWorkerStreaming(wenv, w, queue);
      if (status.ok()) break;
      if (recover_ && IsRetryableExecFault(status.code()) &&
          attempt + 1 < env_.recovery->max_partition_attempts &&
          ChargeRetryBudget().ok()) {
        ++attempt;
        if (env_.fault_stats != nullptr) {
          env_.fault_stats->partitions_retried.fetch_add(
              1, std::memory_order_relaxed);
        }
        RecoveryMetrics::Get().partitions_retried->Increment();
        continue;
      }
      {
        MutexLock lock(error_mu_);
        if (first_error_.ok()) first_error_ = status;
      }
      AbortAllQueues();
      break;
    }
    queue->ProducerDone();
  }

  /// One streaming pass over the worker's partition into its own queue
  /// (recovery off: a fault surfaces to the consumer, as on the fast path).
  Status RunMergeWorkerStreaming(const ExecEnv& wenv, int w,
                                 BatchQueue* queue) {
    OODB_ASSIGN_OR_RETURN(std::unique_ptr<ExecNode> node,
                          BuildExecNode(wenv, *plan_->children[0]));
    OODB_RETURN_IF_ERROR(node->Open());
    Status status = Status::OK();
    while (true) {
      TupleBatch batch =
          BatchPool::Instance().Take(wenv.num_bindings(), wenv.batch_size);
      Result<size_t> n = node->Next(&batch);
      if (!n.ok() || *n == 0) {
        if (!n.ok()) status = n.status();
        BatchPool::Instance().Return(std::move(batch));
        break;
      }
      batch.Compact();
      if (wenv.exec_faults != nullptr) {
        status = ApplyFault(
            wenv.exec_faults->OnBatchBoundary(w, wenv.fault_attempt),
            wenv.cpu_clock);
        if (status.ok()) {
          status = ApplyFault(wenv.exec_faults->OnPush(w, wenv.fault_attempt),
                              wenv.cpu_clock);
        }
        if (!status.ok()) {
          BatchPool::Instance().Return(std::move(batch));
          break;
        }
      }
      if (!queue->Push(std::move(batch))) {
        BatchPool::Instance().Return(std::move(batch));
        break;
      }
    }
    node->Close();
    return status;
  }

  /// One attempt of the worker's partition, staged: batches publish to the
  /// queue only after the whole partition succeeded, so an inline retry
  /// after a mid-stream fault cannot duplicate rows in the stream.
  Status RunMergeWorkerStaged(const ExecEnv& wenv, int w, BatchQueue* queue) {
    OODB_ASSIGN_OR_RETURN(std::unique_ptr<ExecNode> node,
                          BuildExecNode(wenv, *plan_->children[0]));
    Status status = node->Open();
    std::vector<TupleBatch> staged;
    while (status.ok()) {
      TupleBatch batch =
          BatchPool::Instance().Take(wenv.num_bindings(), wenv.batch_size);
      Result<size_t> n = node->Next(&batch);
      if (!n.ok() || *n == 0) {
        if (!n.ok()) status = n.status();
        BatchPool::Instance().Return(std::move(batch));
        break;
      }
      batch.Compact();
      if (wenv.exec_faults != nullptr) {
        status = ApplyFault(
            wenv.exec_faults->OnBatchBoundary(w, wenv.fault_attempt),
            wenv.cpu_clock);
        if (status.ok()) {
          status = ApplyFault(wenv.exec_faults->OnPush(w, wenv.fault_attempt),
                              wenv.cpu_clock);
        }
        if (!status.ok()) {
          BatchPool::Instance().Return(std::move(batch));
          break;
        }
      }
      staged.push_back(std::move(batch));
    }
    node->Close();
    if (status.ok()) {
      for (TupleBatch& b : staged) {
        if (!queue->Push(std::move(b))) {
          BatchPool::Instance().Return(std::move(b));
        }
      }
    } else {
      for (TupleBatch& b : staged) BatchPool::Instance().Return(std::move(b));
    }
    return status;
  }

  /// Advances cursor `w` to its next row, blocking on the worker's queue at
  /// batch boundaries; refreshes the cached sort keys.
  Status AdvanceCursor(int w) {
    MergeCursor& c = cursors_[static_cast<size_t>(w)];
    if (c.open) ++c.pos;
    while (!c.exhausted && (!c.open || c.pos >= c.batch.size())) {
      TupleBatch next;
      if (queues_[static_cast<size_t>(w)]->Pop(&next)) {
        if (c.open) BatchPool::Instance().Return(std::move(c.batch));
        c.batch = std::move(next);
        c.pos = 0;
        c.open = c.batch.size() > 0;
      } else {
        if (c.open) BatchPool::Instance().Return(std::move(c.batch));
        c.open = false;
        c.exhausted = true;
      }
    }
    if (c.exhausted) return Status::OK();
    c.keys.resize(codec_.size());
    OODB_ASSIGN_OR_RETURN(c.exact, codec_.Encode(c.batch.ref(c.pos),
                                                  *env_.ctx, c.keys.data()));
    return Status::OK();
  }

  Result<size_t> NextMerge(TupleBatch* out) {
    if (!merge_primed_) {
      merge_primed_ = true;
      for (int w = 0; w < dop_; ++w) {
        cursors_[static_cast<size_t>(w)].pos = 0;
        OODB_RETURN_IF_ERROR(AdvanceCursor(w));
      }
    }
    const size_t nkeys = codec_.size();
    const int64_t limit = plan_->op.limit;
    const double row_cpu_s =
        env_.timing().exchange_flow_tuple_s +
        Log2Ceil(dop_) * env_.timing().cpu_pred_s;
    while (!out->full()) {
      if (limit > 0 && merge_emitted_ >= limit) break;
      // Linear tournament over the stream heads: strictly-less replaces the
      // running best, so equal keys keep the lowest partition index.
      int best = -1;
      for (int w = 0; w < dop_; ++w) {
        const MergeCursor& c = cursors_[static_cast<size_t>(w)];
        if (c.exhausted) continue;
        if (best < 0) {
          best = w;
          continue;
        }
        const MergeCursor& b = cursors_[static_cast<size_t>(best)];
        if (codec_.Compare(c.head(), b.head(), 0, nkeys) < 0) best = w;
      }
      if (best < 0) break;  // every stream drained
      MergeCursor& c = cursors_[static_cast<size_t>(best)];
      out->AppendRowRaw().CopyFrom(c.batch.ref(c.pos));
      env_.clock().cpu_s += row_cpu_s;
      ++merge_emitted_;
      OODB_RETURN_IF_ERROR(AdvanceCursor(best));
    }
    if (out->size() > 0) return out->size();
    // End of stream: the limit was reached or every stream drained. Workers
    // still producing past a reached limit are cut loose by the abort.
    if (limit > 0 && merge_emitted_ >= limit) AbortAllQueues();
    done_ = true;
    return Finish();
  }

  static double Log2Ceil(int n) {
    double log = 1.0;
    while ((1 << static_cast<int>(log)) < std::max(n, 2)) log += 1.0;
    return log;
  }

  void AbortAllQueues() {
    for (std::unique_ptr<BatchQueue>& q : queues_) q->Abort();
  }

  // ------------------------- recovery mode ---------------------------
  //
  // Partition-atomic delivery: each attempt stages its whole chunk's
  // batches locally and publishes them only after the chunk succeeded,
  // under a per-partition winner claim. A failed attempt therefore
  // contributed nothing downstream — re-executing its chunk (legal because
  // scan partitions are side-effect-free over the read-only store) cannot
  // duplicate or lose rows. Stragglers are speculatively re-dispatched
  // (first result wins); the loser's staged output is discarded, and the
  // winner-claim asserts exactly-once delivery per partition.

  struct PartitionState {
    int attempts_started = 0;
    bool winner_claimed = false;
    bool delivered = false;
    bool speculated = false;
    Status last_error;
    std::chrono::steady_clock::time_point dispatched_at;
  };

  struct Attempt {
    int partition = 0;
    int attempt = 0;
    bool won = false;
    SimClock clock;
    std::unique_ptr<ExecProfile> profile;
  };

  void OpenRecovery() {
    MutexLock lock(part_mu_);
    parts_.assign(static_cast<size_t>(dop_), PartitionState{});
    for (int p = 0; p < dop_; ++p) DispatchLocked(p, /*speculative=*/false);
  }

  /// Launches the next attempt of partition `p`.
  void DispatchLocked(int p, bool speculative) REQUIRES(part_mu_) {
    PartitionState& ps = parts_[static_cast<size_t>(p)];
    int attempt = ps.attempts_started++;
    ps.dispatched_at = std::chrono::steady_clock::now();
    attempts_.emplace_back();
    Attempt* at = &attempts_.back();  // deque: stable across later growth
    at->partition = p;
    at->attempt = attempt;
    if (env_.profile != nullptr) {
      at->profile = std::make_unique<ExecProfile>();
      at->profile->set_io_timed(false);
    }
    if (speculative) {
      ps.speculated = true;
      if (env_.fault_stats != nullptr) {
        env_.fault_stats->partitions_speculated.fetch_add(
            1, std::memory_order_relaxed);
      }
      RecoveryMetrics::Get().partitions_speculated->Increment();
    }
    {
      MutexLock plock(pending_mu_);
      ++pending_;
    }
    WorkerPool::Instance().Submit([this, at] {
      RunAttempt(*at);
      MutexLock plock(pending_mu_);
      if (--pending_ == 0) pending_cv_.NotifyAll();
    });
  }

  void RunAttempt(Attempt& at) {
    ExecEnv wenv =
        MakeWorkerEnv(&at.clock, at.profile.get(), at.partition, at.attempt);
    std::vector<TupleBatch> staged;
    Status status = RunPartition(wenv, at, &staged);

    bool deliver = false;
    if (status.ok()) {
      MutexLock lock(part_mu_);
      PartitionState& ps = parts_[static_cast<size_t>(at.partition)];
      // The winner claim is the exactly-once gate: the first successful
      // attempt of a partition delivers, every other one (a speculative
      // rival, a retry racing a slow original) is suppressed wholesale.
      if (!ps.winner_claimed && !shutdown_) {
        ps.winner_claimed = true;
        at.won = true;
        deliver = true;
      }
    }

    if (deliver) {
      bool pushed = true;
      for (TupleBatch& b : staged) {
        if (pushed && queue_->Push(std::move(b))) continue;
        pushed = false;
        BatchPool::Instance().Return(std::move(b));
      }
      staged.clear();
      bool duplicate = false;
      {
        MutexLock lock(part_mu_);
        PartitionState& ps = parts_[static_cast<size_t>(at.partition)];
        // Delivery invariant (duplicate suppression): a partition is
        // delivered at most once. A second delivery would mean duplicated
        // rows downstream — surface it as a hard internal error rather than
        // silently corrupt results.
        if (ps.delivered) {
          duplicate = true;
        } else {
          ps.delivered = true;
          ++delivered_count_;
        }
      }
      if (duplicate) {
        // Record the error and abort with no lock held across the queue /
        // pool acquisitions the abort makes.
        {
          MutexLock elock(error_mu_);
          if (first_error_.ok()) {
            first_error_ = Status::Internal(
                "exchange recovery: partition " +
                std::to_string(at.partition) + " delivered twice");
          }
        }
        queue_->Abort();
        return;
      }
      queue_->Kick();
      return;
    }

    // Losing or failed attempt: its staged output is suppressed entirely.
    if (!staged.empty()) {
      RecoveryMetrics::Get().duplicate_suppressed->Increment();
    }
    for (TupleBatch& b : staged) BatchPool::Instance().Return(std::move(b));
    staged.clear();
    if (status.ok()) return;  // lost the race; the winner delivered

    MutexLock lock(part_mu_);
    PartitionState& ps = parts_[static_cast<size_t>(at.partition)];
    ps.last_error = status;
    if (ps.winner_claimed || shutdown_) return;
    if (IsRetryableExecFault(status.code()) &&
        ps.attempts_started < env_.recovery->max_partition_attempts &&
        ChargeRetryBudget().ok()) {
      if (env_.fault_stats != nullptr) {
        env_.fault_stats->partitions_retried.fetch_add(
            1, std::memory_order_relaxed);
      }
      RecoveryMetrics::Get().partitions_retried->Increment();
      DispatchLocked(at.partition, /*speculative=*/false);
      return;
    }
    // Terminal: no recovery path left for this partition. Surface the
    // first error and drain the pipeline.
    {
      MutexLock elock(error_mu_);
      if (first_error_.ok()) first_error_ = status;
    }
    queue_->Abort();
  }

  Status ChargeRetryBudget() {
    if (env_.governor == nullptr) return Status::OK();
    return env_.governor->ChargeRetry();
  }

  Status RunPartition(const ExecEnv& wenv, const Attempt& at,
                      std::vector<TupleBatch>* staged) {
    OODB_ASSIGN_OR_RETURN(std::unique_ptr<ExecNode> node,
                          BuildExecNode(wenv, *plan_->children[0]));
    Status status = node->Open();
    while (status.ok()) {
      // A rival attempt already won this partition, or the exchange is
      // shutting down: stop early and discard. Keeps a superseded
      // straggler from burning a pool thread for the rest of its chunk.
      {
        MutexLock lock(part_mu_);
        const PartitionState& ps = parts_[static_cast<size_t>(at.partition)];
        if (shutdown_ || ps.winner_claimed) {
          status = Status::Cancelled("partition attempt superseded");
          break;
        }
      }
      TupleBatch batch =
          BatchPool::Instance().Take(wenv.num_bindings(), wenv.batch_size);
      Result<size_t> n = node->Next(&batch);
      if (!n.ok()) {
        status = n.status();
        BatchPool::Instance().Return(std::move(batch));
        break;
      }
      if (*n == 0) {
        BatchPool::Instance().Return(std::move(batch));
        break;
      }
      batch.Compact();
      if (wenv.exec_faults != nullptr) {
        status = ApplyFault(wenv.exec_faults->OnBatchBoundary(
                                at.partition, wenv.fault_attempt),
                            wenv.cpu_clock);
        if (status.ok()) {
          status =
              ApplyFault(wenv.exec_faults->OnPush(at.partition,
                                                  wenv.fault_attempt),
                         wenv.cpu_clock);
        }
        if (!status.ok()) {
          BatchPool::Instance().Return(std::move(batch));
          break;
        }
      }
      staged->push_back(std::move(batch));
    }
    node->Close();
    return status;
  }

  Result<size_t> NextRecovery(TupleBatch* out) {
    const double interval =
        env_.recovery->check_interval_ms > 0.0
            ? env_.recovery->check_interval_ms
            : 10.0;
    while (true) {
      TupleBatch batch;
      BatchQueue::PopResult r = queue_->PopFor(&batch, interval);
      if (r == BatchQueue::PopResult::kBatch) {
        return Deliver(out, std::move(batch));
      }
      if (r == BatchQueue::PopResult::kClosed) {
        done_ = true;
        return Finish();
      }
      // Timeout tick: bound a hung pipeline by the governor deadline, then
      // check for end of stream and stragglers.
      OODB_RETURN_IF_ERROR(env_.Tick());
      bool all_delivered = false;
      {
        MutexLock lock(part_mu_);
        all_delivered = delivered_count_ == dop_;
        if (!all_delivered) CheckStragglersLocked();
      }
      if (all_delivered) {
        // Winners set `delivered` only after their last push, so once every
        // partition reports delivered the queue holds the complete residue;
        // closing it lets Pop drain then report end of stream.
        queue_->AllProducersDone();
      }
    }
  }

  /// Speculative re-dispatch of straggling partitions: a partition not
  /// delivered within straggler_threshold * governor-deadline of its last
  /// dispatch gets one rival attempt of the same chunk (first result wins).
  void CheckStragglersLocked() REQUIRES(part_mu_) {
    if (env_.recovery->straggler_threshold <= 0.0 ||
        env_.governor == nullptr) {
      return;
    }
    double deadline_ms = env_.governor->options().deadline_ms;
    if (deadline_ms <= 0.0) return;
    double threshold_ms = env_.recovery->straggler_threshold * deadline_ms;
    auto now = std::chrono::steady_clock::now();
    for (int p = 0; p < dop_; ++p) {
      PartitionState& ps = parts_[static_cast<size_t>(p)];
      if (ps.winner_claimed || ps.speculated ||
          ps.attempts_started >= env_.recovery->max_partition_attempts) {
        continue;
      }
      double waited_ms =
          std::chrono::duration<double, std::milli>(now - ps.dispatched_at)
              .count();
      if (waited_ms < threshold_ms) continue;
      if (!ChargeRetryBudget().ok()) return;
      DispatchLocked(p, /*speculative=*/true);
    }
  }

  // --------------------------- join/close ----------------------------

  /// Waits for the workers (once), merges their private clocks, and reports
  /// the first worker error — or a clean end of stream.
  Result<size_t> Finish() {
    JoinWorkers();
    MutexLock lock(error_mu_);
    if (!first_error_.ok()) return first_error_;
    return static_cast<size_t>(0);
  }

  void JoinWorkers() {
    if (joined_) return;
    joined_ = true;
    {
      UniqueLock lock(pending_mu_);
      while (pending_ != 0) pending_cv_.Wait(lock);
    }
    if (recover_ && !merge_) {
      JoinRecovery();
      return;
    }
    for (const SimClock& c : worker_clocks_) {
      env_.store->clock().MergeFrom(c);
    }
    if (env_.profile != nullptr) {
      // Workers are joined: their profiles are quiescent and the wait above
      // ordered their writes before these reads. Fold per-node counters
      // into the consumer's profile and record per-worker utilization on
      // this Exchange node.
      const PlanNode* child = plan_->children[0].get();
      for (size_t w = 0; w < worker_profiles_.size(); ++w) {
        const OpProfile* root = worker_profiles_[w]->Find(child);
        WorkerUtilization u;
        u.worker = static_cast<int>(w);
        u.rows = root != nullptr ? root->rows : 0;
        u.cpu_s = worker_clocks_[w].cpu_s;
        env_.profile->AddWorker(plan_, u);
        env_.profile->MergeFrom(*worker_profiles_[w]);
      }
    }
  }

  void JoinRecovery() {
    // All attempts joined (pending_ == 0): attempts_ and parts_ are
    // quiescent. The lock is uncontended here and keeps the reads visible
    // to the analysis instead of relying on the quiescence argument alone.
    // Every attempt's clock merges — work done by losing speculative rivals
    // and failed attempts was really done — while only winning attempts
    // contribute profiles, so ANALYZE row counts reflect delivered results,
    // not suppressed duplicates.
    MutexLock lock(part_mu_);
    const PlanNode* child = plan_->children[0].get();
    for (const Attempt& at : attempts_) {
      env_.store->clock().MergeFrom(at.clock);
      if (!at.won || env_.profile == nullptr || at.profile == nullptr) {
        continue;
      }
      const OpProfile* root = at.profile->Find(child);
      WorkerUtilization u;
      u.worker = at.partition;
      u.rows = root != nullptr ? root->rows : 0;
      u.cpu_s = at.clock.cpu_s;
      env_.profile->AddWorker(plan_, u);
      env_.profile->MergeFrom(*at.profile);
    }
    if (env_.profile != nullptr && env_.fault_stats != nullptr) {
      env_.profile->AddRecovery(
          env_.fault_stats->partitions_retried.load(std::memory_order_relaxed),
          env_.fault_stats->partitions_speculated.load(
              std::memory_order_relaxed));
    }
  }

  void Shutdown() {
    if (recover_ && !merge_) {
      MutexLock lock(part_mu_);
      shutdown_ = true;  // running attempts exit at their next boundary
    }
    if (!joined_) {
      if (queue_ != nullptr) queue_->Abort();
      AbortAllQueues();
    }
    JoinWorkers();
  }

  ExecEnv env_;
  const PlanNode* plan_;
  SortKeyCodec codec_;  ///< merge order (merge mode only)
  const PlanNode* driver_ = nullptr;
  int dop_ = 1;
  bool recover_ = false;
  bool merge_ = false;
  std::unique_ptr<BatchQueue> queue_;
  // Merge-mode state (consumer thread only, except the queues):
  std::vector<std::unique_ptr<BatchQueue>> queues_;  ///< one FIFO per worker
  std::vector<MergeCursor> cursors_;
  bool merge_primed_ = false;
  int64_t merge_emitted_ = 0;
  Mutex pending_mu_{lock_rank::kExchangePending};
  CondVar pending_cv_;
  int pending_ GUARDED_BY(pending_mu_) = 0;
  std::vector<SimClock> worker_clocks_;
  std::vector<std::unique_ptr<ExecProfile>> worker_profiles_;
  /// Acquired before error_mu_ / pending_mu_ / the queue's lock (rank
  /// kExchangePartition is the outermost of the exchange's three).
  Mutex part_mu_{lock_rank::kExchangePartition};
  std::vector<PartitionState> parts_ GUARDED_BY(part_mu_);
  std::deque<Attempt> attempts_ GUARDED_BY(part_mu_);
  int delivered_count_ GUARDED_BY(part_mu_) = 0;
  bool shutdown_ GUARDED_BY(part_mu_) = false;
  Mutex error_mu_{lock_rank::kExchangeError};
  Status first_error_ GUARDED_BY(error_mu_);
  bool done_ = false;
  bool joined_ = false;
};

}  // namespace

Result<std::unique_ptr<ExecNode>> MakeExchangeExec(const ExecEnv& env,
                                                   const PlanNode& plan) {
  if (plan.children.size() != 1) {
    return Status::Internal("exchange requires exactly one child");
  }
  return std::unique_ptr<ExecNode>(new ExchangeExec(env, plan));
}

}  // namespace oodb
