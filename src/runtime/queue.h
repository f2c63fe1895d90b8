// Bounded MPMC queue with admission control and micro-batch draining — the
// spine of the inference runtime.
//
// Producers call push_all(), which REJECTS (kFull) when the items do not fit
// instead of blocking: admission control pushes backpressure to the client
// rather than letting latency grow without bound. A single request pushes a
// span of one; a K-view group pushes K items all-or-nothing. Consumers call
// pop_batch(), which blocks for the first item, then keeps gathering until
// either `max_items` are in hand or `max_wait` has elapsed since the batch
// opened — the dynamic micro-batching rule (close at size OR deadline,
// whichever first).
//
// A consumer polls before it sleeps: it spins (lock released, reading the
// atomic size) for a short bounded window first, both for the first item
// and for each later item of the open batch, and only then blocks on the
// condition variable. On a virtual machine a blocked thread lets its vCPU
// halt, and waking a halted vCPU is a round trip through the host
// scheduler; under host contention that wake-up costs far more than the
// short wait it ends, and its cost varies with the host's load. Spinning is
// skipped on a single-CPU host, where it would only delay the producer.
//
// Storage is a fixed ring buffer sized at construction (capacity slots, no
// per-push node allocation), and pop_batch has an overload draining into a
// caller-owned vector — together these keep the queue off the steady-state
// heap: a worker reuses one batch vector across its whole life.
//
// close() starts a graceful shutdown: pushes fail from then on, but pops
// continue to drain whatever was admitted; pop_batch returns empty only once
// the queue is closed AND empty, which is the consumer's signal to exit.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "tensor/tensor.h"

namespace itask::runtime {

/// Why a push was (or was not) admitted — "full" is transient backpressure,
/// "closed" is terminal shutdown; callers surface the two differently.
enum class PushResult { kOk, kFull, kClosed };

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(int64_t capacity)
      : capacity_(capacity), slots_(checked_capacity(capacity)) {}

  /// The one producer entry, all-or-nothing: either every item is admitted
  /// under one lock acquisition (so views of one group are contiguous and no
  /// interleaved producer can split them past capacity), or none is, `items`
  /// is left untouched and the result says whether full or closed refused
  /// them. A partial group in flight with its siblings rejected would burn
  /// worker time on views whose gather can never complete — this rules that
  /// state out by construction.
  PushResult push_all(std::span<T> items) {
    ITASK_CHECK(!items.empty(), "BoundedQueue: push_all needs >= 1 item");
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return PushResult::kClosed;
      if (size_ + static_cast<int64_t>(items.size()) > capacity_)
        return PushResult::kFull;
      for (T& item : items) {
        slots_[static_cast<size_t>((head_ + size_) % capacity_)] =
            std::move(item);
        ++size_;
      }
    }
    // One item needs one consumer; a group may feed several.
    if (items.size() == 1) {
      ready_.notify_one();
    } else {
      ready_.notify_all();
    }
    return PushResult::kOk;
  }

  /// Drains one micro-batch: blocks until an item arrives (or the queue
  /// closes), then gathers up to `max_items`, waiting at most `max_wait`
  /// after the first item before closing the batch. Returns an empty vector
  /// only when the queue is closed and fully drained.
  std::vector<T> pop_batch(int64_t max_items,
                           std::chrono::microseconds max_wait) {
    std::vector<T> batch;
    pop_batch(max_items, max_wait, batch);
    return batch;
  }

  /// Same, draining into `batch` (cleared first). The runtime workers use
  /// this with a long-lived per-worker vector, so steady-state pops reuse
  /// its capacity instead of allocating a fresh vector per micro-batch.
  void pop_batch(int64_t max_items, std::chrono::microseconds max_wait,
                 std::vector<T>& batch) {
    ITASK_CHECK(max_items >= 1, "BoundedQueue: max_items must be >= 1");
    batch.clear();
    spin_until(std::chrono::steady_clock::now() + kIdleSpin);
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [&] { return size_ > 0 || closed_; });
    if (size_ == 0) return;  // closed and drained
    const auto deadline = std::chrono::steady_clock::now() + max_wait;
    while (static_cast<int64_t>(batch.size()) < max_items) {
      if (size_ > 0) {
        T& slot = slots_[static_cast<size_t>(head_)];
        batch.push_back(std::move(slot));
        // Reset the popped slot immediately: a moved-from T is only "valid
        // but unspecified" and may keep hold of whatever resources the move
        // left behind (request image buffers, promise state), pinning up to
        // `capacity` of them while the queue idles. Releasing here makes
        // pop — not the next push that happens to land on this slot — the
        // moment a request's resources die.
        slot = T{};
        head_ = (head_ + 1) % capacity_;
        --size_;
        continue;
      }
      if (closed_) break;
      lock.unlock();
      spin_until(std::min(deadline,
                          std::chrono::steady_clock::now() + kGatherSpin));
      lock.lock();
      if (size_ > 0 || closed_) continue;
      if (ready_.wait_until(lock, deadline,
                            [&] { return size_ > 0 || closed_; })) {
        continue;  // new item (or closed); loop decides
      }
      break;  // deadline passed with the batch still open
    }
  }

  /// Stops admission; consumers drain the remainder. Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  int64_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return size_;
  }

 private:
  /// How long an idle consumer polls for the first item before it blocks.
  static constexpr std::chrono::microseconds kIdleSpin{200};
  /// How long a consumer with an open batch polls for its next item before
  /// it blocks for the rest of `max_wait`.
  static constexpr std::chrono::microseconds kGatherSpin{1000};

  /// Polls until an item is queued, the queue closes or `until` passes.
  /// Called without the lock; the caller re-checks under it.
  void spin_until(std::chrono::steady_clock::time_point until) const {
    static const bool multi_cpu = std::thread::hardware_concurrency() > 1;
    if (!multi_cpu) return;
    while (size_.load(std::memory_order_relaxed) == 0 &&
           !closed_.load(std::memory_order_relaxed) &&
           std::chrono::steady_clock::now() < until) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }

  static size_t checked_capacity(int64_t capacity) {
    ITASK_CHECK(capacity >= 1, "BoundedQueue: capacity must be >= 1");
    return static_cast<size_t>(capacity);
  }

  const int64_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  /// Fixed ring of default-constructed slots; [head_, head_+size_) mod
  /// capacity_ are live. pop_batch resets a slot to T{} right after moving
  /// it out, so a popped slot never pins the moved-from shell's resources
  /// until a later push overwrites it (BoundedQueue.PopReleasesSlot…).
  std::vector<T> slots_;
  int64_t head_ = 0;
  // Written only under mutex_; atomic so spin_until may poll them without it.
  std::atomic<int64_t> size_{0};
  std::atomic<bool> closed_{false};
};

}  // namespace itask::runtime
