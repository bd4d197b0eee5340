#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <iterator>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace moteur {

/// Multi-producer single-consumer queue: the conduit carrying backend
/// completions from worker threads into one engine shard's event loop.
/// Producers push from any thread; the single consumer drains in batches
/// (one lock acquisition swaps every queued item out) and can block with an
/// optional deadline so the shard's timer wheel keeps firing while the queue
/// is idle.
///
/// Per-producer FIFO: two items pushed by the same thread are drained in
/// push order. Items from different producers interleave arbitrarily —
/// exactly the guarantee the enactment core needs, since each run's
/// completions already funnel through one shard.
template <typename T>
class MpscQueue {
 public:
  /// Producer side. Thread-safe.
  void push(T value) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      items_.push_back(std::move(value));
    }
    cv_.notify_one();
  }

  /// Wake a consumer blocked in wait() without delivering an item — used to
  /// interrupt a shard so it re-evaluates its done() predicate. Thread-safe.
  void notify() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      wake_ = true;
    }
    cv_.notify_one();
  }

  /// Consumer side: move every queued item to the end of `out`, in queue
  /// order, returning how many arrived. Never blocks. An empty `out` is
  /// swapped with the queue's storage, so a consumer that drains into a
  /// cleared vector hands its capacity back to the producers and neither
  /// side allocates once both buffers have grown; a non-empty `out` is
  /// appended to.
  std::size_t drain(std::vector<T>& out) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t n = items_.size();
    if (out.empty()) {
      out.swap(items_);
    } else {
      std::move(items_.begin(), items_.end(), std::back_inserter(out));
      items_.clear();
    }
    return n;
  }

  /// Consumer side: block until an item or a notify() arrives, or until
  /// `deadline` passes (no deadline = wait indefinitely). Returns true when
  /// woken by an item or notify(), false on deadline expiry. Consumes the
  /// wake flag; drain() afterwards to collect whatever arrived.
  bool wait(const std::optional<std::chrono::steady_clock::time_point>& deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    const auto ready = [this] { return wake_ || !items_.empty(); };
    bool woken = true;
    if (deadline) {
      woken = cv_.wait_until(lock, *deadline, ready);
    } else {
      cv_.wait(lock, ready);
    }
    wake_ = false;
    return woken;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  bool empty() const { return size() == 0; }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<T> items_;
  bool wake_ = false;
};

}  // namespace moteur
