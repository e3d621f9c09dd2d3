// Thread-safety helpers shared by the serving layer.
//
// The standard library covers most of what the server needs (std::mutex,
// std::jthread, std::latch); what it does not give us portably is a counting
// semaphore with a *non-blocking* acquire that reports failure — the exact
// shape admission control wants: "take a session slot if one is free,
// otherwise reject the connection right now". std::counting_semaphore's
// try_acquire is allowed to fail spuriously, which would reject connections
// with free slots; this one never does.
//
// The second gap is cooperative cancellation with deadlines (ISSUE 7):
// std::stop_token carries no deadline and cannot be re-armed per request, so
// one session would need a fresh stop_source per query. CancellationToken is
// a shared-state handle polled by the MapReduce task loops at split
// boundaries; one token lives as long as its session, the server cancels it
// on drain, and the session re-arms the deadline around each request. All
// state is in std::atomic (TSan-clean by construction): the poll path is one
// pointer test for an inert token, two relaxed-ish atomic loads for an armed
// one.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "src/common/error.hpp"

namespace mrsky::common {

/// A point on the steady clock a piece of work must not run past. A
/// default-constructed Deadline is "none" (never expires); after_ms(0) is
/// already expired — the deterministic way to say "fail this request now",
/// which the chaos tests lean on.
class Deadline {
 public:
  Deadline() = default;  ///< no deadline

  /// Expires `ms` from now (ms <= 0: already expired).
  [[nodiscard]] static Deadline after_ms(std::int64_t ms) {
    Deadline d;
    d.at_ns_ = now_ns() + (ms > 0 ? ms * 1'000'000 : 0);
    return d;
  }

  /// True when a deadline is set at all.
  [[nodiscard]] bool engaged() const noexcept { return at_ns_ != kNone; }

  [[nodiscard]] bool expired() const noexcept { return engaged() && now_ns() >= at_ns_; }

  /// Milliseconds until expiry (clamped at 0; max when no deadline is set).
  [[nodiscard]] std::int64_t remaining_ms() const noexcept {
    if (!engaged()) return std::numeric_limits<std::int64_t>::max();
    const std::int64_t left = at_ns_ - now_ns();
    return left > 0 ? left / 1'000'000 : 0;
  }

  /// Steady-clock expiry in ns since the clock's epoch (kNone = no deadline).
  [[nodiscard]] std::int64_t raw_ns() const noexcept { return at_ns_; }

  static constexpr std::int64_t kNone = std::numeric_limits<std::int64_t>::max();

  [[nodiscard]] static std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  std::int64_t at_ns_ = kNone;
};

/// Why (whether) cooperatively running work should stop.
enum class StopReason {
  kNone,      ///< keep going
  kCancelled, ///< request_cancel() was called
  kDeadline,  ///< the deadline passed
};

/// Cooperative cancellation handle. Copies share state (shared_ptr), so the
/// server, the session and every pipeline task polling mid-query all observe
/// the same flag. A default-constructed token is INERT: it never signals and
/// every poll is a single null-pointer test, which is what keeps the
/// batch/CLI paths at zero cost. CancellationToken::make() returns an armed
/// token.
///
/// Thread contract: request_cancel() and set_deadline()/clear_deadline() may
/// race polls from any number of threads (all state is atomic). Deadline
/// re-arming is single-writer by design — only the session thread that owns
/// the request sets it; the server's drain path only ever cancels.
class CancellationToken {
 public:
  CancellationToken() = default;  ///< inert: never stops anything

  /// An armed token (no deadline yet, not cancelled).
  [[nodiscard]] static CancellationToken make() {
    CancellationToken t;
    t.state_ = std::make_shared<State>();
    return t;
  }

  /// An armed token that expires `ms` from now.
  [[nodiscard]] static CancellationToken with_deadline_ms(std::int64_t ms) {
    CancellationToken t = make();
    t.set_deadline(Deadline::after_ms(ms));
    return t;
  }

  [[nodiscard]] bool armed() const noexcept { return state_ != nullptr; }

  /// Latches the cancel flag. Irrevocable; no-op on an inert token.
  void request_cancel() noexcept {
    if (state_ != nullptr) state_->cancelled.store(true, std::memory_order_release);
  }

  /// (Re-)arms the deadline — the session does this per request, the same
  /// token carrying the server's drain cancel across requests. No-op inert.
  void set_deadline(Deadline d) noexcept {
    if (state_ != nullptr) state_->deadline_ns.store(d.raw_ns(), std::memory_order_release);
  }

  void clear_deadline() noexcept {
    if (state_ != nullptr) state_->deadline_ns.store(Deadline::kNone, std::memory_order_release);
  }

  /// The poll. kNone for an inert token; cancel wins over an expired deadline
  /// (a drain cancel must read as "cancelled" even if a deadline also passed).
  [[nodiscard]] StopReason stop_reason() const noexcept {
    if (state_ == nullptr) return StopReason::kNone;
    if (state_->cancelled.load(std::memory_order_acquire)) return StopReason::kCancelled;
    const std::int64_t at = state_->deadline_ns.load(std::memory_order_acquire);
    if (at != Deadline::kNone && Deadline::now_ns() >= at) return StopReason::kDeadline;
    return StopReason::kNone;
  }

  [[nodiscard]] bool stop_requested() const noexcept {
    return stop_reason() != StopReason::kNone;
  }

  /// Polls and throws the typed abort. `where` names the split boundary for
  /// the error message ("map task", "merge job", "query admission").
  void throw_if_stopped(const char* where) const {
    switch (stop_reason()) {
      case StopReason::kNone:
        return;
      case StopReason::kCancelled:
        throw QueryCancelled(QueryCancelled::Reason::kCancelled,
                             std::string("cancelled at ") + where);
      case StopReason::kDeadline:
        throw QueryCancelled(QueryCancelled::Reason::kDeadline,
                             std::string("deadline expired at ") + where);
    }
  }

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    std::atomic<std::int64_t> deadline_ns{Deadline::kNone};
  };
  std::shared_ptr<State> state_;
};

/// A counting semaphore over a mutex + condition variable. Deliberately
/// boring: exact (no spurious try_acquire failures), no busy-waiting, and the
/// count is observable for metrics. Used by server::SkylineServer to cap
/// concurrent sessions.
class Semaphore {
 public:
  /// Starts with `count` free slots.
  explicit Semaphore(std::size_t count) : count_(count) {}

  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  /// Blocks until a slot is free, then takes it.
  void acquire() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return count_ > 0; });
    --count_;
  }

  /// Takes a slot iff one is free right now. Never fails spuriously.
  [[nodiscard]] bool try_acquire() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (count_ == 0) return false;
    --count_;
    return true;
  }

  /// Returns a slot and wakes one waiter.
  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++count_;
    }
    cv_.notify_one();
  }

  /// Free slots at this instant (metrics only — stale by the time it's read).
  [[nodiscard]] std::size_t available() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t count_;
};

/// A bounded multi-producer single(or multi)-consumer notification queue —
/// the delivery channel for streaming-subscription deltas (ISSUE 9). Two
/// deliberate policy choices over a plain condition-variable queue:
///
///  * push() NEVER blocks the producer. The producer is the engine's write
///    path; a slow subscriber must not be able to stall apply_batch for every
///    other session. When the queue is full, the OLDEST item is dropped and
///    the queue is latched "lagged" — the consumer learns its replay has a
///    gap and must resynchronise from a fresh snapshot rather than silently
///    continuing from a hole.
///  * close() wakes all poppers; a closed queue still drains its backlog
///    (pop returns items until empty, then nullopt), so a graceful shutdown
///    delivers what was already published.
template <typename T>
class NotifyQueue {
 public:
  /// Holds at most `capacity` (>= 1) undelivered items.
  explicit NotifyQueue(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  NotifyQueue(const NotifyQueue&) = delete;
  NotifyQueue& operator=(const NotifyQueue&) = delete;

  /// Enqueues (dropping the oldest item when full). False iff closed.
  bool push(T value) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return false;
      if (items_.size() == capacity_) {
        items_.pop_front();
        lagged_ = true;
      }
      items_.push_back(std::move(value));
    }
    cv_.notify_one();
    return true;
  }

  /// Waits up to `timeout_ms` for an item (0 = poll, < 0 = wait forever).
  /// nullopt on timeout, or when the queue is closed AND drained.
  std::optional<T> pop(std::int64_t timeout_ms) {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto ready = [this] { return !items_.empty() || closed_; };
    if (timeout_ms < 0) {
      cv_.wait(lock, ready);
    } else if (!cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), ready)) {
      return std::nullopt;
    }
    if (items_.empty()) return std::nullopt;  // closed and drained
    T out = std::move(items_.front());
    items_.pop_front();
    return out;
  }

  /// Latches closed and wakes every waiter. Backlog stays poppable.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  /// True once any item has been dropped for capacity. Latched.
  [[nodiscard]] bool lagged() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return lagged_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> items_;
  std::size_t capacity_;
  bool closed_ = false;
  bool lagged_ = false;
};

/// RAII slot holder: release() exactly once, on destruction, iff the
/// acquisition succeeded. `if (SlotGuard slot{sem}) { serve(); }` is the
/// admission-control idiom.
class SlotGuard {
 public:
  explicit SlotGuard(Semaphore& sem) : sem_(&sem), held_(sem.try_acquire()) {}

  SlotGuard(const SlotGuard&) = delete;
  SlotGuard& operator=(const SlotGuard&) = delete;
  SlotGuard(SlotGuard&& other) noexcept : sem_(other.sem_), held_(other.held_) {
    other.held_ = false;
  }
  SlotGuard& operator=(SlotGuard&&) = delete;

  ~SlotGuard() {
    if (held_) sem_->release();
  }

  [[nodiscard]] explicit operator bool() const noexcept { return held_; }

 private:
  Semaphore* sem_;
  bool held_;
};

}  // namespace mrsky::common
