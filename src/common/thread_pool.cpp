#include "src/common/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "src/common/error.hpp"

namespace mrsky::common {

namespace {

/// The pool whose worker loop runs on this thread; nullptr off-pool.
thread_local const ThreadPool* current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  MRSKY_REQUIRE(num_threads >= 1, "thread pool needs at least one worker");
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::worker_loop() {
  current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (current_pool == this) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // Chunked dynamic scheduling: workers pull the next index atomically. Every
  // lane is joined before returning — even on failure — because `fn` is only
  // borrowed from the caller; a lane must never outlive this call. When one
  // index throws, the remaining lanes stop picking up new indices and exactly
  // the first exception (in lane order) is rethrown after all lanes settle.
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  auto failed = std::make_shared<std::atomic<bool>>(false);
  const std::size_t lanes = std::min(count, workers_.size());
  std::vector<std::future<void>> futures;
  futures.reserve(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    futures.push_back(submit([next, failed, count, &fn] {
      for (;;) {
        if (failed->load(std::memory_order_relaxed)) return;
        const std::size_t i = next->fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        try {
          fn(i);
        } catch (...) {
          failed->store(true, std::memory_order_relaxed);
          throw;
        }
      }
    }));
  }
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

std::size_t ThreadPool::default_concurrency() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace mrsky::common
