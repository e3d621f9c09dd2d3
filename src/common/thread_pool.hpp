// A fixed-size worker pool with a shared task queue.
//
// The MapReduce engine uses this to execute map/reduce tasks when the caller
// asks for real shared-memory parallelism (ExecutionMode::kThreads); the
// deterministic cluster *simulation* never depends on it, so results are
// identical whether or not the host has multiple cores.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace mrsky::common {

class ThreadPool {
 public:
  /// Creates `num_threads` workers (>= 1 required).
  explicit ThreadPool(std::size_t num_threads);

  /// Drains the queue, joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a callable; returns a future for its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      tasks_.emplace([task]() { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Run `fn(i)` for i in [0, count) across the pool and wait for completion.
  /// If any invocation throws, the remaining indices are abandoned, every lane
  /// is still joined, and exactly one exception (the first observed) is
  /// rethrown — the pool stays fully usable afterwards. Called from one of
  /// this pool's own workers (a nested parallel_for), it runs the indices
  /// inline on that worker instead: blocking on lanes only sibling workers
  /// could run would deadlock once every worker waits the same way.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// A sensible default worker count for this host (>= 1).
  static std::size_t default_concurrency() noexcept;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Runs `fn(i)` for i in [0, count), on `pool` when given, else inline.
inline void for_each_index(std::size_t count, ThreadPool* pool,
                           const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  pool->parallel_for(count, fn);
}

}  // namespace mrsky::common
