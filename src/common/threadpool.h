// Fixed-size thread pool used to run client-local work (training epochs,
// activation scans) concurrently when more than one hardware thread is
// available. Falls back gracefully to effectively serial execution on a
// single-core host.
//
// The pool doubles as the process's *ambient execution context*: a
// Simulation installs its pool via set_ambient_pool(), and the tensor
// kernels pick it up through ambient_parallel_for() to spread batch work
// across cores. parallel_for() called from inside one of the pool's own
// workers runs inline (serially) instead of re-submitting — client tasks
// already saturate the pool, and nested blocking waits would deadlock it.
#pragma once

#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace fedcleanse::common {

class ThreadPool {
 public:
  // n_threads == 0 → use hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const;
  // The calling worker's index in [0, size()), or -1 when the caller is not
  // one of this pool's workers (per-worker scratch state keys on it).
  int worker_index() const;

  // Enqueue a task; the returned future rethrows any exception.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) throw std::runtime_error("submit on stopped ThreadPool");
      tasks_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  // Run fn(i) for i in [0, n) across the pool and wait for completion.
  // Indices are dispatched as contiguous chunks; every chunk runs to the end
  // even when one throws, and the first exception is rethrown once all work
  // has drained (so `fn` is never referenced after parallel_for returns).
  // Runs inline when the pool has a single worker or when called from one of
  // this pool's own worker threads.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop(int index);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

// Largest pool resolve_n_threads accepts: a typo such as 40000 must fail
// loudly instead of starting that many threads.
inline constexpr std::size_t kMaxThreads = 1024;

// Resolve a configured thread count: FEDCLEANSE_THREADS overrides when set,
// then 0 means hardware_concurrency (capped at kMaxThreads); the result is
// always ≥ 1. The variable must be all digits; anything else, or a value
// (configured or from the variable) above kMaxThreads, throws ConfigError.
std::size_t resolve_n_threads(std::size_t configured);

// Process-wide ambient pool, consumed by the tensor kernels. nullptr (the
// default) means serial execution. The installer owns the pool and must
// clear the pointer before destroying it.
ThreadPool* ambient_pool();
void set_ambient_pool(ThreadPool* pool);

// Run fn(i) for i in [0, n): on the ambient pool when one is installed and
// usable (more than one worker, not already inside a worker), serially
// otherwise. Bodies must write disjoint state per index; results must not
// depend on the execution order, which keeps every code path bit-identical
// to the serial run.
void ambient_parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

// How many workers ambient_parallel_for would spread a multi-index call over
// from the calling thread: the ambient pool's size, or 1 when it runs inline.
std::size_t ambient_workers();

}  // namespace fedcleanse::common
