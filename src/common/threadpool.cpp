#include "common/threadpool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>

#include "common/error.h"
#include "obs/metrics.h"

namespace fedcleanse::common {

namespace {

// Set for the lifetime of each worker thread so parallel_for can detect
// re-entrant calls from its own pool and run them inline.
thread_local const ThreadPool* tl_worker_pool = nullptr;
thread_local int tl_worker_index = -1;

std::atomic<ThreadPool*> g_ambient_pool{nullptr};

}  // namespace

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) {
    n_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(static_cast<int>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::on_worker_thread() const { return tl_worker_pool == this; }

int ThreadPool::worker_index() const { return on_worker_thread() ? tl_worker_index : -1; }

void ThreadPool::worker_loop(int index) {
  tl_worker_pool = this;
  tl_worker_index = index;
  for (;;) {
    std::function<void()> task;
    {
      // Time spent parked here is the pool's idle-time observable. The clock
      // reads happen only while telemetry is on, and only around the wait —
      // never between dequeue and task execution.
      const bool timed = obs::metrics_enabled();
      [[maybe_unused]] const auto park = timed ? std::chrono::steady_clock::now()
                                               : std::chrono::steady_clock::time_point{};
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (timed) {
        FC_METRIC(pool_idle_ns().add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - park)
                .count())));
      }
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    FC_METRIC(pool_tasks().inc());
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Inline when parallelism cannot help — or would deadlock: a worker
  // blocking on futures served by the same (possibly fully blocked) pool.
  if (n == 1 || workers_.size() <= 1 || on_worker_thread()) {
    FC_METRIC(pool_inline_for_calls().inc());
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  FC_METRIC(pool_parallel_for_calls().inc());

  // Contiguous chunks, a few per worker so uneven bodies still balance.
  const std::size_t n_chunks = std::min(n, workers_.size() * 4);
  const std::size_t base = n / n_chunks;
  const std::size_t rem = n % n_chunks;

  std::mutex err_mu;
  std::exception_ptr first_error;
  std::vector<std::future<void>> futures;
  futures.reserve(n_chunks);
  std::size_t begin = 0;
  for (std::size_t c = 0; c < n_chunks; ++c) {
    const std::size_t end = begin + base + (c < rem ? 1 : 0);
    futures.push_back(submit([&fn, &err_mu, &first_error, begin, end] {
      try {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }));
    begin = end;
  }
  // Drain everything before rethrowing: `fn` is borrowed from the caller and
  // must not be touched by stragglers after this frame unwinds.
  for (auto& f : futures) f.get();
  if (first_error) std::rethrow_exception(first_error);
}

std::size_t resolve_n_threads(std::size_t configured) {
  const std::string cap = std::to_string(kMaxThreads);
  if (const char* env = std::getenv("FEDCLEANSE_THREADS")) {
    const std::string text(env);
    if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
      throw ConfigError("FEDCLEANSE_THREADS='" + text + "' is not a thread count (digits only)");
    }
    // Saturate just past the cap, so no digit string can overflow.
    std::size_t value = 0;
    for (const char ch : text) {
      value = std::min(value * 10 + static_cast<std::size_t>(ch - '0'), kMaxThreads + 1);
    }
    if (value > kMaxThreads) {
      throw ConfigError("FEDCLEANSE_THREADS=" + text + " exceeds the cap of " + cap + " threads");
    }
    configured = value;
  }
  if (configured > kMaxThreads) {
    throw ConfigError("n_threads=" + std::to_string(configured) + " exceeds the cap of " + cap +
                      " threads");
  }
  if (configured == 0) {
    configured = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, kMaxThreads);
  }
  return configured;
}

ThreadPool* ambient_pool() { return g_ambient_pool.load(std::memory_order_acquire); }

void set_ambient_pool(ThreadPool* pool) {
  g_ambient_pool.store(pool, std::memory_order_release);
}

void ambient_parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  ThreadPool* pool = ambient_pool();
  if (pool != nullptr && pool->size() > 1 && n > 1 && !pool->on_worker_thread()) {
    pool->parallel_for(n, fn);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) fn(i);
}

std::size_t ambient_workers() {
  ThreadPool* pool = ambient_pool();
  return pool != nullptr && !pool->on_worker_thread() ? pool->size() : 1;
}

}  // namespace fedcleanse::common
