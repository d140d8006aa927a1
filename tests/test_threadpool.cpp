#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/error.h"
#include "common/threadpool.h"

using fedcleanse::common::ThreadPool;

TEST(ThreadPool, ExecutesSubmittedTask) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 42; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SingleThreadWorks) {
  ThreadPool pool(1);
  auto a = pool.submit([] { return 1; });
  auto b = pool.submit([] { return 2; });
  EXPECT_EQ(a.get() + b.get(), 3);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyIsNoop) {
  ThreadPool pool(2);
  EXPECT_NO_THROW(pool.parallel_for(0, [](std::size_t) { FAIL(); }));
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 5) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ManyTasksComplete) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 1; i <= 200; ++i) {
    futures.push_back(pool.submit([&sum, i] { sum.fetch_add(i); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 20100);
}

TEST(ThreadPool, ParallelForDrainsAllWorkBeforeThrowing) {
  // The body is borrowed from the caller's frame; parallel_for must not
  // rethrow while straggler tasks could still call it. An early index throws
  // while later (slow) chunks are still queued — no body may observe the
  // post-return state.
  ThreadPool pool(3);
  std::atomic<bool> returned{false};
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i) {
                                   EXPECT_FALSE(returned.load());
                                   if (i == 0) throw std::runtime_error("boom");
                                   std::this_thread::sleep_for(std::chrono::milliseconds(1));
                                 }),
               std::runtime_error);
  returned.store(true);
}

TEST(ThreadPool, ReusableAcrossManySubmitWaves) {
  ThreadPool pool(4);
  for (int wave = 0; wave < 100; ++wave) {
    std::atomic<int> count{0};
    pool.parallel_for(32, [&](std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 32);
  }
  // A wave that throws must not poison subsequent waves.
  EXPECT_THROW(pool.parallel_for(8, [](std::size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
  std::atomic<int> count{0};
  pool.parallel_for(16, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  // parallel_for from a worker of the same pool must run inline: re-submitting
  // and blocking would deadlock once all workers wait on each other.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.parallel_for(4, [&](std::size_t) {
    EXPECT_TRUE(pool.on_worker_thread());
    pool.parallel_for(8, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ThreadPool, OnWorkerThreadIsPoolSpecific) {
  ThreadPool a(2), b(2);
  EXPECT_FALSE(a.on_worker_thread());
  a.submit([&] {
     EXPECT_TRUE(a.on_worker_thread());
     EXPECT_FALSE(b.on_worker_thread());
   }).get();
}

TEST(AmbientPool, InstallAndClear) {
  using fedcleanse::common::ambient_parallel_for;
  using fedcleanse::common::ambient_pool;
  using fedcleanse::common::set_ambient_pool;
  ASSERT_EQ(ambient_pool(), nullptr);

  // Serial fallback with no pool installed.
  std::vector<int> hits(16, 0);
  ambient_parallel_for(hits.size(), [&](std::size_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);

  {
    ThreadPool pool(3);
    set_ambient_pool(&pool);
    EXPECT_EQ(ambient_pool(), &pool);
    std::vector<std::atomic<int>> atomic_hits(64);
    ambient_parallel_for(atomic_hits.size(), [&](std::size_t i) { atomic_hits[i]++; });
    for (auto& h : atomic_hits) EXPECT_EQ(h.load(), 1);
    set_ambient_pool(nullptr);
  }
  EXPECT_EQ(ambient_pool(), nullptr);
}

TEST(ThreadPool, WorkerIndexNamesEachWorkerOnce) {
  ThreadPool pool(3);
  ThreadPool other(2);
  EXPECT_EQ(pool.worker_index(), -1);  // the caller is not a worker
  std::mutex mu;
  std::map<std::thread::id, std::set<int>> seen;
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 32; ++i) {
    futs.push_back(pool.submit([&] {
      EXPECT_EQ(other.worker_index(), -1);
      std::lock_guard<std::mutex> lock(mu);
      seen[std::this_thread::get_id()].insert(pool.worker_index());
    }));
  }
  for (auto& f : futs) f.get();
  std::set<int> indices;
  for (const auto& [thread, index] : seen) {
    (void)thread;
    ASSERT_EQ(index.size(), 1u);  // one fixed index per worker
    EXPECT_GE(*index.begin(), 0);
    EXPECT_LT(*index.begin(), 3);
    indices.insert(*index.begin());
  }
  EXPECT_EQ(indices.size(), seen.size());  // distinct across workers
}

namespace {

// Runs resolve_n_threads under a given FEDCLEANSE_THREADS value (nullptr =
// unset) and restores the caller's value afterwards.
std::size_t resolve_with_env(const char* value, std::size_t configured) {
  const char* old = std::getenv("FEDCLEANSE_THREADS");
  const std::optional<std::string> saved = old ? std::optional<std::string>(old) : std::nullopt;
  if (value != nullptr) {
    setenv("FEDCLEANSE_THREADS", value, 1);
  } else {
    unsetenv("FEDCLEANSE_THREADS");
  }
  struct Restore {
    const std::optional<std::string>& saved;
    ~Restore() {
      if (saved) {
        setenv("FEDCLEANSE_THREADS", saved->c_str(), 1);
      } else {
        unsetenv("FEDCLEANSE_THREADS");
      }
    }
  } restore{saved};
  return fedcleanse::common::resolve_n_threads(configured);
}

}  // namespace

TEST(ResolveThreads, ParsesDigitsOnly) {
  using fedcleanse::ConfigError;
  EXPECT_EQ(resolve_with_env("4", 8), 4u);
  EXPECT_EQ(resolve_with_env("0004", 8), 4u);
  EXPECT_GE(resolve_with_env("0", 8), 1u);  // 0 → hardware concurrency
  for (const char* bad : {"4x", "-3", "", " 4", "4 ", "+4", "1e3", "four"}) {
    EXPECT_THROW(resolve_with_env(bad, 8), ConfigError) << "'" << bad << "'";
  }
  try {
    resolve_with_env("4x", 8);
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("FEDCLEANSE_THREADS"), std::string::npos);
  }
}

TEST(ResolveThreads, RejectsCountsAboveTheCap) {
  using fedcleanse::ConfigError;
  using fedcleanse::common::kMaxThreads;
  const std::string cap = std::to_string(kMaxThreads);
  const std::string over = std::to_string(kMaxThreads + 1);
  EXPECT_EQ(resolve_with_env(cap.c_str(), 8), kMaxThreads);
  EXPECT_THROW(resolve_with_env(over.c_str(), 8), ConfigError);
  EXPECT_THROW(resolve_with_env("99999999999999999999999999", 8), ConfigError);
  try {
    resolve_with_env(over.c_str(), 8);
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("FEDCLEANSE_THREADS"), std::string::npos);
  }
  // The configured count (SimulationConfig::n_threads) has the same cap.
  EXPECT_EQ(resolve_with_env(nullptr, kMaxThreads), kMaxThreads);
  EXPECT_THROW(resolve_with_env(nullptr, kMaxThreads + 1), ConfigError);
  EXPECT_LE(resolve_with_env(nullptr, 0), kMaxThreads);
}
