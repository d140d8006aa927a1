// Bit-exactness of the parallel execution paths: a threaded Simulation must
// produce the same global model float-for-float as a serial one, and the
// batch-parallel tensor kernels must match their serial runs exactly. These
// are the guarantees that let n_threads be a pure performance knob.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "comm/faulty_network.h"
#include "common/threadpool.h"
#include "defense/pipeline.h"
#include "fl/metrics.h"
#include "fl/simulation.h"
#include "nn/model_zoo.h"
#include "tensor/ops.h"
#include "test_util.h"

using namespace fedcleanse;

namespace {

// Guard that installs a pool as the ambient context and restores the previous
// one on scope exit (tests run inside a process that may hold other pools).
class AmbientPoolGuard {
 public:
  explicit AmbientPoolGuard(common::ThreadPool* pool)
      : previous_(common::ambient_pool()) {
    common::set_ambient_pool(pool);
  }
  ~AmbientPoolGuard() { common::set_ambient_pool(previous_); }

 private:
  common::ThreadPool* previous_;
};

fl::SimulationConfig threaded_config(int n_threads) {
  auto cfg = testutil::tiny_sim_config(77);
  cfg.rounds = 3;
  cfg.n_threads = n_threads;
  return cfg;
}

}  // namespace

TEST(Determinism, ThreadedSimulationMatchesSerialBitwise) {
  std::vector<float> serial_params;
  std::vector<fl::RoundRecord> serial_history;
  {
    fl::Simulation sim(threaded_config(1));
    sim.run(true);
    serial_params = sim.server().params();
    serial_history = sim.history();
  }
  fl::Simulation sim(threaded_config(4));
  EXPECT_EQ(sim.pool().size(), 4u);
  sim.run(true);
  const auto threaded_params = sim.server().params();

  ASSERT_EQ(threaded_params.size(), serial_params.size());
  for (std::size_t i = 0; i < serial_params.size(); ++i) {
    ASSERT_EQ(threaded_params[i], serial_params[i]) << "param " << i << " diverged";
  }
  ASSERT_EQ(sim.history().size(), serial_history.size());
  for (std::size_t r = 0; r < serial_history.size(); ++r) {
    EXPECT_EQ(sim.history()[r].test_acc, serial_history[r].test_acc);
    EXPECT_EQ(sim.history()[r].attack_acc, serial_history[r].attack_acc);
  }
}

TEST(Determinism, ThreadedDefensePipelineMatchesSerial) {
  defense::DefenseConfig dcfg;
  dcfg.finetune.max_rounds = 2;
  auto run_one = [&](int n_threads) {
    fl::Simulation sim(threaded_config(n_threads));
    sim.run(false);
    auto report = defense::run_defense(sim, dcfg);
    return std::make_pair(sim.server().params(), report.after_aw);
  };
  auto [serial_params, serial_metrics] = run_one(1);
  auto [threaded_params, threaded_metrics] = run_one(4);
  EXPECT_EQ(threaded_params, serial_params);
  EXPECT_EQ(threaded_metrics.test_acc, serial_metrics.test_acc);
  EXPECT_EQ(threaded_metrics.attack_acc, serial_metrics.attack_acc);
}

TEST(Determinism, EvaluateAccuracyIsThreadCountAndBatchSizeInvariant) {
  common::Rng rng(5);
  auto model = nn::make_model(nn::Architecture::kMnistCnn, rng);
  // Labels that the model gets right exactly where i % 3 != 0, so a slice
  // counted twice or not at all moves the result.
  const int n = 101;
  auto images = tensor::Tensor::rand_uniform({n, 1, 20, 20}, rng, 0.0f, 1.0f);
  const auto preds = tensor::argmax_rows(model.net.infer(images));
  data::Dataset ds;
  const std::size_t per_image = 20 * 20;
  for (int i = 0; i < n; ++i) {
    tensor::Tensor image({1, 20, 20});
    std::copy_n(images.data().begin() + static_cast<std::ptrdiff_t>(i * per_image), per_image,
                image.data().begin());
    const int p = preds[static_cast<std::size_t>(i)];
    ds.add(std::move(image), i % 3 != 0 ? p : (p + 1) % 10);
  }
  const double want = 67.0 / 101.0;

  auto evaluate = [&](common::ThreadPool* pool, int batch_size) {
    AmbientPoolGuard guard(pool);
    return fl::evaluate_accuracy(model.net, ds, batch_size);
  };
  EXPECT_EQ(evaluate(nullptr, 64), want);
  common::ThreadPool one(1), four(4);
  for (int batch_size : {1, 7, 64}) {
    EXPECT_EQ(evaluate(&one, batch_size), want) << "1 worker, batch " << batch_size;
    EXPECT_EQ(evaluate(&four, batch_size), want) << "4 workers, batch " << batch_size;
  }
}

TEST(Determinism, Conv2dForwardParallelMatchesSerialExactly) {
  common::Rng rng(3);
  auto x = tensor::Tensor::randn({16, 3, 12, 12}, rng);
  auto w = tensor::Tensor::randn({8, 3, 3, 3}, rng, 0.0f, 0.2f);
  auto b = tensor::Tensor::randn({8}, rng);
  tensor::Conv2dSpec spec{1, 1};

  auto serial = [&] {
    AmbientPoolGuard serial_guard(nullptr);
    return tensor::conv2d_forward(x, w, b, spec);
  }();

  common::ThreadPool pool(4);
  AmbientPoolGuard guard(&pool);
  auto threaded = tensor::conv2d_forward(x, w, b, spec);

  ASSERT_EQ(threaded.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(threaded.data()[i], serial.data()[i]) << "output " << i;
  }
}

TEST(Determinism, Conv2dBackwardParallelMatchesSerialExactly) {
  common::Rng rng(5);
  auto x = tensor::Tensor::randn({16, 3, 12, 12}, rng);
  auto w = tensor::Tensor::randn({8, 3, 3, 3}, rng, 0.0f, 0.2f);
  tensor::Conv2dSpec spec{2, 1};
  auto y_shape = tensor::conv2d_forward(x, w, tensor::Tensor::zeros({8}), spec).shape();
  auto grad_out = tensor::Tensor::randn(y_shape, rng);

  auto serial = [&] {
    AmbientPoolGuard serial_guard(nullptr);
    return tensor::conv2d_backward(x, w, grad_out, spec);
  }();

  common::ThreadPool pool(4);
  AmbientPoolGuard guard(&pool);
  auto threaded = tensor::conv2d_backward(x, w, grad_out, spec);

  for (std::size_t i = 0; i < serial.grad_input.size(); ++i) {
    ASSERT_EQ(threaded.grad_input.data()[i], serial.grad_input.data()[i]);
  }
  for (std::size_t i = 0; i < serial.grad_weight.size(); ++i) {
    ASSERT_EQ(threaded.grad_weight.data()[i], serial.grad_weight.data()[i]);
  }
  for (std::size_t i = 0; i < serial.grad_bias.size(); ++i) {
    ASSERT_EQ(threaded.grad_bias.data()[i], serial.grad_bias.data()[i]);
  }
}

TEST(Determinism, MatmulParallelMatchesSerialExactly) {
  common::Rng rng(9);
  // Big enough to cross the row-parallel threshold (m·k·n ≥ 2^20).
  auto a = tensor::Tensor::randn({128, 96}, rng);
  auto b = tensor::Tensor::randn({96, 128}, rng);

  auto serial = [&] {
    AmbientPoolGuard serial_guard(nullptr);
    return tensor::matmul(a, b);
  }();

  common::ThreadPool pool(4);
  AmbientPoolGuard guard(&pool);
  auto threaded = tensor::matmul(a, b);

  ASSERT_EQ(threaded.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(threaded.data()[i], serial.data()[i]) << "element " << i;
  }
}

TEST(Determinism, PackedGemmTransposeVariantsAreThreadCountInvariant) {
  // The packed kernel parallelizes over MC row blocks; every transpose
  // variant must produce the same bits at any pool size because each C
  // element's accumulation order is fixed by the blocking constants alone.
  common::Rng rng(21);
  auto x = tensor::Tensor::randn({160, 128}, rng);   // m·k·n crosses 2^20
  auto y = tensor::Tensor::randn({128, 160}, rng);
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      const auto& a = ta ? y : x;
      const auto& b = tb ? x : y;
      auto serial = [&] {
        AmbientPoolGuard serial_guard(nullptr);
        return tensor::matmul_t(a, ta, b, tb);
      }();
      common::ThreadPool pool(4);
      AmbientPoolGuard guard(&pool);
      auto threaded = tensor::matmul_t(a, ta, b, tb);
      ASSERT_EQ(threaded.size(), serial.size());
      for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(threaded.data()[i], serial.data()[i])
            << "ta=" << ta << " tb=" << tb << " element " << i;
      }
    }
  }
}

TEST(Determinism, EnvVarOverridesConfiguredThreads) {
  ASSERT_EQ(setenv("FEDCLEANSE_THREADS", "3", 1), 0);
  EXPECT_EQ(common::resolve_n_threads(8), 3u);
  ASSERT_EQ(setenv("FEDCLEANSE_THREADS", "0", 1), 0);
  EXPECT_GE(common::resolve_n_threads(8), 1u);  // 0 → hardware concurrency
  ASSERT_EQ(unsetenv("FEDCLEANSE_THREADS"), 0);
  EXPECT_EQ(common::resolve_n_threads(8), 8u);
  EXPECT_GE(common::resolve_n_threads(0), 1u);
}

TEST(Determinism, ZeroFaultWrapperMatchesPlainNetworkBitwise) {
  // Installing the FaultyNetwork wrapper with every rate at zero must not
  // change a single bit: fault randomness lives in its own seed stream, so
  // the data/init/selection draws are untouched.
  fl::Simulation plain(threaded_config(1));
  plain.run(true);

  auto cfg = threaded_config(1);
  cfg.fault.force_faulty_network = true;
  fl::Simulation wrapped(cfg);
  ASSERT_NE(wrapped.faulty_network(), nullptr);
  wrapped.run(true);

  EXPECT_EQ(wrapped.server().params(), plain.server().params());
  ASSERT_EQ(wrapped.history().size(), plain.history().size());
  for (std::size_t r = 0; r < plain.history().size(); ++r) {
    EXPECT_EQ(wrapped.history()[r].test_acc, plain.history()[r].test_acc);
    EXPECT_EQ(wrapped.history()[r].attack_acc, plain.history()[r].attack_acc);
    EXPECT_EQ(wrapped.history()[r].n_valid, plain.history()[r].n_valid);
    EXPECT_TRUE(wrapped.history()[r].quorum_met);
  }
}

TEST(Determinism, FaultInjectedRunIsThreadCountInvariant) {
  // Fault fates are drawn from per-link streams keyed by send order, never by
  // thread scheduling — so even a lossy run is bit-identical at any pool size.
  auto make_cfg = [](int n_threads) {
    auto cfg = threaded_config(n_threads);
    cfg.rounds = 4;
    cfg.fault.dropout_rate = 0.25;
    cfg.fault.corrupt_rate = 0.10;
    cfg.fault.duplicate_rate = 0.05;
    cfg.fault.recv_timeout_ms = 5;
    return cfg;
  };
  fl::Simulation serial(make_cfg(1));
  serial.run(true);
  fl::Simulation threaded(make_cfg(4));
  threaded.run(true);

  EXPECT_EQ(threaded.server().params(), serial.server().params());
  ASSERT_EQ(threaded.history().size(), serial.history().size());
  for (std::size_t r = 0; r < serial.history().size(); ++r) {
    EXPECT_EQ(threaded.history()[r].n_valid, serial.history()[r].n_valid);
    EXPECT_EQ(threaded.history()[r].n_dropped, serial.history()[r].n_dropped);
    EXPECT_EQ(threaded.history()[r].n_corrupted, serial.history()[r].n_corrupted);
    EXPECT_EQ(threaded.history()[r].n_retried, serial.history()[r].n_retried);
    EXPECT_EQ(threaded.history()[r].test_acc, serial.history()[r].test_acc);
    EXPECT_EQ(threaded.history()[r].attack_acc, serial.history()[r].attack_acc);
  }
  const auto a = serial.faulty_network()->stats();
  const auto b = threaded.faulty_network()->stats();
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.corrupted, b.corrupted);
  EXPECT_EQ(a.duplicated, b.duplicated);
}
