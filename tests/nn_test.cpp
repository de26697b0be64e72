#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "lcda/data/synthetic_cifar.h"
#include "lcda/nn/layers.h"
#include "lcda/nn/model_builder.h"
#include "lcda/nn/sequential.h"
#include "lcda/nn/sgd.h"
#include "lcda/nn/trainer.h"
#include "lcda/util/rng.h"
#include "lcda/util/strings.h"

namespace lcda::nn {
namespace {

using util::Rng;

// ---------------------------------------------------------------- Layers

TEST(Conv2dLayer, ShapesAndMacs) {
  Rng rng(1);
  Conv2d conv(3, 8, 3, 16, 16, rng);
  Tensor x({2, 3, 16, 16});
  const Tensor& y = conv.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 8, 16, 16}));
  EXPECT_EQ(conv.macs_per_sample(), 8LL * 16 * 16 * 3 * 3 * 3);
  EXPECT_EQ(conv.params().size(), 2u);
  EXPECT_EQ(conv.describe(), "Conv2d(3->8, k3, 16x16)");
}

TEST(Conv2dLayer, RejectsEvenKernel) {
  Rng rng(1);
  EXPECT_THROW(Conv2d(3, 8, 4, 16, 16, rng), std::invalid_argument);
}

TEST(Conv2dLayer, RejectsWrongInput) {
  Rng rng(1);
  Conv2d conv(3, 8, 3, 16, 16, rng);
  Tensor bad({2, 4, 16, 16});
  EXPECT_THROW((void)conv.forward(bad), std::invalid_argument);
}

TEST(DenseLayer, ShapesAndMacs) {
  Rng rng(2);
  Dense dense(10, 4, rng);
  Tensor x({3, 10});
  const Tensor& y = dense.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<int>{3, 4}));
  EXPECT_EQ(dense.macs_per_sample(), 40);
}

TEST(FlattenLayer, RoundTrips) {
  Flatten flat;
  Tensor x({2, 3, 4, 4});
  x[10] = 9.0f;
  const Tensor& y = flat.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 48}));
  const Tensor& dx = flat.backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
  EXPECT_EQ(dx[10], 9.0f);
}

TEST(ReluLayer, BackwardMasksOnItsOutputAsOnItsInput) {
  // The layer keeps only its output: max(x, 0) > 0 exactly where x > 0,
  // NaN and -0 included, so its gradient equals the input-masked one.
  const float inf = std::numeric_limits<float>::infinity();
  const Tensor x({1, 9}, {-1.5f, -0.0f, 0.0f, 1e-40f, -1e-40f, inf, -inf,
                          std::numeric_limits<float>::quiet_NaN(), 2.5f});
  const Tensor dy({1, 9}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  ReLU relu;
  (void)relu.forward(x);
  const Tensor& dx = relu.backward(dy);
  Tensor want({1, 9});
  tensor::relu_backward(x, dy, want);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(dx[i]), std::bit_cast<std::uint32_t>(want[i]))
        << "element " << i;
  }
}

TEST(Layers, BackwardBeforeForwardThrows) {
  // Conv2d and Dense keep a pointer to forward's input; without one there
  // is nothing to differentiate against.
  Rng rng(1);
  Conv2d conv(3, 8, 3, 4, 4, rng);
  EXPECT_THROW((void)conv.backward(Tensor({1, 8, 4, 4})), std::logic_error);
  Dense dense(10, 4, rng);
  EXPECT_THROW((void)dense.backward(Tensor({1, 4})), std::logic_error);
}

TEST(MaxPoolLayer, RejectsOddDims) {
  MaxPool2x2 pool;
  Tensor x({1, 1, 3, 4});
  EXPECT_THROW((void)pool.forward(x), std::invalid_argument);
}

// ------------------------------------------------------------ Sequential

Sequential tiny_mlp(Rng& rng, int in = 8, int hidden = 16, int classes = 3) {
  Sequential net;
  net.add(std::make_unique<Dense>(in, hidden, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<Dense>(hidden, classes, rng));
  return net;
}

TEST(Sequential, ParamAccounting) {
  Rng rng(3);
  Sequential net = tiny_mlp(rng);
  EXPECT_EQ(net.layer_count(), 3u);
  EXPECT_EQ(net.params().size(), 4u);
  EXPECT_EQ(net.param_count(), 8u * 16 + 16 + 16 * 3 + 3);
}

TEST(Sequential, TrainStepReducesLossOnFixedBatch) {
  Rng rng(4);
  Sequential net = tiny_mlp(rng);
  Sgd opt(net.params(), {.lr = 0.1, .momentum = 0.9, .weight_decay = 0.0});

  Tensor x({6, 8});
  for (auto& v : x.data()) v = static_cast<float>(rng.uniform(-1, 1));
  const std::vector<int> labels = {0, 1, 2, 0, 1, 2};

  const double first = net.train_step_loss(x, labels);
  opt.step();
  double last = first;
  for (int i = 0; i < 60; ++i) {
    last = net.train_step_loss(x, labels);
    opt.step();
  }
  EXPECT_LT(last, first * 0.5) << "overfitting a fixed batch must reduce loss";
  EXPECT_GT(net.accuracy(x, labels), 0.99);
}

TEST(Sequential, EndToEndGradientCheck) {
  Rng rng(5);
  Sequential net = tiny_mlp(rng, 4, 6, 2);
  Tensor x({2, 4});
  for (auto& v : x.data()) v = static_cast<float>(rng.uniform(-1, 1));
  const std::vector<int> labels = {0, 1};

  // Analytic gradients.
  (void)net.train_step_loss(x, labels);
  auto params = net.params();
  const Tensor analytic = params[0]->grad;

  // Numerical check on a few coordinates of the first weight matrix.
  auto loss_at = [&]() {
    const Tensor& logits = net.forward(x);
    Tensor probs(logits.shape()), d(logits.shape());
    tensor::softmax_rows(logits, probs);
    return tensor::cross_entropy_loss(probs, labels, d);
  };
  const float eps = 1e-3f;
  for (std::size_t idx : {0u, 5u, 11u, 23u}) {
    const float saved = params[0]->value[idx];
    params[0]->value[idx] = saved + eps;
    const double lp = loss_at();
    params[0]->value[idx] = saved - eps;
    const double lm = loss_at();
    params[0]->value[idx] = saved;
    EXPECT_NEAR(analytic[idx], (lp - lm) / (2 * eps), 5e-3) << "idx " << idx;
  }
}

// ------------------------------------------------------------------- SGD

TEST(Sgd, PlainStepMatchesFormula) {
  Param p;
  p.value = Tensor({1}, {1.0f});
  p.grad = Tensor({1}, {0.5f});
  std::vector<Param*> params = {&p};
  Sgd opt(params, {.lr = 0.1, .momentum = 0.0, .weight_decay = 0.0});
  opt.step();
  EXPECT_NEAR(p.value[0], 1.0f - 0.1f * 0.5f, 1e-6);
}

TEST(Sgd, MomentumAccumulates) {
  Param p;
  p.value = Tensor({1}, {0.0f});
  p.grad = Tensor({1}, {1.0f});
  std::vector<Param*> params = {&p};
  Sgd opt(params, {.lr = 0.1, .momentum = 0.5, .weight_decay = 0.0});
  opt.step();  // v = -0.1,  w = -0.1
  opt.step();  // v = -0.15, w = -0.25
  EXPECT_NEAR(p.value[0], -0.25f, 1e-6);
}

TEST(Sgd, WeightDecayPullsTowardZero) {
  Param p;
  p.value = Tensor({1}, {10.0f});
  p.grad = Tensor({1}, {0.0f});
  std::vector<Param*> params = {&p};
  Sgd opt(params, {.lr = 0.1, .momentum = 0.0, .weight_decay = 0.1});
  opt.step();
  EXPECT_LT(p.value[0], 10.0f);
}

// --------------------------------------------------------- ModelBuilder

TEST(ModelBuilder, BackboneShapesFollowPooling) {
  const std::vector<ConvSpec> rollout = {{16, 3}, {16, 3}, {32, 3},
                                         {32, 3}, {64, 3}, {64, 3}};
  BackboneOptions opts;
  const auto shapes = backbone_shapes(rollout, opts);
  ASSERT_EQ(shapes.size(), 8u);  // 6 conv + 2 fc
  EXPECT_EQ(shapes[0].in_channels, 3);
  EXPECT_EQ(shapes[0].in_hw, 32);
  EXPECT_EQ(shapes[2].in_hw, 16);  // after pool at conv index 1
  EXPECT_EQ(shapes[4].in_hw, 8);   // after pool at conv index 3
  EXPECT_TRUE(shapes[6].is_fc);
  EXPECT_EQ(shapes[6].in_channels, 64 * 4 * 4);  // 8 -> pool -> 4
  EXPECT_EQ(shapes[6].out_channels, 1024);
  EXPECT_EQ(shapes[7].in_channels, 1024);
  EXPECT_EQ(shapes[7].out_channels, 10);
}

TEST(ModelBuilder, WeightRowsMatchKernelFanIn) {
  const std::vector<ConvSpec> rollout = {{32, 5}, {64, 7}};
  BackboneOptions opts;
  opts.pool_after = {0};
  const auto shapes = backbone_shapes(rollout, opts);
  EXPECT_EQ(shapes[0].weight_rows(), 5LL * 5 * 3);
  EXPECT_EQ(shapes[1].weight_rows(), 7LL * 7 * 32);
  EXPECT_EQ(shapes[1].weight_cols(), 64);
}

TEST(ModelBuilder, BuildMatchesShapes) {
  Rng rng(6);
  const std::vector<ConvSpec> rollout = {{8, 3}, {8, 3}, {12, 3},
                                         {12, 3}, {16, 3}, {16, 3}};
  BackboneOptions opts;
  opts.hidden = 64;
  Sequential net = build_backbone(rollout, opts, rng);
  Tensor x({1, 3, 32, 32});
  const Tensor& logits = net.forward(x);
  EXPECT_EQ(logits.shape(), (std::vector<int>{1, 10}));

  // MACs of the instantiated network match the analytic shapes.
  const auto shapes = backbone_shapes(rollout, opts);
  long long macs = 0;
  for (const auto& s : shapes) macs += s.macs();
  EXPECT_EQ(net.macs_per_sample(), macs);
}

TEST(ModelBuilder, RejectsBadRollouts) {
  Rng rng(7);
  BackboneOptions opts;
  EXPECT_THROW((void)build_backbone({}, opts, rng), std::invalid_argument);
  EXPECT_THROW((void)build_backbone({{0, 3}}, opts, rng), std::invalid_argument);
  EXPECT_THROW((void)build_backbone({{8, 2}}, opts, rng), std::invalid_argument);
}

TEST(ModelBuilder, RejectsOverPooling) {
  Rng rng(8);
  BackboneOptions opts;
  opts.input_size = 4;
  opts.pool_after = {0, 1, 2};
  const std::vector<ConvSpec> rollout = {{8, 3}, {8, 3}, {8, 3}, {8, 3}};
  EXPECT_THROW((void)build_backbone(rollout, opts, rng), std::invalid_argument);
}

// --------------------------------------------------------------- Trainer

data::TrainTest small_data() {
  data::SyntheticCifarOptions opts;
  opts.image_size = 16;
  opts.num_classes = 4;
  opts.train_per_class = 12;
  opts.test_per_class = 6;
  opts.seed = 5;
  return data::make_synthetic_cifar(opts);
}

Sequential small_net(Rng& rng) {
  Sequential net;
  net.add(std::make_unique<Conv2d>(3, 8, 3, 16, 16, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<MaxPool2x2>());
  net.add(std::make_unique<Flatten>());
  net.add(std::make_unique<Dense>(8 * 8 * 8, 4, rng));
  return net;
}

TEST(Trainer, LearnsAboveChance) {
  const auto data = small_data();
  Rng rng(9);
  Sequential net = small_net(rng);
  TrainOptions opts;
  opts.epochs = 4;
  const TrainResult result = train(net, data.train, opts, rng);
  EXPECT_EQ(result.epoch_loss.size(), 4u);
  // 4 classes => chance is 0.25; the tiny net should clearly beat it.
  EXPECT_GT(evaluate(net, data.test), 0.5);
  // Loss should drop from the first epoch to the last.
  EXPECT_LT(result.epoch_loss.back(), result.epoch_loss.front());
}

TEST(Trainer, DeterministicGivenSeed) {
  const auto data = small_data();
  auto run = [&]() {
    Rng rng(10);
    Sequential net = small_net(rng);
    TrainOptions opts;
    opts.epochs = 2;
    (void)train(net, data.train, opts, rng);
    return evaluate(net, data.test);
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Trainer, NoiseInjectionKeepsCleanWeightsFinite) {
  const auto data = small_data();
  Rng rng(11);
  Sequential net = small_net(rng);
  TrainOptions opts;
  opts.epochs = 2;
  opts.perturber = [](std::vector<Param*>& params, util::Rng& r) {
    for (Param* p : params) {
      for (auto& w : p->value.data()) {
        w += static_cast<float>(r.normal(0.0, 0.05));
      }
    }
  };
  (void)train(net, data.train, opts, rng);
  EXPECT_GT(evaluate(net, data.test), 0.3);
  for (Param* p : net.params()) {
    for (float w : p->value.data()) ASSERT_TRUE(std::isfinite(w));
  }
}

TEST(Trainer, EvaluateNoisyRestoresWeights) {
  const auto data = small_data();
  Rng rng(12);
  Sequential net = small_net(rng);
  const Tensor before = net.params()[0]->value;

  WeightPerturber big_noise = [](std::vector<Param*>& params, util::Rng& r) {
    for (Param* p : params) {
      for (auto& w : p->value.data()) {
        w += static_cast<float>(r.normal(0.0, 1.0));
      }
    }
  };
  (void)evaluate_noisy(net, data.test, big_noise, rng);
  const Tensor after = net.params()[0]->value;
  for (std::size_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(before[i], after[i]) << "weights must be restored";
  }
}

/// Appends the bytes of `v` to `out`, for hashing bit patterns.
template <typename T>
void append_bits(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

// Pins every bit of a short noise-injection training run: a reordered sum
// anywhere in the conv, dense or loss kernels moves the digest, where the
// tolerance checks above would still pass. Every setting is spelled out, so
// a change to the library's training defaults leaves this alone. The net
// mixes 3x3, 5x5 and 1x1 convs with channel counts that are not multiples
// of the kernels' tiles, and the data splits into a full and a partial
// batch.
TEST(Trainer, TrainingBitsPinned) {
  data::SyntheticCifarOptions dopts;
  dopts.image_size = 8;
  dopts.num_classes = 4;
  dopts.train_per_class = 12;
  dopts.test_per_class = 6;
  dopts.seed = 21;
  const auto data = data::make_synthetic_cifar(dopts);

  Rng rng(2024);
  Sequential net;
  net.add(std::make_unique<Conv2d>(3, 5, 3, 8, 8, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<Conv2d>(5, 24, 5, 8, 8, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<MaxPool2x2>());
  net.add(std::make_unique<Conv2d>(24, 7, 1, 4, 4, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<Flatten>());
  net.add(std::make_unique<Dense>(7 * 4 * 4, 4, rng));

  const WeightPerturber noise = [](std::vector<Param*>& params, util::Rng& r) {
    for (Param* p : params) {
      for (auto& w : p->value.data()) w += static_cast<float>(r.normal(0.0, 0.05));
    }
  };
  TrainOptions opts;
  opts.epochs = 2;
  opts.sgd.lr = 0.02;
  opts.sgd.momentum = 0.9;
  opts.sgd.weight_decay = 1e-4;
  opts.lr_decay = 0.9;
  opts.perturber = noise;
  const TrainResult result = train(net, data.train, opts, rng);
  ASSERT_EQ(result.epoch_loss.size(), 2u);

  std::string bits;
  for (double loss : result.epoch_loss) append_bits(bits, loss);
  for (const Param* p : net.params()) {
    for (float w : p->value.data()) append_bits(bits, w);
  }
  append_bits(bits, evaluate_noisy(net, data.test, noise, rng));
  EXPECT_EQ(util::hex_u64(util::fnv1a64(bits)), "84133c920636b631");
}

TEST(Trainer, OnEpochCallbackFires) {
  const auto data = small_data();
  Rng rng(13);
  Sequential net = small_net(rng);
  TrainOptions opts;
  opts.epochs = 3;
  int calls = 0;
  opts.on_epoch = [&](int, double) { ++calls; };
  (void)train(net, data.train, opts, rng);
  EXPECT_EQ(calls, 3);
}

TEST(Trainer, EvaluatingFromOnEpochChangesNothing) {
  // A caller that prints accuracy evaluates from on_epoch, which leaves
  // the net in inference mode. Every epoch must still train in training
  // mode: batch norm normalizes with batch statistics only there.
  const auto data = small_data();
  const auto run = [&](bool evaluate_each_epoch) {
    Rng rng(14);
    BackboneOptions bopts;
    bopts.input_size = 16;
    bopts.num_classes = 4;
    bopts.hidden = 16;
    bopts.pool_after = {0};
    bopts.batch_norm = true;
    Sequential net = build_backbone({{6, 3}, {8, 3}}, bopts, rng);
    TrainOptions opts;
    opts.epochs = 3;
    if (evaluate_each_epoch) {
      opts.on_epoch = [&](int, double) { (void)evaluate(net, data.test); };
    }
    const TrainResult result = train(net, data.train, opts, rng);
    std::string bits;
    for (double loss : result.epoch_loss) append_bits(bits, loss);
    for (const Param* p : net.params()) {
      for (float w : p->value.data()) append_bits(bits, w);
    }
    return bits;
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace lcda::nn
