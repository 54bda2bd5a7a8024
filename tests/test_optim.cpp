#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <span>

#include "common/rng.h"
#include "model/model_state.h"
#include "optim/adam.h"
#include "optim/sgd.h"
#include "tensor/ops.h"

namespace lowdiff {
namespace {

ModelSpec flat_spec(std::size_t n) {
  ModelSpec spec;
  spec.name = "flat";
  spec.layers = {{"w", {n}}};
  return spec;
}

TEST(Adam, MatchesReferenceFormula) {
  const AdamConfig cfg{.lr = 0.1f, .beta1 = 0.9f, .beta2 = 0.999f, .eps = 1e-8f};
  Adam adam(cfg);
  ModelState state(flat_spec(1));
  state.params()[0] = 1.0f;
  const float g = 0.5f;

  adam.step(state, std::vector<float>{g});

  const float m = (1 - cfg.beta1) * g;
  const float v = (1 - cfg.beta2) * g * g;
  const float mhat = m / (1 - cfg.beta1);
  const float vhat = v / (1 - cfg.beta2);
  const float expected = 1.0f - cfg.lr * mhat / (std::sqrt(vhat) + cfg.eps);
  EXPECT_FLOAT_EQ(state.params()[0], expected);
  EXPECT_FLOAT_EQ(state.moment1()[0], m);
  EXPECT_FLOAT_EQ(state.moment2()[0], v);
  EXPECT_EQ(state.step(), 1u);
}

TEST(Adam, DeterministicAcrossRuns) {
  Adam adam;
  ModelState a(flat_spec(64)), b(flat_spec(64));
  a.init_random(3);
  b.init_random(3);
  Xoshiro256 rng(5);
  Tensor grad(64);
  for (int i = 0; i < 20; ++i) {
    ops::fill_normal(grad.span(), rng, 1.0f);
    adam.step(a, grad.cspan());
  }
  Xoshiro256 rng2(5);
  for (int i = 0; i < 20; ++i) {
    ops::fill_normal(grad.span(), rng2, 1.0f);
    adam.step(b, grad.cspan());
  }
  EXPECT_TRUE(a.bit_equal(b));
}

/// Property: slice-wise application over any partition == one dense step,
/// bit-for-bit — the invariant LowDiff+'s layer-wise CPU update depends on.
class AdamSlices : public ::testing::TestWithParam<int> {};

TEST_P(AdamSlices, SliceUpdatesEqualDenseUpdate) {
  const int pieces = GetParam();
  const std::size_t n = 97;
  Adam adam;
  ModelState dense(flat_spec(n)), sliced(flat_spec(n));
  dense.init_random(11);
  sliced.init_random(11);

  Xoshiro256 rng(77);
  Tensor grad(n);
  for (int iter = 0; iter < 5; ++iter) {
    ops::fill_normal(grad.span(), rng, 0.3f);
    adam.step(dense, grad.cspan());

    const std::size_t per = (n + pieces - 1) / pieces;
    for (int p = 0; p < pieces; ++p) {
      const std::size_t lo = p * per;
      if (lo >= n) break;
      const std::size_t hi = std::min(n, lo + per);
      adam.step_slice(sliced, lo, grad.cspan().subspan(lo, hi - lo),
                      sliced.step() + 1);
    }
    adam.finish_partial_step(sliced);
    ASSERT_TRUE(dense.bit_equal(sliced)) << "iteration " << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Partitions, AdamSlices, ::testing::Values(1, 2, 3, 7, 97));

/// The vectorized kernels run a vector body plus a scalar tail whose split
/// depends on the slice's length and alignment.  Every length 1..40 at
/// unaligned offsets, cut into head/slice/tail pieces, must equal the
/// dense step bit for bit.
TEST(OptimizerSlices, EveryLengthAndUnalignedOffsetMatchesDenseStep) {
  const Adam adam;
  const Sgd plain(SgdConfig{.lr = 0.1f, .momentum = 0.0f});
  const Sgd momentum(SgdConfig{.lr = 0.1f, .momentum = 0.9f});
  const Optimizer* optimizers[] = {&adam, &plain, &momentum};
  for (const Optimizer* opt : optimizers) {
    for (std::size_t len = 1; len <= 40; ++len) {
      for (const std::size_t offset : {0u, 1u, 2u, 3u, 5u}) {
        const std::size_t n = offset + len + 3;
        ModelState dense(flat_spec(n)), sliced(flat_spec(n));
        dense.init_random(len * 8 + offset);
        sliced.init_random(len * 8 + offset);
        Xoshiro256 rng(len + 100 * offset);
        Tensor grad(n);
        for (int iter = 0; iter < 3; ++iter) {
          ops::fill_normal(grad.span(), rng, 0.5f);
          opt->step(dense, grad.cspan());
          const std::uint64_t step_after = sliced.step() + 1;
          const std::size_t cuts[] = {0, offset, offset + len, n};
          for (std::size_t c = 0; c + 1 < std::size(cuts); ++c) {
            opt->step_slice(sliced, cuts[c],
                            grad.cspan().subspan(cuts[c], cuts[c + 1] - cuts[c]),
                            step_after);
          }
          opt->finish_partial_step(sliced);
        }
        ASSERT_TRUE(dense.bit_equal(sliced))
            << opt->name() << " len=" << len << " offset=" << offset;
      }
    }
  }
}

/// Adam::apply's float expressions one element at a time, compiled without
/// vectorization (std::sqrt keeps its errno contract here).
void adam_scalar_step(const AdamConfig& c, ModelState& state,
                      std::span<const float> g) {
  const auto t = static_cast<float>(state.step() + 1);
  const float c1 = 1.0f - std::pow(c.beta1, t);
  const float c2 = 1.0f - std::pow(c.beta2, t);
  float* p = state.params().data();
  float* m = state.moment1().data();
  float* v = state.moment2().data();
  for (std::size_t i = 0; i < g.size(); ++i) {
    m[i] = c.beta1 * m[i] + (1.0f - c.beta1) * g[i];
    v[i] = c.beta2 * v[i] + (1.0f - c.beta2) * g[i] * g[i];
    p[i] -= c.lr * (m[i] / c1) / (std::sqrt(v[i] / c2) + c.eps);
  }
  state.set_step(state.step() + 1);
}

TEST(Adam, VectorKernelMatchesScalarFormulaBitForBit) {
  const AdamConfig cfg{.lr = 0.01f};
  const Adam adam(cfg);
  for (std::size_t n = 1; n <= 40; ++n) {
    ModelState vec(flat_spec(n)), scalar(flat_spec(n));
    vec.init_random(n);
    scalar.init_random(n);
    Xoshiro256 rng(n);
    Tensor grad(n);
    for (int iter = 0; iter < 4; ++iter) {
      ops::fill_normal(grad.span(), rng, 1.0f);
      adam.step(vec, grad.cspan());
      adam_scalar_step(cfg, scalar, grad.cspan());
    }
    ASSERT_TRUE(vec.bit_equal(scalar)) << "n=" << n;
  }
}

TEST(Adam, SliceOutOfRangeThrows) {
  Adam adam;
  ModelState state(flat_spec(10));
  std::vector<float> grad(5, 0.0f);
  EXPECT_THROW(adam.step_slice(state, 6, grad, 1), Error);
}

TEST(Adam, GradientSizeMismatchThrows) {
  Adam adam;
  ModelState state(flat_spec(10));
  std::vector<float> grad(9, 0.0f);
  EXPECT_THROW(adam.step(state, grad), Error);
}

TEST(Adam, CloneKeepsConfig) {
  Adam adam(AdamConfig{.lr = 0.42f});
  auto copy = adam.clone();
  EXPECT_EQ(copy->name(), "Adam");
  auto* as_adam = dynamic_cast<Adam*>(copy.get());
  ASSERT_NE(as_adam, nullptr);
  EXPECT_FLOAT_EQ(as_adam->config().lr, 0.42f);
}

TEST(Sgd, PlainStep) {
  Sgd sgd(SgdConfig{.lr = 0.5f, .momentum = 0.0f});
  ModelState state(flat_spec(2));
  state.params()[0] = 1.0f;
  state.params()[1] = 2.0f;
  sgd.step(state, std::vector<float>{1.0f, -2.0f});
  EXPECT_FLOAT_EQ(state.params()[0], 0.5f);
  EXPECT_FLOAT_EQ(state.params()[1], 3.0f);
  EXPECT_EQ(state.moment1()[0], 0.0f);  // no momentum buffer touched
  EXPECT_EQ(state.step(), 1u);
}

TEST(Sgd, MomentumAccumulates) {
  Sgd sgd(SgdConfig{.lr = 1.0f, .momentum = 0.5f});
  ModelState state(flat_spec(1));
  sgd.step(state, std::vector<float>{1.0f});
  EXPECT_FLOAT_EQ(state.params()[0], -1.0f);   // buf = 1
  sgd.step(state, std::vector<float>{1.0f});
  EXPECT_FLOAT_EQ(state.params()[0], -2.5f);   // buf = 1.5
  EXPECT_FLOAT_EQ(state.moment1()[0], 1.5f);
  EXPECT_EQ(sgd.name(), "SGD-momentum");
}

TEST(Sgd, StepDeltaIsAdditiveWithoutMomentum) {
  // Plain SGD deltas compose additively: applying g1 then g2 equals
  // applying (g1 + g2) — the property the parallel-additive recovery path
  // relies on.
  Sgd sgd(SgdConfig{.lr = 0.3f, .momentum = 0.0f});
  ModelState sequential(flat_spec(8)), merged(flat_spec(8));
  sequential.init_random(2);
  merged.init_random(2);

  Xoshiro256 rng(6);
  Tensor g1(8), g2(8), sum(8);
  ops::fill_normal(g1.span(), rng, 1.0f);
  ops::fill_normal(g2.span(), rng, 1.0f);
  ops::add(g1.cspan(), g2.cspan(), sum.span());

  sgd.step(sequential, g1.cspan());
  sgd.step(sequential, g2.cspan());
  sgd.step(merged, sum.cspan());

  EXPECT_LT(ops::max_abs_diff(sequential.params().cspan(), merged.params().cspan()),
            1e-6f);
}

TEST(Adam, StepsAreNotAdditive) {
  // The same experiment with Adam must NOT commute — this is why LowDiff's
  // recovery replays differentials in order for stateful optimizers.
  Adam adam;
  ModelState sequential(flat_spec(8)), merged(flat_spec(8));
  sequential.init_random(2);
  merged.init_random(2);

  Xoshiro256 rng(6);
  Tensor g1(8), g2(8), sum(8);
  ops::fill_normal(g1.span(), rng, 1.0f);
  ops::fill_normal(g2.span(), rng, 1.0f);
  ops::add(g1.cspan(), g2.cspan(), sum.span());

  adam.step(sequential, g1.cspan());
  adam.step(sequential, g2.cspan());
  adam.step(merged, sum.cspan());

  EXPECT_GT(ops::max_abs_diff(sequential.params().cspan(), merged.params().cspan()),
            1e-6f);
}

}  // namespace
}  // namespace lowdiff
