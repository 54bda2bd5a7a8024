#include <gtest/gtest.h>

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "comm/comm_group.h"
#include "comm/network_model.h"
#include "common/rng.h"
#include "compress/topk.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace lowdiff {
namespace {

/// Runs `fn(rank)` on `world` threads and joins.
void spawn_ranks(std::size_t world, const std::function<void(std::size_t)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(world);
  for (std::size_t r = 0; r < world; ++r) threads.emplace_back(fn, r);
  for (auto& t : threads) t.join();
}

class CommWorlds : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CommWorlds, AllreduceSumEqualsSerialSum) {
  const std::size_t world = GetParam();
  const std::size_t n = 257;
  CommGroup comm(world);

  // Per-rank inputs and the expected rank-ordered serial sum.
  std::vector<Tensor> inputs;
  Tensor expected(n);
  for (std::size_t r = 0; r < world; ++r) {
    Tensor t(n);
    Xoshiro256 rng(100 + r);
    ops::fill_normal(t.span(), rng, 1.0f);
    inputs.push_back(std::move(t));
  }
  // The implementation reduces in rank order with float accumulation into a
  // zero-initialized buffer; reproduce exactly for bitwise comparison.
  {
    std::vector<float> acc(n, 0.0f);
    for (std::size_t r = 0; r < world; ++r) {
      for (std::size_t i = 0; i < n; ++i) acc[i] += inputs[r][i];
    }
    for (std::size_t i = 0; i < n; ++i) expected[i] = acc[i];
  }

  std::vector<Tensor> outputs(world);
  for (auto& t : outputs) t = Tensor(n);
  spawn_ranks(world, [&](std::size_t rank) {
    ops::copy(inputs[rank].cspan(), outputs[rank].span());
    comm.allreduce_sum(rank, outputs[rank].span());
  });

  for (std::size_t r = 0; r < world; ++r) {
    EXPECT_TRUE(ops::bit_equal(outputs[r].cspan(), expected.cspan()))
        << "rank " << r << " result differs";
  }
}

TEST_P(CommWorlds, AllgatherReturnsEveryContribution) {
  const std::size_t world = GetParam();
  CommGroup comm(world);
  TopKCompressor comp(0.5);

  std::vector<std::vector<CompressedGrad>> gathered(world);
  spawn_ranks(world, [&](std::size_t rank) {
    Tensor g(16);
    Xoshiro256 rng(rank + 1);
    ops::fill_normal(g.span(), rng, 1.0f);
    const auto mine = comp.compress(g.cspan(), 9);
    gathered[rank] = comm.allgather(rank, mine);
  });

  for (std::size_t r = 0; r < world; ++r) {
    ASSERT_EQ(gathered[r].size(), world);
    EXPECT_EQ(gathered[r], gathered[0]);  // identical view everywhere
  }
}

TEST_P(CommWorlds, AllreduceSparseIdenticalAcrossRanks) {
  const std::size_t world = GetParam();
  CommGroup comm(world);
  TopKCompressor comp(0.1);

  std::vector<CompressedGrad> merged(world);
  spawn_ranks(world, [&](std::size_t rank) {
    Tensor g(500);
    Xoshiro256 rng(rank * 17 + 3);
    ops::fill_normal(g.span(), rng, 1.0f);
    merged[rank] = comm.allreduce_sparse(rank, comp.compress(g.cspan(), 0));
  });

  for (std::size_t r = 1; r < world; ++r) EXPECT_EQ(merged[r], merged[0]);
  // Union of k-per-rank coordinates, bounded by world * k.
  EXPECT_GE(merged[0].indices.size(), 50u);
  EXPECT_LE(merged[0].indices.size(), 50u * world);
}

INSTANTIATE_TEST_SUITE_P(Worlds, CommWorlds, ::testing::Values(1, 2, 3, 4, 8));

TEST(CommGroup, RepeatedCollectivesStayConsistent) {
  const std::size_t world = 4;
  CommGroup comm(world);
  std::vector<Tensor> data(world);
  for (auto& t : data) t = Tensor(64);

  spawn_ranks(world, [&](std::size_t rank) {
    for (int iter = 0; iter < 25; ++iter) {
      for (std::size_t i = 0; i < 64; ++i) {
        data[rank][i] = static_cast<float>(rank + iter);
      }
      comm.allreduce_sum(rank, data[rank].span());
      // sum over ranks of (rank + iter) = world*iter + 0+1+2+3
      const float expected = static_cast<float>(world * iter + 6);
      for (std::size_t i = 0; i < 64; ++i) {
        ASSERT_EQ(data[rank][i], expected) << "iter " << iter;
      }
    }
  });
}

TEST(CommGroup, ModeledTimeCharged) {
  CommGroup comm(2, NetworkModel{links::ib_25gbps(), 2}, /*time_scale=*/0.0);
  Tensor a(1024), b(1024);
  spawn_ranks(2, [&](std::size_t rank) {
    comm.allreduce_sum(rank, (rank == 0 ? a : b).span());
  });
  EXPECT_GT(comm.modeled_comm_time(0), 0.0);
  EXPECT_DOUBLE_EQ(comm.modeled_comm_time(0), comm.modeled_comm_time(1));
}

TEST(CommGroup, RankOutOfRangeThrows) {
  CommGroup comm(2);
  Tensor t(4);
  EXPECT_THROW(comm.allreduce_sum(5, t.span()), Error);
}

TEST(NetworkModel, RingAllreduceFormula) {
  NetworkModel nm{LinkSpec{1.0e9, 0.0}, 4};
  // 2*(4-1)/4 * bytes / bw
  EXPECT_NEAR(nm.allreduce_time(1'000'000'000ull), 1.5, 1e-9);
  nm.world = 1;
  EXPECT_EQ(nm.allreduce_time(123), 0.0);
}

TEST(NetworkModel, AllgatherFormula) {
  NetworkModel nm{LinkSpec{1.0e9, 0.0}, 5};
  EXPECT_NEAR(nm.allgather_time(250'000'000ull), 1.0, 1e-9);
}

TEST(NetworkModel, BroadcastLogHops) {
  NetworkModel nm{LinkSpec{1.0e9, 1e-3}, 8};
  // ceil(log2(8)) = 3 hops
  EXPECT_NEAR(nm.broadcast_time(1'000'000'000ull), 3.0 * (1.0 + 1e-3), 1e-9);
}

TEST(CommGroup, BroadcastCopiesRootToAll) {
  const std::size_t world = 4;
  CommGroup comm(world);
  std::vector<Tensor> data(world);
  for (std::size_t r = 0; r < world; ++r) {
    data[r] = Tensor(32);
    for (std::size_t i = 0; i < 32; ++i) {
      data[r][i] = static_cast<float>(r * 100 + i);
    }
  }
  spawn_ranks(world, [&](std::size_t rank) { comm.broadcast(rank, 2, data[rank].span()); });
  for (std::size_t r = 0; r < world; ++r) {
    EXPECT_TRUE(ops::bit_equal(data[r].cspan(), data[2].cspan())) << "rank " << r;
  }
}

TEST(CommGroup, BroadcastSingleRankIsNoop) {
  CommGroup comm(1);
  Tensor t = Tensor::from_values({1, 2, 3});
  comm.broadcast(0, 0, t.span());
  EXPECT_EQ(t[1], 2.0f);
}

TEST(Barrier, ReleasesAllParties) {
  Barrier barrier(4);
  std::atomic<int> before{0}, after{0};
  spawn_ranks(4, [&](std::size_t) {
    ++before;
    barrier.arrive_and_wait();
    EXPECT_EQ(before.load(), 4);
    ++after;
    barrier.arrive_and_wait();
    EXPECT_EQ(after.load(), 4);
  });
}

TEST(Barrier, RanksSharingOneCpuDoNotSpinOutTheirBudget) {
  // A 1-core host (or `taskset -c 0`) puts every rank on one CPU.  A
  // waiter that spun there would hold the CPU the rank it waits for needs,
  // and each round could cost the whole spin budget.  Only this test's own
  // threads are pinned, to the first CPU the process may use.
  cpu_set_t allowed;
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &allowed)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);

  constexpr int kRounds = 1000;
  Barrier barrier(2);
  std::atomic<int> pinned{0};
  const auto t0 = std::chrono::steady_clock::now();
  spawn_ranks(2, [&](std::size_t) {
    if (pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0) ++pinned;
    for (int i = 0; i < kRounds; ++i) barrier.arrive_and_wait();
  });
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_EQ(pinned.load(), 2);
  EXPECT_LT(elapsed, kRounds * Barrier::kSpinBudget / 10)
      << std::chrono::duration<double, std::milli>(elapsed).count() << " ms";
}

}  // namespace
}  // namespace lowdiff
