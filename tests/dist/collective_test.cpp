#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "dist/control.h"

namespace apa::dist {
namespace {

/// Rank r contributes data[i] = r + i unless a test supplies its own values.
std::vector<float> ramp(int rank, index_t elements) {
  std::vector<float> data(static_cast<std::size_t>(elements));
  for (index_t i = 0; i < elements; ++i) {
    data[static_cast<std::size_t>(i)] = static_cast<float>(rank + i);
  }
  return data;
}

struct ReduceRun {
  std::vector<CollectiveStatus> status;
  std::vector<std::vector<float>> data;
};

/// Runs allreduce_mean on one thread per rank. Ranks in `absent` never call
/// (a crash before the step); rank `late` sleeps `late_ms` before it calls.
ReduceRun run_reduce(std::vector<std::vector<float>> inputs,
                     const std::vector<int>& absent = {}, int late = -1,
                     int late_ms = 0, double heartbeat_timeout_s = 0.5) {
  const int workers = static_cast<int>(inputs.size());
  ControlBlock control(workers, heartbeat_timeout_s);
  ReduceRun run;
  run.status.assign(inputs.size(), CollectiveStatus::kAborted);
  run.data = std::move(inputs);
  std::vector<std::thread> threads;
  for (int r = 0; r < workers; ++r) {
    if (std::find(absent.begin(), absent.end(), r) != absent.end()) continue;
    threads.emplace_back([&, r] {
      control.heartbeat(r);
      if (r == late) {
        std::this_thread::sleep_for(std::chrono::milliseconds(late_ms));
      }
      run.status[static_cast<std::size_t>(r)] = control.allreduce_mean(
          r, run.data[static_cast<std::size_t>(r)], /*step=*/0,
          /*timeout_s=*/10.0);
    });
  }
  for (auto& t : threads) t.join();
  return run;
}

ReduceRun run_ramps(int workers, index_t elements,
                    const std::vector<int>& absent = {}, int late = -1,
                    int late_ms = 0) {
  std::vector<std::vector<float>> inputs;
  for (int r = 0; r < workers; ++r) inputs.push_back(ramp(r, elements));
  return run_reduce(std::move(inputs), absent, late, late_ms);
}

void expect_mean_of_ranks(const std::vector<float>& data,
                          const std::vector<int>& ranks, index_t elements) {
  ASSERT_EQ(data.size(), static_cast<std::size_t>(elements));
  for (index_t i = 0; i < elements; ++i) {
    float sum = 0;
    for (const int r : ranks) sum += static_cast<float>(r + i);
    EXPECT_FLOAT_EQ(data[static_cast<std::size_t>(i)],
                    sum / static_cast<float>(ranks.size()))
        << "element " << i;
  }
}

TEST(AllreduceMean, ComputesTheMeanAcrossRanks) {
  for (const int workers : {2, 3, 5}) {
    const ReduceRun run = run_ramps(workers, 13);
    std::vector<int> all;
    for (int r = 0; r < workers; ++r) all.push_back(r);
    for (int r = 0; r < workers; ++r) {
      ASSERT_EQ(run.status[static_cast<std::size_t>(r)], CollectiveStatus::kOk)
          << "rank " << r << " of " << workers;
      expect_mean_of_ranks(run.data[static_cast<std::size_t>(r)], all, 13);
    }
  }
}

TEST(AllreduceMean, ResultsAreBitIdenticalAcrossRanks) {
  const ReduceRun run = run_ramps(4, 257);
  for (int r = 1; r < 4; ++r) {
    EXPECT_EQ(run.data[static_cast<std::size_t>(r)], run.data[0])
        << "rank " << r;
  }
}

TEST(AllreduceMean, ElementsSmallerThanRingStillReduce) {
  // Fewer elements than ranks.
  const ReduceRun run = run_ramps(3, 2);
  for (int r = 0; r < 3; ++r) {
    ASSERT_EQ(run.status[static_cast<std::size_t>(r)], CollectiveStatus::kOk);
    expect_mean_of_ranks(run.data[static_cast<std::size_t>(r)], {0, 1, 2}, 2);
  }
}

TEST(AllreduceMean, SingleRankIsIdentity) {
  const ReduceRun run = run_ramps(1, 5);
  ASSERT_EQ(run.status[0], CollectiveStatus::kOk);
  expect_mean_of_ranks(run.data[0], {0}, 5);
}

TEST(AllreduceMean, SurvivesDelayedSender) {
  // 120 ms late, well inside the 500 ms heartbeat window: peers wait, nobody
  // is expelled.
  const ReduceRun run = run_ramps(3, 8, /*absent=*/{}, /*late=*/1,
                                  /*late_ms=*/120);
  for (int r = 0; r < 3; ++r) {
    ASSERT_EQ(run.status[static_cast<std::size_t>(r)], CollectiveStatus::kOk);
    expect_mean_of_ranks(run.data[static_cast<std::size_t>(r)], {0, 1, 2}, 8);
  }
}

TEST(AllreduceMean, DegradesAroundAnAbsentPeer) {
  // Rank 2 never joins (simulated crash before step 0). The survivors must
  // expel it once its heartbeat goes stale and reduce over {0, 1}.
  const ReduceRun run = run_ramps(3, 9, /*absent=*/{2});
  for (const int r : {0, 1}) {
    ASSERT_EQ(run.status[static_cast<std::size_t>(r)], CollectiveStatus::kOk)
        << "rank " << r;
    expect_mean_of_ranks(run.data[static_cast<std::size_t>(r)], {0, 1}, 9);
  }
}

TEST(AllreduceMean, SumsInRankOrderWhicheverRankArrivesLast) {
  // Magnitudes chosen so float addition is not associative here: the result
  // is ((r0 + r1) + r2) * (1/3) bit for bit only if the sum runs in rank order.
  const index_t elements = 64;
  std::vector<std::vector<float>> inputs(3);
  for (index_t i = 0; i < elements; ++i) {
    const auto f = static_cast<float>(i);
    inputs[0].push_back(1e8f + 8.0f * f);
    inputs[1].push_back(-1e8f + 3.0f * f);
    inputs[2].push_back(1.0f + 0.25f * f);
  }
  std::vector<float> expected;
  for (index_t i = 0; i < elements; ++i) {
    const auto k = static_cast<std::size_t>(i);
    expected.push_back(((inputs[0][k] + inputs[1][k]) + inputs[2][k]) *
                       (1.0f / 3.0f));
  }
  ASSERT_NE(expected[1], (inputs[0][1] + (inputs[1][1] + inputs[2][1])) *
                             (1.0f / 3.0f))
      << "inputs do not exercise the summation order";
  for (int last = 0; last < 3; ++last) {
    const ReduceRun run = run_reduce(inputs, /*absent=*/{}, last,
                                     /*late_ms=*/80,
                                     /*heartbeat_timeout_s=*/5.0);
    for (int r = 0; r < 3; ++r) {
      ASSERT_EQ(run.status[static_cast<std::size_t>(r)], CollectiveStatus::kOk);
      EXPECT_EQ(run.data[static_cast<std::size_t>(r)], expected)
          << "rank " << r << ", rank " << last << " last";
    }
  }
}

TEST(AllreduceMean, RewindWithdrawsTheWaitingContribution) {
  ControlBlock control(2, 60.0);
  control.heartbeat(0);
  control.heartbeat(1);
  const auto rewind = [&](int rank) {
    control.propose_rewind(rank, 0);
    control.join_rewind(rank, 10.0, [](index_t min_proposed) {
      RewindDecision d;
      d.step = min_proposed;
      return d;
    });
    // As the trainer does: no one reduces before every rank has left the
    // rewind round.
    EXPECT_EQ(control.barrier(rank, 1, 10.0, /*rewind_interrupts=*/false),
              BarrierResult::kOk);
  };

  std::vector<float> stale = {100.0f, 100.0f};
  std::vector<float> fresh0 = {2.0f, 4.0f};
  std::vector<float> fresh1 = {6.0f, 8.0f};
  CollectiveStatus first = CollectiveStatus::kOk;
  CollectiveStatus second0 = CollectiveStatus::kAborted;
  CollectiveStatus second1 = CollectiveStatus::kAborted;
  std::thread rank0([&] {
    first = control.allreduce_mean(0, stale, /*step=*/3, 10.0);
    rewind(0);
    // Rank 1 reduces first; had the withdrawn contribution stayed
    // published, its round would complete without rank 0.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    second0 = control.allreduce_mean(0, fresh0, /*step=*/3, 10.0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread rank1([&] {
    rewind(1);  // proposes while rank 0 waits in the reduce
    second1 = control.allreduce_mean(1, fresh1, /*step=*/3, 10.0);
  });
  rank0.join();
  rank1.join();

  EXPECT_EQ(first, CollectiveStatus::kRewindRequested);
  EXPECT_EQ(stale, (std::vector<float>{100.0f, 100.0f}));  // untouched
  ASSERT_EQ(second0, CollectiveStatus::kOk);
  ASSERT_EQ(second1, CollectiveStatus::kOk);
  EXPECT_EQ(fresh0, (std::vector<float>{4.0f, 6.0f}));
  EXPECT_EQ(fresh1, fresh0);
}

}  // namespace
}  // namespace apa::dist
