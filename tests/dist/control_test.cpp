#include "dist/control.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "support/check.h"

namespace apa::dist {
namespace {

TEST(ControlBlock, StartsWithEveryoneAlive) {
  ControlBlock control(3, 0.5);
  EXPECT_EQ(control.live_count(), 3);
  EXPECT_EQ(control.coordinator(), 0);
  EXPECT_EQ(control.live_ranks(), (std::vector<int>{0, 1, 2}));
}

TEST(ControlBlock, MarkDeadShrinksLiveSetAndBumpsMembership) {
  ControlBlock control(3, 0.5);
  const std::uint64_t v0 = control.membership_version();
  control.mark_dead(0);
  EXPECT_FALSE(control.is_alive(0));
  EXPECT_EQ(control.live_count(), 2);
  EXPECT_EQ(control.coordinator(), 1);  // lowest live rank
  EXPECT_GT(control.membership_version(), v0);
  control.mark_dead(0);  // idempotent
  EXPECT_EQ(control.live_count(), 2);
}

TEST(ControlBlock, BarrierReleasesWhenAllArrive) {
  ControlBlock control(3, 5.0);
  std::vector<BarrierResult> results(3, BarrierResult::kAborted);
  std::vector<std::thread> threads;
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&, r] {
      control.heartbeat(r);
      results[static_cast<std::size_t>(r)] = control.barrier(r, 1, 5.0);
    });
  }
  for (auto& t : threads) t.join();
  for (const BarrierResult result : results) {
    EXPECT_EQ(result, BarrierResult::kOk);
  }
}

TEST(ControlBlock, BarrierCompletesOverSurvivorsAfterMarkDead) {
  // Two of three arrive; the third is reported dead by another thread. The
  // barrier must complete for the survivors instead of waiting for the dead
  // rank.
  ControlBlock control(3, 60.0);  // heartbeats never go stale here
  std::vector<BarrierResult> results(2, BarrierResult::kAborted);
  std::vector<std::thread> threads;
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      control.heartbeat(r);
      results[static_cast<std::size_t>(r)] = control.barrier(r, 7, 10.0);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  control.mark_dead(2);
  for (auto& t : threads) t.join();
  for (const BarrierResult result : results) {
    EXPECT_EQ(result, BarrierResult::kMembershipChanged);
  }
}

TEST(ControlBlock, BarrierExpelsStaleHeartbeats) {
  ControlBlock control(3, 0.05);  // 50 ms staleness window
  const std::uint64_t v0 = control.membership_version();
  control.heartbeat(2);  // rank 2 heartbeats once, then goes silent
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  // Freshen the survivors *before* spawning so neither can be expelled while
  // the other's thread is still being scheduled.
  control.heartbeat(0);
  control.heartbeat(1);
  std::vector<BarrierResult> results(2, BarrierResult::kAborted);
  std::vector<std::thread> threads;
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      control.heartbeat(r);
      results[static_cast<std::size_t>(r)] =
          control.barrier(r, 3, 10.0, /*rewind_interrupts=*/true, v0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(control.is_alive(2));
  for (const BarrierResult result : results) {
    EXPECT_EQ(result, BarrierResult::kMembershipChanged);
  }
}

TEST(ControlBlock, BarrierTimeoutAborts) {
  // Rank 1 never arrives and never heartbeats stale (it heartbeat recently
  // with a huge window), so the barrier can only time out — which must poison
  // the run rather than deadlock it.
  ControlBlock control(2, 60.0);
  control.heartbeat(0);
  control.heartbeat(1);
  const BarrierResult result = control.barrier(0, 1, 0.1);
  EXPECT_EQ(result, BarrierResult::kAborted);
  EXPECT_TRUE(control.aborted());
  EXPECT_THROW(control.check_abort(), ApaError);
}

TEST(ControlBlock, RewindInterruptsBarrier) {
  ControlBlock control(2, 60.0);
  control.heartbeat(0);
  control.heartbeat(1);
  std::thread waiter_thread;
  BarrierResult waiter = BarrierResult::kOk;
  waiter_thread = std::thread([&] { waiter = control.barrier(0, 1, 10.0); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  control.propose_rewind(1, 5);
  waiter_thread.join();
  EXPECT_EQ(waiter, BarrierResult::kRewind);
  EXPECT_TRUE(control.rewind_pending());
}

TEST(ControlBlock, TwoPhaseRewindAgreesOnMinProposal) {
  ControlBlock control(3, 60.0);
  for (int r = 0; r < 3; ++r) control.heartbeat(r);
  const std::vector<index_t> proposals = {50, 30, 40};
  std::vector<RewindDecision> decisions(3);
  std::atomic<int> decide_calls{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&, r] {
      control.propose_rewind(r, proposals[static_cast<std::size_t>(r)]);
      decisions[static_cast<std::size_t>(r)] =
          control.join_rewind(r, 10.0, [&](index_t min_proposed) {
            ++decide_calls;
            RewindDecision d;
            d.step = min_proposed;  // coordinator validates; here: accept
            return d;
          });
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(decide_calls.load(), 1);  // only the coordinator decides
  for (const RewindDecision& d : decisions) {
    EXPECT_EQ(d.step, 30);  // min over proposals — everyone can restore it
  }
  EXPECT_FALSE(control.rewind_pending());
  EXPECT_EQ(control.rewind_rounds(), 1u);
}

TEST(ControlBlock, RewindDecideFailureAbortsEveryone) {
  ControlBlock control(2, 60.0);
  control.heartbeat(0);
  control.heartbeat(1);
  std::atomic<int> throws{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      control.propose_rewind(r, -1);
      try {
        control.join_rewind(r, 10.0, [&](index_t) -> RewindDecision {
          APA_FAIL(ErrorCode::kDiverged, "no consistent checkpoint");
        });
      } catch (const ApaError&) {
        ++throws;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(throws.load(), 2);
  EXPECT_TRUE(control.aborted());
}

TEST(ControlBlock, AbortWakesBarrierWaiters) {
  ControlBlock control(2, 60.0);
  control.heartbeat(0);
  control.heartbeat(1);
  BarrierResult result = BarrierResult::kOk;
  std::thread waiter([&] { result = control.barrier(0, 1, 10.0); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  control.abort(ErrorCode::kDiverged, "test abort");
  waiter.join();
  EXPECT_EQ(result, BarrierResult::kAborted);
}

}  // namespace
}  // namespace apa::dist
