#include "dist/trainer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <functional>

#include "data/synthetic_mnist.h"
#include "dist/checkpoint.h"
#include "support/check.h"

namespace apa::dist {
namespace {

namespace fs = std::filesystem;

data::Dataset small_train_set() {
  data::SyntheticMnistOptions options;
  options.train_size = 512;
  options.test_size = 1;
  options.seed = 99;
  return data::make_synthetic_mnist(options).train;
}

std::function<nn::Mlp()> model_factory() {
  return [] {
    nn::MlpConfig config;
    config.layer_sizes = {data::kImagePixels, 32, data::kNumClasses};
    config.learning_rate = 0.05f;
    config.seed = 7;
    return nn::Mlp(config, nn::MatmulBackend("classical"),
                   nn::MatmulBackend("classical"));
  };
}

class DistTrainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("apamm_dist_train_" + std::string(::testing::UnitTest::GetInstance()
                                                   ->current_test_info()
                                                   ->name())))
               .string();
    fs::remove_all(dir_);
    options_.checkpoint_dir = dir_;
    options_.workers = 2;
    options_.batch = 16;
    options_.steps = 12;
    options_.checkpoint_every = 4;
    options_.warmup_steps = 2;
    options_.barrier_timeout_s = 20.0;
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
  DistTrainOptions options_;
};

TEST_F(DistTrainerTest, FaultFreeEpochKeepsReplicasBitIdentical) {
  const DistEpochStats stats =
      train_data_parallel(model_factory(), small_train_set(), options_);
  EXPECT_EQ(stats.steps, 12);
  EXPECT_EQ(stats.initial_workers, 2);
  EXPECT_EQ(stats.final_workers, 2);
  EXPECT_EQ(stats.worker_deaths, 0);
  EXPECT_EQ(stats.rollbacks, 0);
  EXPECT_TRUE(stats.replicas_bit_identical);
  EXPECT_FALSE(stats.degraded_to_single);
  EXPECT_TRUE(std::isfinite(stats.mean_loss));
  EXPECT_GT(stats.checkpoints_written, 0);
  EXPECT_EQ(stats.final_checkpoint_step, 12);

  // The committed final state must load and match the in-memory fingerprint.
  nn::Mlp reloaded = model_factory()();
  load_sharded_checkpoint(dir_, stats.final_checkpoint_step, reloaded);
  EXPECT_EQ(model_checksum(reloaded), stats.final_checksum);
}

TEST_F(DistTrainerTest, DistributedRunMatchesLossBallpark) {
  // The 2-worker mean loss should land in the same ballpark as a single
  // process run over the same data (not bit-equal: different batch layout).
  const DistEpochStats multi =
      train_data_parallel(model_factory(), small_train_set(), options_);
  DistTrainOptions solo = options_;
  solo.workers = 1;
  solo.checkpoint_dir = dir_ + "_solo";
  const DistEpochStats single =
      train_data_parallel(model_factory(), small_train_set(), solo);
  fs::remove_all(solo.checkpoint_dir);
  EXPECT_TRUE(std::isfinite(multi.mean_loss));
  EXPECT_TRUE(std::isfinite(single.mean_loss));
  EXPECT_NEAR(multi.mean_loss, single.mean_loss,
              0.5 * std::max(multi.mean_loss, single.mean_loss));
}

TEST_F(DistTrainerTest, KilledWorkerDegradesToSurvivors) {
  options_.workers = 3;
  options_.faults = DistFaultPolicy::parse("kill@2:5");
  options_.heartbeat_timeout_s = 0.5;
  const DistEpochStats stats =
      train_data_parallel(model_factory(), small_train_set(), options_);
  EXPECT_EQ(stats.faults_killed, 1);
  EXPECT_EQ(stats.final_workers, 2);
  EXPECT_EQ(stats.worker_deaths, 1);
  EXPECT_EQ(stats.steps, 12);  // survivors finish the epoch
  EXPECT_TRUE(stats.replicas_bit_identical);
  EXPECT_EQ(stats.final_checkpoint_step, 12);
  nn::Mlp reloaded = model_factory()();
  load_sharded_checkpoint(dir_, 12, reloaded);
  EXPECT_EQ(model_checksum(reloaded), stats.final_checksum);
}

TEST_F(DistTrainerTest, DegradationLadderReachesSingleWorker) {
  options_.workers = 2;
  options_.faults = DistFaultPolicy::parse("kill@1:3");
  const DistEpochStats stats =
      train_data_parallel(model_factory(), small_train_set(), options_);
  EXPECT_EQ(stats.final_workers, 1);
  EXPECT_TRUE(stats.degraded_to_single);
  EXPECT_EQ(stats.steps, 12);
  EXPECT_TRUE(std::isfinite(stats.mean_loss));
}

TEST_F(DistTrainerTest, CorruptGradientTriggersBitExactRollback) {
  options_.faults = DistFaultPolicy::parse("corrupt@1:6");
  const DistEpochStats stats =
      train_data_parallel(model_factory(), small_train_set(), options_);
  EXPECT_EQ(stats.faults_grad_corrupted, 1);
  EXPECT_GE(stats.rollbacks, 1);
  EXPECT_TRUE(stats.rollbacks_bit_exact);
  EXPECT_TRUE(stats.replicas_bit_identical);
  // Replay counts too: at least the nominal 12 applied updates happened.
  EXPECT_GE(stats.steps, 12);
  EXPECT_TRUE(std::isfinite(stats.mean_loss));
}

TEST_F(DistTrainerTest, RollbackRecoveryMatchesFaultFreeResult) {
  // Determinism end to end: a corrupted step that is rolled back and replayed
  // must land on the exact same final parameters as the run with no fault
  // (the corrupt contribution never survives into an applied update, and the
  // classical backend means no de-risk rung changes the replay bytes).
  const DistEpochStats clean =
      train_data_parallel(model_factory(), small_train_set(), options_);
  DistTrainOptions faulty = options_;
  faulty.checkpoint_dir = dir_ + "_faulty";
  faulty.faults = DistFaultPolicy::parse("corrupt@0:5");
  const DistEpochStats recovered =
      train_data_parallel(model_factory(), small_train_set(), faulty);
  fs::remove_all(faulty.checkpoint_dir);
  EXPECT_GE(recovered.rollbacks, 1);
  EXPECT_EQ(recovered.final_checksum, clean.final_checksum);
}

TEST_F(DistTrainerTest, CorruptShardForcesFallbackToOlderStep) {
  // Shard written at step 4 rots after commit; the divergence at step 6 must
  // fall back to the step-0 checkpoint instead of loading the rotten one.
  options_.faults = DistFaultPolicy::parse("corrupt-shard@0:4,corrupt@1:6");
  const DistEpochStats stats =
      train_data_parallel(model_factory(), small_train_set(), options_);
  EXPECT_EQ(stats.faults_shard_corrupted, 1);
  EXPECT_GE(stats.rollbacks, 1);
  EXPECT_GE(stats.checkpoint_fallbacks, 1);
  EXPECT_TRUE(stats.rollbacks_bit_exact);
  EXPECT_GE(stats.steps, 12);
}

TEST_F(DistTrainerTest, CombinedKillAndCorruptDrill) {
  // The ISSUE acceptance drill: kill one worker AND corrupt one gradient in
  // the same epoch. Expect detection, a distributed-consistent bit-exact
  // rollback, degradation to the survivors, and a final accuracy-bearing
  // model in the same ballpark as the fault-free run.
  options_.workers = 3;
  options_.faults = DistFaultPolicy::parse("kill@2:4,corrupt@1:7");
  options_.heartbeat_timeout_s = 0.5;
  const DistEpochStats stats =
      train_data_parallel(model_factory(), small_train_set(), options_);
  EXPECT_EQ(stats.faults_killed, 1);
  EXPECT_EQ(stats.faults_grad_corrupted, 1);
  EXPECT_EQ(stats.final_workers, 2);
  EXPECT_GE(stats.rollbacks, 1);
  EXPECT_TRUE(stats.rollbacks_bit_exact);
  EXPECT_TRUE(stats.replicas_bit_identical);
  EXPECT_GE(stats.steps, 12);
  EXPECT_TRUE(std::isfinite(stats.mean_loss));

  const DistEpochStats clean =
      train_data_parallel(model_factory(), small_train_set(),
                          [&] {
                            DistTrainOptions c = options_;
                            c.checkpoint_dir = dir_ + "_clean";
                            c.faults = DistFaultPolicy{};
                            return c;
                          }());
  fs::remove_all(dir_ + "_clean");
  EXPECT_NEAR(stats.mean_loss, clean.mean_loss,
              0.5 * std::max(stats.mean_loss, clean.mean_loss));
}

TEST_F(DistTrainerTest, RollbackBudgetExhaustionAborts) {
  // An unconditional NaN source cannot be outrun by rollbacks: after
  // max_rollbacks rounds the run must abort with kDiverged, not hang.
  options_.max_rollbacks = 0;
  options_.faults = DistFaultPolicy::parse("corrupt@0:3");
  try {
    train_data_parallel(model_factory(), small_train_set(), options_);
    FAIL() << "expected ApaError";
  } catch (const ApaError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDiverged);
  }
}

TEST_F(DistTrainerTest, RejectsBadOptions) {
  const auto run = [&](DistTrainOptions options) {
    return train_data_parallel(model_factory(), small_train_set(), options);
  };
  DistTrainOptions no_dir = options_;
  no_dir.checkpoint_dir.clear();
  EXPECT_THROW(run(no_dir), ApaError);
  DistTrainOptions no_workers = options_;
  no_workers.workers = 0;
  EXPECT_THROW(run(no_workers), ApaError);
}

TEST_F(DistTrainerTest, SingleWorkerPathIsPlainSgd) {
  options_.workers = 1;
  const DistEpochStats stats =
      train_data_parallel(model_factory(), small_train_set(), options_);
  EXPECT_EQ(stats.steps, 12);
  EXPECT_EQ(stats.final_workers, 1);
  EXPECT_TRUE(std::isfinite(stats.mean_loss));
  EXPECT_EQ(stats.resend_requests, 0);  // the shared-memory reduce never resends
}

}  // namespace
}  // namespace apa::dist
