#pragma once
// Deterministic fault injection for the distributed training stack. A
// DistFaultPolicy describes *when* each failure mode fires (worker rank +
// training step); the checkpoint writer and worker loop consult it at the
// corresponding points, so every failure path — crash, corrupted gradient
// contribution, corrupted checkpoint shard, slow worker — is exercised by
// tests and the CI fault drill instead of only being claimed. FaultState
// accumulates what actually fired, for assertions.
//
// Spec grammar (comma-separated clauses, e.g. from --inject-fault):
//   kill@R:S           worker R stops participating (simulated crash) at the
//                      top of step S — no goodbye, heartbeat goes stale,
//                      peers must *detect* the death
//   corrupt@R:S        worker R's local gradient contribution is overwritten
//                      with garbage (1e30) just before the step-S all-reduce
//   corrupt-shard@R:S  one byte of worker R's checkpoint shard is flipped on
//                      disk after the step-S commit (caught by the manifest
//                      checksum at the next rollback, forcing fallback to the
//                      previous consistent step)
//   delay@R:S:MS       worker R sleeps MS milliseconds before publishing its
//                      step-S contribution (peers wait; below the heartbeat
//                      window nobody is expelled)

#include <atomic>
#include <string>

#include "support/matrix.h"  // index_t

namespace apa::dist {

struct DistFaultPolicy {
  int kill_rank = -1;
  index_t kill_step = -1;

  int corrupt_rank = -1;
  index_t corrupt_step = -1;

  int corrupt_shard_rank = -1;
  index_t corrupt_shard_step = -1;

  int delay_rank = -1;
  index_t delay_step = -1;
  double delay_s = 0;

  /// True when any clause is armed.
  [[nodiscard]] bool any() const {
    return kill_rank >= 0 || corrupt_rank >= 0 || corrupt_shard_rank >= 0 ||
           delay_rank >= 0;
  }

  [[nodiscard]] bool kills(int rank, index_t step) const {
    return rank == kill_rank && step == kill_step;
  }
  [[nodiscard]] bool corrupts_grad(int rank, index_t step) const {
    return rank == corrupt_rank && step == corrupt_step;
  }
  [[nodiscard]] bool corrupts_shard(int rank, index_t step) const {
    return rank == corrupt_shard_rank && step == corrupt_shard_step;
  }
  [[nodiscard]] bool delays(int rank, index_t step) const {
    return rank == delay_rank && step == delay_step;
  }

  /// Parses the grammar above; throws ApaError{kPrecondition} on a malformed
  /// spec. An empty string yields a policy with no faults armed.
  static DistFaultPolicy parse(const std::string& spec);
};

/// What actually fired during a run. Atomic so every worker thread can record
/// its faults.
struct FaultState {
  std::atomic<int> workers_killed{0};
  std::atomic<int> grads_corrupted{0};
  std::atomic<int> shards_corrupted{0};
};

}  // namespace apa::dist
