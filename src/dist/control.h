#pragma once
// Control plane shared by the data-parallel workers: live-set membership with
// heartbeat-based death detection, a generic barrier that can *expel* workers
// whose heartbeats go stale instead of deadlocking on them, the gradient
// all-reduce (the same barrier carrying a payload), and the two-phase
// "rewind to step K" protocol that makes divergence rollback distributed-
// consistent:
//
//   phase 1 (propose + gather): any worker that decides to roll back (guard
//     trip, corrupt reduction, checkpoint-load failure) publishes a proposal
//     with the newest step it can personally restore; every live worker joins
//     the rewind barrier, folding min() over the proposals as it arrives.
//   phase 2 (decide + publish): the coordinator — lowest live rank — validates
//     candidate checkpoint steps on disk (manifest + shard checksums) and
//     publishes the chosen K; the barrier releases, every worker restores K,
//     then exchanges full-parameter checksums to prove the restore was
//     bit-exact on all ranks before training resumes.
//
// Everything here is shared-memory state guarded by one mutex + condvar (plus
// atomic heartbeat stamps readable without the lock). Workers never block on a
// dead peer: every wait re-checks heartbeat staleness and shrinks the live
// set, so a kill mid-barrier degrades the worker set rather than hanging it.
// The workers are threads of one process, so a contribution cannot be lost or
// corrupted in flight: the all-reduce reads each worker's buffer in place and
// needs no message checksums, resends or timeouts per hop.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "support/check.h"
#include "support/matrix.h"
#include "support/thread_annotations.h"

namespace apa::dist {

enum class BarrierResult {
  kOk,            ///< all (still-)live workers arrived
  kMembershipChanged,  ///< a peer was expelled while waiting; caller redoes its round
  kRewind,        ///< a rewind proposal is pending; caller joins it instead
  kAborted,       ///< unrecoverable failure elsewhere; caller unwinds
};

/// Outcome of ControlBlock::allreduce_mean.
enum class CollectiveStatus {
  kOk,               ///< data now holds the mean over the live set
  kRewindRequested,  ///< a rewind round started; join it before anything else
  kAborted,          ///< run poisoned, or the caller was expelled; unwind
};

/// Outcome of a completed rewind round, as published by the coordinator.
struct RewindDecision {
  index_t step = -1;          ///< checkpoint step every worker restores (-1 = none valid)
  bool fallback_used = false; ///< true when the newest proposal failed validation
};

class ControlBlock {
 public:
  explicit ControlBlock(int num_workers, double heartbeat_timeout_s);

  // -- membership ---------------------------------------------------------
  [[nodiscard]] int num_workers() const { return num_workers_; }
  [[nodiscard]] bool is_alive(int rank) const APAMM_EXCLUDES(mu_);
  [[nodiscard]] int live_count() const APAMM_EXCLUDES(mu_);
  [[nodiscard]] std::vector<int> live_ranks() const APAMM_EXCLUDES(mu_);
  /// Atomic pair read: fills `ranks` with the live set and returns the
  /// matching membership version, so callers can lay out work over the live
  /// set and later detect (via barrier) that the layout went stale.
  std::uint64_t live_snapshot(std::vector<int>* ranks) const
      APAMM_EXCLUDES(mu_);
  /// Monotonic counter bumped on every expulsion; workers re-shard when it
  /// moves, and checkpoint rounds anchor their shard layout to it.
  [[nodiscard]] std::uint64_t membership_version() const APAMM_EXCLUDES(mu_);
  /// Lowest live rank. Coordinator for manifest writes and rewind decisions.
  [[nodiscard]] int coordinator() const APAMM_EXCLUDES(mu_);

  /// Marks `rank` dead (idempotent), bumps the membership version, and wakes
  /// every waiter so barriers re-evaluate who they are waiting for.
  void mark_dead(int rank) APAMM_EXCLUDES(mu_);

  // -- heartbeats ---------------------------------------------------------
  void heartbeat(int rank);
  /// True when `rank` has not heartbeat within the staleness window.
  [[nodiscard]] bool heartbeat_stale(int rank) const;
  /// Expels every live worker whose heartbeat is stale; returns how many.
  int expel_stale() APAMM_EXCLUDES(mu_);

  // -- barriers ------------------------------------------------------------
  /// Compare-against-entry sentinel for barrier()'s expected_membership.
  static constexpr std::uint64_t kEntryMembership = ~std::uint64_t{0};

  /// Waits until every live worker has arrived at barrier `tag`. While
  /// waiting, stale peers are expelled (so the barrier completes over the
  /// survivors). Returns kRewind if a rewind proposal lands first — callers
  /// outside the rewind protocol must then join the rewind barrier.
  /// kOk means "membership still equals `expected_membership`" (default: the
  /// version when this caller entered); pass the version from live_snapshot
  /// when the caller laid out work over that snapshot, so a death between
  /// snapshot and barrier is reported as kMembershipChanged, not kOk.
  BarrierResult barrier(int rank, std::uint64_t tag, double timeout_s,
                        bool rewind_interrupts = true,
                        std::uint64_t expected_membership = kEntryMembership)
      APAMM_EXCLUDES(mu_);

  // -- all-reduce -----------------------------------------------------------
  /// In place: data -> elementwise mean over the live workers' `data` (all
  /// equal length; every worker passes the same `step`, which names the
  /// contribution's trace flow). Each caller publishes its buffer; the last
  /// live arriver sums the live contributions in ascending rank order, scales
  /// by 1/n, and every caller copies that one result, so all replicas get
  /// bit-identical bytes. A peer expelled while others wait is left out of the
  /// sum. A pending rewind or an abort withdraws the caller's contribution
  /// (kRewindRequested / kAborted). Times out like barrier().
  CollectiveStatus allreduce_mean(int rank, std::vector<float>& data,
                                  index_t step, double timeout_s)
      APAMM_EXCLUDES(mu_);

  // -- two-phase rewind -----------------------------------------------------
  /// Phase-1 entry: publish `restorable_step` (newest step this worker can
  /// restore; -1 if none) and wake everyone. Idempotent per round.
  void propose_rewind(int rank, index_t restorable_step) APAMM_EXCLUDES(mu_);
  [[nodiscard]] bool rewind_pending() const APAMM_EXCLUDES(mu_);
  /// Completed rewind rounds. Part of each all-reduce contribution's trace
  /// flow id, so a replayed step's arrows never pair with the aborted try's.
  [[nodiscard]] std::uint64_t rewind_rounds() const APAMM_EXCLUDES(mu_);

  /// Joins the current rewind round: waits for all live workers to propose
  /// (expelling stale ones), then — on the coordinator — calls `decide` with
  /// the min over live proposals to validate/choose the step and publishes
  /// the result; non-coordinators wait for the publication. Returns the
  /// decision every worker saw. Throws ApaError{kDiverged} on abort.
  RewindDecision join_rewind(
      int rank, double timeout_s,
      const std::function<RewindDecision(index_t min_proposed)>& decide)
      APAMM_EXCLUDES(mu_);

  // -- abort ---------------------------------------------------------------
  /// Poison-pills the run: all waiters wake and see kAborted / throw.
  void abort(ErrorCode code, const std::string& what) APAMM_EXCLUDES(mu_);
  [[nodiscard]] bool aborted() const APAMM_EXCLUDES(mu_);
  /// Rethrows the abort error on the calling thread (no-op if not aborted).
  void check_abort() const APAMM_EXCLUDES(mu_);

 private:
  [[nodiscard]] int live_count_locked() const APAMM_REQUIRES(mu_);
  [[nodiscard]] int coordinator_locked() const APAMM_REQUIRES(mu_);
  void mark_dead_locked(int rank) APAMM_REQUIRES(mu_);
  int expel_stale_locked() APAMM_REQUIRES(mu_);
  void maybe_close_rewind_locked() APAMM_REQUIRES(mu_);
  [[nodiscard]] bool all_live_contributed_locked() const APAMM_REQUIRES(mu_);
  void reduce_locked(int consumer, index_t step) APAMM_REQUIRES(mu_);
  void abort_locked(ErrorCode code, const std::string& what) APAMM_REQUIRES(mu_);
  void check_abort_locked() const APAMM_REQUIRES(mu_);

  const int num_workers_;
  const double heartbeat_timeout_s_;

  mutable Mutex mu_;
  CondVar cv_;
  std::vector<bool> alive_ APAMM_GUARDED_BY(mu_);
  std::uint64_t membership_version_ APAMM_GUARDED_BY(mu_) = 0;

  // steady_clock ns since start(); 0 = never. Atomics so the hot heartbeat
  // write and staleness reads skip the control mutex.
  std::vector<std::unique_ptr<std::atomic<std::int64_t>>> heartbeat_ns_;

  // barrier state: generation counting per tag.
  struct BarrierState {
    std::uint64_t tag = 0;
    int arrived = 0;
    std::uint64_t generation = 0;
  };
  BarrierState barrier_ APAMM_GUARDED_BY(mu_);

  // all-reduce state: each caller's buffer, published until the round
  // completes or the caller withdraws (null = not contributed).
  std::vector<std::vector<float>*> contributions_ APAMM_GUARDED_BY(mu_);
  std::vector<float> reduced_ APAMM_GUARDED_BY(mu_);  ///< last round's mean
  std::uint64_t reduce_generation_ APAMM_GUARDED_BY(mu_) = 0;

  // rewind round state.
  std::uint64_t rewind_round_ APAMM_GUARDED_BY(mu_) = 0;  ///< completed rounds
  bool rewind_active_ APAMM_GUARDED_BY(mu_) = false;
  int rewind_exited_ APAMM_GUARDED_BY(mu_) = 0;  ///< done with this round
  std::vector<bool> rewind_joined_ APAMM_GUARDED_BY(mu_);
  std::vector<index_t> rewind_proposal_ APAMM_GUARDED_BY(mu_);
  bool rewind_decided_ APAMM_GUARDED_BY(mu_) = false;
  RewindDecision rewind_decision_ APAMM_GUARDED_BY(mu_);

  bool aborted_ APAMM_GUARDED_BY(mu_) = false;
  ErrorCode abort_code_ APAMM_GUARDED_BY(mu_) = ErrorCode::kPrecondition;
  std::string abort_what_ APAMM_GUARDED_BY(mu_);

  const std::chrono::steady_clock::time_point start_;
  [[nodiscard]] std::int64_t now_ns() const;
};

}  // namespace apa::dist
