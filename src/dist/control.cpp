#include "dist/control.h"

#include <algorithm>
#include <atomic>

#include "nn/checkpoint_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace apa::dist {

namespace {
constexpr auto kPollSlice = std::chrono::milliseconds(5);

/// Serial of each ControlBlock in this process; see ControlBlock::run_.
std::atomic<std::uint64_t> g_next_run{0};

/// Trace flow id pairing a published contribution with its consumption; the
/// consumer derives it from the publisher's rank alone.
std::uint64_t contribution_flow_id(std::uint64_t run, int rank, index_t step,
                                   std::uint64_t rewind_round) {
  std::uint64_t hash = nn::ckpt::fnv1a(&run, sizeof(run));
  hash = nn::ckpt::fnv1a(&rank, sizeof(rank), hash);
  hash = nn::ckpt::fnv1a(&step, sizeof(step), hash);
  hash = nn::ckpt::fnv1a(&rewind_round, sizeof(rewind_round), hash);
  return hash != 0 ? hash : 1;
}
}  // namespace

ControlBlock::ControlBlock(int num_workers, double heartbeat_timeout_s)
    : num_workers_(num_workers),
      heartbeat_timeout_s_(heartbeat_timeout_s),
      run_(g_next_run.fetch_add(1, std::memory_order_relaxed)),
      alive_(static_cast<std::size_t>(num_workers), true),
      contributions_(static_cast<std::size_t>(num_workers), nullptr),
      rewind_joined_(static_cast<std::size_t>(num_workers), false),
      rewind_proposal_(static_cast<std::size_t>(num_workers), -1),
      start_(std::chrono::steady_clock::now()) {
  APA_CHECK_CODE(num_workers >= 1, ErrorCode::kPrecondition,
                 "control block needs at least one worker");
  APA_CHECK_CODE(heartbeat_timeout_s > 0, ErrorCode::kPrecondition,
                 "heartbeat timeout must be positive");
  // Stamp every worker as "heard from at construction": a worker whose thread
  // never starts (or is killed before its first step) goes stale exactly one
  // window later, with no special never-heartbeated case.
  heartbeat_ns_.reserve(static_cast<std::size_t>(num_workers));
  for (int r = 0; r < num_workers; ++r) {
    heartbeat_ns_.push_back(std::make_unique<std::atomic<std::int64_t>>(
        std::max<std::int64_t>(1, now_ns())));
  }
}

std::int64_t ControlBlock::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

bool ControlBlock::is_alive(int rank) const {
  MutexLock lock(mu_);
  return alive_[static_cast<std::size_t>(rank)];
}

int ControlBlock::live_count_locked() const {
  return static_cast<int>(std::count(alive_.begin(), alive_.end(), true));
}

int ControlBlock::live_count() const {
  MutexLock lock(mu_);
  return live_count_locked();
}

std::vector<int> ControlBlock::live_ranks() const {
  MutexLock lock(mu_);
  std::vector<int> out;
  for (int r = 0; r < num_workers_; ++r) {
    if (alive_[static_cast<std::size_t>(r)]) out.push_back(r);
  }
  return out;
}

std::uint64_t ControlBlock::live_snapshot(std::vector<int>* ranks) const {
  MutexLock lock(mu_);
  ranks->clear();
  for (int r = 0; r < num_workers_; ++r) {
    if (alive_[static_cast<std::size_t>(r)]) ranks->push_back(r);
  }
  return membership_version_;
}

std::uint64_t ControlBlock::membership_version() const {
  MutexLock lock(mu_);
  return membership_version_;
}

int ControlBlock::coordinator_locked() const {
  for (int r = 0; r < num_workers_; ++r) {
    if (alive_[static_cast<std::size_t>(r)]) return r;
  }
  return -1;
}

int ControlBlock::coordinator() const {
  MutexLock lock(mu_);
  return coordinator_locked();
}

void ControlBlock::mark_dead_locked(int rank) {
  if (!alive_[static_cast<std::size_t>(rank)]) return;
  alive_[static_cast<std::size_t>(rank)] = false;
  ++membership_version_;
  APA_COUNTER_INC("dist.worker_deaths");
  // A dead worker can never arrive at the in-flight barrier or rewind round;
  // waiters re-derive the live set on wake, so just wake them. If the dead
  // worker was the last straggler of a rewind round, close the round too.
  maybe_close_rewind_locked();
  cv_.notify_all();
}

void ControlBlock::mark_dead(int rank) {
  MutexLock lock(mu_);
  mark_dead_locked(rank);
}

void ControlBlock::heartbeat(int rank) {
  heartbeat_ns_[static_cast<std::size_t>(rank)]->store(
      now_ns(), std::memory_order_release);
}

bool ControlBlock::heartbeat_stale(int rank) const {
  const std::int64_t last =
      heartbeat_ns_[static_cast<std::size_t>(rank)]->load(
          std::memory_order_acquire);
  const auto window = static_cast<std::int64_t>(heartbeat_timeout_s_ * 1e9);
  return now_ns() - last > window;
}

int ControlBlock::expel_stale_locked() {
  int expelled = 0;
  for (int r = 0; r < num_workers_; ++r) {
    if (alive_[static_cast<std::size_t>(r)] && heartbeat_stale(r)) {
      mark_dead_locked(r);
      ++expelled;
    }
  }
  return expelled;
}

int ControlBlock::expel_stale() {
  MutexLock lock(mu_);
  return expel_stale_locked();
}

void ControlBlock::abort_locked(ErrorCode code, const std::string& what) {
  if (!aborted_) {
    aborted_ = true;
    abort_code_ = code;
    abort_what_ = what;
    APA_COUNTER_INC("dist.aborts");
  }
  cv_.notify_all();
}

void ControlBlock::abort(ErrorCode code, const std::string& what) {
  MutexLock lock(mu_);
  abort_locked(code, what);
}

bool ControlBlock::aborted() const {
  MutexLock lock(mu_);
  return aborted_;
}

void ControlBlock::check_abort_locked() const {
  if (aborted_) throw ApaError(abort_code_, "dist run aborted: " + abort_what_);
}

void ControlBlock::check_abort() const {
  MutexLock lock(mu_);
  check_abort_locked();
}

BarrierResult ControlBlock::barrier(int rank, std::uint64_t tag,
                                    double timeout_s, bool rewind_interrupts,
                                    std::uint64_t expected_membership) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  MutexLock lock(mu_);
  if (aborted_) return BarrierResult::kAborted;
  if (rewind_interrupts && rewind_active_) return BarrierResult::kRewind;
  if (!alive_[static_cast<std::size_t>(rank)]) return BarrierResult::kAborted;

  if (barrier_.tag != tag) {
    // First arrival of a new barrier. The previous one has fully drained by
    // construction: all workers pass barrier K before any reaches K+1.
    barrier_.tag = tag;
    barrier_.arrived = 0;
  }
  const std::uint64_t entry_membership =
      expected_membership == kEntryMembership ? membership_version_
                                              : expected_membership;
  ++barrier_.arrived;
  if (barrier_.arrived >= live_count_locked()) {
    ++barrier_.generation;
    barrier_.arrived = 0;
    cv_.notify_all();
    return membership_version_ == entry_membership
               ? BarrierResult::kOk
               : BarrierResult::kMembershipChanged;
  }
  const std::uint64_t my_generation = barrier_.generation;
  while (barrier_.generation == my_generation) {
    // Waiting here is legitimate liveness: refresh our own stamp so a peer's
    // expel scan can't mistake a long barrier wait for a crash.
    heartbeat(rank);
    if (aborted_) return BarrierResult::kAborted;
    if (rewind_interrupts && rewind_active_) {
      // Withdraw: this worker will re-arrive via the rewind protocol.
      --barrier_.arrived;
      return BarrierResult::kRewind;
    }
    // Deaths may have been recorded by other threads (mark_dead, or an
    // expulsion by a peer waiting in the all-reduce) — re-check arrival count against the *current* live set so
    // the barrier completes over the survivors instead of waiting forever.
    expel_stale_locked();
    if (barrier_.arrived >= live_count_locked()) {
      ++barrier_.generation;
      barrier_.arrived = 0;
      cv_.notify_all();
      break;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      --barrier_.arrived;
      abort_locked(ErrorCode::kDiverged,
                   "barrier timed out with no stale heartbeat to blame");
      return BarrierResult::kAborted;
    }
    cv_.wait_for(mu_, kPollSlice);
  }
  return membership_version_ == entry_membership
             ? BarrierResult::kOk
             : BarrierResult::kMembershipChanged;
}

bool ControlBlock::all_live_contributed_locked() const {
  for (int r = 0; r < num_workers_; ++r) {
    const auto idx = static_cast<std::size_t>(r);
    if (alive_[idx] && contributions_[idx] == nullptr) return false;
  }
  return true;
}

void ControlBlock::reduce_locked(int consumer, index_t step) {
  // Ascending rank order, the same on every call: ((c0 + c1) + c2) * (1/n).
  int n = 0;
  for (int r = 0; r < num_workers_; ++r) {
    if (!alive_[static_cast<std::size_t>(r)]) continue;
    const std::vector<float>& in = *contributions_[static_cast<std::size_t>(r)];
    if (n == 0) {
      reduced_.assign(in.begin(), in.end());
    } else {
      if (in.size() != reduced_.size()) {
        abort_locked(ErrorCode::kPrecondition,
                     "all-reduce contributions disagree on length");
        return;
      }
      for (std::size_t i = 0; i < reduced_.size(); ++i) reduced_[i] += in[i];
    }
    if (r != consumer) {
      APA_TRACE_FLOW_IN("dist.contribution",
                        contribution_flow_id(run_, r, step, rewind_round_));
    }
    ++n;
  }
  const float inv = 1.0f / static_cast<float>(n);
  for (float& x : reduced_) x *= inv;
  std::fill(contributions_.begin(), contributions_.end(), nullptr);
  ++reduce_generation_;
  cv_.notify_all();
}

CollectiveStatus ControlBlock::allreduce_mean(int rank,
                                              std::vector<float>& data,
                                              index_t step, double timeout_s) {
  APA_TRACE_SCOPE("dist.allreduce");
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  const auto idx = static_cast<std::size_t>(rank);
  MutexLock lock(mu_);
  if (aborted_ || !alive_[idx]) return CollectiveStatus::kAborted;
  if (rewind_active_) return CollectiveStatus::kRewindRequested;
  if (live_count_locked() == 1) return CollectiveStatus::kOk;  // mean of one

  contributions_[idx] = &data;
  const std::uint64_t my_generation = reduce_generation_;
  bool published = false;
  while (reduce_generation_ == my_generation) {
    // Waiting is legitimate liveness (see barrier()); stale peers are expelled
    // so the round completes over the survivors.
    heartbeat(rank);
    expel_stale_locked();
    CollectiveStatus withdraw = CollectiveStatus::kOk;
    if (aborted_ || !alive_[idx]) {
      withdraw = CollectiveStatus::kAborted;
    } else if (rewind_active_) {
      withdraw = CollectiveStatus::kRewindRequested;
    } else if (all_live_contributed_locked()) {
      reduce_locked(rank, step);  // completes the round, or aborts the run
      continue;
    } else if (std::chrono::steady_clock::now() >= deadline) {
      abort_locked(ErrorCode::kDiverged,
                   "all-reduce timed out with no stale heartbeat to blame");
      withdraw = CollectiveStatus::kAborted;
    }
    if (withdraw != CollectiveStatus::kOk) {
      contributions_[idx] = nullptr;
      return withdraw;
    }
    if (!published) {
      APA_TRACE_FLOW_OUT("dist.contribution",
                         contribution_flow_id(run_, rank, step, rewind_round_));
      published = true;
    }
    cv_.wait_for(mu_, kPollSlice);
  }
  // A live caller's next contribution is needed before reduced_ can change.
  if (!alive_[idx]) return CollectiveStatus::kAborted;
  std::copy(reduced_.begin(), reduced_.end(), data.begin());
  return CollectiveStatus::kOk;
}

void ControlBlock::propose_rewind(int rank, index_t restorable_step) {
  MutexLock lock(mu_);
  if (aborted_) return;
  if (!rewind_active_) {
    rewind_active_ = true;
    rewind_decided_ = false;
    rewind_exited_ = 0;
    std::fill(rewind_joined_.begin(), rewind_joined_.end(), false);
    std::fill(rewind_proposal_.begin(), rewind_proposal_.end(),
              static_cast<index_t>(-1));
    APA_COUNTER_INC("dist.rewind.rounds");
  }
  auto idx = static_cast<std::size_t>(rank);
  if (!rewind_joined_[idx]) {
    rewind_joined_[idx] = true;
    rewind_proposal_[idx] = restorable_step;
  }
  cv_.notify_all();
}

bool ControlBlock::rewind_pending() const {
  MutexLock lock(mu_);
  return rewind_active_;
}

std::uint64_t ControlBlock::rewind_rounds() const {
  MutexLock lock(mu_);
  return rewind_round_;
}

RewindDecision ControlBlock::join_rewind(
    int rank, double timeout_s,
    const std::function<RewindDecision(index_t min_proposed)>& decide) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  MutexLock lock(mu_);
  check_abort_locked();
  APA_CHECK_CODE(rewind_active_, ErrorCode::kPrecondition,
                 "join_rewind with no active round (propose first)");
  const std::uint64_t my_round = rewind_round_;

  // Phase 1: wait until every live worker has joined (stale ones expelled, so
  // a crash mid-rewind shrinks the quorum instead of wedging it).
  auto all_joined = [&] {
    for (int r = 0; r < num_workers_; ++r) {
      if (alive_[static_cast<std::size_t>(r)] &&
          !rewind_joined_[static_cast<std::size_t>(r)]) {
        return false;
      }
    }
    return true;
  };
  while (!all_joined()) {
    heartbeat(rank);
    check_abort_locked();
    expel_stale_locked();
    if (std::chrono::steady_clock::now() >= deadline) {
      abort_locked(ErrorCode::kDiverged, "rewind barrier timed out");
    }
    check_abort_locked();
    cv_.wait_for(mu_, kPollSlice);
  }

  // Phase 2: the coordinator folds min() over the live proposals, validates
  // candidates on disk, and publishes the decision; everyone else waits.
  if (!rewind_decided_ && rank == coordinator_locked()) {
    index_t min_proposed = -1;
    bool first = true;
    for (int r = 0; r < num_workers_; ++r) {
      if (!alive_[static_cast<std::size_t>(r)]) continue;
      const index_t p = rewind_proposal_[static_cast<std::size_t>(r)];
      if (first || p < min_proposed) min_proposed = p;
      first = false;
    }
    RewindDecision decision;
    lock.unlock();  // disk validation can be slow; don't hold the control lock
    try {
      decision = decide(min_proposed);
    } catch (const ApaError& e) {
      abort(e.code(), e.what());
      throw;
    }
    lock.lock();
    rewind_decision_ = decision;
    rewind_decided_ = true;
    cv_.notify_all();
  }
  while (!rewind_decided_ && rewind_round_ == my_round) {
    heartbeat(rank);
    check_abort_locked();
    expel_stale_locked();
    if (rank == coordinator_locked() && !rewind_decided_) {
      // The coordinator died mid-decision and this worker inherited the role.
      lock.unlock();
      return join_rewind(rank, timeout_s, decide);
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      abort_locked(ErrorCode::kDiverged, "rewind decision timed out");
    }
    check_abort_locked();
    cv_.wait_for(mu_, kPollSlice);
  }

  const RewindDecision decision = rewind_decision_;
  // Exit accounting is separate from the join flags: a worker that proposed
  // but arrives late must still see everyone as joined, so joined flags stay
  // set until the round actually closes. Last live participant out (or the
  // death of the last straggler, via mark_dead) closes it.
  if (rewind_round_ == my_round) {
    ++rewind_exited_;
    maybe_close_rewind_locked();
  }
  return decision;
}

void ControlBlock::maybe_close_rewind_locked() {
  if (!rewind_active_) return;
  int live_joined = 0;
  for (int r = 0; r < num_workers_; ++r) {
    if (alive_[static_cast<std::size_t>(r)] &&
        rewind_joined_[static_cast<std::size_t>(r)]) {
      ++live_joined;
    }
  }
  if (rewind_exited_ >= live_joined) {
    rewind_active_ = false;
    rewind_decided_ = false;
    rewind_exited_ = 0;
    std::fill(rewind_joined_.begin(), rewind_joined_.end(), false);
    ++rewind_round_;
    cv_.notify_all();
  }
}

}  // namespace apa::dist
