#pragma once
// trace_merge: fuses per-rank Chrome trace files (obs::write_chrome_trace
// with TraceExportOptions{rank}) into one multi-process timeline.
//
// Each input carries a `clockSync` header — the rank's steady-clock mark
// taken while every worker sat at the same startup barrier (dist/trainer.cpp
// clock_sync) — so pairwise skew between files is bounded by the barrier
// release jitter. The merge:
//   * shifts every event by -(mark_r - min_mark) so all timelines share the
//     reference rank's axis, then rebases the result to start at ts = 0;
//   * rewrites pid to the rank, so the viewer shows one process lane per
//     worker with its all-reduce contributions ("s"/"f" flow arrows, ids
//     derived in dist/control.cpp) crossing between lanes;
//   * sorts events by timestamp (metadata first) and tallies how many flow
//     ids found both halves.
//
// Output schema: docs/OBSERVABILITY.md §Trace merge.

#include <string>
#include <vector>

namespace apa::obstools {

struct TraceMergeStats {
  int files = 0;
  std::size_t events = 0;        ///< non-metadata events written
  std::size_t metadata = 0;      ///< "M" records written
  int flow_pairs = 0;            ///< flow ids with both an "s" and an "f" half
  int flow_unpaired = 0;         ///< flow ids missing one half
  int ranks_without_mark = 0;    ///< inputs aligned with zero offset
  double max_offset_us = 0.0;    ///< largest clock correction applied
};

/// Merges `paths` (each a chrome_trace_json file) into one JSON document.
/// Returns false with `error` set on unreadable/unparsable input; per-file
/// context is included in the message.
bool merge_trace_files(const std::vector<std::string>& paths,
                       std::string* merged_json, TraceMergeStats* stats,
                       std::string* error);

/// merge_trace_files + write to `out_path`.
bool merge_trace_files_to(const std::vector<std::string>& paths,
                          const std::string& out_path, TraceMergeStats* stats,
                          std::string* error);

}  // namespace apa::obstools
