#pragma once
// Shared writer for the repo's BENCH_*.json artifacts. Every bench binary
// used to hand-roll its own fprintf JSON; this centralizes the document shape
//   {"bench": <name>, "kernel": <gemm kernel>, <meta fields...>, "rows": [...]}
// on obs::JsonRecord so rows stay insertion-ordered and string/number
// escaping is handled in one place.

#include <cstddef>
#include <string>
#include <vector>

#include "obs/telemetry.h"

namespace apa::bench {

class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string bench_name) : name_(std::move(bench_name)) {}

  /// Top-level metadata fields, rendered between "bench" and "rows".
  [[nodiscard]] obs::JsonRecord& meta() { return meta_; }
  void add_row(obs::JsonRecord row) { rows_.push_back(std::move(row)); }
  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

  /// Writes the document to `path` and reports it on stdout. "kernel" is the
  /// gemm microkernel active at write time (benchutil/isa.h), e.g.
  /// "avx2 6x16", so the numbers say which balance produced them. Empty path is a
  /// silent no-op; an unwritable path warns on stderr. Returns success.
  bool write(const std::string& path) const;

 private:
  std::string name_;
  obs::JsonRecord meta_;
  std::vector<obs::JsonRecord> rows_;
};

}  // namespace apa::bench
