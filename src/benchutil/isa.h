#pragma once
// --isa=best|avx2|avx512|scalar for the bench binaries: pins the gemm
// microkernel every product in the run uses (blas/isa.h) and prints it, so a
// reported number always says which compute-to-bandwidth balance produced it.
// avx2 is the paper's balance; best (the default) is the host's widest kernel.

#include <string>

#include "blas/isa.h"
#include "support/cli.h"

namespace apa::bench {

/// Applies `value` ("best", "avx2", "avx512" or "scalar") process-wide and
/// prints "kernel: <name> <MR>x<NR>". An unknown name, or an ISA this CPU
/// lacks, prints an error naming the supported kernels and exits with status 2.
void select_isa(const std::string& value);

/// select_isa on the --isa flag (default "best").
void select_isa(const CliArgs& args);

}  // namespace apa::bench
