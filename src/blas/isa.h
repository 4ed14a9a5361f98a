#pragma once
// Runtime choice of the gemm microkernel.
//
// Every microkernel (blas/microkernel.h) is compiled into the library with a
// function-level target attribute, so one binary carries the scalar, AVX2+FMA
// and AVX-512 kernels whatever the build flags. gemm_planned runs the kernel
// of the process-wide active ISA: the widest one the CPU supports, unless a
// caller pins another with set_isa — the reproduction figures pin kAvx2, whose
// compute-to-bandwidth balance matches the paper's 2012-era Xeon.

#include <cstdint>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#define APAMM_BLAS_X86 1
#define APAMM_TARGET_AVX2 __attribute__((target("avx2,fma")))
#define APAMM_TARGET_AVX512 __attribute__((target("avx512f")))
#endif

namespace apa::blas {

/// The instruction set a gemm microkernel is written for, narrowest first.
enum class Isa : std::uint8_t { kScalar, kAvx2, kAvx512 };

inline constexpr Isa kAllIsas[] = {Isa::kScalar, Isa::kAvx2, Isa::kAvx512};

/// "scalar", "avx2" or "avx512".
[[nodiscard]] const char* isa_name(Isa isa);

/// True when this CPU (and its OS register-state support) can run the kernel.
[[nodiscard]] bool isa_supported(Isa isa);

/// The widest supported kernel, detected once per process.
[[nodiscard]] Isa best_isa();

/// The kernel gemm_planned runs and PackedPanel packs for: best_isa() until
/// set_isa changes it.
[[nodiscard]] Isa active_isa();

/// Pins the kernel for the whole process (an atomic store, safe from any
/// thread). Panels packed before the switch no longer match and are rejected
/// by gemm_planned. Throws ApaError(kPrecondition) when the CPU lacks `isa`.
void set_isa(Isa isa);

/// The ISA and its single-precision register tile, e.g. "avx512 14x32".
[[nodiscard]] std::string kernel_name(Isa isa);

namespace detail {
#ifdef APAMM_BLAS_X86
template <class Body, class... Args>
APAMM_TARGET_AVX2 decltype(auto) run_avx2(Args... args) {
  return Body::run(args...);
}
#endif
}  // namespace detail

/// Returns Body::run(args...), compiled for AVX2+FMA when the CPU has them
/// and for the build's baseline ISA otherwise. For the streaming loops around
/// the gemm (the APA combines, the guard's probes): a portable build runs them
/// at vector width, and rounds as a -march=native build on the same host does,
/// since FMA contraction follows the compile target. Body::run, and all it
/// calls, must be [[gnu::always_inline]] so each copy is compiled for its
/// caller's target.
template <class Body, class... Args>
decltype(auto) run_for_host(Args... args) {
#ifdef APAMM_BLAS_X86
  if (isa_supported(Isa::kAvx2)) return detail::run_avx2<Body>(args...);
#endif
  return Body::run(args...);
}

}  // namespace apa::blas
