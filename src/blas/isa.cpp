#include "blas/isa.h"

#include <atomic>

#include "blas/microkernel.h"
#include "support/check.h"

namespace apa::blas {
namespace {

bool cpu_has(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
#ifdef APAMM_BLAS_X86
    case Isa::kAvx2:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case Isa::kAvx512:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx512f");
#endif
    default:
      return false;
  }
}

std::atomic<Isa>& active_slot() {
  static std::atomic<Isa> slot{best_isa()};
  return slot;
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512: return "avx512";
  }
  return "unknown";
}

bool isa_supported(Isa isa) {
  static const bool supported[] = {cpu_has(Isa::kScalar), cpu_has(Isa::kAvx2),
                                   cpu_has(Isa::kAvx512)};
  return supported[static_cast<int>(isa)];
}

Isa best_isa() {
  static const Isa best = [] {
    Isa widest = Isa::kScalar;
    for (const Isa isa : kAllIsas) {
      if (isa_supported(isa)) widest = isa;
    }
    return widest;
  }();
  return best;
}

Isa active_isa() { return active_slot().load(); }

void set_isa(Isa isa) {
  APA_CHECK_MSG(isa_supported(isa),
                "this CPU cannot run the " << isa_name(isa) << " gemm kernel");
  active_slot().store(isa);
}

std::string kernel_name(Isa isa) {
  return detail::with_kernel<float>(isa, [isa](auto kernel) {
    using K = decltype(kernel);
    return std::string(isa_name(isa)) + " " + std::to_string(K::kMr) + "x" +
           std::to_string(K::kNr);
  });
}

}  // namespace apa::blas
