#include "benchutil/isa.h"

#include <cstdio>
#include <cstdlib>

namespace apa::bench {
namespace {

[[noreturn]] void fail(const std::string& message) {
  std::string supported;
  for (const blas::Isa isa : blas::kAllIsas) {
    if (blas::isa_supported(isa)) supported += std::string(" ") + blas::isa_name(isa);
  }
  std::fprintf(stderr, "--isa: %s (this CPU runs: best%s)\n", message.c_str(),
               supported.c_str());
  std::exit(2);
}

}  // namespace

void select_isa(const std::string& value) {
  blas::Isa isa = blas::best_isa();
  if (value != "best") {
    bool known = false;
    for (const blas::Isa candidate : blas::kAllIsas) {
      if (value == blas::isa_name(candidate)) {
        isa = candidate;
        known = true;
      }
    }
    if (!known) fail("unknown kernel '" + value + "'");
    if (!blas::isa_supported(isa)) fail("this CPU lacks " + value);
  }
  blas::set_isa(isa);
  std::printf("kernel: %s\n", blas::kernel_name(isa).c_str());
}

void select_isa(const CliArgs& args) { select_isa(args.get("isa", "best")); }

}  // namespace apa::bench
