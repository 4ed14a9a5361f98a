#include "blas/plan.h"

#include <omp.h>

#include <algorithm>

#include "blas/microkernel.h"
#include "blas/packing.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/check.h"

namespace apa::blas {
namespace {

using detail::BlockShape;

/// Applies an epilogue to a rows x cols region of C whose top-left element is
/// (row0, col0) of the logical output (bias indexes columns globally, the
/// ReLU-backward gate indexes both). Per-element operation order matches the
/// unfused separate passes exactly, so fused results are bit-identical.
template <class T>
void epilogue_region(const Epilogue<T>& ep, T* c, index_t ldc, index_t rows,
                     index_t cols, index_t row0, index_t col0) {
  switch (ep.kind) {
    case EpilogueKind::kNone:
      return;
    case EpilogueKind::kBiasAdd: {
      const T* bias = ep.bias + col0;
      for (index_t i = 0; i < rows; ++i) {
        T* row = c + i * ldc;
        for (index_t j = 0; j < cols; ++j) row[j] += bias[j];
      }
      return;
    }
    case EpilogueKind::kRelu: {
      for (index_t i = 0; i < rows; ++i) {
        T* row = c + i * ldc;
        for (index_t j = 0; j < cols; ++j) row[j] = row[j] > T{0} ? row[j] : T{0};
      }
      return;
    }
    case EpilogueKind::kBiasAddRelu: {
      const T* bias = ep.bias + col0;
      for (index_t i = 0; i < rows; ++i) {
        T* row = c + i * ldc;
        for (index_t j = 0; j < cols; ++j) {
          const T v = row[j] + bias[j];
          row[j] = v > T{0} ? v : T{0};
        }
      }
      return;
    }
    case EpilogueKind::kReluGrad: {
      for (index_t i = 0; i < rows; ++i) {
        const T* gate = &ep.gate(row0 + i, col0);
        T* row = c + i * ldc;
        for (index_t j = 0; j < cols; ++j) row[j] = gate[j] > T{0} ? row[j] : T{0};
      }
      return;
    }
  }
}

/// Macro-kernel: multiply a packed mc x kc block of A with a packed kc x nc
/// block of B into C, applying alpha and beta; when `ep` is non-null (final
/// k-block), the epilogue runs on each tile while it is still cache-hot.
/// (row0, col0) locate the C block in the logical output.
template <class K, class T>
void macro_kernel(index_t mc, index_t nc, index_t kc, T alpha, const T* a_packed,
                  const T* b_packed, T beta, T* c, index_t ldc, const Epilogue<T>* ep,
                  index_t row0, index_t col0) {
  constexpr index_t mr = K::kMr;
  constexpr index_t nr = K::kNr;
  for (index_t j = 0; j < nc; j += nr) {
    const index_t nb = std::min(nr, nc - j);
    const T* b_panel = b_packed + (j / nr) * kc * nr;
    for (index_t i = 0; i < mc; i += mr) {
      const index_t mb = std::min(mr, mc - i);
      const T* a_panel = a_packed + (i / mr) * kc * mr;
      T* c_tile = c + i * ldc + j;
      if (mb == mr && nb == nr) {
        K::run(kc, alpha, a_panel, b_panel, beta, c_tile, ldc);
      } else {
        detail::microkernel_edge<K>(kc, mb, nb, alpha, a_panel, b_panel, beta, c_tile,
                                    ldc);
      }
      if (ep != nullptr) {
        epilogue_region(*ep, c_tile, ldc, mb, nb, row0 + i, col0 + j);
      }
    }
  }
}

/// Single-threaded blocked gemm over packed (or prepacked) operands. Pack
/// buffers are leased from the BufferPool, so the training loop's repeated
/// calls at recurring shapes stop malloc-ing.
template <class K, class T>
void engine_serial(bool ta, std::span<const Scaled<T>> a, const PackedPanel<T>* pa,
                   bool tb, std::span<const Scaled<T>> b, const PackedPanel<T>* pb,
                   index_t m, index_t n, index_t k, T alpha, T beta, T* c, index_t ldc,
                   const Epilogue<T>& ep) {
  constexpr index_t mc_max = BlockShape<K>::kMc;
  constexpr index_t kc_max = BlockShape<K>::kKc;
  constexpr index_t nc_max = BlockShape<K>::kNc;

  PooledBuffer<T> a_buf(pa != nullptr ? 0 : static_cast<std::size_t>(mc_max) * kc_max);
  PooledBuffer<T> b_buf(pb != nullptr ? 0 : static_cast<std::size_t>(kc_max) * nc_max);

  for (index_t jc = 0; jc < n; jc += nc_max) {
    const index_t nc = std::min(nc_max, n - jc);
    for (index_t pc = 0; pc < k; pc += kc_max) {
      const index_t kc = std::min(kc_max, k - pc);
      const T beta_eff = (pc == 0) ? beta : T{1};
      const Epilogue<T>* tile_ep =
          (pc + kc == k && ep.kind != EpilogueKind::kNone) ? &ep : nullptr;
      const T* b_block;
      if (pb != nullptr) {
        b_block = pb->block(jc / nc_max, pc / kc_max);
      } else {
        APA_TRACE_SCOPE("blas.pack_b");
        detail::pack_b<K>(b, tb, pc, jc, kc, nc, b_buf.data());
        b_block = b_buf.data();
      }
      for (index_t ic = 0; ic < m; ic += mc_max) {
        const index_t mc = std::min(mc_max, m - ic);
        const T* a_block;
        if (pa != nullptr) {
          a_block = pa->block(ic / mc_max, pc / kc_max);
        } else {
          APA_TRACE_SCOPE("blas.pack_a");
          detail::pack_a<K>(a, ta, ic, pc, mc, kc, a_buf.data());
          a_block = a_buf.data();
        }
        APA_TRACE_SCOPE("blas.kernel");
        macro_kernel<K>(mc, nc, kc, alpha, a_block, b_block, beta_eff,
                        c + ic * ldc + jc, ldc, tile_ep, ic, jc);
      }
    }
  }
}

/// Shared-pack parallel gemm: the team shares one packed A block and one
/// packed B block per iteration (packing is itself split across threads at
/// micropanel granularity), and the macro-kernel loop over NR-column strips is
/// parallelized. Replaces the column-stripe scheme, which re-packed A
/// redundantly in every thread. The implicit barrier after each `omp for`
/// orders packing before compute and compute before the next block's repack.
template <class K, class T>
void engine_parallel(bool ta, std::span<const Scaled<T>> a, const PackedPanel<T>* pa,
                     bool tb, std::span<const Scaled<T>> b, const PackedPanel<T>* pb,
                     index_t m, index_t n, index_t k, T alpha, T beta, T* c,
                     index_t ldc, const Epilogue<T>& ep, int threads) {
  constexpr index_t mr = K::kMr;
  constexpr index_t nr = K::kNr;
  constexpr index_t mc_max = BlockShape<K>::kMc;
  constexpr index_t kc_max = BlockShape<K>::kKc;
  constexpr index_t nc_max = BlockShape<K>::kNc;

  PooledBuffer<T> a_buf(pa != nullptr ? 0 : static_cast<std::size_t>(mc_max) * kc_max);
  PooledBuffer<T> b_buf(pb != nullptr ? 0 : static_cast<std::size_t>(kc_max) * nc_max);
  T* const a_shared = a_buf.data();
  T* const b_shared = b_buf.data();

#pragma omp parallel num_threads(threads)
  {
    for (index_t jc = 0; jc < n; jc += nc_max) {
      const index_t nc = std::min(nc_max, n - jc);
      const index_t n_panels = (nc + nr - 1) / nr;
      for (index_t pc = 0; pc < k; pc += kc_max) {
        const index_t kc = std::min(kc_max, k - pc);
        const T beta_eff = (pc == 0) ? beta : T{1};
        const Epilogue<T>* tile_ep =
            (pc + kc == k && ep.kind != EpilogueKind::kNone) ? &ep : nullptr;
        const T* b_block;
        if (pb != nullptr) {
          b_block = pb->block(jc / nc_max, pc / kc_max);
        } else {
          // Span covers this thread's share of the pack plus the barrier wait.
          APA_TRACE_SCOPE("blas.pack_b");
#pragma omp for schedule(static)
          for (index_t q = 0; q < n_panels; ++q) {
            detail::pack_b<K>(b, tb, pc, jc + q * nr, kc, std::min(nr, nc - q * nr),
                              b_shared + q * kc * nr);
          }
          b_block = b_shared;
        }
        for (index_t ic = 0; ic < m; ic += mc_max) {
          const index_t mc = std::min(mc_max, m - ic);
          const T* a_block;
          if (pa != nullptr) {
            a_block = pa->block(ic / mc_max, pc / kc_max);
          } else {
            const index_t m_panels = (mc + mr - 1) / mr;
            APA_TRACE_SCOPE("blas.pack_a");
#pragma omp for schedule(static)
            for (index_t p = 0; p < m_panels; ++p) {
              detail::pack_a<K>(a, ta, ic + p * mr, pc, std::min(mr, mc - p * mr), kc,
                                a_shared + p * mr * kc);
            }
            a_block = a_shared;
          }
          APA_TRACE_SCOPE("blas.kernel");
#pragma omp for schedule(static)
          for (index_t q = 0; q < n_panels; ++q) {
            const index_t j = q * nr;
            const index_t nb = std::min(nr, nc - j);
            const T* b_panel = b_block + q * kc * nr;
            for (index_t i = 0; i < mc; i += mr) {
              const index_t mb = std::min(mr, mc - i);
              const T* a_panel = a_block + (i / mr) * kc * mr;
              T* c_tile = c + (ic + i) * ldc + jc + j;
              if (mb == mr && nb == nr) {
                K::run(kc, alpha, a_panel, b_panel, beta_eff, c_tile, ldc);
              } else {
                detail::microkernel_edge<K>(kc, mb, nb, alpha, a_panel, b_panel,
                                            beta_eff, c_tile, ldc);
              }
              if (tile_ep != nullptr) {
                epilogue_region(*tile_ep, c_tile, ldc, mb, nb, ic + i, jc + j);
              }
            }
          }
        }
      }
    }
  }
}

template <class T>
void validate_epilogue(const Epilogue<T>& ep, index_t m, index_t n) {
  switch (ep.kind) {
    case EpilogueKind::kNone:
    case EpilogueKind::kRelu:
      return;
    case EpilogueKind::kBiasAdd:
    case EpilogueKind::kBiasAddRelu:
      APA_CHECK_MSG(ep.bias != nullptr, "epilogue bias must be non-null");
      return;
    case EpilogueKind::kReluGrad:
      APA_CHECK_MSG(ep.gate.data != nullptr && ep.gate.rows == m && ep.gate.cols == n,
                    "epilogue gate must match the output shape");
      return;
  }
}

}  // namespace

template <class T>
void apply_epilogue(const Epilogue<T>& ep, MatrixView<T> c) {
  if (ep.kind == EpilogueKind::kNone) return;
  APA_TRACE_SCOPE("blas.epilogue");
  validate_epilogue(ep, c.rows, c.cols);
  epilogue_region(ep, c.data, c.ld, c.rows, c.cols, 0, 0);
}

template <class T>
PackedPanel<T> PackedPanel<T>::pack_a(bool trans, MatrixView<const T> stored,
                                      int num_threads) {
  APA_TRACE_SCOPE("blas.prepack_a");
  PackedPanel<T> p;
  p.side_ = Side::kA;
  p.isa_ = active_isa();
  p.rows_ = trans ? stored.cols : stored.rows;  // m
  p.cols_ = trans ? stored.rows : stored.cols;  // k
  const Scaled<T> one[] = {{T{1}, stored}};
  const std::span<const Scaled<T>> term(one);
  detail::with_kernel<T>(p.isa_, [&](auto kernel) {
    using K = decltype(kernel);
    constexpr index_t mr = K::kMr;
    constexpr index_t mc_max = BlockShape<K>::kMc;
    constexpr index_t kc_max = BlockShape<K>::kKc;
    p.outer_blocks_ = (p.rows_ + mc_max - 1) / mc_max;
    p.k_blocks_ = (p.cols_ + kc_max - 1) / kc_max;
    // Uniform slot stride sized for the largest block, so small operands (the
    // executor's sub-blocks) don't pay a full MC x KC slot.
    const index_t mc_fit = std::min(mc_max, (p.rows_ + mr - 1) / mr * mr);
    p.slot_ = static_cast<std::size_t>(mc_fit) * std::min(kc_max, p.cols_);
    p.storage_ = PooledBuffer<T>(p.slot_ * static_cast<std::size_t>(p.outer_blocks_) *
                                 static_cast<std::size_t>(p.k_blocks_));
    // Blocks are independent and write disjoint slots, so the gather threads
    // at block granularity with the exact serial layout.
    const index_t total = p.outer_blocks_ * p.k_blocks_;
    const int team = static_cast<int>(
        std::min<index_t>(std::max(num_threads, 1), total));
#pragma omp parallel for schedule(static) num_threads(team) if (team > 1)
    for (index_t blk = 0; blk < total; ++blk) {
      const index_t ic = (blk / p.k_blocks_) * mc_max;
      const index_t pc = (blk % p.k_blocks_) * kc_max;
      const index_t mc = std::min(mc_max, p.rows_ - ic);
      const index_t kc = std::min(kc_max, p.cols_ - pc);
      T* dst = p.storage_.data() + static_cast<std::size_t>(blk) * p.slot_;
      detail::pack_a<K>(term, trans, ic, pc, mc, kc, dst);
    }
  });
  return p;
}

template <class T>
PackedPanel<T> PackedPanel<T>::pack_b(bool trans, MatrixView<const T> stored,
                                      int num_threads) {
  APA_TRACE_SCOPE("blas.prepack_b");
  PackedPanel<T> p;
  p.side_ = Side::kB;
  p.isa_ = active_isa();
  p.rows_ = trans ? stored.cols : stored.rows;  // k
  p.cols_ = trans ? stored.rows : stored.cols;  // n
  const Scaled<T> one[] = {{T{1}, stored}};
  const std::span<const Scaled<T>> term(one);
  detail::with_kernel<T>(p.isa_, [&](auto kernel) {
    using K = decltype(kernel);
    constexpr index_t nr = K::kNr;
    constexpr index_t kc_max = BlockShape<K>::kKc;
    constexpr index_t nc_max = BlockShape<K>::kNc;
    p.outer_blocks_ = (p.cols_ + nc_max - 1) / nc_max;
    p.k_blocks_ = (p.rows_ + kc_max - 1) / kc_max;
    const index_t nc_fit = std::min(nc_max, (p.cols_ + nr - 1) / nr * nr);
    p.slot_ = static_cast<std::size_t>(std::min(kc_max, p.rows_)) * nc_fit;
    p.storage_ = PooledBuffer<T>(p.slot_ * static_cast<std::size_t>(p.outer_blocks_) *
                                 static_cast<std::size_t>(p.k_blocks_));
    const index_t total = p.outer_blocks_ * p.k_blocks_;
    const int team = static_cast<int>(
        std::min<index_t>(std::max(num_threads, 1), total));
#pragma omp parallel for schedule(static) num_threads(team) if (team > 1)
    for (index_t blk = 0; blk < total; ++blk) {
      const index_t jc = (blk / p.k_blocks_) * nc_max;
      const index_t pc = (blk % p.k_blocks_) * kc_max;
      const index_t nc = std::min(nc_max, p.cols_ - jc);
      const index_t kc = std::min(kc_max, p.rows_ - pc);
      T* dst = p.storage_.data() + static_cast<std::size_t>(blk) * p.slot_;
      detail::pack_b<K>(term, trans, pc, jc, kc, nc, dst);
    }
  });
  return p;
}

template <class T>
void gemm_planned(Trans ta, std::span<const Scaled<T>> a, const PackedPanel<T>* a_packed,
                  Trans tb, std::span<const Scaled<T>> b, const PackedPanel<T>* b_packed,
                  MatrixView<T> c, T alpha, T beta, const Epilogue<T>& epilogue,
                  int num_threads) {
  APA_TRACE_SCOPE("blas.gemm");
  if (a_packed != nullptr || b_packed != nullptr) {
    APA_COUNTER_INC("blas.gemm.prepack_hits");
  } else {
    APA_COUNTER_INC("blas.gemm.prepack_misses");
  }
  APA_CHECK_MSG(!a.empty() && !b.empty(), "gemm operands need at least one term");
  for (const auto* terms : {&a, &b}) {
    for (const Scaled<T>& t : *terms) {
      APA_CHECK(t.view.rows == (*terms)[0].view.rows &&
                t.view.cols == (*terms)[0].view.cols);
    }
  }
  const bool tra = (ta == Trans::kYes);
  const bool trb = (tb == Trans::kYes);
  const index_t m = tra ? a[0].view.cols : a[0].view.rows;
  const index_t k = tra ? a[0].view.rows : a[0].view.cols;
  const index_t kb = trb ? b[0].view.cols : b[0].view.rows;
  const index_t n = trb ? b[0].view.rows : b[0].view.cols;
  APA_CHECK(k == kb && c.rows == m && c.cols == n);
  // Classical operation count, recorded so the tuning layer can calibrate an
  // achieved-GFLOPS machine constant from ordinary traffic: dividing this
  // counter by the "blas.gemm" phase time yields the cost model's sub-gemm
  // throughput without a dedicated measurement pass (src/tune/calibrate.h).
  APA_COUNTER_ADD("blas.gemm.flops", 2ULL * static_cast<std::uint64_t>(m) *
                                         static_cast<std::uint64_t>(k) *
                                         static_cast<std::uint64_t>(n));
  // One read of the process-wide choice per call, so a concurrent set_isa
  // cannot mix kernels within one product.
  const Isa isa = active_isa();
  if (a_packed != nullptr) {
    APA_CHECK_MSG(a_packed->side() == PackedPanel<T>::Side::kA &&
                      a_packed->rows() == m && a_packed->cols() == k &&
                      a_packed->isa() == isa,
                  "prepacked A panel (" << isa_name(a_packed->isa())
                                        << ") does not match op(A) " << m << "x" << k
                                        << " on the " << isa_name(isa) << " kernel");
  }
  if (b_packed != nullptr) {
    APA_CHECK_MSG(b_packed->side() == PackedPanel<T>::Side::kB &&
                      b_packed->rows() == k && b_packed->cols() == n &&
                      b_packed->isa() == isa,
                  "prepacked B panel (" << isa_name(b_packed->isa())
                                        << ") does not match op(B) " << k << "x" << n
                                        << " on the " << isa_name(isa) << " kernel");
  }
  validate_epilogue(epilogue, m, n);
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == T{0}) {
    for (index_t i = 0; i < m; ++i) {
      for (index_t j = 0; j < n; ++j) {
        c(i, j) = (beta == T{0}) ? T{0} : beta * c(i, j);
      }
    }
    apply_epilogue(epilogue, c);
    return;
  }

  detail::with_kernel<T>(isa, [&](auto kernel) {
    using K = decltype(kernel);
    const int usable =
        static_cast<int>(std::min<index_t>(num_threads, (n + K::kNr - 1) / K::kNr));
    if (usable <= 1) {
      engine_serial<K>(tra, a, a_packed, trb, b, b_packed, m, n, k, alpha, beta, c.data,
                       c.ld, epilogue);
    } else {
      engine_parallel<K>(tra, a, a_packed, trb, b, b_packed, m, n, k, alpha, beta,
                         c.data, c.ld, epilogue, usable);
    }
  });
}

template void apply_epilogue<float>(const Epilogue<float>&, MatrixView<float>);
template void apply_epilogue<double>(const Epilogue<double>&, MatrixView<double>);
template class PackedPanel<float>;
template class PackedPanel<double>;
template void gemm_planned<float>(Trans, std::span<const Scaled<float>>,
                                  const PackedPanel<float>*, Trans,
                                  std::span<const Scaled<float>>,
                                  const PackedPanel<float>*, MatrixView<float>, float,
                                  float, const Epilogue<float>&, int);
template void gemm_planned<double>(Trans, std::span<const Scaled<double>>,
                                   const PackedPanel<double>*, Trans,
                                   std::span<const Scaled<double>>,
                                   const PackedPanel<double>*, MatrixView<double>,
                                   double, double, const Epilogue<double>&, int);

}  // namespace apa::blas
