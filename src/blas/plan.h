#pragma once
// Pack-once GEMM plans with fused epilogues.
//
// The blocked gemm spends a bandwidth-visible fraction of its time repacking
// operands into micropanel layout — time that is pure waste when the same
// operand recurs across calls (a Linear layer's weights between optimizer
// steps, the aliased single-term blocks an APA rule reuses across its rank-r
// products). A PackedPanel packs op(A) or op(B) exactly once, with native
// transpose support (the pack gather is where the transpose happens, so A^T /
// B^T operands cost nothing extra), into pool-leased cache-aligned storage in
// the same (kc, mc/nc) block order the macro-kernel consumes.
//
// Epilogues fuse the elementwise passes NN layers otherwise make over the
// freshly written output (bias add, ReLU, ReLU-backward masking) into the
// macro/microkernel boundary: each C tile is updated while it is still hot in
// registers/L1, after its final k-block accumulation. Fused results are
// bit-identical to the unfused two-pass evaluation (same per-element operation
// order), which the test suite asserts.
//
// Every panel and every planned gemm runs one microkernel: the process-wide
// active one (blas/isa.h). A panel records the kernel it was packed for, since
// the kernels' register tiles differ and so does the packed layout.
//
// Threading uses a shared-pack scheme: one packed A block and one packed B
// block are shared by the whole OpenMP team (packing itself is split across
// threads at micropanel granularity), and the macro-kernel loop over NR-column
// strips is parallelized. This replaces the old column-stripe scheme, which
// packed A redundantly in every thread.

#include <span>

#include "blas/combine.h"
#include "blas/gemm.h"
#include "blas/isa.h"
#include "support/matrix.h"
#include "support/pool.h"

namespace apa::blas {

enum class EpilogueKind {
  kNone,
  kBiasAdd,      ///< c(i,j) += bias[j]
  kRelu,         ///< c(i,j) = max(0, c(i,j))
  kBiasAddRelu,  ///< c(i,j) = max(0, c(i,j) + bias[j])
  kReluGrad,     ///< c(i,j) = gate(i,j) > 0 ? c(i,j) : 0
};

/// Elementwise epilogue applied to C after the final k-block accumulation.
/// `bias` must have C's column count (kBiasAdd / kBiasAddRelu); `gate` must
/// have C's shape (kReluGrad) — for ReLU backward it is the forward
/// activation (or pre-activation: both have the same sign support).
template <class T>
struct Epilogue {
  EpilogueKind kind = EpilogueKind::kNone;
  const T* bias = nullptr;
  MatrixView<const T> gate;
};

/// Applies `ep` to all of `c` as a separate full-matrix pass. This is the
/// unfused reference semantics, used by backends that cannot fuse into their
/// inner kernels (the APA executor applies it after the combine stage).
template <class T>
void apply_epilogue(const Epilogue<T>& ep, MatrixView<T> c);

/// One GEMM operand packed once into micropanel block layout for the active
/// microkernel. Storage is leased from the global BufferPool, so repeated
/// pack/drop cycles at the same shape (a training loop) recycle one
/// allocation.
template <class T>
class PackedPanel {
 public:
  enum class Side { kA, kB };

  PackedPanel() = default;
  PackedPanel(PackedPanel&&) noexcept = default;
  PackedPanel& operator=(PackedPanel&&) noexcept = default;
  PackedPanel(const PackedPanel&) = delete;
  PackedPanel& operator=(const PackedPanel&) = delete;

  /// Packs op(A) (logical m x k). `trans` means `stored` holds A^T, i.e. the
  /// logical operand is the transpose of the stored row-major matrix.
  /// `num_threads` > 1 splits the pack gather across an OpenMP team at cache
  /// block granularity — the layout is identical to the serial pack, so
  /// threaded and serial panels are interchangeable bit-for-bit.
  [[nodiscard]] static PackedPanel pack_a(bool trans, MatrixView<const T> stored,
                                          int num_threads = 1);
  /// Packs op(B) (logical k x n).
  [[nodiscard]] static PackedPanel pack_b(bool trans, MatrixView<const T> stored,
                                          int num_threads = 1);

  [[nodiscard]] bool empty() const { return storage_.empty(); }
  [[nodiscard]] Side side() const { return side_; }
  /// Logical op-operand dimensions (m x k for side A, k x n for side B).
  [[nodiscard]] index_t rows() const { return rows_; }
  [[nodiscard]] index_t cols() const { return cols_; }
  /// The microkernel whose register tile the layout follows.
  [[nodiscard]] Isa isa() const { return isa_; }

  /// Packed data of one cache block: for side A, block (ic/MC, pc/KC); for
  /// side B, block (jc/NC, pc/KC). Exposed for the gemm engine.
  [[nodiscard]] const T* block(index_t outer_idx, index_t k_idx) const {
    return storage_.data() +
           static_cast<std::size_t>(outer_idx * k_blocks_ + k_idx) * slot_;
  }

 private:
  Side side_ = Side::kA;
  Isa isa_ = Isa::kScalar;
  index_t rows_ = 0, cols_ = 0;
  index_t outer_blocks_ = 0, k_blocks_ = 0;
  std::size_t slot_ = 0;  ///< elements per block slot (uniform stride)
  PooledBuffer<T> storage_;
};

/// c = alpha * op(A) * op(B) + beta * c, then the epilogue, where each operand
/// is a linear combination of stored views: A = sum_t a[t].coeff * a[t].view
/// (all views of one shape; `ta` transposes every one of them), likewise B.
/// The combination is gathered straight into the packed micropanels, rounded
/// as linear_combination (or linear_combination_transposed) into a temporary
/// would round it, so the result is bit-identical to combining first and
/// multiplying the temporaries. `a_packed` / `b_packed` may be null (the
/// operand is packed on the fly from its terms) or must match the operand's
/// op-shape exactly and have been packed for the active kernel. Terms must
/// always be valid — panels only bypass reading their data. num_threads == 1
/// performs no OpenMP calls (safe under an enclosing parallel region).
template <class T>
void gemm_planned(Trans ta, std::span<const Scaled<T>> a, const PackedPanel<T>* a_packed,
                  Trans tb, std::span<const Scaled<T>> b, const PackedPanel<T>* b_packed,
                  MatrixView<T> c, T alpha, T beta, const Epilogue<T>& epilogue,
                  int num_threads);

/// The plain-operand form: each operand is one stored view.
template <class T>
void gemm_planned(Trans ta, MatrixView<const T> a, const PackedPanel<T>* a_packed,
                  Trans tb, MatrixView<const T> b, const PackedPanel<T>* b_packed,
                  MatrixView<T> c, T alpha = T{1}, T beta = T{0},
                  const Epilogue<T>& epilogue = {}, int num_threads = 1) {
  const Scaled<T> a_term[] = {{T{1}, a}};
  const Scaled<T> b_term[] = {{T{1}, b}};
  gemm_planned<T>(ta, std::span<const Scaled<T>>(a_term), a_packed, tb,
                  std::span<const Scaled<T>>(b_term), b_packed, c, alpha, beta,
                  epilogue, num_threads);
}

/// Convenience: no prepacked operands, epilogue fused into the blocked gemm.
template <class T>
void gemm_fused(Trans ta, Trans tb, MatrixView<const T> a, MatrixView<const T> b,
                MatrixView<T> c, T alpha = T{1}, T beta = T{0},
                const Epilogue<T>& epilogue = {}, int num_threads = 1) {
  gemm_planned<T>(ta, a, nullptr, tb, b, nullptr, c, alpha, beta, epilogue,
                  num_threads);
}

/// A reusable gemm plan: holds prepacked operands for whichever sides were
/// packed and runs the planned gemm. The NN layers keep one plan per weight
/// orientation and repack only after the weights change.
template <class T>
class GemmPlan {
 public:
  GemmPlan() = default;

  void set_packed_a(bool trans, MatrixView<const T> stored, int num_threads = 1) {
    a_ = PackedPanel<T>::pack_a(trans, stored, num_threads);
  }
  void set_packed_b(bool trans, MatrixView<const T> stored, int num_threads = 1) {
    b_ = PackedPanel<T>::pack_b(trans, stored, num_threads);
  }
  void reset() { a_ = {}; b_ = {}; }
  [[nodiscard]] bool has_packed_a() const { return !a_.empty(); }
  [[nodiscard]] bool has_packed_b() const { return !b_.empty(); }

  /// The packed A panel when it matches op(A) of shape m x k and the active
  /// kernel, else nullptr.
  [[nodiscard]] const PackedPanel<T>* packed_a_for(index_t m, index_t k) const {
    return matches(a_, m, k) ? &a_ : nullptr;
  }
  [[nodiscard]] const PackedPanel<T>* packed_b_for(index_t k, index_t n) const {
    return matches(b_, k, n) ? &b_ : nullptr;
  }

  void run(Trans ta, MatrixView<const T> a, Trans tb, MatrixView<const T> b,
           MatrixView<T> c, T alpha = T{1}, T beta = T{0},
           const Epilogue<T>& epilogue = {}, int num_threads = 1) const {
    const index_t m = (ta == Trans::kYes) ? a.cols : a.rows;
    const index_t k = (ta == Trans::kYes) ? a.rows : a.cols;
    const index_t n = (tb == Trans::kYes) ? b.rows : b.cols;
    gemm_planned<T>(ta, a, packed_a_for(m, k), tb, b, packed_b_for(k, n), c, alpha,
                    beta, epilogue, num_threads);
  }

 private:
  static bool matches(const PackedPanel<T>& p, index_t rows, index_t cols) {
    return !p.empty() && p.rows() == rows && p.cols() == cols &&
           p.isa() == active_isa();
  }

  PackedPanel<T> a_;
  PackedPanel<T> b_;
};

extern template void apply_epilogue<float>(const Epilogue<float>&, MatrixView<float>);
extern template void apply_epilogue<double>(const Epilogue<double>&,
                                            MatrixView<double>);
extern template class PackedPanel<float>;
extern template class PackedPanel<double>;
extern template void gemm_planned<float>(Trans, std::span<const Scaled<float>>,
                                         const PackedPanel<float>*, Trans,
                                         std::span<const Scaled<float>>,
                                         const PackedPanel<float>*, MatrixView<float>,
                                         float, float, const Epilogue<float>&, int);
extern template void gemm_planned<double>(Trans, std::span<const Scaled<double>>,
                                          const PackedPanel<double>*, Trans,
                                          std::span<const Scaled<double>>,
                                          const PackedPanel<double>*,
                                          MatrixView<double>, double, double,
                                          const Epilogue<double>&, int);

}  // namespace apa::blas
