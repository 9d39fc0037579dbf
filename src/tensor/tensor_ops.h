// Threaded compute kernels over contiguous tensors.
//
// These are the forward primitives; autograd composes them into
// differentiable ops.  Kernels parallelize over the leading dimension
// with OpenMP-style parallel_for.  Inputs must be contiguous (views
// from index-batching are made contiguous during batch assembly, which
// is exactly the copy the paper's batch collation performs).
//
// Determinism invariant (DESIGN.md §14): every kernel accumulates each
// output element in an order that is a pure function of the operand
// shapes — never of the thread count, blocking factors, or SIMD width.
// The register-blocked matmul family and the fused epilogues below are
// therefore bit-identical to the retained *_reference kernels, and
// losses stay bit-identical across world sizes, strategies, and
// prefetch depths.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "tensor/tensor.h"

namespace pgti::ops {

/// Activation applied by the fused matmul/SpMM epilogues.
enum class Act : std::uint8_t { kIdentity, kSigmoid, kTanh, kRelu };

namespace detail {

/// Bit-casts between float and its IEEE-754 pattern.
inline std::uint32_t float_bits(float x) {
  std::uint32_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}
inline float bits_float(std::uint32_t b) {
  float x;
  std::memcpy(&x, &b, sizeof x);
  return x;
}

/// e^x for x in [-20, 0] (the only range tanh_f feeds it).  Cephes
/// expf: n = floor(x*log2(e) + 1/2), r = x - n*ln2 in two parts, a
/// degree-6 polynomial for e^r, then the 2^n scale built directly as
/// an exponent field.  The truncating cast sees |t| < 29, and the
/// floor is a compare-and-subtract rather than std::floor, which does
/// not vectorize without -fno-trapping-math.
inline float exp_nonpositive(float x) {
  const float t = x * 1.44269504088896341f + 0.5f;
  std::int32_t n = static_cast<std::int32_t>(t);
  n -= static_cast<float>(n) > t ? 1 : 0;
  const float fn = static_cast<float>(n);
  float r = x - fn * 0.693359375f;
  r = r - fn * -2.12194440e-4f;
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  const float er = p * (r * r) + r + 1.0f;
  return er * bits_float(static_cast<std::uint32_t>(n + 127) << 23);
}

}  // namespace detail

/// tanh in single precision, within 2 ulp of the double-precision
/// tanh (DESIGN.md §14).  Branch-free and inline so every loop that
/// applies it vectorizes: |x| < 0.625 takes the Cephes odd minimax
/// polynomial, larger |x| takes 1 - 2e/(1+e) with e = exp(-2|x|); both
/// are computed and blended bitwise (a ternary would be turned back
/// into a branch), and the sign is restored last so -0 stays -0.
/// NaN stays NaN (it takes the polynomial), +-inf gives +-1.
inline float tanh_f(float x) {
  const float a = std::fabs(x);
  const float s = a * a;
  float p = -5.70498872745e-3f;
  p = p * s + 2.06390887954e-2f;
  p = p * s - 5.37397155531e-2f;
  p = p * s + 1.33314422036e-1f;
  p = p * s - 3.33332819422e-1f;
  const float small = p * s * a + a;
  // tanh rounds to 1 above ~9.02.  Clamping the non-negative pattern
  // as an integer also sends +inf and NaN to 10, so the exp never sees
  // them, and an integer min is not split into a branch the way a
  // float compare is.
  const float ac = detail::bits_float(std::min(detail::float_bits(a), 0x41200000u));  // 10.0f
  const float e = detail::exp_nonpositive(-2.0f * ac);
  const float large = 1.0f - 2.0f * e / (1.0f + e);
  const std::uint32_t take_large = 0u - static_cast<std::uint32_t>(a >= 0.625f);
  const std::uint32_t blended = (detail::float_bits(large) & take_large) |
                                (detail::float_bits(small) & ~take_large);
  return std::copysign(detail::bits_float(blended), x);
}

/// Scalar activation — the single definition every fused kernel and its
/// unfused counterpart share, so fused/unfused results are bit-identical.
inline float act_apply(Act act, float x) {
  switch (act) {
    case Act::kSigmoid:
      return 1.0f / (1.0f + std::exp(-x));
    case Act::kTanh:
      return tanh_f(x);
    case Act::kRelu:
      return x > 0.0f ? x : 0.0f;
    case Act::kIdentity:
      break;
  }
  return x;
}

/// out[j] = act(in[j] + bias[j]) for j < n (no bias add when bias is
/// null); in may alias out.  The store epilogue of the fused GEMM and
/// SpMM kernels: it dispatches on act once per row, so the element loop
/// vectorizes.
void bias_act_row(const float* in, float* out, std::int64_t n, const float* bias, Act act);

// --- elementwise binary (same shape) ---------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

// --- elementwise with scalar ------------------------------------------
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);

// --- in-place ----------------------------------------------------------
void add_(Tensor& a, const Tensor& b);           ///< a += b
void sub_(Tensor& a, const Tensor& b);           ///< a -= b
void mul_(Tensor& a, const Tensor& b);           ///< a *= b
void scale_(Tensor& a, float s);                 ///< a *= s
void axpy_(float alpha, const Tensor& x, Tensor& y);  ///< y += alpha * x
void sigmoid_(Tensor& t);                        ///< t = sigmoid(t)
void tanh_(Tensor& t);                           ///< t = tanh(t)
void relu_(Tensor& t);                           ///< t = relu(t)
void apply_act_(Tensor& t, Act act);             ///< t = act(t)

// --- output-reusing binary (out preallocated; may alias a or b) --------
// Elementwise chains that would otherwise allocate one tensor per op
// write into an existing buffer instead.
void add_into(const Tensor& a, const Tensor& b, Tensor& out);  ///< out = a + b
void sub_into(const Tensor& a, const Tensor& b, Tensor& out);  ///< out = a - b
void mul_into(const Tensor& a, const Tensor& b, Tensor& out);  ///< out = a * b

// --- unary ---------------------------------------------------------------
Tensor sigmoid(const Tensor& t);
Tensor tanh(const Tensor& t);
Tensor relu(const Tensor& t);
Tensor exp(const Tensor& t);
Tensor abs(const Tensor& t);
Tensor neg(const Tensor& t);

// --- linear algebra -------------------------------------------------------
/// C[M,N] = A[M,K] * B[K,N]  (register-blocked, cache-tiled)
Tensor matmul(const Tensor& a, const Tensor& b);
/// C[M,N] = A[K,M]^T * B[K,N]  (used by matmul backward wrt rhs)
Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// C[M,N] = A[M,K] * B[N,K]^T  (used by matmul backward wrt lhs)
Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// Fused C = act(A * B + bias): the bias add and activation run in the
/// matmul's store epilogue instead of as two extra passes with two
/// intermediate tensors.  Bit-identical to
/// act(add_bias(matmul(a, b), bias)).
Tensor matmul_bias_act(const Tensor& a, const Tensor& b, const Tensor& bias, Act act);

/// Retained naive triple-loop kernel (the pre-optimization baseline).
/// bench_kernels measures the blocked/naive ratio in-run against this;
/// tests assert the blocked kernel is bit-identical to it.
Tensor matmul_reference(const Tensor& a, const Tensor& b);
/// Retained pre-optimization backward kernels (rank-1 update loop and
/// row-row dot products).  Same per-element k-ascending accumulation as
/// the blocked tn/nt — identical bits, pre-PR speed — so the reference
/// training path prices its backward like the code it replaces.
Tensor matmul_tn_reference(const Tensor& a, const Tensor& b);
Tensor matmul_nt_reference(const Tensor& a, const Tensor& b);

/// dz = g ⊙ act'(y), evaluated from the saved forward output y with the
/// exact per-element expressions of the unfused sigmoid/tanh/relu
/// backwards.  Identity returns g itself (aliasing view, no copy).
Tensor act_backward(const Tensor& g, const Tensor& y, Act act);

/// Fused backward epilogue (DESIGN.md §16): computes dz = g ⊙ act'(y)
/// into `dz` (preallocated, g's shape) and returns dA = dz * W^T in one
/// parallel dispatch — each row block runs the activation-backward
/// pre-pass immediately before its NT panel gemm, so dz rows are
/// consumed cache-hot and the separate elementwise pass disappears.
/// Bit-identical to matmul_nt(act_backward(g, y, act), w): the dz
/// expressions and the panel kernel are the same code, per element.
/// `dz` stays fully materialized for the matmul_tn/colsum consumers.
Tensor matmul_nt_act_backward(const Tensor& g, const Tensor& y, Act act,
                              const Tensor& w, Tensor& dz);

/// out[M,C] = m[M,C] + bias[C] broadcast over rows.
Tensor add_bias(const Tensor& m, const Tensor& bias);
/// out[M,C] = m[M,C] * col[M,1] broadcast over columns.
Tensor mul_colvec(const Tensor& m, const Tensor& col);

// --- fused GRU gate kernels -------------------------------------------------
/// One pass over pre [.., 2H] and h [.., H] computing the DCGRU gate
/// block: r = sigmoid(pre[.., :H]), u = sigmoid(pre[.., H:]), rh = r*h.
/// r/u/rh must be preallocated with h's shape.  Replaces
/// sigmoid + 2x slice + mul (four tensors, four passes) with one pass.
void gru_gates(const Tensor& pre, const Tensor& h, Tensor& r, Tensor& u, Tensor& rh);
/// out = c + u*(h - c) in one pass (the GRU state update), without the
/// sub/mul/add temporaries.
Tensor gru_state(const Tensor& c, const Tensor& u, const Tensor& h);

// --- reductions ------------------------------------------------------------
double sum(const Tensor& t);
double mean(const Tensor& t);
float max_abs(const Tensor& t);
/// Column sums: [M,C] -> [C] (bias gradients).
Tensor colsum(const Tensor& m);
/// Row sums: [M,C] -> [M,1].
Tensor rowsum(const Tensor& m);

// --- shape/manipulation -----------------------------------------------------
/// Concatenate along the last dimension; all other dims must match.
Tensor concat_lastdim(const std::vector<Tensor>& parts);

// --- softmax -----------------------------------------------------------------
/// Softmax over the last dimension (numerically stabilized).
Tensor softmax_lastdim(const Tensor& t);

// --- metrics ------------------------------------------------------------------
double mae(const Tensor& pred, const Tensor& target);
double mse(const Tensor& pred, const Tensor& target);
/// Max |a-b| over all elements; handy for exactness tests.
float max_abs_diff(const Tensor& a, const Tensor& b);

}  // namespace pgti::ops
