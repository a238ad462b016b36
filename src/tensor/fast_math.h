#ifndef ODF_TENSOR_FAST_MATH_H_
#define ODF_TENSOR_FAST_MATH_H_

#include <bit>
#include <cstdint>
#include <limits>

namespace odf {

/// Vectorizable float exp.
///
/// `std::exp` compiles to a libm call, which blocks auto-vectorization of
/// every elementwise loop that uses it (the scalar `exp` kernel measured
/// 0.29 GFLOPs in BENCH_substrate.json). This routine is fully branch-free —
/// range reduction x = n·ln2 + r, a degree-6 polynomial for e^r, exponent
/// reassembly via bit twiddling, and the out-of-range cases handled by
/// clamping the input and selecting the saturated result at the end (no
/// early returns) — so the compiler if-converts and turns `Unary(a,
/// FastExp)` into SIMD code.
///
/// Accuracy: within kFastExpMaxUlp ULP of `std::exp` over the whole finite
/// range (asserted against std::exp by tensor_test). Out-of-range inputs
/// saturate: +inf above ~88.72, exact 0 below ~-87.34 (results stay normal
/// floats); NaN propagates.
constexpr int kFastExpMaxUlp = 8;

inline float FastExp(float x) {
  constexpr float kLog2e = 1.44269504088896341f;
  // ln2 split high/low so r = x − n·ln2 is computed with extra precision.
  constexpr float kLn2Hi = 0.693359375f;
  constexpr float kLn2Lo = -2.12194440e-4f;
  constexpr float kOverflow = 88.722839f;    // exp(x) > FLT_MAX above this
  constexpr float kUnderflow = -87.336544f;  // exp(x) subnormal below this
  // Clamp instead of early-returning: in-range x passes through unchanged
  // (bit-identical main path), out-of-range/NaN x is pinned to a finite
  // value so the int cast below never sees NaN, and the true result is
  // selected branch-free at the end.
  const float xc =
      !(x >= kUnderflow) ? kUnderflow : (x > kOverflow ? kOverflow : x);

  // Round-to-nearest n = x/ln2 via the 1.5·2^23 magic-constant trick
  // (valid because |x·log2e| < 2^22 here); no libm rint, vectorizes.
  constexpr float kRoundMagic = 12582912.0f;  // 1.5 * 2^23
  const float shifted = xc * kLog2e + kRoundMagic;
  const float n = shifted - kRoundMagic;
  const int32_t ni = static_cast<int32_t>(n);

  const float r = (xc - n * kLn2Hi) - n * kLn2Lo;
  // Degree-6 Taylor/Horner for e^r on |r| ≤ ln2/2 (error < 1 ULP there).
  float p = 1.0f / 720.0f;
  p = p * r + 1.0f / 120.0f;
  p = p * r + 1.0f / 24.0f;
  p = p * r + 1.0f / 6.0f;
  p = p * r + 0.5f;
  p = p * r + 1.0f;
  p = p * r + 1.0f;

  // 2^n in two halves: n can reach 128 (x just under overflow), which does
  // not fit one biased exponent, but two factors of 2^(n/2) always do.
  const int32_t n1 = ni / 2;
  const int32_t n2 = ni - n1;
  const float s1 = std::bit_cast<float>(static_cast<uint32_t>(n1 + 127) << 23);
  const float s2 = std::bit_cast<float>(static_cast<uint32_t>(n2 + 127) << 23);
  float out = p * s1 * s2;
  out = !(x >= kUnderflow) ? 0.0f : out;  // exact 0 below the subnormal edge
  out = x > kOverflow ? std::numeric_limits<float>::infinity() : out;
  return x != x ? x : out;  // NaN in, NaN out
}

/// Sigmoid on top of FastExp: 1 / (1 + e^{-x}).
inline float FastSigmoid(float x) { return 1.0f / (1.0f + FastExp(-x)); }

/// Tanh on top of FastExp: sign(x) · (e^{2|x|} − 1) / (e^{2|x|} + 1).
/// Using −2|x| keeps the exp argument non-positive (no overflow) and the
/// division well-conditioned; |x| ≥ 10 saturates to ±1 (as float tanh does).
/// Branch-free like FastExp: the saturated tail is clamped through the main
/// path and the result selected at the end, so gate loops vectorize.
inline float FastTanh(float x) {
  const float ax = x < 0.0f ? -x : x;
  const float axc = ax < 10.0f ? ax : 10.0f;  // NaN also pins to 10
  const float u = FastExp(-2.0f * axc);
  const float t = (1.0f - u) / (1.0f + u);
  float out = ax < 10.0f ? t : 1.0f;
  out = x < 0.0f ? -out : out;
  return x != x ? x : out;
}

}  // namespace odf

#endif  // ODF_TENSOR_FAST_MATH_H_
