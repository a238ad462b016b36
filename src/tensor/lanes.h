#ifndef ODF_TENSOR_LANES_H_
#define ODF_TENSOR_LANES_H_

// Compile-time row widths for the kernels that move or reduce rows only a
// few floats wide: the Chebyshev basis layout passes, the (0,2,1,3)
// permute's tails, average pooling and the GEMM row strips' stores (each
// n <= 8 output row, full kNR panels and n = 16). At these widths a loop of
// compile-time length is a register move, where a runtime-bounded loop
// costs more than the data.

#include <cstdint>
#include <cstring>
#include <type_traits>

namespace odf {

// Calls fn(std::integral_constant<int64_t, F>) with F = f for the row
// widths below 16 the models run — 4 (the shard units' K), 7 (the paper
// histogram's K) and 8 (AF's second level, Q = 8 filters) — else with
// F = 0 (runtime width).
template <typename Fn>
void WithLaneWidth(int64_t f, Fn fn) {
  switch (f) {
    case 4: return fn(std::integral_constant<int64_t, 4>());
    case 7: return fn(std::integral_constant<int64_t, 7>());
    case 8: return fn(std::integral_constant<int64_t, 8>());
    default: return fn(std::integral_constant<int64_t, 0>());
  }
}

// dst[0, f) = src[0, f). At a compile-time length F > 0 the compiler
// expands the memcpy into a few (possibly overlapping) vector moves.
template <int64_t F>
inline void CopyLanes(const float* __restrict src, float* __restrict dst,
                      int64_t f) {
  if constexpr (F > 0) {
    std::memcpy(dst, src, F * sizeof(float));
  } else {
    for (int64_t c = 0; c < f; ++c) dst[c] = src[c];
  }
}

// dst[c] = op(c) for c in [0, f) (F > 0: compile-time length). op must not
// read dst, so a short row's lanes stay in one vector.
template <int64_t F, typename Op>
inline void MapLanes(float* __restrict dst, int64_t f, Op op) {
  for (int64_t c = 0; c < (F > 0 ? F : f); ++c) dst[c] = op(c);
}

}  // namespace odf

#endif  // ODF_TENSOR_LANES_H_
