/**
 * @file
 * Dense float vector kernels.
 *
 * These are the numerical primitives behind gate evaluation: dot products
 * (the DPU's job in E-PUR), axpy/scale/hadamard (the MU's job) and a few
 * reductions used by the analysis probes.
 */

#ifndef NLFM_TENSOR_VECTOR_OPS_HH
#define NLFM_TENSOR_VECTOR_OPS_HH

#include <cstddef>
#include <span>
#include <vector>

namespace nlfm::tensor
{

/** Dense dot product; sizes must match. */
float dot(std::span<const float> a, std::span<const float> b);

/**
 * Explicit-lane dot product: eight independent partial sums over
 * 8-element blocks, a scalar tail, and a fixed-order horizontal
 * reduction. Unlike dot(), whose reduction order is whatever the
 * compiler picks per call site, the operation DAG here is pinned by the
 * source structure — which is what lets the register-tiled panel kernel
 * (dotLanesTile) evaluate many weight rows against many input rows per
 * load and still produce bit-identical per-output results.
 */
float dotLanes(std::span<const float> a, std::span<const float> b);

/** Weight rows per dotLanesTile register tile. */
inline constexpr std::size_t kTileWeightRows = 3;
/** Input rows per dotLanesTile register tile. */
inline constexpr std::size_t kTileInputRows = 4;

/**
 * Register-tiled GEMV panel kernel: out[k * xs.size() + r] =
 * dotLanes({ws[k], n}, {xs[r], n}) for every weight row k (1 to
 * kTileWeightRows of them) and input row r, bit for bit. The inputs are
 * walked in tiles of kTileWeightRows x kTileInputRows, so each 8-float
 * weight load feeds up to kTileInputRows FMAs and each input load up to
 * kTileWeightRows: batched evaluation reads a weight row once per tile
 * instead of once per sequence.
 */
void dotLanesTile(std::span<const float *const> ws,
                  std::span<const float *const> xs, std::size_t n,
                  std::span<float> out);

/**
 * One weight row against a panel of inputs: out[r] = dotLanes(w, *xs[r])
 * for every r, bit for bit (dotLanesTile with a single weight row).
 */
void dotLanesRows(std::span<const float> w,
                  std::span<const float *const> xs, std::span<float> out);

/**
 * Fused gate product dotLanes(a1, b1) + dotLanes(a2, b2) — the
 * per-neuron Wx[n]·x + Wh[n]·h that both the serial and the batched
 * gate kernels evaluate. Defined as exactly that expression so every
 * path shares one rounding behaviour and stays bitwise comparable.
 */
float dotPair(std::span<const float> a1, std::span<const float> b1,
              std::span<const float> a2, std::span<const float> b2);

/** y += alpha * x. */
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/** x *= alpha. */
void scale(std::span<float> x, float alpha);

/** out = a (element-wise *) b. */
void hadamard(std::span<const float> a, std::span<const float> b,
              std::span<float> out);

/** out = a + b. */
void add(std::span<const float> a, std::span<const float> b,
         std::span<float> out);

/** Euclidean norm. */
float norm2(std::span<const float> x);

/** Max |x_i|. */
float maxAbs(std::span<const float> x);

/** Sum of elements. */
float sum(std::span<const float> x);

/**
 * Relative difference |a - b| / |a| with the convention used throughout
 * the paper's equations (Eq. 9 / Eq. 12): when the reference @p a is zero
 * the difference is 0 if b is also zero and +infinity otherwise.
 */
double relativeDifference(double a, double b);

} // namespace nlfm::tensor

#endif // NLFM_TENSOR_VECTOR_OPS_HH
