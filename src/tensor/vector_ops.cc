#include "tensor/vector_ops.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

#include "common/logging.hh"

namespace nlfm::tensor
{

float
dot(std::span<const float> a, std::span<const float> b)
{
    nlfm_assert_hot(a.size() == b.size(), "dot: size mismatch ", a.size(),
                    " vs ", b.size());
    // omp simd licenses the reduction reordering (compiled with
    // -fopenmp-simd, no runtime dependency); results stay deterministic
    // for a fixed build.
    const float *pa = a.data();
    const float *pb = b.data();
    const std::size_t n = a.size();
    float acc = 0.f;
#pragma omp simd reduction(+ : acc)
    for (std::size_t i = 0; i < n; ++i)
        acc += pa[i] * pb[i];
    return acc;
}

namespace
{

/**
 * kW weight rows against kX input rows: out[k * stride + r] =
 * dotLanes(ws[k], xs[r]). Every output keeps the explicit 8-lane
 * accumulation structure of dotLanes: one fused multiply-add per lane
 * per 8-element block, a scalar-fma tail, and the fixed pairwise
 * horizontal reduction ((s0+s2)+(s1+s3)) with s_l = lane_l + lane_{l+4}.
 *
 * Each output's float-op sequence reads only its own weight row and its
 * own input row; the tile shape only changes *when* each op happens,
 * never its operands or order, so every (kW, kX) instantiation agrees
 * bitwise per output with the 1x1 one. That per-output DAG is pinned
 * explicitly (intrinsics on AVX2+FMA targets, separate non-contractible
 * statements in the fallback) because leaving it to the vectorizer lets
 * different instantiations contract differently and silently break the
 * agreement. The 3x4 tile holds 12 accumulators, 3 weight vectors and
 * one input vector: all 16 ymm registers. noinline keeps each
 * instantiation a standalone register-allocated loop; inlined into the
 * dispatch loop gcc spills the accumulators and throughput drops ~2.5x.
 */
template <int kW, int kX>
__attribute__((noinline)) void
dotLanesTileBlock(const float *const *ws, const float *const *xs,
                  std::size_t n, float *out, std::size_t stride)
{
#if defined(__AVX2__) && defined(__FMA__)
    __m256 acc[kW][kX];
    for (int k = 0; k < kW; ++k)
        for (int r = 0; r < kX; ++r)
            acc[k][r] = _mm256_setzero_ps();

    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256 weights[kW];
        for (int k = 0; k < kW; ++k)
            weights[k] = _mm256_loadu_ps(ws[k] + i);
        for (int r = 0; r < kX; ++r) {
            const __m256 input = _mm256_loadu_ps(xs[r] + i);
            for (int k = 0; k < kW; ++k)
                acc[k][r] = _mm256_fmadd_ps(weights[k], input, acc[k][r]);
        }
    }

    float tail[kW][kX];
    for (int k = 0; k < kW; ++k)
        for (int r = 0; r < kX; ++r)
            tail[k][r] = 0.f;
    for (; i < n; ++i)
        for (int k = 0; k < kW; ++k)
            for (int r = 0; r < kX; ++r)
                tail[k][r] = __builtin_fmaf(ws[k][i], xs[r][i], tail[k][r]);

    for (int k = 0; k < kW; ++k)
        for (int r = 0; r < kX; ++r) {
            const __m128 low = _mm256_castps256_ps128(acc[k][r]);
            const __m128 high = _mm256_extractf128_ps(acc[k][r], 1);
            const __m128 quads = _mm_add_ps(low, high); // {s0,s1,s2,s3}
            const __m128 duo =
                _mm_add_ps(quads, _mm_movehl_ps(quads, quads));
            const __m128 sum =
                _mm_add_ss(duo, _mm_shuffle_ps(duo, duo, 1));
            out[k * stride + r] = _mm_cvtss_f32(sum) + tail[k][r];
        }
#else
    // Portable fallback with the same accumulation structure. The
    // multiply stays a separate statement so the compiler cannot
    // contract one instantiation to FMA and not another.
    float acc[kW][kX][8];
    for (int k = 0; k < kW; ++k)
        for (int r = 0; r < kX; ++r)
            for (int l = 0; l < 8; ++l)
                acc[k][r][l] = 0.f;

    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        for (int k = 0; k < kW; ++k)
            for (int r = 0; r < kX; ++r)
                for (int l = 0; l < 8; ++l) {
                    const float product = ws[k][i + l] * xs[r][i + l];
                    acc[k][r][l] += product;
                }

    float tail[kW][kX];
    for (int k = 0; k < kW; ++k)
        for (int r = 0; r < kX; ++r)
            tail[k][r] = 0.f;
    for (; i < n; ++i)
        for (int k = 0; k < kW; ++k)
            for (int r = 0; r < kX; ++r) {
                const float product = ws[k][i] * xs[r][i];
                tail[k][r] += product;
            }

    for (int k = 0; k < kW; ++k)
        for (int r = 0; r < kX; ++r) {
            const float *lanes = acc[k][r];
            const float s0 = lanes[0] + lanes[4];
            const float s1 = lanes[1] + lanes[5];
            const float s2 = lanes[2] + lanes[6];
            const float s3 = lanes[3] + lanes[7];
            out[k * stride + r] = ((s0 + s2) + (s1 + s3)) + tail[k][r];
        }
#endif
}

using TileBlockFn = void (*)(const float *const *, const float *const *,
                             std::size_t, float *, std::size_t);

/** Every tile shape, indexed [kW - 1][kX - 1]. */
constexpr TileBlockFn kTileBlocks[kTileWeightRows][kTileInputRows] = {
    {dotLanesTileBlock<1, 1>, dotLanesTileBlock<1, 2>,
     dotLanesTileBlock<1, 3>, dotLanesTileBlock<1, 4>},
    {dotLanesTileBlock<2, 1>, dotLanesTileBlock<2, 2>,
     dotLanesTileBlock<2, 3>, dotLanesTileBlock<2, 4>},
    {dotLanesTileBlock<3, 1>, dotLanesTileBlock<3, 2>,
     dotLanesTileBlock<3, 3>, dotLanesTileBlock<3, 4>},
};

} // namespace

float
dotLanes(std::span<const float> a, std::span<const float> b)
{
    nlfm_assert_hot(a.size() == b.size(), "dotLanes: size mismatch ",
                    a.size(), " vs ", b.size());
    const float *pa = a.data();
    const float *pb = b.data();
    float out = 0.f;
    dotLanesTileBlock<1, 1>(&pa, &pb, a.size(), &out, 1);
    return out;
}

void
dotLanesTile(std::span<const float *const> ws,
             std::span<const float *const> xs, std::size_t n,
             std::span<float> out)
{
    nlfm_assert_hot(!ws.empty() && ws.size() <= kTileWeightRows,
                    "dotLanesTile: ", ws.size(), " weight rows");
    nlfm_assert_hot(out.size() == ws.size() * xs.size(),
                    "dotLanesTile: shape mismatch");
    const TileBlockFn *blocks = kTileBlocks[ws.size() - 1];
    for (std::size_t r = 0; r < xs.size(); r += kTileInputRows) {
        const std::size_t rows = std::min(kTileInputRows, xs.size() - r);
        blocks[rows - 1](ws.data(), xs.data() + r, n, out.data() + r,
                         xs.size());
    }
}

void
dotLanesRows(std::span<const float> w, std::span<const float *const> xs,
             std::span<float> out)
{
    const float *pw = w.data();
    dotLanesTile({&pw, 1}, xs, w.size(), out);
}

float
dotPair(std::span<const float> a1, std::span<const float> b1,
        std::span<const float> a2, std::span<const float> b2)
{
    return dotLanes(a1, b1) + dotLanes(a2, b2);
}

void
axpy(float alpha, std::span<const float> x, std::span<float> y)
{
    nlfm_assert_hot(x.size() == y.size(), "axpy: size mismatch");
    for (std::size_t i = 0; i < x.size(); ++i)
        y[i] += alpha * x[i];
}

void
scale(std::span<float> x, float alpha)
{
    for (auto &value : x)
        value *= alpha;
}

void
hadamard(std::span<const float> a, std::span<const float> b,
         std::span<float> out)
{
    nlfm_assert_hot(a.size() == b.size() && a.size() == out.size(),
                    "hadamard: size mismatch");
    for (std::size_t i = 0; i < a.size(); ++i)
        out[i] = a[i] * b[i];
}

void
add(std::span<const float> a, std::span<const float> b, std::span<float> out)
{
    nlfm_assert_hot(a.size() == b.size() && a.size() == out.size(),
                    "add: size mismatch");
    for (std::size_t i = 0; i < a.size(); ++i)
        out[i] = a[i] + b[i];
}

float
norm2(std::span<const float> x)
{
    double acc = 0.0;
    for (float value : x)
        acc += static_cast<double>(value) * static_cast<double>(value);
    return static_cast<float>(std::sqrt(acc));
}

float
maxAbs(std::span<const float> x)
{
    float best = 0.f;
    for (float value : x)
        best = std::max(best, std::fabs(value));
    return best;
}

float
sum(std::span<const float> x)
{
    double acc = 0.0;
    for (float value : x)
        acc += value;
    return static_cast<float>(acc);
}

double
relativeDifference(double a, double b)
{
    if (a == 0.0)
        return b == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
    return std::fabs(a - b) / std::fabs(a);
}

} // namespace nlfm::tensor
