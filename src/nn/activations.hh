/**
 * @file
 * Activation functions used by the cell families (paper Fig. 4: sigma and
 * phi) plus their derivatives for the BPTT trainer.
 *
 * sigma and phi have exactly one definition each: the 8-lane kernels
 * sigmoidLanes() and tanhLanes() below. The cells' row kernels call them
 * eight neurons at a time, and the scalar sigmoid()/tanhAct() used by the
 * trainer and the tests are one-lane calls into the same code, so every
 * caller in one build gets the same bits for the same input. Like
 * tensor::dotLanesTile, each kernel's per-element operation sequence is
 * pinned in the source: AVX2+FMA intrinsics when the build targets them
 * (the default -march=x86-64-v3), and a portable fallback with the same
 * sequence (separate multiply and add instead of FMA) otherwise.
 * docs/SIMD.md ("Activation kernels") gives the constants' provenance and
 * the measured error bounds.
 */

#ifndef NLFM_NN_ACTIVATIONS_HH
#define NLFM_NN_ACTIVATIONS_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#else
#include <cmath>
#endif

namespace nlfm::nn
{

/** Elements per activation-kernel step. */
inline constexpr std::size_t kActLanes = 8;

/**
 * Eight float lanes and the element-wise operations the activation and
 * cell row kernels are written in. Every operation rounds each lane on
 * its own (IEEE single precision), so a lane's result never depends on
 * its position or its neighbours. madd/nmadd are one fused operation on
 * AVX2+FMA builds; the kernels never feed a plain product into a plain
 * add, so the compiler has nothing left to contract differently at
 * different call sites.
 */
namespace lanes
{

#if defined(__AVX2__) && defined(__FMA__)

using Vec = __m256;

inline Vec splat(float v) { return _mm256_set1_ps(v); }
inline Vec load(const float *p) { return _mm256_loadu_ps(p); }
inline void store(float *p, Vec v) { _mm256_storeu_ps(p, v); }

/** Lane mask with the first @p count (< kActLanes) lanes set. */
inline __m256i
firstLanes(std::size_t count)
{
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(count)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/** Load the first @p count lanes; the others read as 0. */
inline Vec
loadFirst(const float *p, std::size_t count)
{
    return _mm256_maskload_ps(p, firstLanes(count));
}

/** Store the first @p count lanes; memory past them is not touched. */
inline void
storeFirst(float *p, Vec v, std::size_t count)
{
    _mm256_maskstore_ps(p, firstLanes(count), v);
}

inline float first(Vec v) { return _mm256_cvtss_f32(v); }
inline Vec add(Vec a, Vec b) { return _mm256_add_ps(a, b); }
inline Vec sub(Vec a, Vec b) { return _mm256_sub_ps(a, b); }
inline Vec mul(Vec a, Vec b) { return _mm256_mul_ps(a, b); }
inline Vec div(Vec a, Vec b) { return _mm256_div_ps(a, b); }
/** a * b + c. */
inline Vec madd(Vec a, Vec b, Vec c) { return _mm256_fmadd_ps(a, b, c); }
/** c - a * b. */
inline Vec nmadd(Vec a, Vec b, Vec c) { return _mm256_fnmadd_ps(a, b, c); }
/** bound < v ? bound : v — a NaN @p v passes through. */
inline Vec atMost(Vec bound, Vec v) { return _mm256_min_ps(bound, v); }
/** bound > v ? bound : v — a NaN @p v passes through. */
inline Vec atLeast(Vec bound, Vec v) { return _mm256_max_ps(bound, v); }
inline Vec floor(Vec v) { return _mm256_floor_ps(v); }

/**
 * 2^n for integral n in [-127, 128], built in the exponent field:
 * n + (2^23 + 127) holds n + 127 in its low mantissa bits, and shifting
 * the bit pattern left by 23 moves them into the exponent (n = -127
 * gives 0, n = 128 gives +inf). A NaN n gives an arbitrary value; the
 * callers multiply it by a NaN.
 */
inline Vec
pow2(Vec n)
{
    const __m256i biased =
        _mm256_castps_si256(_mm256_add_ps(n, _mm256_set1_ps(8388735.f)));
    return _mm256_castsi256_ps(_mm256_slli_epi32(biased, 23));
}

#else

struct Vec
{
    float v[kActLanes];
};

inline Vec
splat(float x)
{
    Vec out;
    for (std::size_t l = 0; l < kActLanes; ++l)
        out.v[l] = x;
    return out;
}

inline Vec
loadFirst(const float *p, std::size_t count)
{
    Vec out = splat(0.f);
    for (std::size_t l = 0; l < count; ++l)
        out.v[l] = p[l];
    return out;
}

inline Vec load(const float *p) { return loadFirst(p, kActLanes); }

inline void
storeFirst(float *p, const Vec &x, std::size_t count)
{
    for (std::size_t l = 0; l < count; ++l)
        p[l] = x.v[l];
}

inline void store(float *p, const Vec &x) { storeFirst(p, x, kActLanes); }
inline float first(const Vec &x) { return x.v[0]; }

/** Apply @p op lane by lane. */
template <typename Op>
inline Vec
perLane(Op op)
{
    Vec out;
    for (std::size_t l = 0; l < kActLanes; ++l)
        out.v[l] = op(l);
    return out;
}

inline Vec
add(const Vec &a, const Vec &b)
{
    return perLane([&](std::size_t l) { return a.v[l] + b.v[l]; });
}

inline Vec
sub(const Vec &a, const Vec &b)
{
    return perLane([&](std::size_t l) { return a.v[l] - b.v[l]; });
}

inline Vec
mul(const Vec &a, const Vec &b)
{
    return perLane([&](std::size_t l) { return a.v[l] * b.v[l]; });
}

inline Vec
div(const Vec &a, const Vec &b)
{
    return perLane([&](std::size_t l) { return a.v[l] / b.v[l]; });
}

// Without FMA hardware the product and the sum round separately; the
// product stays its own statement, as in tensor::dotLanesTile.
inline Vec
madd(const Vec &a, const Vec &b, const Vec &c)
{
    return perLane([&](std::size_t l) {
        const float product = a.v[l] * b.v[l];
        return product + c.v[l];
    });
}

inline Vec
nmadd(const Vec &a, const Vec &b, const Vec &c)
{
    return perLane([&](std::size_t l) {
        const float product = a.v[l] * b.v[l];
        return c.v[l] - product;
    });
}

inline Vec
atMost(const Vec &bound, const Vec &x)
{
    return perLane([&](std::size_t l) {
        return bound.v[l] < x.v[l] ? bound.v[l] : x.v[l];
    });
}

inline Vec
atLeast(const Vec &bound, const Vec &x)
{
    return perLane([&](std::size_t l) {
        return bound.v[l] > x.v[l] ? bound.v[l] : x.v[l];
    });
}

inline Vec
floor(const Vec &x)
{
    return perLane([&](std::size_t l) { return std::floor(x.v[l]); });
}

inline Vec
pow2(const Vec &n)
{
    return perLane([&](std::size_t l) {
        const float biased = n.v[l] + 8388735.f;
        return std::bit_cast<float>(std::bit_cast<std::uint32_t>(biased)
                                    << 23);
    });
}

#endif

/** Loads and stores of a full kActLanes step. */
struct AllLanes
{
    Vec load(const float *p) const { return lanes::load(p); }
    void store(float *p, Vec v) const { lanes::store(p, v); }
};

/** Loads and stores of a partial last step: the first @c count lanes. */
struct FirstLanes
{
    std::size_t count;
    Vec load(const float *p) const { return loadFirst(p, count); }
    void store(float *p, Vec v) const { storeFirst(p, v, count); }
};

/**
 * Run @p step(n, io) for n = 0, kActLanes, 2 kActLanes, ... below
 * @p count: io is AllLanes for every full step and FirstLanes for a
 * partial last one. @p step is one generic lambda, so the full and the
 * partial step run the same operations on every lane they keep.
 */
template <typename Step>
inline void
forEachStep(std::size_t count, Step step)
{
    std::size_t n = 0;
    for (; n + kActLanes <= count; n += kActLanes)
        step(n, AllLanes{});
    if (n < count)
        step(n, FirstLanes{count - n});
}

/**
 * Logistic sigmoid 1 / (1 + exp(-x)) with a Cephes-style exp (expf from
 * the Cephes library: exp(t) = 2^n * exp(r), n = floor(t log2 e + 1/2),
 * r = t - n ln 2 in two parts, exp(r) by a degree-7 polynomial). The
 * exponent is clamped to [-88, 89]: at -88 the scale 2^n is 0 and
 * sigmoid(+inf) is exactly 1; at 89 it is +inf and sigmoid(-inf) is
 * exactly 0 (any x below about -88.37 gives 0, where the true value is
 * below 4e-39). The final scale is fused into the "+1", so the
 * denominator is one fma. NaN in, NaN out.
 */
inline Vec
sigmoidLanes(Vec x)
{
    const Vec t =
        atLeast(splat(-88.f), atMost(splat(89.f), sub(splat(0.f), x)));
    const Vec n = floor(madd(t, splat(1.44269504088896341f), splat(0.5f)));
    Vec r = nmadd(n, splat(0.693359375f), t);
    r = nmadd(n, splat(-2.12194440e-4f), r);
    const Vec r2 = mul(r, r);
    Vec p = splat(1.9875691500e-4f);
    p = madd(p, r, splat(1.3981999507e-3f));
    p = madd(p, r, splat(8.3334519073e-3f));
    p = madd(p, r, splat(4.1665795894e-2f));
    p = madd(p, r, splat(1.6666665459e-1f));
    p = madd(p, r, splat(5.0000001201e-1f));
    const Vec exp_r = add(madd(p, r2, r), splat(1.f));
    return div(splat(1.f), madd(exp_r, pow2(n), splat(1.f)));
}

/**
 * Hyperbolic tangent as Eigen's clamped rational approximation
 * (generic_fast_tanh_float): x clamped to [-c, c], then a degree-13 odd
 * numerator over a degree-6 even denominator, both in x^2 by Horner.
 * c is the smallest input where the fused (or unfused) evaluation
 * reaches exactly 1, so tanh(+-inf) = +-1 and no output leaves [-1, 1].
 * Signed zeros keep their sign; NaN in, NaN out.
 */
inline Vec
tanhLanes(Vec x)
{
#if defined(__AVX2__) && defined(__FMA__)
    constexpr float kClamp = 7.99881172180175781f;
#else
    constexpr float kClamp = 7.90531110763549805f;
#endif
    const Vec v = atLeast(splat(-kClamp), atMost(splat(kClamp), x));
    const Vec v2 = mul(v, v);
    Vec p = splat(-2.76076847742355e-16f);
    p = madd(v2, p, splat(2.00018790482477e-13f));
    p = madd(v2, p, splat(-8.60467152213735e-11f));
    p = madd(v2, p, splat(5.12229709037114e-08f));
    p = madd(v2, p, splat(1.48572235717979e-05f));
    p = madd(v2, p, splat(6.37261928875436e-04f));
    p = madd(v2, p, splat(4.89352455891786e-03f));
    Vec q = splat(1.19825839466702e-06f);
    q = madd(v2, q, splat(1.18534705686654e-04f));
    q = madd(v2, q, splat(2.26843463243900e-03f));
    q = madd(v2, q, splat(4.89352518554385e-03f));
    return div(mul(v, p), q);
}

} // namespace lanes

/** Logistic sigmoid: one lane of lanes::sigmoidLanes. */
inline float
sigmoid(float x)
{
    return lanes::first(lanes::sigmoidLanes(lanes::splat(x)));
}

/** Hyperbolic tangent (phi in the paper's equations): one lane of
 *  lanes::tanhLanes. */
inline float
tanhAct(float x)
{
    return lanes::first(lanes::tanhLanes(lanes::splat(x)));
}

/** d sigmoid(x)/dx expressed via the activation value s = sigmoid(x). */
inline float
sigmoidGradFromOutput(float s)
{
    return s * (1.f - s);
}

/** d tanh(x)/dx expressed via the activation value y = tanh(x). */
inline float
tanhGradFromOutput(float y)
{
    return 1.f - y * y;
}

/** Apply sigmoid element-wise in place, kActLanes elements per step. */
void sigmoidInPlace(std::span<float> values);

/** Apply tanh element-wise in place, kActLanes elements per step. */
void tanhInPlace(std::span<float> values);

/** out = softmax(values) (numerically stable). */
void softmax(std::span<const float> values, std::span<float> out);

} // namespace nlfm::nn

#endif // NLFM_NN_ACTIVATIONS_HH
