/**
 * @file
 * The per-neuron reuse decision, shared by the serial MemoEngine and the
 * batched BatchMemoEngine.
 *
 * Keeping Eqs. 9-14 in one place guarantees the two execution paths make
 * bit-identical decisions: the batch path is a scheduling change, not a
 * numerical one. The BNN decision has one representation, Q16.16 fixed
 * point; the batch engine's AVX-512 decide (memo_batch.cc) is a lane-wise
 * transcription of bnnReuseDecision and must stay bit-identical to it.
 */

#ifndef NLFM_MEMO_MEMO_DECISION_HH
#define NLFM_MEMO_MEMO_DECISION_HH

#include <cmath>
#include <cstdint>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/fixed_point.hh"
#include "tensor/vector_ops.hh"

namespace nlfm::memo
{

/** Outcome of the BNN predictor for one neuron at one timestep. */
struct BnnDecision
{
    bool reuse = false;
    /** delta_b to store when reusing, Q16 raw. */
    std::int64_t deltaRaw = 0;
};

/**
 * BNN reuse decision (Eqs. 12-14): relative BNN difference, throttling
 * accumulation, and the theta comparison, all in Q16.16 fixed point —
 * the FMU's integer CMP unit.
 *
 * @param yb_t     current binarized output
 * @param yb_m     cached binarized output (ignored unless @p valid)
 * @param valid    memo entry holds a value
 * @param prev_raw accumulated delta_b, Q16 raw
 */
inline BnnDecision
bnnReuseDecision(std::int32_t yb_t, std::int32_t yb_m, bool valid,
                 std::int64_t prev_raw, bool throttle, Q16 theta_q)
{
    BnnDecision decision;
    if (!valid)
        return decision;

    if (yb_t == 0) {
        // Relative error undefined; only a bit-identical BNN output
        // counts as "no change".
        if (yb_m == 0) {
            decision.deltaRaw = throttle ? prev_raw : 0;
            decision.reuse = Q16::fromRaw(decision.deltaRaw) <= theta_q;
        }
    } else {
        // eps_b in Q16.16: |yb_t - yb_m| / |yb_t| (Eq. 12), accumulated
        // into delta_b (Eq. 13) and compared against theta (Eq. 14).
        //
        // The division only has to run when the neuron actually reuses
        // (to materialize the stored delta_b); the comparison itself is
        // division-free. With q = floor((diff << 16) / mag) and
        // nonnegative operands,
        //
        //     prev + q <= theta  ⟺  q < theta - prev + 1
        //                        ⟺  diff << 16 < (theta - prev + 1) * mag
        //
        // (floor(a/b) < K ⟺ a < K*b for b > 0), so misses — the common
        // case at low reuse, one decision per neuron per slot per
        // timestep — skip the divide entirely. The product runs in
        // 128-bit so a saturated theta cannot overflow it.
        const std::int64_t diff =
            std::abs(static_cast<std::int64_t>(yb_t) - yb_m);
        const std::int64_t mag =
            std::abs(static_cast<std::int64_t>(yb_t));
        const std::int64_t prev = throttle ? prev_raw : 0;
        const std::int64_t scaled_diff = diff << 16;
        const __int128 headroom =
            static_cast<__int128>(theta_q.raw()) - prev + 1;
        if (static_cast<__int128>(scaled_diff) < headroom * mag) {
            decision.deltaRaw = prev + scaled_diff / mag;
            decision.reuse = true;
        }
    }
    return decision;
}

#if defined(__x86_64__)

/**
 * Largest Eq. 13 dividend (diff << 16) for which eq13QuotientLanes is
 * exact: below 2^53, every dividend converts to double exactly.
 */
inline constexpr std::int64_t kEq13ExactDividend = std::int64_t{1} << 53;

/**
 * Eq. 13's quotient (diff << 16) / mag for eight nonnegative lanes as a
 * truncated double division, bit-identical to the integer division in
 * bnnReuseDecision whenever every dividend is below kEq13ExactDividend
 * and every divisor positive. The converted operands are exact, so
 * the quotient a / b is correctly rounded: an integer quotient comes
 * out exact, and a non-integer one lies at least 1 / b from the next
 * integer while its rounding error is at most (a / b) * 2^-53 < 1 / b,
 * so truncation lands on floor(a / b). Lanes outside @p lanes are zero
 * (and may hold a zero divisor).
 */
__attribute__((target("avx512f,avx512dq"))) inline __m512i
eq13QuotientLanes(__mmask8 lanes, __m512i scaled, __m512i mag)
{
    const __m512d quotient =
        _mm512_maskz_div_pd(lanes, _mm512_maskz_cvtepi64_pd(lanes, scaled),
                            _mm512_maskz_cvtepi64_pd(lanes, mag));
    return _mm512_maskz_cvttpd_epi64(lanes, quotient);
}

#endif // __x86_64__

/**
 * Oracle reuse decision (Eq. 9): reuse while the true relative output
 * change stays within theta.
 */
inline bool
oracleReuseDecision(float y_t, float y_m, bool valid, double theta)
{
    return valid && tensor::relativeDifference(y_t, y_m) <= theta;
}

} // namespace nlfm::memo

#endif // NLFM_MEMO_MEMO_DECISION_HH
