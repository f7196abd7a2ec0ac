#include "memo/memo_batch.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "memo/memo_decision.hh"
#include "tensor/bitpack.hh"
#include "tensor/vector_ops.hh"

namespace nlfm::memo
{

namespace
{

/** Weight rows per probe panel (block x live-slots kernel calls). */
constexpr std::size_t kProbeNeuronBlock = 32;

/**
 * Break-even density of a union commit tile, as the fraction
 * kUnionDensityNum / kUnionDensityDen: a group of a probe block's
 * missing rows is evaluated as one dotLanesTile over the union of
 * their misses only when the dots the rows commit (the sum of their
 * miss counts) are at least that share of the dots the tile computes
 * (rows x union). Below it each row is evaluated over its own misses.
 * Measured with bench_micro_kernels' BM_MissTile* (docs/SIMD.md).
 */
constexpr std::size_t kUnionDensityNum = 1;
constexpr std::size_t kUnionDensityDen = 2;

/** Word @p w of a slot bit mask stored as bytes (8 slots per byte). */
inline std::uint64_t
maskWord(const std::uint8_t *mask, std::size_t w)
{
    std::uint64_t word;
    std::memcpy(&word, mask + 8 * w, sizeof word);
    return word;
}

/**
 * Compact the panel pointers of the slots flagged in @p mask (ascending
 * slot order) into @p x_out / @p h_out; returns how many.
 */
std::size_t
compactRows(const std::uint8_t *mask, std::size_t mask_words,
            const float *const *x_rows, const float *const *h_rows,
            const float **x_out, const float **h_out)
{
    std::size_t count = 0;
    for (std::size_t w = 0; w < mask_words; ++w)
        for (std::uint64_t m = maskWord(mask, w); m != 0; m &= m - 1) {
            const std::size_t i =
                64 * w + static_cast<std::size_t>(__builtin_ctzll(m));
            x_out[count] = x_rows[i];
            h_out[count] = h_rows[i];
            ++count;
        }
    return count;
}

/**
 * Phase 2 (Eqs. 15-17) of one row for any slot list: @p computed flags
 * the slots whose dots @p fwd / @p rec hold, one per flagged slot in
 * ascending slot order (a slot's dot sits at its rank), and @p missed,
 * a subset, the slots whose entries this row refreshes.
 */
void
commitRowByRank(const std::uint8_t *computed, const std::uint8_t *missed,
                std::size_t mask_words, const std::uint32_t *slot_entry,
                const float *fwd, const float *rec,
                const std::int32_t *yb_row, float *y_row,
                std::int32_t *bnn_row, std::int64_t *draw_row,
                std::uint8_t *valid_row)
{
    std::size_t d = 0;
    for (std::size_t w = 0; w < mask_words; ++w) {
        const std::uint64_t m = maskWord(missed, w);
        for (std::uint64_t c = maskWord(computed, w); c != 0;
             c &= c - 1, ++d) {
            const int j = __builtin_ctzll(c);
            if (((m >> j) & 1u) == 0)
                continue;
            const std::size_t i = 64 * w + static_cast<std::size_t>(j);
            const std::uint32_t e = slot_entry[i];
            y_row[e] = fwd[d] + rec[d];
            bnn_row[e] = yb_row[i];
            draw_row[e] = 0;
            valid_row[e] = 1;
        }
    }
}

#if defined(__x86_64__)

/**
 * AVX-512 form of the Phase-1 decision loop with throttling on, over a
 * dense slot range (every table pointer is already offset to the
 * panel's first slot): eight slots per step through the division-free
 * comparison of memo_decision.hh, each slot against its own theta —
 *
 *     reuse ⟺ valid && (diff << 16) < (theta - prev + 1) * mag
 *             (with the yb_t == 0 branch folded in as diff == 0 &&
 *              prev <= theta)
 *
 * — integer arithmetic throughout, so decisions are bit-identical to
 * bnnReuseDecision (the caller guards against (theta+1)*mag overflow
 * with the panel's largest theta). The reusing lanes then take Eq. 13
 * as one truncated double division (eq13QuotientLanes; the caller
 * guards its exactness premise with the gate width) and a masked
 * delta_b store, and bump their reuse counters with a masked
 * read-modify-write: no step leaves the vector path. A reused neuron's
 * output is its cached y_m, which the table already holds; the caller
 * emits the block's outputs from the table after commit.
 * A final step of fewer than eight slots runs the same comparison over
 * masked loads (masked-out lanes read as invalid and are dropped from
 * both outcomes), so panels narrower than eight slots — a small
 * chunkSize — stay on the vector path too.
 * Misses are flagged in @p miss_blocks, one bit per slot.
 *
 * Explicit intrinsics behind a target attribute for the same reason as
 * tensor/bitpack_simd.cc: -march=native is off limits under gcc 12.
 *
 * @return the miss count
 */
__attribute__((target("avx512f,avx512dq,avx512bw,avx512vl,popcnt")))
std::size_t
decideRowAvx512(const std::int32_t *yb_row, std::size_t slots,
                const std::int32_t *bnn_row, const std::uint8_t *valid_row,
                std::int64_t *draw_row, std::uint64_t *reused_row,
                const std::int64_t *theta_raw, std::uint8_t *miss_blocks)
{
    std::size_t miss_count = 0;
    const __m512i one = _mm512_set1_epi64(1);
    const __m512i zero = _mm512_setzero_si512();

    for (std::size_t i = 0; i < slots; i += 8) {
        const unsigned lanes =
            slots - i >= 8 ? 0xffu : (1u << (slots - i)) - 1u;
        // maskz_* forms of the widening/abs intrinsics: the plain forms
        // expand through _mm512_undefined_epi32(), which gcc 12 flags
        // with -Wmaybe-uninitialized.
        const __m512i yb = _mm512_maskz_cvtepi32_epi64(
            0xff, _mm256_maskz_loadu_epi32(lanes, yb_row + i));
        const __m512i ym = _mm512_maskz_cvtepi32_epi64(
            0xff, _mm256_maskz_loadu_epi32(lanes, bnn_row + i));
        const __mmask8 valid = _mm512_cmpneq_epi64_mask(
            _mm512_maskz_cvtepu8_epi64(
                0xff, _mm_maskz_loadu_epi8(lanes, valid_row + i)),
            zero);
        const __m512i prev = _mm512_maskz_loadu_epi64(lanes, draw_row + i);
        const __m512i theta1 = _mm512_add_epi64(
            _mm512_maskz_loadu_epi64(lanes, theta_raw + i), one);
        const __m512i diff =
            _mm512_maskz_abs_epi64(0xff, _mm512_sub_epi64(yb, ym));
        const __m512i mag = _mm512_maskz_abs_epi64(0xff, yb);
        const __m512i scaled = _mm512_maskz_slli_epi64(0xff, diff, 16);
        const __m512i prod =
            _mm512_mullo_epi64(_mm512_sub_epi64(theta1, prev), mag);

        const unsigned nonzero = _mm512_cmpneq_epi64_mask(mag, zero);
        const unsigned lt = _mm512_cmplt_epi64_mask(scaled, prod);
        const unsigned zero_reuse =
            _mm512_cmpeq_epi64_mask(diff, zero) &
            _mm512_cmplt_epi64_mask(prev, theta1);
        const unsigned reuse = static_cast<unsigned>(valid) &
                               ((nonzero & lt) | (~nonzero & zero_reuse));
        const unsigned miss_m = ~reuse & lanes;
        miss_blocks[i / 8] = static_cast<std::uint8_t>(miss_m);
        miss_count += static_cast<std::size_t>(__builtin_popcount(miss_m));
        if (reuse == 0)
            continue;

        // Eq. 13: delta_b += (diff << 16) / |yb_t| where yb_t != 0 (a
        // zero yb_t reuses only with diff == 0 and keeps delta_b).
        const __mmask8 update = static_cast<__mmask8>(reuse & nonzero);
        _mm512_mask_storeu_epi64(
            draw_row + i, update,
            _mm512_add_epi64(prev, eq13QuotientLanes(update, scaled, mag)));
        const __mmask8 reused = static_cast<__mmask8>(reuse);
        _mm512_mask_storeu_epi64(
            reused_row + i, reused,
            _mm512_add_epi64(_mm512_maskz_loadu_epi64(reused, reused_row + i),
                             one));
    }
    return miss_count;
}

/**
 * AVX-512 form of commitRowByRank over a dense slot range (table
 * pointers offset to the panel's first slot): per 8-slot step, one
 * expand-load places the dots of the @p computed slots in their lanes,
 * and four masked stores refresh y_m, yb_m, delta_b and the valid byte
 * of the @p missed ones. One routine for a full panel, one row's
 * compacted misses and a tile over a union. The committed y_t is the
 * same float add the scalar commit performs.
 */
__attribute__((target("avx512f,avx512bw,avx512vl,popcnt"))) void
commitRowAvx512(const std::uint8_t *computed, const std::uint8_t *missed,
                std::size_t slots, const float *fwd, const float *rec,
                const std::int32_t *yb_row, float *y_row,
                std::int32_t *bnn_row, std::int64_t *draw_row,
                std::uint8_t *valid_row)
{
    const __m512i zero64 = _mm512_setzero_si512();
    const __m128i one8 = _mm_set1_epi8(1);
    std::size_t d = 0;
    for (std::size_t i = 0; i < slots; i += 8) {
        const __mmask8 c = computed[i / 8];
        const __mmask8 m = missed[i / 8];
        if (m != 0) {
            const __m256 y_t =
                _mm256_add_ps(_mm256_maskz_expandloadu_ps(c, fwd + d),
                              _mm256_maskz_expandloadu_ps(c, rec + d));
            _mm256_mask_storeu_ps(y_row + i, m, y_t);
            _mm256_mask_storeu_epi32(
                bnn_row + i, m, _mm256_maskz_loadu_epi32(m, yb_row + i));
            _mm512_mask_storeu_epi64(draw_row + i, m, zero64);
            _mm_mask_storeu_epi8(valid_row + i, m, one8);
        }
        d += static_cast<std::size_t>(__builtin_popcount(c));
    }
}

/**
 * Emit a decided and committed probe block into the preact panel: after
 * commit, table entry (row r, slot i) holds exactly the slot's output —
 * the cached y_m it reused or the y_t it just computed — so the block's
 * outputs are the transpose of its table rows. @p y holds @p rows table
 * rows @p y_stride apart, each offset to the panel's first slot; @p out
 * is the first slot's preact row at the block's first neuron, the slots
 * @p out_stride apart. 8 x 8 tiles, masked at the block and panel
 * edges.
 */
__attribute__((target("avx512f,avx512vl"))) void
emitBlockAvx512(const float *y, std::size_t y_stride, std::size_t rows,
                std::size_t slots, float *out, std::size_t out_stride)
{
    for (std::size_t r = 0; r < rows; r += 8) {
        const std::size_t nr = std::min<std::size_t>(8, rows - r);
        const __mmask8 row_mask = static_cast<__mmask8>((1u << nr) - 1u);
        for (std::size_t i = 0; i < slots; i += 8) {
            const std::size_t ns = std::min<std::size_t>(8, slots - i);
            const __mmask8 slot_mask =
                static_cast<__mmask8>((1u << ns) - 1u);
            __m256 v[8];
            for (std::size_t k = 0; k < 8; ++k)
                v[k] = k < nr ? _mm256_maskz_loadu_ps(
                                    slot_mask, y + (r + k) * y_stride + i)
                              : _mm256_setzero_ps();
            const __m256 t0 = _mm256_unpacklo_ps(v[0], v[1]);
            const __m256 t1 = _mm256_unpackhi_ps(v[0], v[1]);
            const __m256 t2 = _mm256_unpacklo_ps(v[2], v[3]);
            const __m256 t3 = _mm256_unpackhi_ps(v[2], v[3]);
            const __m256 t4 = _mm256_unpacklo_ps(v[4], v[5]);
            const __m256 t5 = _mm256_unpackhi_ps(v[4], v[5]);
            const __m256 t6 = _mm256_unpacklo_ps(v[6], v[7]);
            const __m256 t7 = _mm256_unpackhi_ps(v[6], v[7]);
            const __m256 u0 = _mm256_shuffle_ps(t0, t2, 0x44);
            const __m256 u1 = _mm256_shuffle_ps(t0, t2, 0xee);
            const __m256 u2 = _mm256_shuffle_ps(t1, t3, 0x44);
            const __m256 u3 = _mm256_shuffle_ps(t1, t3, 0xee);
            const __m256 u4 = _mm256_shuffle_ps(t4, t6, 0x44);
            const __m256 u5 = _mm256_shuffle_ps(t4, t6, 0xee);
            const __m256 u6 = _mm256_shuffle_ps(t5, t7, 0x44);
            const __m256 u7 = _mm256_shuffle_ps(t5, t7, 0xee);
            const __m256 col[8] = {
                _mm256_permute2f128_ps(u0, u4, 0x20),
                _mm256_permute2f128_ps(u1, u5, 0x20),
                _mm256_permute2f128_ps(u2, u6, 0x20),
                _mm256_permute2f128_ps(u3, u7, 0x20),
                _mm256_permute2f128_ps(u0, u4, 0x31),
                _mm256_permute2f128_ps(u1, u5, 0x31),
                _mm256_permute2f128_ps(u2, u6, 0x31),
                _mm256_permute2f128_ps(u3, u7, 0x31)};
            for (std::size_t k = 0; k < ns; ++k)
                _mm256_mask_storeu_ps(out + (i + k) * out_stride + r,
                                      row_mask, col[k]);
        }
    }
}

#endif // __x86_64__

} // namespace

BatchMemoEngine::BatchMemoEngine(const nn::RnnNetwork &network,
                                 nn::BinarizedNetwork *bnn,
                                 const MemoOptions &options)
    : network_(network), bnn_(bnn), options_(options)
{
    nlfm_assert(options.theta >= 0.0, "negative threshold");
    nlfm_assert(options.predictor != PredictorKind::Bnn || bnn != nullptr,
                "BNN predictor requires a binarized mirror network");
    nlfm_assert(!options.recordTrace,
                "trace recording is a serial-engine feature");
}

void
BatchMemoEngine::resetSlot(std::size_t slot)
{
    nlfm_assert(slot < batch_, "resetSlot: slot out of range");
    // Invalidate the memo entries: a cleared valid byte forces the first
    // evaluation of every neuron to miss, which refreshes y_m / yb_m /
    // delta_b wholesale — exactly the cold-start state beginBatch leaves.
    const std::size_t neurons = network_.totalNeurons();
    for (std::size_t n = 0; n < neurons; ++n)
        valid_[n * slotStride_ + slot] = 0;
    const std::size_t gates = network_.gateInstances().size();
    for (std::size_t gate = 0; gate < gates; ++gate) {
        slotReused_[gate * slotStride_ + slot] = 0;
        slotTotal_[gate * slotStride_ + slot] = 0;
    }
    setSlotTheta(slot, options_.theta);
}

void
BatchMemoEngine::admitSlot(std::size_t slot, double theta)
{
    resetSlot(slot);
    if (theta >= 0.0)
        setSlotTheta(slot, theta);
}

void
BatchMemoEngine::exportSlot(std::size_t slot, SlotMemoState &out) const
{
    nlfm_assert(slot < batch_, "exportSlot: slot out of range");
    const std::size_t neurons = network_.totalNeurons();
    const bool bnn = options_.predictor == PredictorKind::Bnn;
    out.cachedOutput.resize(neurons);
    out.valid.resize(neurons);
    out.cachedBnn.resize(bnn ? neurons : 0);
    out.deltaRaw.resize(bnn ? neurons : 0);
    // Strided gather: entry n of the snapshot is table column slot of
    // neuron n. One pass per allocated array keeps each table's access
    // pattern a simple fixed-stride walk.
    for (std::size_t n = 0; n < neurons; ++n) {
        const std::size_t e = n * slotStride_ + slot;
        out.cachedOutput[n] = cachedOutput_[e];
        out.valid[n] = valid_[e];
    }
    if (!bnn)
        return;
    for (std::size_t n = 0; n < neurons; ++n)
        out.cachedBnn[n] = cachedBnn_[n * slotStride_ + slot];
    for (std::size_t n = 0; n < neurons; ++n)
        out.deltaRaw[n] = deltaRaw_[n * slotStride_ + slot];
}

void
BatchMemoEngine::restoreSlot(std::size_t slot, const SlotMemoState &state)
{
    nlfm_assert(slot < batch_, "restoreSlot: slot out of range");
    const std::size_t neurons = network_.totalNeurons();
    const bool bnn = options_.predictor == PredictorKind::Bnn;
    nlfm_assert(state.cachedOutput.size() == neurons &&
                    state.valid.size() == neurons,
                "restoreSlot: snapshot neuron count mismatch (session "
                "state from a different network?)");
    nlfm_assert(state.cachedBnn.size() == (bnn ? neurons : 0) &&
                    state.deltaRaw.size() == (bnn ? neurons : 0),
                "restoreSlot: snapshot predictor mismatch (BNN tables "
                "vs this engine's configuration)");
    for (std::size_t n = 0; n < neurons; ++n) {
        const std::size_t e = n * slotStride_ + slot;
        cachedOutput_[e] = state.cachedOutput[n];
        valid_[e] = state.valid[n];
    }
    if (!bnn)
        return;
    for (std::size_t n = 0; n < neurons; ++n)
        cachedBnn_[n * slotStride_ + slot] = state.cachedBnn[n];
    for (std::size_t n = 0; n < neurons; ++n)
        deltaRaw_[n * slotStride_ + slot] = state.deltaRaw[n];
}

void
BatchMemoEngine::setSlotTheta(std::size_t slot, double theta)
{
    nlfm_assert(slot < batch_, "setSlotTheta: slot out of range");
    nlfm_assert(theta >= 0.0, "negative threshold");
    slotThetaRaw_[slot] = Q16::fromDouble(theta).raw();
    slotThetaFp_[slot] = theta;
}

double
BatchMemoEngine::slotTheta(std::size_t slot) const
{
    nlfm_assert(slot < batch_, "slotTheta: slot out of range");
    return slotThetaFp_[slot];
}

void
BatchMemoEngine::beginBatch(std::size_t total_sequences)
{
    batch_ = total_sequences;
    // Pad the slot stride to a cache line of valid_ for multi-chunk
    // batches (single-chunk batches have no cross-chunk sharing to
    // avoid, so they skip the padding and its memory cost).
    slotStride_ = batch_ <= kCacheLineBytes
                      ? batch_
                      : (batch_ + kCacheLineBytes - 1) / kCacheLineBytes *
                            kCacheLineBytes;
    const std::size_t entries = network_.totalNeurons() * slotStride_;
    cachedOutput_.assign(entries, 0.f);
    // The BNN tables back the BNN predictor only: an Oracle engine
    // gives them no memory.
    const bool bnn = options_.predictor == PredictorKind::Bnn;
    cachedBnn_ = {};
    deltaRaw_ = {};
    if (bnn) {
        cachedBnn_.assign(entries, 0);
        deltaRaw_.assign(entries, 0);
    }
    valid_.assign(entries, 0);
    slotThetaRaw_.assign(slotStride_, Q16::fromDouble(options_.theta).raw());
    slotThetaFp_.assign(slotStride_, options_.theta);
    const std::size_t gates = network_.gateInstances().size();
    slotReused_.assign(gates * slotStride_, 0);
    slotTotal_.assign(gates * slotStride_, 0);
}

void
BatchMemoEngine::evaluateGateBatch(const nn::GateInstance &instance,
                                   const nn::GateParams &params,
                                   const tensor::Matrix &x,
                                   const tensor::Matrix &h,
                                   std::span<const std::size_t> rows,
                                   std::size_t slot_base,
                                   tensor::Matrix &preact)
{
    nlfm_assert(preact.cols() == instance.neurons,
                "preact panel width mismatch in batch memo engine");
    nlfm_assert(batch_ > 0, "evaluateGateBatch before beginBatch");

    if (options_.predictor == PredictorKind::Oracle)
        evaluateOracleBatch(instance, params, x, h, rows, slot_base,
                            preact);
    else
        evaluateBnnBatch(instance, params, x, h, rows, slot_base, preact);

    // One processing step per live slot: every listed neuron slot counts
    // toward the totals, exactly like the serial stats_.record call.
    const std::size_t stat_base = instance.instanceId * slotStride_;
    for (const std::size_t b : rows)
        slotTotal_[stat_base + slot_base + b] += instance.neurons;
}

void
BatchMemoEngine::evaluateOracleBatch(const nn::GateInstance &instance,
                                     const nn::GateParams &params,
                                     const tensor::Matrix &x,
                                     const tensor::Matrix &h,
                                     std::span<const std::size_t> rows,
                                     std::size_t slot_base,
                                     tensor::Matrix &preact)
{
    const std::size_t stat_base = instance.instanceId * slotStride_;

    // The Oracle always computes y_t (Eq. 9), so the whole panel takes
    // the exact batched product first — preact = Wx.x + Wh.h, the same
    // float(dotLanes + dotLanes) the serial engine's evaluateNeuron
    // produces — and the decisions then overwrite reused entries.
    // thread_local scratch: one set of reusable buffers per pool worker,
    // no per-gate-call allocation.
    params.wx.matvecPanel(x, rows, preact, false);
    params.wh.matvecPanel(h, rows, preact, true);
    thread_local std::vector<float *> out_rows;
    out_rows.resize(rows.size());
    tensor::gatherRowPointers(preact, rows, out_rows);
    for (std::size_t n = 0; n < instance.neurons; ++n) {
        const std::size_t entry_base =
            (instance.neuronBase + n) * slotStride_;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const std::size_t slot = slot_base + rows[i];
            const std::size_t entry = entry_base + slot;
            const float y_t = out_rows[i][n];
            const bool reuse = oracleReuseDecision(
                y_t, cachedOutput_[entry], valid_[entry] != 0,
                slotThetaFp_[slot]);
            if (reuse) {
                // Use the stale value (Eq. 10); the entry is kept
                // (Eq. 11).
                out_rows[i][n] = cachedOutput_[entry];
                ++slotReused_[stat_base + slot];
            } else {
                cachedOutput_[entry] = y_t;
                valid_[entry] = 1;
            }
        }
    }
}

void
BatchMemoEngine::evaluateBnnBatch(const nn::GateInstance &instance,
                                  const nn::GateParams &params,
                                  const tensor::Matrix &x,
                                  const tensor::Matrix &h,
                                  std::span<const std::size_t> rows,
                                  std::size_t slot_base,
                                  tensor::Matrix &preact)
{
    nn::BinarizedGate &bgate = bnn_->gate(instance.instanceId);
    const bool throttle = options_.throttle;
    const std::size_t stat_base = instance.instanceId * slotStride_;
    const std::size_t slots = rows.size();

    // Phase-time attribution (setPhaseSink): local accumulators per
    // call, flushed to the shared sink once at the end, so concurrent
    // chunk workers only contend on three atomic adds per gate call.
    // timed == false is the default and costs one branch per phase
    // boundary.
    GatePhaseTimes *const sink = phaseSink_;
    const bool timed = sink != nullptr;
    std::uint64_t probe_ns = 0;
    std::uint64_t decide_ns = 0;
    std::uint64_t commit_ns = 0;
    const auto now_ns = [] {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    };
    // Charges the time since the last phase boundary to @p phase: one
    // clock read per phase of each probe block. The first probe lap
    // also covers input binarization and the scratch setup below.
    std::uint64_t t_mark = timed ? now_ns() : 0;
    const auto lap = [&](std::uint64_t &phase) {
        if (!timed)
            return;
        const std::uint64_t t = now_ns();
        phase += t - t_mark;
        t_mark = t;
    };

    // One input binarization per live slot per timestep (the FMU input
    // vector of each sequence). thread_local so concurrent chunks never
    // share mutable predictor state and word buffers are reused across
    // gate calls instead of reallocated; re-sized only when the gate
    // width changes.
    const std::size_t width = instance.xSize + instance.hSize;
    thread_local std::vector<tensor::BitVector> inputs;
    thread_local std::vector<const std::uint64_t *> input_words;
    if (inputs.size() < slots)
        inputs.resize(slots);
    input_words.resize(slots);
    for (std::size_t i = 0; i < slots; ++i) {
        if (inputs[i].size() != width)
            inputs[i] = tensor::BitVector(width);
        inputs[i].assignConcat(x.row(rows[i]), h.row(rows[i]));
        input_words[i] = inputs[i].raw().data();
    }

    // thread_local scratch, one set per pool worker (see
    // evaluateOracleBatch).
    thread_local std::vector<const float *> x_rows;
    thread_local std::vector<const float *> h_rows;
    thread_local std::vector<float *> out_rows;
    x_rows.resize(slots);
    h_rows.resize(slots);
    out_rows.resize(slots);
    tensor::gatherRowPointers(x, rows, x_rows);
    tensor::gatherRowPointers(h, rows, h_rows);
    tensor::gatherRowPointers(preact, rows, out_rows);

    // Table offsets of each live slot, hoisted out of the per-neuron
    // decision loop (the loop runs per neuron x slot x timestep; the
    // offsets only change per gate call).
    thread_local std::vector<std::uint32_t> slot_entry;
    slot_entry.resize(slots);
    for (std::size_t i = 0; i < slots; ++i)
        slot_entry[i] =
            static_cast<std::uint32_t>(slot_base + rows[i]);

    // Per-probe-block decision scratch: which slots row r of the block
    // missed, one bit per slot at offset r * mask_stride (whole 64-bit
    // words, so the tail bits stay zero), and the union of a commit
    // group's misses. forward/recurrent hold up to one register tile
    // of dots; miss_x/miss_h the compacted pointers a tile runs over.
    const std::size_t mask_words = (slots + 63) / 64;
    const std::size_t mask_stride = 8 * mask_words;
    thread_local std::vector<std::uint8_t> miss_blocks;
    thread_local std::vector<std::uint8_t> union_blocks;
    thread_local std::vector<const float *> miss_x;
    thread_local std::vector<const float *> miss_h;
    thread_local std::vector<float> forward;
    thread_local std::vector<float> recurrent;
    miss_blocks.assign(kProbeNeuronBlock * mask_stride, 0);
    union_blocks.resize(mask_stride);
    miss_x.resize(slots);
    miss_h.resize(slots);
    forward.resize(tensor::kTileWeightRows * slots);
    recurrent.resize(tensor::kTileWeightRows * slots);
    std::size_t miss_count[kProbeNeuronBlock];
    std::uint64_t *reused_row = slotReused_.data() + stat_base;

    // Probe panel: all live slots of a block of neurons per kernel
    // invocation, streaming the contiguous sign matrix block by block.
    thread_local std::vector<std::int32_t> yb_panel;
    yb_panel.resize(kProbeNeuronBlock * slots);

    // A dense slot range (consecutive table entries and preact rows)
    // on an AVX-512 host with the AVX-512 probe selected takes the
    // vector commit and output emission; anything else — including a
    // forced non-AVX-512 probe ISA, so variant comparisons measure a
    // genuinely ISA-free fallback — commits by rank. The vector
    // decision additionally needs throttling on, every theta in the
    // panel small enough that (theta + 1) * mag cannot leave 64 bits,
    // and every Eq. 13 dividend (diff << 16, diff <= 2 * width) below
    // 2^53 so the double quotient is exact; otherwise the scalar loop
    // decides. All paths make bit-identical decisions.
    [[maybe_unused]] bool vector_panel = false;
    [[maybe_unused]] bool vector_decide = false;
#if defined(__x86_64__)
    static const bool has_vector_isa =
        __builtin_cpu_supports("avx512f") > 0 &&
        __builtin_cpu_supports("avx512dq") > 0 &&
        __builtin_cpu_supports("avx512bw") > 0 &&
        __builtin_cpu_supports("avx512vl") > 0;
    vector_panel = has_vector_isa &&
                   tensor::bnnActiveIsa() == tensor::BnnIsa::Avx512 &&
                   slots > 0;
    for (std::size_t i = 1; vector_panel && i < slots; ++i)
        vector_panel = slot_entry[i] == slot_entry[0] + i;
    vector_decide =
        vector_panel && throttle &&
        (static_cast<std::int64_t>(2 * width) << 16) < kEq13ExactDividend &&
        *std::max_element(slotThetaRaw_.data() + slot_entry[0],
                          slotThetaRaw_.data() + slot_entry[0] + slots) <
            std::numeric_limits<std::int64_t>::max() /
                (static_cast<std::int64_t>(2 * width + 2) << 16);
#endif
    const std::size_t e0 = slots > 0 ? slot_entry[0] : 0;

    // Phase 2 (Eqs. 15-17) for row r of the block at n0: refresh the
    // whole entry of every slot it missed. @p computed flags the slots
    // whose dots fwd/rec hold (in rank order); the row's own misses are
    // a subset, and the dots of the other computed slots are dropped.
    const auto commit = [&](std::size_t n0, std::size_t r,
                            const std::uint8_t *computed, const float *fwd,
                            const float *rec) {
        const std::size_t entry_base =
            (instance.neuronBase + n0 + r) * slotStride_;
        const std::int32_t *yb_row = yb_panel.data() + r * slots;
        const std::uint8_t *missed = miss_blocks.data() + r * mask_stride;
#if defined(__x86_64__)
        if (vector_panel) {
            commitRowAvx512(computed, missed, slots, fwd, rec, yb_row,
                            cachedOutput_.data() + entry_base + e0,
                            cachedBnn_.data() + entry_base + e0,
                            deltaRaw_.data() + entry_base + e0,
                            valid_.data() + entry_base + e0);
            return;
        }
#endif
        commitRowByRank(computed, missed, mask_words, slot_entry.data(),
                        fwd, rec, yb_row, cachedOutput_.data() + entry_base,
                        cachedBnn_.data() + entry_base,
                        deltaRaw_.data() + entry_base,
                        valid_.data() + entry_base);
    };

    for (std::size_t n0 = 0; n0 < instance.neurons;
         n0 += kProbeNeuronBlock) {
        const std::size_t block =
            std::min(kProbeNeuronBlock, instance.neurons - n0);
        tensor::bnnDotPanel(bgate.weights(), n0, block, input_words,
                            yb_panel);
        lap(probe_ns);

        // Phase 1, the whole block first: the cheap BNN probe decides
        // per slot; hits update their throttling state and counters,
        // misses are flagged per row (the flagged yb_t stays readable in
        // yb_panel).
        for (std::size_t r = 0; r < block; ++r) {
            const std::size_t entry_base =
                (instance.neuronBase + n0 + r) * slotStride_;
            const std::int32_t *yb_row = yb_panel.data() + r * slots;
            // Row-base pointers: the decision loop then indexes by the
            // hoisted slot offsets only.
            const std::int32_t *bnn_row = cachedBnn_.data() + entry_base;
            const std::uint8_t *valid_row = valid_.data() + entry_base;
            std::int64_t *draw_row = deltaRaw_.data() + entry_base;
            std::uint8_t *row_blocks = miss_blocks.data() + r * mask_stride;

#if defined(__x86_64__)
            if (vector_decide) {
                miss_count[r] = decideRowAvx512(
                    yb_row, slots, bnn_row + e0, valid_row + e0,
                    draw_row + e0, reused_row + e0,
                    slotThetaRaw_.data() + e0, row_blocks);
                continue;
            }
#endif
            std::size_t misses = 0;
            std::fill_n(row_blocks, mask_stride, std::uint8_t{0});
            for (std::size_t i = 0; i < slots; ++i) {
                const std::uint32_t e = slot_entry[i];
                // Per-slot threshold: slots carry their own theta in
                // serving mode (identical to the engine default in
                // closed-batch mode).
                const BnnDecision decision = bnnReuseDecision(
                    yb_row[i], bnn_row[e], valid_row[e] != 0, draw_row[e],
                    throttle, Q16::fromRaw(slotThetaRaw_[e]));
                if (decision.reuse) {
                    // Eq. 14 top: bypass the DPU; the cached output is
                    // emitted with the block.
                    draw_row[e] = decision.deltaRaw;
                    ++reused_row[e];
                } else {
                    ++misses;
                    row_blocks[i / 8] |=
                        static_cast<std::uint8_t>(1u << (i % 8));
                }
            }
            miss_count[r] = misses;
        }
        lap(decide_ns);

        // Phase 2 over the block's rows with misses, in groups of up to
        // three consecutive ones: one register tile evaluates the group
        // over the compacted union of its misses, and each row commits
        // only its own misses. A row that hits on some slots streams the
        // same weight row as one that misses on all of them, so the
        // union's extra dots are cheap — as long as the rows' own misses
        // fill enough of it (kUnionDensityNum / kUnionDensityDen);
        // below that the group shrinks, down to one row over its own
        // misses.
        std::size_t missing[kProbeNeuronBlock];
        std::size_t missing_count = 0;
        for (std::size_t r = 0; r < block; ++r)
            if (miss_count[r] != 0)
                missing[missing_count++] = r;
        for (std::size_t j = 0; j < missing_count;) {
            std::size_t group =
                std::min(tensor::kTileWeightRows, missing_count - j);
            const std::uint8_t *computed = nullptr;
            std::size_t computed_count = 0;
            for (; group > 1; --group) {
                std::size_t union_count = 0;
                std::size_t own = 0;
                for (std::size_t w = 0; w < mask_words; ++w) {
                    std::uint64_t u = 0;
                    for (std::size_t k = 0; k < group; ++k)
                        u |= maskWord(miss_blocks.data() +
                                          missing[j + k] * mask_stride,
                                      w);
                    std::memcpy(union_blocks.data() + 8 * w, &u, sizeof u);
                    union_count +=
                        static_cast<std::size_t>(__builtin_popcountll(u));
                }
                for (std::size_t k = 0; k < group; ++k)
                    own += miss_count[missing[j + k]];
                if (own * kUnionDensityDen >=
                    kUnionDensityNum * group * union_count) {
                    computed = union_blocks.data();
                    computed_count = union_count;
                    break;
                }
            }
            if (group == 1) {
                computed = miss_blocks.data() + missing[j] * mask_stride;
                computed_count = miss_count[missing[j]];
            }

            // The tile's inputs: the gathered panel pointers when every
            // slot is in, the compacted ones otherwise.
            std::span<const float *const> xs{x_rows.data(), slots};
            std::span<const float *const> hs{h_rows.data(), slots};
            if (computed_count != slots) {
                compactRows(computed, mask_words, x_rows.data(),
                            h_rows.data(), miss_x.data(), miss_h.data());
                xs = {miss_x.data(), computed_count};
                hs = {miss_h.data(), computed_count};
            }
            const float *wx_rows[tensor::kTileWeightRows];
            const float *wh_rows[tensor::kTileWeightRows];
            for (std::size_t k = 0; k < group; ++k) {
                wx_rows[k] = params.wx.row(n0 + missing[j + k]).data();
                wh_rows[k] = params.wh.row(n0 + missing[j + k]).data();
            }
            const std::size_t dots = group * computed_count;
            tensor::dotLanesTile({wx_rows, group}, xs, params.wx.cols(),
                                 {forward.data(), dots});
            tensor::dotLanesTile({wh_rows, group}, hs, params.wh.cols(),
                                 {recurrent.data(), dots});
            for (std::size_t k = 0; k < group; ++k)
                commit(n0, missing[j + k], computed,
                       forward.data() + k * computed_count,
                       recurrent.data() + k * computed_count);
            j += group;
        }

        // Every entry of the block now holds its slot's output (the
        // reused y_m or the fresh y_t): emit the block from the table.
        const float *y_block =
            cachedOutput_.data() + (instance.neuronBase + n0) * slotStride_;
#if defined(__x86_64__)
        if (vector_panel) {
            emitBlockAvx512(y_block + e0, slotStride_, block, slots,
                            out_rows[0] + n0, preact.cols());
            lap(commit_ns);
            continue;
        }
#endif
        for (std::size_t i = 0; i < slots; ++i) {
            float *out = out_rows[i] + n0;
            const std::uint32_t e = slot_entry[i];
            for (std::size_t r = 0; r < block; ++r)
                out[r] = y_block[r * slotStride_ + e];
        }
        lap(commit_ns);
    }
    if (timed) {
        sink->probeNs.fetch_add(probe_ns, std::memory_order_relaxed);
        sink->decideNs.fetch_add(decide_ns, std::memory_order_relaxed);
        sink->commitNs.fetch_add(commit_ns, std::memory_order_relaxed);
    }
}

ReuseStats
BatchMemoEngine::stats() const
{
    ReuseStats stats(network_.gateInstances().size());
    for (std::size_t gate = 0; gate < network_.gateInstances().size();
         ++gate) {
        std::uint64_t reused = 0;
        std::uint64_t total = 0;
        for (std::size_t slot = 0; slot < batch_; ++slot) {
            reused += slotReused_[gate * slotStride_ + slot];
            total += slotTotal_[gate * slotStride_ + slot];
        }
        stats.record(gate, reused, total);
    }
    return stats;
}

double
BatchMemoEngine::slotReuseFraction(std::size_t slot) const
{
    nlfm_assert(slot < batch_, "slot out of range");
    std::uint64_t reused = 0;
    std::uint64_t total = 0;
    for (std::size_t gate = 0; gate < network_.gateInstances().size();
         ++gate) {
        reused += slotReused_[gate * slotStride_ + slot];
        total += slotTotal_[gate * slotStride_ + slot];
    }
    return total == 0 ? 0.0
                      : static_cast<double>(reused) /
                            static_cast<double>(total);
}

} // namespace nlfm::memo
