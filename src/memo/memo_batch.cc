#include "memo/memo_batch.hh"

#include <algorithm>
#include <chrono>
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

#if defined(__x86_64__)

/**
 * AVX-512 form of the Phase-1 decision loop with throttling on, over a
 * dense slot range: eight slots per step through the division-free
 * comparison of memo_decision.hh, each slot against its own theta —
 *
 *     reuse ⟺ valid && (diff << 16) < (theta - prev + 1) * mag
 *             (with the yb_t == 0 branch folded in as diff == 0 &&
 *              prev <= theta)
 *
 * — integer arithmetic throughout, so decisions are bit-identical to
 * bnnReuseDecision (the caller guards against (theta+1)*mag overflow
 * with the panel's largest theta).
 * A final step of fewer than eight slots runs the same comparison over
 * masked loads (masked-out lanes read as invalid and are dropped from
 * both outcomes), so panels narrower than eight slots — a small
 * chunkSize — stay on the vector path too.
 * Misses are compress-stored into @p miss in ascending slot order and
 * flagged in @p miss_blocks (one bit per slot); reusing slots (the
 * sparse outcome at low theta) are resolved in the scalar mask loop,
 * which is also where the Q16 division finally runs.
 *
 * Explicit intrinsics behind a target attribute for the same reason as
 * tensor/bitpack_simd.cc: -march=native is off limits under gcc 12.
 *
 * @return the miss count
 */
__attribute__((target("avx512f,avx512dq,avx512bw,avx512vl,popcnt")))
std::size_t
decideRowAvx512(const std::int32_t *yb_row, std::size_t slots,
                std::size_t e0, const std::int32_t *bnn_row,
                const std::uint8_t *valid_row, std::int64_t *draw_row,
                const float *y_row, std::uint64_t *reused_row,
                float *const *out_rows, std::size_t n,
                const std::int64_t *theta_raw, std::uint32_t *miss,
                std::uint8_t *miss_blocks)
{
    std::size_t miss_count = 0;
    const __m512i one = _mm512_set1_epi64(1);
    const __m512i zero = _mm512_setzero_si512();
    const __m512i lane_idx =
        _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 0, 0, 0, 0, 0, 0, 0, 0);

    for (std::size_t i = 0; i < slots; i += 8) {
        const unsigned lanes =
            slots - i >= 8 ? 0xffu : (1u << (slots - i)) - 1u;
        // maskz_* forms of the widening/abs intrinsics: the plain forms
        // expand through _mm512_undefined_epi32(), which gcc 12 flags
        // with -Wmaybe-uninitialized.
        const __m512i yb = _mm512_maskz_cvtepi32_epi64(
            0xff, _mm256_maskz_loadu_epi32(lanes, yb_row + i));
        const __m512i ym = _mm512_maskz_cvtepi32_epi64(
            0xff, _mm256_maskz_loadu_epi32(lanes, bnn_row + e0 + i));
        const __mmask8 valid = _mm512_cmpneq_epi64_mask(
            _mm512_maskz_cvtepu8_epi64(
                0xff, _mm_maskz_loadu_epi8(lanes, valid_row + e0 + i)),
            zero);
        const __m512i prev =
            _mm512_maskz_loadu_epi64(lanes, draw_row + e0 + i);
        const __m512i theta1 = _mm512_add_epi64(
            _mm512_maskz_loadu_epi64(lanes, theta_raw + e0 + i), one);
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
        const __mmask16 miss_m = static_cast<__mmask16>(~reuse & lanes);
        miss_blocks[i / 8] = static_cast<std::uint8_t>(miss_m);

        _mm512_mask_compressstoreu_epi32(
            miss + miss_count, miss_m,
            _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(i)),
                             lane_idx));
        miss_count += static_cast<std::size_t>(
            __builtin_popcount(miss_m));

        unsigned rm = reuse;
        while (rm != 0) {
            const int j = __builtin_ctz(rm);
            rm &= rm - 1;
            const std::size_t e = e0 + i + static_cast<std::size_t>(j);
            const std::int64_t yb_t = yb_row[i + j];
            if (yb_t != 0) {
                const std::int64_t d = std::abs(
                    yb_t - static_cast<std::int64_t>(bnn_row[e]));
                draw_row[e] += (d << 16) / std::abs(yb_t); // Eq. 13
            }
            out_rows[i + j][n] = y_row[e];
            ++reused_row[e];
        }
    }
    return miss_count;
}

/**
 * Masked-store form of the miss commit (Eqs. 15-17) for the dense
 * full-panel path: forward/recurrent hold every slot's dots, and the
 * missing slots' table entries are contiguous, so one 8-slot step
 * refreshes y_m, yb_m, delta_b and the valid byte with four masked
 * stores (a final narrower step is just a narrower miss mask; the
 * masked loads never touch slots past the panel). Only the per-sequence
 * preact write stays scalar (each slot's output row is a different
 * buffer). The committed y_t is the same float add the scalar loop
 * performs.
 */
__attribute__((target(
    "avx512f,avx512dq,avx512bw,avx512vl,popcnt"))) void
commitRowAvx512(const std::uint8_t *miss_blocks, std::size_t slots,
                std::size_t e0, const float *forward,
                const float *recurrent, const std::int32_t *yb_row,
                float *y_row, std::int32_t *bnn_row,
                std::int64_t *draw_row, std::uint8_t *valid_row,
                float *const *out_rows, std::size_t n)
{
    const __m512i zero64 = _mm512_setzero_si512();
    const __m128i one8 = _mm_set1_epi8(1);
    for (std::size_t i = 0; i < slots; i += 8) {
        const __mmask8 m = miss_blocks[i / 8];
        if (m == 0)
            continue;
        const __m256 y_t =
            _mm256_add_ps(_mm256_maskz_loadu_ps(m, forward + i),
                          _mm256_maskz_loadu_ps(m, recurrent + i));
        _mm256_mask_storeu_ps(y_row + e0 + i, m, y_t);
        _mm256_mask_storeu_epi32(bnn_row + e0 + i, m,
                                 _mm256_maskz_loadu_epi32(m, yb_row + i));
        _mm512_mask_storeu_epi64(draw_row + e0 + i, m, zero64);
        _mm_mask_storeu_epi8(valid_row + e0 + i, m, one8);

        alignas(32) float y_s[8];
        _mm256_store_ps(y_s, y_t);
        unsigned rm = m;
        while (rm != 0) {
            const int j = __builtin_ctz(rm);
            rm &= rm - 1;
            out_rows[i + j][n] = y_s[j];
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

    // Per-probe-block decision scratch, row r of the block at offset
    // r * slots (indices) and r * mask_bytes (masks): which slots missed,
    // as ascending indices and as one bit per slot in 8-slot bytes.
    // forward/recurrent hold up to one register tile of dots.
    const std::size_t mask_bytes = (slots + 7) / 8;
    thread_local std::vector<std::uint32_t> miss;
    thread_local std::vector<std::uint8_t> miss_blocks;
    thread_local std::vector<const float *> miss_x;
    thread_local std::vector<const float *> miss_h;
    thread_local std::vector<float> forward;
    thread_local std::vector<float> recurrent;
    miss.resize(kProbeNeuronBlock * slots);
    miss_blocks.resize(kProbeNeuronBlock * mask_bytes);
    miss_x.reserve(slots);
    miss_h.reserve(slots);
    forward.resize(tensor::kTileWeightRows * slots);
    recurrent.resize(tensor::kTileWeightRows * slots);
    std::size_t miss_count[kProbeNeuronBlock];
    std::uint64_t *reused_row = slotReused_.data() + stat_base;

    // Probe panel: all live slots of a block of neurons per kernel
    // invocation, streaming the contiguous sign matrix block by block.
    thread_local std::vector<std::int32_t> yb_panel;
    yb_panel.resize(kProbeNeuronBlock * slots);

    // The vector decision path covers throttled decisions over a dense
    // slot range, each slot at its own theta, as long as every theta in
    // the panel is small enough that (theta + 1) * mag cannot leave 64
    // bits; anything else — including a forced non-AVX-512 probe ISA,
    // so variant comparisons measure a genuinely ISA-free fallback —
    // takes the scalar loop. Both make bit-identical decisions.
#if defined(__x86_64__)
    static const bool has_decide_isa =
        __builtin_cpu_supports("avx512f") > 0 &&
        __builtin_cpu_supports("avx512dq") > 0 &&
        __builtin_cpu_supports("avx512bw") > 0 &&
        __builtin_cpu_supports("avx512vl") > 0;
    const bool dense =
        slots > 0 && slot_entry[slots - 1] - slot_entry[0] + 1 == slots;
    const bool vector_decide =
        has_decide_isa && throttle && dense &&
        tensor::bnnActiveIsa() == tensor::BnnIsa::Avx512 &&
        *std::max_element(slotThetaRaw_.data() + slot_entry[0],
                          slotThetaRaw_.data() + slot_entry[0] + slots) <
            std::numeric_limits<std::int64_t>::max() /
                (static_cast<std::int64_t>(2 * width + 2) << 16);
#endif

    // Phase 2 (Eqs. 15-17) for row r of the block at n0: emit y_t and
    // refresh the whole entry of every slot that missed. by_slot: the
    // dots are indexed by panel slot (a full-panel evaluation, which
    // also computed the hit slots; their dots are dropped) rather than
    // by miss rank (a compacted evaluation).
    const auto commit = [&](std::size_t n0, std::size_t r,
                            const float *fwd, const float *rec,
                            bool by_slot) {
        const std::size_t n = n0 + r;
        const std::size_t entry_base =
            (instance.neuronBase + n) * slotStride_;
        const std::int32_t *yb_row = yb_panel.data() + r * slots;
        float *y_row = cachedOutput_.data() + entry_base;
        std::int32_t *bnn_row = cachedBnn_.data() + entry_base;
        std::uint8_t *valid_row = valid_.data() + entry_base;
#if defined(__x86_64__)
        if (vector_decide && by_slot) {
            commitRowAvx512(miss_blocks.data() + r * mask_bytes, slots,
                            slot_entry[0], fwd, rec, yb_row, y_row,
                            bnn_row, deltaRaw_.data() + entry_base,
                            valid_row, out_rows.data(), n);
            return;
        }
#endif
        const std::uint32_t *row_miss = miss.data() + r * slots;
        for (std::size_t m = 0; m < miss_count[r]; ++m) {
            const std::size_t i = row_miss[m];
            const std::size_t d = by_slot ? i : m;
            const std::uint32_t e = slot_entry[i];
            const float y_t = fwd[d] + rec[d];
            out_rows[i][n] = y_t;
            y_row[e] = y_t;
            bnn_row[e] = yb_row[i];
            deltaRaw_[entry_base + e] = 0;
            valid_row[e] = 1;
        }
    };

    // Whether the miss sets of rows a, b and c of the block together
    // cover every live slot.
    const auto covers_panel = [&](std::size_t a, std::size_t b,
                                  std::size_t c) {
        if (miss_count[a] + miss_count[b] + miss_count[c] < slots)
            return false;
        const std::uint8_t *ma = miss_blocks.data() + a * mask_bytes;
        const std::uint8_t *mb = miss_blocks.data() + b * mask_bytes;
        const std::uint8_t *mc = miss_blocks.data() + c * mask_bytes;
        for (std::size_t w = 0; w < mask_bytes; ++w) {
            const unsigned lanes =
                slots - 8 * w >= 8 ? 0xffu : (1u << (slots - 8 * w)) - 1u;
            if ((ma[w] | mb[w] | mc[w]) != lanes)
                return false;
        }
        return true;
    };

    for (std::size_t n0 = 0; n0 < instance.neurons;
         n0 += kProbeNeuronBlock) {
        const std::size_t block =
            std::min(kProbeNeuronBlock, instance.neurons - n0);
        tensor::bnnDotPanel(bgate.weights(), n0, block, input_words,
                            yb_panel);
        lap(probe_ns);

        // Phase 1, the whole block first: the cheap BNN probe decides
        // per slot; hits are resolved immediately, misses are queued
        // per row (the queued yb_t stays readable in yb_panel).
        for (std::size_t r = 0; r < block; ++r) {
            const std::size_t n = n0 + r;
            const std::int32_t *yb_row = yb_panel.data() + r * slots;
            const std::size_t entry_base =
                (instance.neuronBase + n) * slotStride_;
            // Row-base pointers: the decision loop then indexes by the
            // hoisted slot offsets only.
            const std::int32_t *bnn_row = cachedBnn_.data() + entry_base;
            const std::uint8_t *valid_row = valid_.data() + entry_base;
            std::int64_t *draw_row = deltaRaw_.data() + entry_base;
            const float *y_row = cachedOutput_.data() + entry_base;
            std::uint32_t *row_miss = miss.data() + r * slots;
            std::uint8_t *row_blocks = miss_blocks.data() + r * mask_bytes;

#if defined(__x86_64__)
            if (vector_decide) {
                miss_count[r] = decideRowAvx512(
                    yb_row, slots, slot_entry[0], bnn_row, valid_row,
                    draw_row, y_row, reused_row, out_rows.data(), n,
                    slotThetaRaw_.data(), row_miss, row_blocks);
                continue;
            }
#endif
            std::size_t misses = 0;
            std::fill_n(row_blocks, mask_bytes, std::uint8_t{0});
            for (std::size_t i = 0; i < slots; ++i) {
                const std::uint32_t e = slot_entry[i];
                const std::int32_t yb_t = yb_row[i];

                // Per-slot threshold: slots carry their own theta in
                // serving mode (identical to the engine default in
                // closed-batch mode).
                const BnnDecision decision = bnnReuseDecision(
                    yb_t, bnn_row[e], valid_row[e] != 0, draw_row[e],
                    throttle, Q16::fromRaw(slotThetaRaw_[e]));

                if (decision.reuse) {
                    // Eq. 14 top: bypass the DPU, emit the cached
                    // output.
                    out_rows[i][n] = y_row[e];
                    draw_row[e] = decision.deltaRaw;
                    ++reused_row[e];
                } else {
                    row_miss[misses++] = static_cast<std::uint32_t>(i);
                    row_blocks[i / 8] |=
                        static_cast<std::uint8_t>(1u << (i % 8));
                }
            }
            miss_count[r] = misses;
        }
        lap(decide_ns);

        // Phase 2 over the block's rows with misses, in triples: when a
        // triple's miss sets together cover the panel, one register
        // tile over the already-gathered panel pointers evaluates all
        // three rows, and each row commits only its own misses. A
        // partial row streams the same weight row as a full one, so the
        // hit slots computed inside such a tile cost almost nothing.
        // Otherwise the next row alone takes the full panel (every slot
        // missed) or the compacted pointer list of its misses.
        std::size_t missing[kProbeNeuronBlock];
        std::size_t missing_count = 0;
        for (std::size_t r = 0; r < block; ++r)
            if (miss_count[r] != 0)
                missing[missing_count++] = r;
        for (std::size_t j = 0; j < missing_count;) {
            if (j + tensor::kTileWeightRows <= missing_count &&
                covers_panel(missing[j], missing[j + 1],
                             missing[j + 2])) {
                const float *wx_rows[tensor::kTileWeightRows];
                const float *wh_rows[tensor::kTileWeightRows];
                for (std::size_t k = 0; k < tensor::kTileWeightRows; ++k) {
                    wx_rows[k] = params.wx.row(n0 + missing[j + k]).data();
                    wh_rows[k] = params.wh.row(n0 + missing[j + k]).data();
                }
                tensor::dotLanesTile(wx_rows, x_rows, params.wx.cols(),
                                     forward);
                tensor::dotLanesTile(wh_rows, h_rows, params.wh.cols(),
                                     recurrent);
                for (std::size_t k = 0; k < tensor::kTileWeightRows; ++k)
                    commit(n0, missing[j + k], forward.data() + k * slots,
                           recurrent.data() + k * slots, true);
                j += tensor::kTileWeightRows;
                continue;
            }

            const std::size_t r = missing[j++];
            const std::size_t n = n0 + r;
            const std::span<float> fwd{forward.data(), miss_count[r]};
            const std::span<float> rec{recurrent.data(), miss_count[r]};
            if (miss_count[r] == slots) {
                tensor::dotLanesRows(params.wx.row(n), x_rows, fwd);
                tensor::dotLanesRows(params.wh.row(n), h_rows, rec);
                commit(n0, r, fwd.data(), rec.data(), true);
                continue;
            }
            const std::uint32_t *row_miss = miss.data() + r * slots;
            miss_x.resize(miss_count[r]);
            miss_h.resize(miss_count[r]);
            for (std::size_t m = 0; m < miss_count[r]; ++m) {
                miss_x[m] = x_rows[row_miss[m]];
                miss_h[m] = h_rows[row_miss[m]];
            }
            tensor::dotLanesRows(params.wx.row(n), miss_x, fwd);
            tensor::dotLanesRows(params.wh.row(n), miss_h, rec);
            commit(n0, r, fwd.data(), rec.data(), false);
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
