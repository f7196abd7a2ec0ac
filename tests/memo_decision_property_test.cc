/// @file
/// Property/fuzz sweep of the per-neuron reuse decision
/// (memo/memo_decision.hh) and its AVX-512 panel twin.
///
/// The Q16.16 BNN decision replaced its division with the algebraic
/// rewrite
///
///     prev + floor((diff << 16) / mag) <= theta
///         ⟺  diff << 16 < (theta - prev + 1) * mag
///
/// and the batch engine vectorizes it for dense panels, eight slots per
/// step, each slot against its own theta. Both rewrites are pure
/// scheduling: decisions must be bit-identical to the naive
/// divide-then-compare reference at every input, especially at the Q16
/// boundaries where an off-by-one in the rewrite would flip a decision.
///
///  - Kernel level: bnnReuseDecision vs a literal division-based
///    reference over randomized values, exact-boundary constructions
///    (delta lands exactly on theta), saturated thetas, yb_t = 0, and
///    throttling on and off.
///  - Engine level: NetworkStepper-driven panels evaluated under every
///    probe ISA the host supports must produce bitwise-identical
///    outputs and reuse counters, and match the serial MemoEngine run of
///    each slot at its own theta. Panels cover every slot at one
///    non-default theta, and mixed per-slot thetas at widths 8, 13
///    (masked tail step) and 64 (several full steps), and a slot whose
///    theta is past the vector path's overflow bound (scalar fallback),
///    and an IMDB-shaped LSTM (hidden 80: full and partial 32-neuron
///    probe blocks) whose per-slot memo tables must also match bit for
///    bit across ISAs. An ISA arm the host cannot run is skipped with a
///    note in the test log.
///  - Eq. 13's quotient: the vector decide's truncated double division
///    against the integer one over the whole (diff, mag) domain of the
///    zoo's BNN widths.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iostream>
#include <iterator>
#include <limits>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/rng.hh"
#include "memo/memo_batch.hh"
#include "memo/memo_decision.hh"
#include "nn/init.hh"
#include "nn/network_stepper.hh"
#include "nn/rnn_network.hh"
#include "tensor/bitpack.hh"

namespace nlfm
{
namespace
{

// ------------------------------------------------- kernel-level fuzzing

/// The decision bnnReuseDecision must reproduce, written the naive way:
/// materialize delta_b with an actual division, then compare. Slower,
/// but obviously Eq. 12-14.
memo::BnnDecision
referenceBnnDecision(std::int32_t yb_t, std::int32_t yb_m, bool valid,
                     std::int64_t prev_raw, bool throttle, Q16 theta_q)
{
    memo::BnnDecision decision;
    if (!valid)
        return decision;

    if (yb_t == 0) {
        if (yb_m == 0) {
            decision.deltaRaw = throttle ? prev_raw : 0;
            decision.reuse = Q16::fromRaw(decision.deltaRaw) <= theta_q;
        }
        return decision;
    }

    const std::int64_t diff =
        std::abs(static_cast<std::int64_t>(yb_t) - yb_m);
    const std::int64_t mag = std::abs(static_cast<std::int64_t>(yb_t));
    const std::int64_t prev = throttle ? prev_raw : 0;
    const std::int64_t delta = prev + ((diff << 16) / mag);
    if (Q16::fromRaw(delta) <= theta_q) {
        decision.deltaRaw = delta;
        decision.reuse = true;
    }
    return decision;
}

void
expectSameDecision(std::int32_t yb_t, std::int32_t yb_m, bool valid,
                   std::int64_t prev_raw, bool throttle, Q16 theta_q)
{
    const memo::BnnDecision expected = referenceBnnDecision(
        yb_t, yb_m, valid, prev_raw, throttle, theta_q);
    const memo::BnnDecision actual = memo::bnnReuseDecision(
        yb_t, yb_m, valid, prev_raw, throttle, theta_q);
    ASSERT_EQ(expected.reuse, actual.reuse)
        << "yb_t=" << yb_t << " yb_m=" << yb_m << " valid=" << valid
        << " prev_raw=" << prev_raw << " throttle=" << throttle
        << " theta_raw=" << theta_q.raw();
    // The stored delta only matters when reusing (misses refresh the
    // entry), but when it is stored it feeds every later decision of
    // the sequence, so it must match exactly too.
    if (expected.reuse) {
        ASSERT_EQ(expected.deltaRaw, actual.deltaRaw)
            << "yb_t=" << yb_t << " yb_m=" << yb_m
            << " prev_raw=" << prev_raw
            << " theta_raw=" << theta_q.raw();
    }
}

/// Draw a signed BNN output: BNN dot products of width-w gates live in
/// [-w, w], so small magnitudes dominate, but throw in occasional huge
/// values to exercise the 128-bit headroom product.
std::int32_t
drawBnnValue(Rng &rng)
{
    const std::uint64_t shape = rng.uniformInt(8);
    const std::int64_t magnitude =
        shape < 5 ? static_cast<std::int64_t>(rng.uniformInt(64))
        : shape < 7
            ? static_cast<std::int64_t>(rng.uniformInt(4096))
            : static_cast<std::int64_t>(rng.uniformInt(
                  std::numeric_limits<std::int32_t>::max()));
    return static_cast<std::int32_t>(rng.uniformInt(2) == 0
                                         ? magnitude
                                         : -magnitude);
}

TEST(MemoDecisionProperty, RandomizedAgainstDivisionReference)
{
    Rng rng(20260808);
    const double thetas[] = {0.0, 0.001, 0.05, 0.3, 1.0, 7.5};
    for (std::size_t trial = 0; trial < 20000; ++trial) {
        const std::int32_t yb_t = drawBnnValue(rng);
        // Half the trials make the cached value a near miss of yb_t
        // (the interesting regime: small relative difference), half
        // draw independently.
        const std::int32_t yb_m =
            trial % 2 == 0
                ? yb_t +
                      static_cast<std::int32_t>(rng.uniformInt(9)) - 4
                : drawBnnValue(rng);
        const bool valid = rng.uniformInt(8) != 0;
        const bool throttle = rng.uniformInt(4) != 0;
        const double theta =
            thetas[rng.uniformInt(std::size(thetas))];
        const Q16 theta_q = Q16::fromDouble(theta);
        // Accumulated delta_b is nonnegative and usually below theta
        // (a reuse stored it); also probe past-theta values.
        const std::int64_t prev_raw = static_cast<std::int64_t>(
            rng.uniformInt(
                2 * static_cast<std::uint64_t>(theta_q.raw()) + 2));
        expectSameDecision(yb_t, yb_m, valid, prev_raw, throttle,
                           theta_q);
        if (HasFatalFailure())
            return;
    }
}

TEST(MemoDecisionProperty, ExactQ16BoundaryCases)
{
    // Construct inputs where delta_b lands EXACTLY on theta: diff is a
    // multiple of mag, so the division is exact and the <= comparison
    // is decided by equality. One raw ULP either side must flip the
    // decision identically in both implementations.
    const std::int64_t mags[] = {1, 3, 7, 64, 1000, 1 << 20};
    const std::int64_t quotients[] = {0, 1, 5, 1 << 16, 1 << 22};
    const std::int64_t prevs[] = {0, 1, 1 << 10, 1 << 18};
    for (const std::int64_t mag : mags)
        for (const std::int64_t q : quotients)
            for (const std::int64_t prev : prevs) {
                const std::int64_t diff_scaled = q * mag; // (diff<<16)
                if (diff_scaled % (1 << 16) != 0)
                    continue; // diff must be integral
                const std::int64_t diff = diff_scaled >> 16;
                if (diff > std::numeric_limits<std::int32_t>::max() ||
                    mag + diff >
                        std::numeric_limits<std::int32_t>::max())
                    continue;
                const std::int32_t yb_t =
                    static_cast<std::int32_t>(mag);
                const std::int32_t yb_m =
                    static_cast<std::int32_t>(mag + diff);
                for (const std::int64_t theta_raw :
                     {prev + q - 1, prev + q, prev + q + 1}) {
                    if (theta_raw < 0)
                        continue;
                    expectSameDecision(yb_t, yb_m, true, prev, true,
                                       Q16::fromRaw(theta_raw));
                    if (HasFatalFailure())
                        return;
                }
            }
}

TEST(MemoDecisionProperty, SaturatedThetaAndZeroOutputs)
{
    // A saturated theta must not overflow the headroom product (the
    // kernel runs it in 128-bit), and yb_t = 0 must only reuse on a
    // bit-identical cached zero.
    const Q16 saturated =
        Q16::fromRaw(std::numeric_limits<std::int64_t>::max());
    const std::int32_t extremes[] = {
        0, 1, -1, std::numeric_limits<std::int32_t>::max(),
        std::numeric_limits<std::int32_t>::min() + 1};
    for (const std::int32_t yb_t : extremes)
        for (const std::int32_t yb_m : extremes)
            for (const bool throttle : {false, true})
                for (const std::int64_t prev :
                     {std::int64_t{0}, std::int64_t{1} << 30}) {
                    expectSameDecision(yb_t, yb_m, true, prev, throttle,
                                       saturated);
                    if (HasFatalFailure())
                        return;
                    // Theta zero: only an exact BNN match may reuse.
                    expectSameDecision(yb_t, yb_m, true, prev, throttle,
                                       Q16::fromDouble(0.0));
                    if (HasFatalFailure())
                        return;
                }
}

// ------------------------------------------------- Eq. 13 quotient

/// Largest BNN gate width in the zoo: MNMT's deeper layers, 1024 inputs
/// + 1024 recurrent. |yb_t| <= width and |yb_t - yb_m| <= 2 * width.
constexpr std::int64_t kZooMaxWidth = 2048;

#if defined(__x86_64__)
__attribute__((target("avx512f,avx512dq"))) void
quotientLanes(const std::int64_t *scaled, const std::int64_t *mag,
              std::int64_t *out)
{
    _mm512_storeu_si512(out, memo::eq13QuotientLanes(
                                 0xff, _mm512_loadu_si512(scaled),
                                 _mm512_loadu_si512(mag)));
}
#endif

TEST(MemoDecisionProperty, Eq13QuotientExactOverZooWidths)
{
    // Every (mag, diff) the zoo can produce: the scalar decision's
    // stored delta_b and the vector decide's double quotient must both
    // equal the integer (diff << 16) / mag. Not a sample: the double
    // path's exactness argument (memo_decision.hh) is checked at every
    // point of the domain.
    const Q16 wide_open = Q16::fromRaw(std::int64_t{1} << 40);
    for (std::int64_t mag = 1; mag <= kZooMaxWidth; ++mag)
        for (std::int64_t diff = 0; diff <= 2 * kZooMaxWidth; ++diff) {
            const memo::BnnDecision decision = memo::bnnReuseDecision(
                static_cast<std::int32_t>(mag),
                static_cast<std::int32_t>(mag - diff), true, 0, true,
                wide_open);
            if (!decision.reuse || decision.deltaRaw != (diff << 16) / mag)
                FAIL() << "scalar Eq. 13 at mag " << mag << " diff "
                       << diff << ": " << decision.deltaRaw;
        }
    static_assert((2 * kZooMaxWidth) << 16 < memo::kEq13ExactDividend);

#if defined(__x86_64__)
    if (!__builtin_cpu_supports("avx512f") ||
        !__builtin_cpu_supports("avx512dq"))
        GTEST_SKIP() << "no AVX-512F/DQ on this host: the vector Eq. 13 "
                        "quotient is unverified";
    std::int64_t scaled[8];
    std::int64_t mags[8];
    std::int64_t quotient[8];
    for (std::int64_t mag = 1; mag <= kZooMaxWidth; ++mag) {
        std::fill(std::begin(mags), std::end(mags), mag);
        for (std::int64_t diff = 0; diff <= 2 * kZooMaxWidth; diff += 8) {
            for (std::int64_t l = 0; l < 8; ++l)
                scaled[l] = std::min(diff + l, 2 * kZooMaxWidth) << 16;
            quotientLanes(scaled, mags, quotient);
            for (std::int64_t l = 0; l < 8; ++l)
                if (quotient[l] != scaled[l] / mag)
                    FAIL() << "vector Eq. 13 at mag " << mag << " diff "
                           << (scaled[l] >> 16) << ": " << quotient[l]
                           << " != " << scaled[l] / mag;
        }
    }
#else
    GTEST_SKIP() << "not an x86-64 build: no vector Eq. 13 quotient";
#endif
}

// --------------------------------------------- engine-level ISA identity

/// Select @p isa for the BNN probe (and with it the batch engine's
/// decide and commit path). An arm the host cannot run is reported in
/// the test log rather than passed over silently, so a log shows when
/// the AVX-512 decide and commit went unverified.
bool
selectIsa(tensor::BnnIsa isa)
{
    if (tensor::bnnSetIsa(isa))
        return true;
    std::cout << "[   NOTE   ] probe ISA " << tensor::bnnIsaName(isa)
              << " not supported on this host; its arm is skipped"
              << std::endl;
    return false;
}

nn::RnnConfig
panelConfig()
{
    nn::RnnConfig config;
    config.cellType = nn::CellType::Lstm;
    config.inputSize = 6;
    config.hiddenSize = 8;
    config.layers = 2;
    config.peepholes = true;
    return config;
}

std::vector<nn::Sequence>
equalLengthSequences(std::size_t batch, std::size_t steps,
                     std::size_t width, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<nn::Sequence> sequences(batch);
    for (auto &sequence : sequences) {
        sequence.assign(steps, std::vector<float>(width));
        for (auto &frame : sequence)
            rng.fillNormal(frame, 0.0, 1.0);
    }
    return sequences;
}

/// Serve a dense panel through NetworkStepper with EVERY slot pinned to
/// @p theta (the vector decide path when the active ISA is AVX-512).
/// Returns per-slot outputs and the engine's reuse count.
std::pair<std::vector<nn::Sequence>, std::uint64_t>
servePanel(nn::RnnNetwork &network, nn::BinarizedNetwork &bnn,
           const memo::MemoOptions &options,
           const std::vector<nn::Sequence> &sequences, double theta,
           std::vector<memo::SlotMemoState> *snapshots = nullptr)
{
    const std::size_t slots = sequences.size();
    nn::NetworkStepper stepper(network, slots);
    memo::BatchMemoEngine engine(network, &bnn, options);
    engine.beginBatch(slots);

    std::vector<std::size_t> rows(slots);
    for (std::size_t s = 0; s < slots; ++s) {
        rows[s] = s;
        stepper.resetSlot(s);
        engine.admitSlot(s, theta);
    }

    std::vector<nn::Sequence> outputs(slots);
    const std::size_t steps = sequences.front().size();
    for (std::size_t t = 0; t < steps; ++t) {
        tensor::Matrix &input = stepper.inputPanel();
        for (std::size_t s = 0; s < slots; ++s) {
            const auto &frame = sequences[s][t];
            std::copy(frame.begin(), frame.end(),
                      input.row(s).begin());
        }
        stepper.step(rows, engine);
        for (std::size_t s = 0; s < slots; ++s) {
            const auto out = stepper.output(s);
            outputs[s].emplace_back(out.begin(), out.end());
        }
    }
    if (snapshots != nullptr) {
        snapshots->resize(slots);
        for (std::size_t s = 0; s < slots; ++s)
            engine.exportSlot(s, (*snapshots)[s]);
    }
    return {std::move(outputs), engine.stats().totalReused()};
}

TEST(MemoDecisionProperty, UniformNonDefaultThetaPanelIsIsaInvariant)
{
    const nn::RnnConfig config = panelConfig();
    nn::RnnNetwork network(config);
    Rng init_rng(99);
    nn::initNetwork(network, init_rng);
    nn::BinarizedNetwork bnn(network);

    // 64 slots: dense, a full cache line of valid_ bytes, several
    // AVX-512 lanes worth of slots per decision row.
    const auto sequences =
        equalLengthSequences(64, 12, config.inputSize, 123);

    memo::MemoOptions options;
    options.predictor = memo::PredictorKind::Bnn;
    options.theta = 0.05; // engine default — NOT the serving value
    const double served_theta = 0.2;

    // Serial ground truth at the served theta.
    memo::MemoOptions serial_options = options;
    serial_options.theta = served_theta;
    std::vector<nn::Sequence> reference;
    std::uint64_t serial_reused = 0;
    {
        ASSERT_TRUE(tensor::bnnSetIsa(tensor::BnnIsa::Portable));
        for (const auto &sequence : sequences) {
            memo::MemoEngine serial(network, &bnn, serial_options);
            reference.push_back(network.forward(sequence, serial));
            serial_reused += serial.stats().totalReused();
        }
    }

    for (const tensor::BnnIsa isa :
         {tensor::BnnIsa::Portable, tensor::BnnIsa::Avx2,
          tensor::BnnIsa::Avx512}) {
        if (!selectIsa(isa))
            continue;
        const auto [outputs, reused] =
            servePanel(network, bnn, options, sequences, served_theta);
        EXPECT_EQ(reused, serial_reused)
            << "isa " << tensor::bnnIsaName(isa);
        for (std::size_t s = 0; s < sequences.size(); ++s) {
            ASSERT_EQ(outputs[s].size(), reference[s].size());
            for (std::size_t t = 0; t < outputs[s].size(); ++t)
                for (std::size_t i = 0; i < outputs[s][t].size(); ++i)
                    ASSERT_EQ(outputs[s][t][i], reference[s][t][i])
                        << "isa " << tensor::bnnIsaName(isa)
                        << " slot " << s << " step " << t
                        << " element " << i;
        }
    }
    tensor::bnnSetIsa(tensor::bnnBestIsa());
}

TEST(MemoDecisionProperty, MixedThetaPanelIsIsaInvariant)
{
    // Mixed per-slot thetas: the AVX-512 decide reads each slot's own
    // theta, so outputs and reuse counters must be ISA-invariant and
    // match the per-slot serial runs (each at its own theta). Widths 8,
    // 13 (a masked tail step) and 64 (several full steps) run the
    // vector path; the last two panels add one slot at a theta past the
    // (theta + 1) * mag overflow bound (1e12, and 1e14, where the product
    // itself would overflow), which sends the whole panel to the scalar
    // loop.
    const nn::RnnConfig config = panelConfig();
    nn::RnnNetwork network(config);
    Rng init_rng(100);
    nn::initNetwork(network, init_rng);
    nn::BinarizedNetwork bnn(network);

    const double cycle[] = {0.0, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.05};
    std::vector<std::vector<double>> panels;
    for (const std::size_t width : {8, 13, 64}) {
        std::vector<double> thetas(width);
        for (std::size_t s = 0; s < width; ++s)
            thetas[s] = cycle[s % std::size(cycle)];
        panels.push_back(thetas);
    }
    panels.push_back(panels[1]);
    panels.back().push_back(1e12);
    // At 1e14 the Q16 threshold is about 6.6e18, so (theta + 1) * mag
    // leaves int64 for any mag >= 2: only the bound check keeps this
    // panel off the vector decide.
    panels.push_back(panels[1]);
    panels.back().push_back(1e14);

    memo::MemoOptions options;
    options.predictor = memo::PredictorKind::Bnn;
    options.theta = 0.05;

    for (const std::vector<double> &slot_thetas : panels) {
        const std::size_t slots = slot_thetas.size();
        const auto sequences =
            equalLengthSequences(slots, 10, config.inputSize, 321);

        ASSERT_TRUE(tensor::bnnSetIsa(tensor::BnnIsa::Portable));
        std::vector<nn::Sequence> reference;
        std::uint64_t serial_reused = 0;
        for (std::size_t s = 0; s < slots; ++s) {
            memo::MemoOptions serial_options = options;
            serial_options.theta = slot_thetas[s];
            memo::MemoEngine serial(network, &bnn, serial_options);
            reference.push_back(network.forward(sequences[s], serial));
            serial_reused += serial.stats().totalReused();
        }

        for (const tensor::BnnIsa isa :
             {tensor::BnnIsa::Portable, tensor::BnnIsa::Avx512}) {
            if (!selectIsa(isa))
                continue;
            nn::NetworkStepper stepper(network, slots);
            memo::BatchMemoEngine engine(network, &bnn, options);
            engine.beginBatch(slots);
            std::vector<std::size_t> rows(slots);
            for (std::size_t s = 0; s < slots; ++s) {
                rows[s] = s;
                stepper.resetSlot(s);
                engine.admitSlot(s, slot_thetas[s]);
            }
            for (std::size_t t = 0; t < sequences.front().size(); ++t) {
                tensor::Matrix &input = stepper.inputPanel();
                for (std::size_t s = 0; s < slots; ++s)
                    std::copy(sequences[s][t].begin(),
                              sequences[s][t].end(),
                              input.row(s).begin());
                stepper.step(rows, engine);
                for (std::size_t s = 0; s < slots; ++s) {
                    const auto out = stepper.output(s);
                    for (std::size_t i = 0; i < out.size(); ++i)
                        ASSERT_EQ(out[i], reference[s][t][i])
                            << "isa " << tensor::bnnIsaName(isa)
                            << " slots " << slots << " slot " << s
                            << " step " << t << " element " << i;
                }
            }
            EXPECT_EQ(engine.stats().totalReused(), serial_reused)
                << "isa " << tensor::bnnIsaName(isa) << " slots "
                << slots;
        }
    }
    tensor::bnnSetIsa(tensor::bnnBestIsa());
}

/// AR(1) frames, x_t = 0.8 x_{t-1} + 0.6 noise: inputs that drift, so
/// a panel mixes reusing and missing neurons.
std::vector<nn::Sequence>
driftingSequences(std::size_t batch, std::size_t steps, std::size_t width,
                  std::uint64_t seed)
{
    auto sequences = equalLengthSequences(batch, steps, width, seed);
    for (auto &sequence : sequences)
        for (std::size_t t = 1; t < steps; ++t)
            for (std::size_t i = 0; i < width; ++i)
                sequence[t][i] = 0.8f * sequence[t - 1][i] +
                                 0.6f * sequence[t][i];
    return sequences;
}

TEST(MemoDecisionProperty, ImdbShapedPanelsMatchSerialAndAcrossIsas)
{
    // IMDB's gate shape (LSTM, 64 inputs) at its theta 0.5, with hidden
    // 80: probe blocks of 32, 32 and 16 neurons, so commit groups of
    // three consecutive missing rows leave 1- and 2-row remainders.
    // 256 slots is imdb-batch's chunk; 13 adds a masked 8-slot step.
    // Besides outputs and reuse against the serial engine, every slot's
    // memo table (y_m, yb_m, delta_b, valid) must be bitwise equal
    // across ISAs: the vector decide's delta_b update and the masked
    // commit are checked directly, not only through later decisions.
    nn::RnnConfig config;
    config.cellType = nn::CellType::Lstm;
    config.inputSize = 64;
    config.hiddenSize = 80;
    config.layers = 1;
    config.peepholes = true;
    nn::RnnNetwork network(config);
    Rng init_rng(101);
    nn::initNetwork(network, init_rng);
    nn::BinarizedNetwork bnn(network);

    memo::MemoOptions options;
    options.predictor = memo::PredictorKind::Bnn;
    options.theta = 0.5;

    for (const std::size_t slots : {std::size_t{256}, std::size_t{13}}) {
        const auto sequences =
            driftingSequences(slots, 12, config.inputSize, 404 + slots);

        ASSERT_TRUE(tensor::bnnSetIsa(tensor::BnnIsa::Portable));
        std::vector<nn::Sequence> reference;
        std::uint64_t serial_reused = 0;
        std::uint64_t serial_total = 0;
        for (const auto &sequence : sequences) {
            memo::MemoEngine serial(network, &bnn, options);
            reference.push_back(network.forward(sequence, serial));
            serial_reused += serial.stats().totalReused();
            serial_total += serial.stats().totalSlots();
        }
        // Both outcomes must be common, or one path goes untested.
        EXPECT_GT(serial_reused * 5, serial_total) << "slots " << slots;
        EXPECT_LT(serial_reused * 5, serial_total * 4) << "slots " << slots;

        std::vector<memo::SlotMemoState> first;
        const char *first_isa = nullptr;
        for (const tensor::BnnIsa isa :
             {tensor::BnnIsa::Portable, tensor::BnnIsa::Avx2,
              tensor::BnnIsa::Avx512}) {
            if (!selectIsa(isa))
                continue;
            std::vector<memo::SlotMemoState> tables;
            const auto [outputs, reused] = servePanel(
                network, bnn, options, sequences, options.theta, &tables);
            const char *name = tensor::bnnIsaName(isa);
            EXPECT_EQ(reused, serial_reused)
                << "isa " << name << " slots " << slots;
            for (std::size_t s = 0; s < slots; ++s)
                for (std::size_t t = 0; t < outputs[s].size(); ++t)
                    for (std::size_t i = 0; i < outputs[s][t].size(); ++i)
                        ASSERT_EQ(outputs[s][t][i], reference[s][t][i])
                            << "isa " << name << " slots " << slots
                            << " slot " << s << " step " << t
                            << " element " << i;
            if (first_isa == nullptr) {
                first = std::move(tables);
                first_isa = name;
                continue;
            }
            for (std::size_t s = 0; s < slots; ++s) {
                const memo::SlotMemoState &a = first[s];
                const memo::SlotMemoState &b = tables[s];
                ASSERT_EQ(a.cachedOutput.size(), b.cachedOutput.size());
                for (std::size_t n = 0; n < a.cachedOutput.size(); ++n) {
                    ASSERT_EQ(std::bit_cast<std::uint32_t>(a.cachedOutput[n]),
                              std::bit_cast<std::uint32_t>(b.cachedOutput[n]))
                        << first_isa << " vs " << name << " slots " << slots
                        << " slot " << s << " neuron " << n << " y_m";
                    ASSERT_EQ(a.cachedBnn[n], b.cachedBnn[n])
                        << first_isa << " vs " << name << " slot " << s
                        << " neuron " << n << " yb_m";
                    ASSERT_EQ(a.deltaRaw[n], b.deltaRaw[n])
                        << first_isa << " vs " << name << " slot " << s
                        << " neuron " << n << " delta_b";
                    ASSERT_EQ(a.valid[n], b.valid[n])
                        << first_isa << " vs " << name << " slot " << s
                        << " neuron " << n << " valid";
                }
            }
        }
    }
    tensor::bnnSetIsa(tensor::bnnBestIsa());
}

} // namespace
} // namespace nlfm
