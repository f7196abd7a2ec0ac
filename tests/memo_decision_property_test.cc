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
///    theta is past the vector path's overflow bound (scalar fallback).
///    Unsupported ISA arms are skipped.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

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

// --------------------------------------------- engine-level ISA identity

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
           const std::vector<nn::Sequence> &sequences, double theta)
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
        if (!tensor::bnnSetIsa(isa))
            continue; // unsupported on this host
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
            if (!tensor::bnnSetIsa(isa))
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

} // namespace
} // namespace nlfm
