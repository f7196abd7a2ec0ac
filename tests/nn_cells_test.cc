/**
 * @file
 * Unit tests for activations, the four cell families (LSTM, GRU,
 * rate RNN, BRC) against hand-evaluated references (paper Eqs. 1-6,
 * §2.1.3, and the descriptor docs), and the cell-descriptor registry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/rng.hh"
#include "common/stats.hh"
#include "nn/activations.hh"
#include "nn/brc_cell.hh"
#include "nn/cell_descriptor.hh"
#include "nn/gru_cell.hh"
#include "nn/init.hh"
#include "nn/lstm_cell.hh"
#include "nn/rate_rnn_cell.hh"

namespace nlfm::nn
{
namespace
{

// --------------------------------------------------------- activations

TEST(ActivationsTest, SigmoidKnownValues)
{
    EXPECT_FLOAT_EQ(sigmoid(0.f), 0.5f);
    EXPECT_NEAR(sigmoid(2.f), 1.0 / (1.0 + std::exp(-2.0)), 1e-6);
    EXPECT_NEAR(sigmoid(-20.f), 0.0, 1e-8);
    EXPECT_NEAR(sigmoid(20.f), 1.0, 1e-8);
}

TEST(ActivationsTest, GradientsFromOutputs)
{
    const float s = sigmoid(0.7f);
    EXPECT_NEAR(sigmoidGradFromOutput(s), s * (1 - s), 1e-7);
    const float y = tanhAct(0.3f);
    EXPECT_NEAR(tanhGradFromOutput(y), 1 - y * y, 1e-7);
}

/** Same float bits (NaN payloads aside: any NaN matches any NaN). */
bool
sameBits(float a, float b)
{
    if (std::isnan(a) || std::isnan(b))
        return std::isnan(a) && std::isnan(b);
    return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

TEST(ActivationsTest, SpanKernelsMatchScalarAtEveryLanePosition)
{
    // The span forms run kActLanes elements per step and mask the last
    // partial step; the scalar forms are one-lane calls. Every element
    // must come out bit for bit the same wherever it sits in a step, and
    // the masked step must not write past the span.
    Rng rng(17);
    std::vector<float> values(40);
    rng.fillNormal(values, 0.0, 6.0);
    values[3] = 0.f;
    values[7] = -0.f;
    values[11] = std::numeric_limits<float>::infinity();
    values[12] = -std::numeric_limits<float>::infinity();
    values[20] = std::numeric_limits<float>::quiet_NaN();
    const float sentinel = 123.25f;
    for (const std::size_t offset : {0u, 1u, 3u, 5u}) {
        for (std::size_t length = 1; length <= 17; ++length) {
            for (std::size_t start = 0; start + length <= values.size();
                 start += 7) {
                std::vector<float> sig(offset + length + kActLanes,
                                       sentinel);
                std::copy_n(values.begin() + start, length,
                            sig.begin() + offset);
                std::vector<float> tnh = sig;
                sigmoidInPlace({sig.data() + offset, length});
                tanhInPlace({tnh.data() + offset, length});
                for (std::size_t i = 0; i < length; ++i) {
                    const float x = values[start + i];
                    EXPECT_TRUE(sameBits(sig[offset + i], sigmoid(x)))
                        << "sigmoid x=" << x << " lane " << i % kActLanes;
                    EXPECT_TRUE(sameBits(tnh[offset + i], tanhAct(x)))
                        << "tanh x=" << x << " lane " << i % kActLanes;
                }
                for (std::size_t i = 0; i < sig.size(); ++i)
                    if (i < offset || i >= offset + length) {
                        EXPECT_EQ(sig[i], sentinel) << "index " << i;
                        EXPECT_EQ(tnh[i], sentinel) << "index " << i;
                    }
            }
        }
    }
}

TEST(ActivationsTest, SpecialValues)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float max = std::numeric_limits<float>::max();
    const float denorm = std::numeric_limits<float>::denorm_min();
    const float big_denorm = std::nextafter(
        std::numeric_limits<float>::min(), 0.f);

    EXPECT_EQ(sigmoid(0.f), 0.5f);
    EXPECT_EQ(sigmoid(-0.f), 0.5f);
    EXPECT_EQ(sigmoid(inf), 1.f);
    EXPECT_EQ(sigmoid(-inf), 0.f);
    EXPECT_EQ(sigmoid(max), 1.f);
    EXPECT_EQ(sigmoid(-max), 0.f);
    EXPECT_TRUE(std::isnan(sigmoid(nan)));
    EXPECT_TRUE(std::isnan(sigmoid(-nan)));
    EXPECT_EQ(sigmoid(denorm), 0.5f);
    EXPECT_EQ(sigmoid(-big_denorm), 0.5f);

    EXPECT_EQ(tanhAct(0.f), 0.f);
    EXPECT_FALSE(std::signbit(tanhAct(0.f)));
    EXPECT_TRUE(std::signbit(tanhAct(-0.f)));
    EXPECT_EQ(tanhAct(inf), 1.f);
    EXPECT_EQ(tanhAct(-inf), -1.f);
    EXPECT_EQ(tanhAct(max), 1.f);
    EXPECT_EQ(tanhAct(-max), -1.f);
    EXPECT_TRUE(std::isnan(tanhAct(nan)));
    EXPECT_TRUE(std::isnan(tanhAct(-nan)));
    for (const float x : {denorm, big_denorm, -denorm, -big_denorm}) {
        EXPECT_NEAR(tanhAct(x), x, 1e-40) << x;
        EXPECT_EQ(std::signbit(tanhAct(x)), std::signbit(x)) << x;
    }

    // Clamp edges. tanh clamps its input where the rational first
    // reaches 1 (about 7.91 unfused, 8.00 fused): below, it stays under
    // 1; from 8 on it is exactly +-1. sigmoid clamps its exponent: 2^n
    // is 0 for x >= 88 and +inf for x below about -88.37.
    EXPECT_LT(tanhAct(7.9f), 1.f);
    EXPECT_GT(tanhAct(-7.9f), -1.f);
    EXPECT_EQ(tanhAct(8.f), 1.f);
    EXPECT_EQ(tanhAct(-8.f), -1.f);
    EXPECT_EQ(sigmoid(88.f), 1.f);
    EXPECT_EQ(sigmoid(89.f), 1.f);
    EXPECT_GT(sigmoid(-88.f), 0.f);
    EXPECT_LT(sigmoid(-88.f), 1e-38f);
    EXPECT_EQ(sigmoid(-88.5f), 0.f);
    EXPECT_EQ(sigmoid(-89.f), 0.f);
    EXPECT_EQ(sigmoid(-90.f), 0.f);
}

TEST(ActivationsTest, ErrorBoundAndRangeOverEveryBinade)
{
    // 4000 inputs (both signs) in each of the 255 finite binades,
    // subnormals included: over a million inputs against a double
    // reference. docs/SIMD.md records the exhaustive sweep over all
    // 2^32 floats (max error 8.9e-8 for sigmoid; 2.9e-7 for tanh, 4.1e-7
    // in the portable build).
    Rng rng(2024);
    std::vector<float> inputs;
    for (std::uint32_t exponent = 0; exponent < 255; ++exponent)
        for (std::uint32_t k = 0; k < 4000; ++k) {
            const auto mantissa =
                static_cast<std::uint32_t>(rng.uniformInt(1u << 23));
            const std::uint32_t sign = k % 2 == 0 ? 0u : 0x80000000u;
            inputs.push_back(std::bit_cast<float>(sign | (exponent << 23) |
                                                  mantissa));
        }
    ASSERT_GE(inputs.size(), 1000000u);

    std::vector<float> sig = inputs;
    std::vector<float> tnh = inputs;
    sigmoidInPlace(sig);
    tanhInPlace(tnh);
    double sig_err = 0.0;
    double tanh_err = 0.0;
    std::size_t out_of_range = 0;
    std::size_t scalar_mismatch = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const double x = inputs[i];
        sig_err = std::max(sig_err,
                           std::fabs(sig[i] - 1.0 / (1.0 + std::exp(-x))));
        tanh_err = std::max(tanh_err, std::fabs(tnh[i] - std::tanh(x)));
        if (!(sig[i] >= 0.f && sig[i] <= 1.f && tnh[i] >= -1.f &&
              tnh[i] <= 1.f))
            ++out_of_range;
        if (!sameBits(sig[i], sigmoid(inputs[i])) ||
            !sameBits(tnh[i], tanhAct(inputs[i])))
            ++scalar_mismatch;
    }
    EXPECT_LE(sig_err, 5e-7);
    EXPECT_LE(tanh_err, 5e-7);
    EXPECT_EQ(out_of_range, 0u);
    EXPECT_EQ(scalar_mismatch, 0u);
}

TEST(ActivationsTest, SoftmaxNormalizesAndOrders)
{
    const std::vector<float> logits = {1.f, 3.f, 2.f};
    std::vector<float> probs(3);
    softmax(logits, probs);
    EXPECT_NEAR(probs[0] + probs[1] + probs[2], 1.0, 1e-6);
    EXPECT_GT(probs[1], probs[2]);
    EXPECT_GT(probs[2], probs[0]);
}

TEST(ActivationsTest, SoftmaxStableForLargeLogits)
{
    const std::vector<float> logits = {1000.f, 1001.f};
    std::vector<float> probs(2);
    softmax(logits, probs);
    EXPECT_NEAR(probs[0] + probs[1], 1.0, 1e-6);
    EXPECT_GT(probs[1], probs[0]);
}

// ----------------------------------------------------------- LSTM cell

/** Single-neuron LSTM with hand-picked weights for golden-value tests. */
struct TinyLstm
{
    LstmCell cell{1, 1, /*peepholes=*/true};

    TinyLstm()
    {
        // gate order: input, forget, update, output
        const float wx[4] = {0.5f, -0.25f, 1.0f, 0.75f};
        const float wh[4] = {0.1f, 0.2f, -0.3f, 0.4f};
        const float bias[4] = {0.05f, 1.0f, -0.1f, 0.0f};
        const float peep[4] = {0.3f, -0.2f, 0.0f, 0.15f};
        for (std::size_t g = 0; g < 4; ++g) {
            cell.gate(g).wx.at(0, 0) = wx[g];
            cell.gate(g).wh.at(0, 0) = wh[g];
            cell.gate(g).bias[0] = bias[g];
            if (g != LstmUpdate)
                cell.gate(g).peephole[0] = peep[g];
        }
        std::vector<GateInstance> instances(4);
        for (std::size_t g = 0; g < 4; ++g) {
            instances[g].instanceId = g;
            instances[g].gate = g;
            instances[g].neurons = 1;
            instances[g].xSize = 1;
            instances[g].hSize = 1;
        }
        cell.setInstances(std::move(instances));
    }
};

/** Reference peephole LSTM step evaluated in double precision. */
void
referenceLstmStep(const TinyLstm &tiny, double x, double &h, double &c)
{
    auto wx = [&](std::size_t g) { return tiny.cell.gate(g).wx.at(0, 0); };
    auto wh = [&](std::size_t g) { return tiny.cell.gate(g).wh.at(0, 0); };
    auto b = [&](std::size_t g) { return tiny.cell.gate(g).bias[0]; };
    auto p = [&](std::size_t g) { return tiny.cell.gate(g).peephole[0]; };
    auto sig = [](double v) { return 1.0 / (1.0 + std::exp(-v)); };

    const double i_t =
        sig(wx(LstmInput) * x + wh(LstmInput) * h + p(LstmInput) * c +
            b(LstmInput));
    const double f_t =
        sig(wx(LstmForget) * x + wh(LstmForget) * h + p(LstmForget) * c +
            b(LstmForget));
    const double g_t =
        std::tanh(wx(LstmUpdate) * x + wh(LstmUpdate) * h + b(LstmUpdate));
    const double c_t = f_t * c + i_t * g_t;
    const double o_t =
        sig(wx(LstmOutput) * x + wh(LstmOutput) * h + p(LstmOutput) * c_t +
            b(LstmOutput));
    c = c_t;
    h = o_t * std::tanh(c_t);
}

TEST(LstmCellTest, MatchesReferenceOverSequence)
{
    TinyLstm tiny;
    CellState state = tiny.cell.makeState();
    DirectEvaluator eval;

    double h = 0, c = 0;
    const double xs[] = {0.6, -1.2, 0.0, 2.5, -0.3};
    for (double x : xs) {
        const std::vector<float> input = {static_cast<float>(x)};
        tiny.cell.step(input, state, eval);
        referenceLstmStep(tiny, x, h, c);
        EXPECT_NEAR(state.h[0], h, 1e-5);
        EXPECT_NEAR(state.extra[0][0], c, 1e-5);
    }
}

TEST(LstmCellTest, ZeroWeightsGiveBiasDrivenOutput)
{
    LstmCell cell(2, 3, /*peepholes=*/false);
    for (std::size_t g = 0; g < 4; ++g)
        for (auto &b : cell.gate(g).bias)
            b = 0.f;
    std::vector<GateInstance> instances(4);
    for (std::size_t g = 0; g < 4; ++g) {
        instances[g].gate = g;
        instances[g].neurons = 3;
        instances[g].xSize = 2;
        instances[g].hSize = 3;
    }
    cell.setInstances(std::move(instances));

    CellState state = cell.makeState();
    DirectEvaluator eval;
    const std::vector<float> x = {1.f, -1.f};
    cell.step(x, state, eval);
    // i = f = o = 0.5, g = 0 -> c = 0, h = 0.
    for (std::size_t n = 0; n < 3; ++n) {
        EXPECT_FLOAT_EQ(state.extra[0][n], 0.f);
        EXPECT_FLOAT_EQ(state.h[n], 0.f);
    }
}

TEST(LstmCellTest, ForgetGateRetainsCellState)
{
    // Large forget bias + zero input gate: c must persist.
    LstmCell cell(1, 1, /*peepholes=*/false);
    cell.gate(LstmForget).bias[0] = 100.f; // f ~= 1
    cell.gate(LstmInput).bias[0] = -100.f; // i ~= 0
    std::vector<GateInstance> instances(4);
    for (std::size_t g = 0; g < 4; ++g) {
        instances[g].gate = g;
        instances[g].neurons = 1;
        instances[g].xSize = 1;
        instances[g].hSize = 1;
    }
    cell.setInstances(std::move(instances));

    CellState state = cell.makeState();
    state.extra[0][0] = 0.7f;
    DirectEvaluator eval;
    const std::vector<float> x = {1.f};
    cell.step(x, state, eval);
    EXPECT_NEAR(state.extra[0][0], 0.7f, 1e-4);
}

TEST(LstmCellTest, StateResetZeroes)
{
    CellState state;
    state.h = {1.f, 2.f};
    state.extra = {{3.f}};
    state.reset();
    EXPECT_FLOAT_EQ(state.h[0], 0.f);
    EXPECT_FLOAT_EQ(state.h[1], 0.f);
    EXPECT_FLOAT_EQ(state.extra[0][0], 0.f);
}

// ------------------------------------------------------------ GRU cell

/** Single-neuron GRU with hand-picked weights. */
struct TinyGru
{
    GruCell cell{1, 1};

    TinyGru()
    {
        const float wx[3] = {0.4f, -0.6f, 1.1f};
        const float wh[3] = {0.3f, 0.5f, -0.7f};
        const float bias[3] = {-0.2f, 0.1f, 0.25f};
        for (std::size_t g = 0; g < 3; ++g) {
            cell.gate(g).wx.at(0, 0) = wx[g];
            cell.gate(g).wh.at(0, 0) = wh[g];
            cell.gate(g).bias[0] = bias[g];
        }
        std::vector<GateInstance> instances(3);
        for (std::size_t g = 0; g < 3; ++g) {
            instances[g].gate = g;
            instances[g].neurons = 1;
            instances[g].xSize = 1;
            instances[g].hSize = 1;
        }
        cell.setInstances(std::move(instances));
    }
};

void
referenceGruStep(const TinyGru &tiny, double x, double &h)
{
    auto wx = [&](std::size_t g) { return tiny.cell.gate(g).wx.at(0, 0); };
    auto wh = [&](std::size_t g) { return tiny.cell.gate(g).wh.at(0, 0); };
    auto b = [&](std::size_t g) { return tiny.cell.gate(g).bias[0]; };
    auto sig = [](double v) { return 1.0 / (1.0 + std::exp(-v)); };

    const double z =
        sig(wx(GruUpdate) * x + wh(GruUpdate) * h + b(GruUpdate));
    const double r = sig(wx(GruReset) * x + wh(GruReset) * h + b(GruReset));
    const double g = std::tanh(wx(GruCandidate) * x +
                               wh(GruCandidate) * (r * h) +
                               b(GruCandidate));
    h = (1.0 - z) * h + z * g;
}

TEST(GruCellTest, MatchesReferenceOverSequence)
{
    TinyGru tiny;
    CellState state = tiny.cell.makeState();
    DirectEvaluator eval;

    double h = 0;
    const double xs[] = {1.0, -0.5, 0.25, 3.0, -2.0};
    for (double x : xs) {
        const std::vector<float> input = {static_cast<float>(x)};
        tiny.cell.step(input, state, eval);
        referenceGruStep(tiny, x, h);
        EXPECT_NEAR(state.h[0], h, 1e-5);
    }
}

TEST(GruCellTest, NoCellStateAllocated)
{
    GruCell cell(2, 4);
    const CellState state = cell.makeState();
    EXPECT_EQ(state.h.size(), 4u);
    EXPECT_TRUE(state.extra.empty());
}

TEST(GruCellTest, UpdateGateInterpolates)
{
    // z ~= 0 keeps the previous hidden state.
    GruCell cell(1, 1);
    cell.gate(GruUpdate).bias[0] = -100.f;
    std::vector<GateInstance> instances(3);
    for (std::size_t g = 0; g < 3; ++g) {
        instances[g].gate = g;
        instances[g].neurons = 1;
        instances[g].xSize = 1;
        instances[g].hSize = 1;
    }
    cell.setInstances(std::move(instances));
    CellState state = cell.makeState();
    state.h[0] = 0.42f;
    DirectEvaluator eval;
    const std::vector<float> x = {5.f};
    cell.step(x, state, eval);
    EXPECT_NEAR(state.h[0], 0.42f, 1e-4);
}

// ------------------------------------------------------- rate-RNN cell

/** Single-neuron rate RNN with hand-picked weights. */
struct TinyRateRnn
{
    RateRnnCell cell{1, 1};

    TinyRateRnn()
    {
        cell.gate(RateDrive).wx.at(0, 0) = 0.8f;
        cell.gate(RateDrive).wh.at(0, 0) = -0.5f;
        cell.gate(RateDrive).bias[0] = 0.15f;
        cell.gate(RateDrive).peephole[0] = 0.35f; // leak a = dt/tau
        std::vector<GateInstance> instances(1);
        instances[0].gate = RateDrive;
        instances[0].neurons = 1;
        instances[0].xSize = 1;
        instances[0].hSize = 1;
        cell.setInstances(std::move(instances));
    }
};

void
referenceRateRnnStep(const TinyRateRnn &tiny, double x, double &r)
{
    const auto &gate = tiny.cell.gate(RateDrive);
    const double drive = std::tanh(gate.wx.at(0, 0) * x +
                                   gate.wh.at(0, 0) * r + gate.bias[0]);
    const double a = gate.peephole[0];
    r = (1.0 - a) * r + a * drive;
}

TEST(RateRnnCellTest, MatchesReferenceOverSequence)
{
    TinyRateRnn tiny;
    CellState state = tiny.cell.makeState();
    DirectEvaluator eval;

    double r = 0;
    const double xs[] = {0.9, -1.4, 0.2, 2.0, -0.6};
    for (double x : xs) {
        const std::vector<float> input = {static_cast<float>(x)};
        tiny.cell.step(input, state, eval);
        referenceRateRnnStep(tiny, x, r);
        EXPECT_NEAR(state.h[0], r, 1e-5);
    }
}

TEST(RateRnnCellTest, LeakSpansGeometricGrid)
{
    RateRnnCell cell(3, 8);
    const auto &leak = cell.gate(RateDrive).peephole;
    ASSERT_EQ(leak.size(), 8u);
    EXPECT_FLOAT_EQ(leak[0], 1.f);
    EXPECT_NEAR(leak[7], 0.1f, 1e-5);
    for (std::size_t n = 1; n < 8; ++n)
        EXPECT_LT(leak[n], leak[n - 1]);
}

TEST(RateRnnCellTest, UnitLeakIsPureTanhRnn)
{
    // a = 1 collapses the Euler update to r_t = tanh(preact): the
    // single-neuron cell has a = 1.0 by construction.
    RateRnnCell cell(1, 1);
    cell.gate(RateDrive).wx.at(0, 0) = 1.f;
    std::vector<GateInstance> instances(1);
    instances[0].gate = RateDrive;
    instances[0].neurons = 1;
    instances[0].xSize = 1;
    instances[0].hSize = 1;
    cell.setInstances(std::move(instances));

    CellState state = cell.makeState();
    state.h[0] = 0.9f; // must not persist when a = 1
    DirectEvaluator eval;
    const std::vector<float> x = {0.5f};
    cell.step(x, state, eval);
    EXPECT_NEAR(state.h[0], std::tanh(0.5), 1e-5);
}

TEST(RateRnnCellTest, NoExtraStateSlots)
{
    RateRnnCell cell(2, 4);
    const CellState state = cell.makeState();
    EXPECT_EQ(state.h.size(), 4u);
    EXPECT_TRUE(state.extra.empty());
}

// ------------------------------------------------------------ BRC cell

/** Single-neuron BRC with hand-picked weights. */
struct TinyBrc
{
    BrcCell cell{1, 1};

    TinyBrc()
    {
        const float wx[3] = {0.7f, -0.4f, 1.2f};
        const float wh[3] = {0.25f, 0.6f, -0.8f};
        const float bias[3] = {0.1f, -0.15f, 0.3f};
        for (std::size_t g = 0; g < 3; ++g) {
            cell.gate(g).wx.at(0, 0) = wx[g];
            cell.gate(g).wh.at(0, 0) = wh[g];
            cell.gate(g).bias[0] = bias[g];
        }
        std::vector<GateInstance> instances(3);
        for (std::size_t g = 0; g < 3; ++g) {
            instances[g].gate = g;
            instances[g].neurons = 1;
            instances[g].xSize = 1;
            instances[g].hSize = 1;
        }
        cell.setInstances(std::move(instances));
    }
};

void
referenceBrcStep(const TinyBrc &tiny, double x, double &h)
{
    auto wx = [&](std::size_t g) { return tiny.cell.gate(g).wx.at(0, 0); };
    auto wh = [&](std::size_t g) { return tiny.cell.gate(g).wh.at(0, 0); };
    auto b = [&](std::size_t g) { return tiny.cell.gate(g).bias[0]; };
    auto sig = [](double v) { return 1.0 / (1.0 + std::exp(-v)); };

    const double a =
        1.0 + std::tanh(wx(BrcMod) * x + wh(BrcMod) * h + b(BrcMod));
    const double c =
        sig(wx(BrcUpdate) * x + wh(BrcUpdate) * h + b(BrcUpdate));
    const double g = std::tanh(wx(BrcCandidate) * x +
                               wh(BrcCandidate) * (a * h) +
                               b(BrcCandidate));
    h = c * h + (1.0 - c) * g;
}

TEST(BrcCellTest, MatchesReferenceOverSequence)
{
    TinyBrc tiny;
    CellState state = tiny.cell.makeState();
    DirectEvaluator eval;

    double h = 0;
    const double xs[] = {1.2, -0.7, 0.4, 2.5, -1.8};
    for (double x : xs) {
        const std::vector<float> input = {static_cast<float>(x)};
        tiny.cell.step(input, state, eval);
        referenceBrcStep(tiny, x, h);
        EXPECT_NEAR(state.h[0], h, 1e-5);
    }
}

TEST(BrcCellTest, UpdateGateRetainsHiddenState)
{
    // c ~= 1 must keep h unchanged — BRC's long-memory regime.
    BrcCell cell(1, 1);
    cell.gate(BrcUpdate).bias[0] = 100.f;
    std::vector<GateInstance> instances(3);
    for (std::size_t g = 0; g < 3; ++g) {
        instances[g].gate = g;
        instances[g].neurons = 1;
        instances[g].xSize = 1;
        instances[g].hSize = 1;
    }
    cell.setInstances(std::move(instances));

    CellState state = cell.makeState();
    state.h[0] = 0.65f;
    DirectEvaluator eval;
    const std::vector<float> x = {1.f};
    cell.step(x, state, eval);
    EXPECT_NEAR(state.h[0], 0.65f, 1e-4);
}

TEST(BrcCellTest, NoExtraStateSlots)
{
    BrcCell cell(2, 4);
    const CellState state = cell.makeState();
    EXPECT_EQ(state.h.size(), 4u);
    EXPECT_TRUE(state.extra.empty());
}

// ------------------------------------------------------ cell registry

TEST(CellDescriptorTest, RegistryMatchesCellObjects)
{
    RnnConfig config;
    config.inputSize = 3;
    config.hiddenSize = 4;
    for (const CellType type : {CellType::Lstm, CellType::Gru,
                                CellType::RateRnn, CellType::Brc}) {
        config.cellType = type;
        const CellDescriptor &desc = cellDescriptor(type);
        EXPECT_EQ(desc.type, type);
        const auto cell = desc.makeCell(config.inputSize, config);
        EXPECT_EQ(cell->type(), type);
        EXPECT_EQ(cell->gateCount(), desc.gates.size());
        EXPECT_EQ(cell->makeState().extra.size(), desc.extraStateSlots());
        EXPECT_EQ(gateCount(type), desc.gates.size());
    }
}

TEST(CellDescriptorTest, NamesRoundTrip)
{
    EXPECT_STREQ(cellTypeName(CellType::Lstm), "LSTM");
    EXPECT_STREQ(cellTypeName(CellType::RateRnn), "RateRNN");
    EXPECT_STREQ(cellTypeName(CellType::Brc), "BRC");
    EXPECT_EQ(cellTypeByName("lstm"), CellType::Lstm);
    EXPECT_EQ(cellTypeByName("gru"), CellType::Gru);
    EXPECT_EQ(cellTypeByName("raternn"), CellType::RateRnn);
    EXPECT_EQ(cellTypeByName("brc"), CellType::Brc);
    EXPECT_STREQ(gateName(CellType::Lstm, LstmForget), "forget");
    EXPECT_STREQ(gateName(CellType::RateRnn, RateDrive), "drive");
    EXPECT_STREQ(gateName(CellType::Brc, BrcCandidate), "candidate");
}

TEST(CellDescriptorTest, UnknownCliNameDies)
{
    EXPECT_DEATH(cellTypeByName("elman"), "unknown cell family");
}

TEST(CellDescriptorTest, KnownCellIds)
{
    EXPECT_TRUE(isKnownCellType(0));
    EXPECT_TRUE(isKnownCellType(3));
    EXPECT_FALSE(isKnownCellType(4));
    EXPECT_NE(knownCellNames().find("raternn"), std::string::npos);
}

// ----------------------------------------------------------------- init

TEST(InitTest, ScalesFollowFanIn)
{
    Rng rng(10);
    GateParams params;
    params.wx = tensor::Matrix(64, 400);
    params.wh = tensor::Matrix(64, 100);
    params.bias.assign(64, 1.f);
    InitOptions options;
    options.gain = 1.0;
    options.magnitudeDispersion = 1.0;
    initGate(params, rng, options);

    RunningStats sx, sh;
    for (float v : params.wx.data())
        sx.add(v);
    for (float v : params.wh.data())
        sh.add(v);
    EXPECT_NEAR(sx.stddev(), 1.0 / 20.0, 0.005);  // 1/sqrt(400)
    EXPECT_NEAR(sh.stddev(), 1.0 / 10.0, 0.01);   // 1/sqrt(100)
    EXPECT_NEAR(sx.mean(), 0.0, 0.002);
    for (float b : params.bias)
        EXPECT_FLOAT_EQ(b, 0.f);
}

TEST(InitTest, DispersionZeroGivesConstantMagnitude)
{
    Rng rng(11);
    GateParams params;
    params.wx = tensor::Matrix(8, 100);
    params.wh = tensor::Matrix(8, 100);
    params.bias.assign(8, 0.f);
    InitOptions options;
    options.magnitudeDispersion = 0.0;
    initGate(params, rng, options);
    const float expected = std::fabs(params.wx.at(0, 0));
    for (float v : params.wx.data())
        EXPECT_FLOAT_EQ(std::fabs(v), expected);
}

} // namespace
} // namespace nlfm::nn
