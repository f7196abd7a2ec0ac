/**
 * @file
 * Unit and property tests for the tensor library: dense kernels,
 * matrices, and the packed BNN bit-vectors (paper Eqs. 7-8).
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>

#include "common/rng.hh"
#include "tensor/bitpack.hh"
#include "tensor/matrix.hh"
#include "tensor/vector_ops.hh"

namespace nlfm::tensor
{
namespace
{

std::vector<float>
randomVector(Rng &rng, std::size_t n, double scale = 1.0)
{
    std::vector<float> out(n);
    rng.fillNormal(out, 0.0, scale);
    return out;
}

// ----------------------------------------------------------- dense ops

TEST(VectorOpsTest, DotGolden)
{
    const std::vector<float> a = {1, 2, 3};
    const std::vector<float> b = {4, -5, 6};
    EXPECT_FLOAT_EQ(dot(a, b), 4 - 10 + 18);
}

TEST(VectorOpsTest, DotEmptyIsZero)
{
    std::vector<float> empty;
    EXPECT_FLOAT_EQ(dot(empty, empty), 0.f);
}

TEST(VectorOpsTest, DotMatchesLongDouble)
{
    Rng rng(1);
    for (std::size_t n : {1u, 7u, 64u, 333u, 2048u}) {
        const auto a = randomVector(rng, n);
        const auto b = randomVector(rng, n);
        long double reference = 0;
        for (std::size_t i = 0; i < n; ++i)
            reference += static_cast<long double>(a[i]) * b[i];
        EXPECT_NEAR(dot(a, b), static_cast<double>(reference),
                    1e-3 * std::sqrt(static_cast<double>(n)));
    }
}

TEST(VectorOpsTest, AxpyAndScale)
{
    std::vector<float> y = {1, 1, 1};
    const std::vector<float> x = {1, 2, 3};
    axpy(2.f, x, y);
    EXPECT_FLOAT_EQ(y[0], 3);
    EXPECT_FLOAT_EQ(y[2], 7);
    scale(y, 0.5f);
    EXPECT_FLOAT_EQ(y[0], 1.5);
}

TEST(VectorOpsTest, HadamardAndAdd)
{
    const std::vector<float> a = {1, 2, 3};
    const std::vector<float> b = {4, 5, -6};
    std::vector<float> out(3);
    hadamard(a, b, out);
    EXPECT_FLOAT_EQ(out[2], -18);
    add(a, b, out);
    EXPECT_FLOAT_EQ(out[1], 7);
}

TEST(VectorOpsTest, Reductions)
{
    const std::vector<float> x = {3, -4, 0};
    EXPECT_FLOAT_EQ(norm2(x), 5.f);
    EXPECT_FLOAT_EQ(maxAbs(x), 4.f);
    EXPECT_FLOAT_EQ(sum(x), -1.f);
}

TEST(VectorOpsTest, RelativeDifferenceConventions)
{
    EXPECT_DOUBLE_EQ(relativeDifference(2.0, 1.0), 0.5);
    EXPECT_DOUBLE_EQ(relativeDifference(-2.0, -1.0), 0.5);
    EXPECT_DOUBLE_EQ(relativeDifference(0.0, 0.0), 0.0);
    EXPECT_TRUE(std::isinf(relativeDifference(0.0, 1.0)));
    EXPECT_DOUBLE_EQ(relativeDifference(5.0, 5.0), 0.0);
}

TEST(VectorOpsTest, TileAndRowKernelsMatchDotLanesBitwise)
{
    // Every tile shape the panel kernels can take must reproduce the
    // single-pair kernel bit for bit: 1-3 weight rows x 1-9 input rows
    // (full and partial 4-row tiles), lengths around the 8-lane step,
    // and input rows starting one float past an aligned base.
    Rng rng(29);
    for (const std::size_t n : {1u, 7u, 8u, 9u, 19u, 161u, 800u}) {
        std::vector<std::vector<float>> weights;
        for (std::size_t k = 0; k < kTileWeightRows; ++k)
            weights.push_back(randomVector(rng, n));
        std::vector<std::vector<float>> inputs;
        for (std::size_t r = 0; r < 9; ++r)
            inputs.push_back(randomVector(rng, n + 1));

        for (std::size_t w_count = 1; w_count <= kTileWeightRows;
             ++w_count) {
            for (std::size_t x_count = 1; x_count <= inputs.size();
                 ++x_count) {
                SCOPED_TRACE(::testing::Message()
                             << "n " << n << " tile " << w_count << "x"
                             << x_count);
                std::vector<const float *> ws;
                for (std::size_t k = 0; k < w_count; ++k)
                    ws.push_back(weights[k].data());
                std::vector<const float *> xs;
                for (std::size_t r = 0; r < x_count; ++r)
                    xs.push_back(inputs[r].data() + 1);

                std::vector<float> tile(w_count * x_count);
                dotLanesTile(ws, xs, n, tile);
                std::vector<float> rows(x_count);
                for (std::size_t k = 0; k < w_count; ++k) {
                    dotLanesRows(weights[k], xs, rows);
                    for (std::size_t r = 0; r < x_count; ++r) {
                        const float expected =
                            dotLanes(weights[k], {xs[r], n});
                        EXPECT_EQ(tile[k * x_count + r], expected)
                            << "weight " << k << " input " << r;
                        EXPECT_EQ(rows[r], expected)
                            << "weight " << k << " input " << r;
                    }
                }
            }
        }
    }
}

// -------------------------------------------------------------- matrix

TEST(MatrixTest, ShapeAndIndexing)
{
    Matrix m(2, 3);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    m.at(1, 2) = 5.f;
    EXPECT_FLOAT_EQ(m.at(1, 2), 5.f);
    EXPECT_FLOAT_EQ(m.row(1)[2], 5.f);
}

TEST(MatrixTest, MatvecGolden)
{
    Matrix m(2, 3);
    // [[1 2 3], [4 5 6]] * [1, 0, -1] = [-2, -2]
    float values[] = {1, 2, 3, 4, 5, 6};
    std::copy(values, values + 6, m.data().begin());
    const std::vector<float> x = {1, 0, -1};
    std::vector<float> y(2);
    m.matvec(x, y);
    EXPECT_FLOAT_EQ(y[0], -2);
    EXPECT_FLOAT_EQ(y[1], -2);
}

TEST(MatrixTest, TransposeAccumMatchesExplicit)
{
    Rng rng(2);
    Matrix m(5, 4);
    for (auto &v : m.data())
        v = static_cast<float>(rng.normal());
    const auto g = randomVector(rng, 5);
    std::vector<float> out(4, 0.f);
    m.matvecTransposeAccum(g, out);

    for (std::size_t c = 0; c < 4; ++c) {
        float expected = 0;
        for (std::size_t r = 0; r < 5; ++r)
            expected += m.at(r, c) * g[r];
        EXPECT_NEAR(out[c], expected, 1e-5);
    }
}

// ------------------------------------------------------------- bitpack

TEST(BitVectorTest, FromFloatsSigns)
{
    const std::vector<float> values = {1.f, -1.f, 0.f, -0.5f, 2.f};
    const BitVector bits = BitVector::fromFloats(values);
    EXPECT_EQ(bits.size(), 5u);
    EXPECT_EQ(bits.get(0), +1);
    EXPECT_EQ(bits.get(1), -1);
    // Eq. 7: x >= 0 maps to +1, so zero is positive.
    EXPECT_EQ(bits.get(2), +1);
    EXPECT_EQ(bits.get(3), -1);
    EXPECT_EQ(bits.get(4), +1);
}

TEST(BitVectorTest, SetAndGet)
{
    BitVector bits(130); // spans three words
    EXPECT_EQ(bits.get(129), -1);
    bits.set(129, true);
    EXPECT_EQ(bits.get(129), +1);
    bits.set(129, false);
    EXPECT_EQ(bits.get(129), -1);
}

TEST(BitVectorTest, AssignConcatMatchesManualConcat)
{
    Rng rng(3);
    const auto a = randomVector(rng, 37);
    const auto b = randomVector(rng, 91);
    std::vector<float> concat(a);
    concat.insert(concat.end(), b.begin(), b.end());

    BitVector via_concat(a.size() + b.size());
    via_concat.assignConcat(a, b);
    const BitVector direct = BitVector::fromFloats(concat);
    for (std::size_t i = 0; i < concat.size(); ++i)
        EXPECT_EQ(via_concat.get(i), direct.get(i)) << "index " << i;
}

TEST(BnnDotTest, MatchesNaiveOnRandomVectors)
{
    Rng rng(4);
    for (std::size_t n :
         {1u, 2u, 63u, 64u, 65u, 127u, 128u, 640u, 2048u, 2049u}) {
        const auto a = randomVector(rng, n);
        const auto b = randomVector(rng, n);
        const BitVector pa = BitVector::fromFloats(a);
        const BitVector pb = BitVector::fromFloats(b);
        EXPECT_EQ(bnnDot(pa, pb), bnnDotNaive(a, b)) << "n=" << n;
    }
}

TEST(BnnDotTest, RangeAndParity)
{
    Rng rng(5);
    const std::size_t n = 321;
    for (int trial = 0; trial < 20; ++trial) {
        const auto a = randomVector(rng, n);
        const auto b = randomVector(rng, n);
        const int d = bnnDot(BitVector::fromFloats(a),
                             BitVector::fromFloats(b));
        EXPECT_LE(std::abs(d), static_cast<int>(n));
        // d = n - 2*mismatches keeps n's parity.
        EXPECT_EQ((d - static_cast<int>(n)) % 2, 0);
    }
}

TEST(BnnDotTest, IdenticalVectorsGiveN)
{
    Rng rng(6);
    const auto a = randomVector(rng, 200);
    const BitVector pa = BitVector::fromFloats(a);
    EXPECT_EQ(bnnDot(pa, pa), 200);
}

TEST(BnnDotTest, OppositeVectorsGiveMinusN)
{
    Rng rng(7);
    auto a = randomVector(rng, 100);
    // Drop exact zeros: -0.0f >= 0 binarizes to +1 on both sides.
    for (auto &v : a)
        if (v == 0.f)
            v = 1.f;
    auto b = a;
    for (auto &v : b)
        v = -v;
    EXPECT_EQ(bnnDot(BitVector::fromFloats(a), BitVector::fromFloats(b)),
              -100);
}

TEST(BitMatrixTest, RowsBinarizeIndependently)
{
    Rng rng(8);
    BitMatrix m(3, 50);
    std::vector<std::vector<float>> rows;
    for (std::size_t r = 0; r < 3; ++r) {
        rows.push_back(randomVector(rng, 50));
        m.setRow(r, rows.back());
    }
    const auto x = randomVector(rng, 50);
    const BitVector bx = BitVector::fromFloats(x);
    std::array<std::int32_t, 3> dots{};
    bnnDotRows(m, 0, 3, bx, dots);
    for (std::size_t r = 0; r < 3; ++r)
        EXPECT_EQ(dots[r], bnnDotNaive(rows[r], x));
}

/** Property sweep: packed dot equals naive dot across many sizes. */
class BnnDotSizeSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(BnnDotSizeSweep, PackedEqualsNaive)
{
    Rng rng(100 + GetParam());
    const std::size_t n = GetParam();
    const auto a = randomVector(rng, n);
    const auto b = randomVector(rng, n);
    EXPECT_EQ(bnnDot(BitVector::fromFloats(a), BitVector::fromFloats(b)),
              bnnDotNaive(a, b));
}

INSTANTIATE_TEST_SUITE_P(Sizes, BnnDotSizeSweep,
                         ::testing::Values(1, 3, 16, 31, 32, 33, 63, 64,
                                           65, 100, 255, 256, 257, 511,
                                           512, 1000, 1024, 1440, 2048));

} // namespace
} // namespace nlfm::tensor
