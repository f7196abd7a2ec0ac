/**
 * @file
 * Property-style tests for the metrics and numeric helpers: metric
 * axioms (edit distance as a true metric), BLEU direction/monotonicity,
 * histogram/quantile consistency, NaN/saturation handling in the
 * numeric types.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/fixed_point.hh"
#include "common/histogram.hh"
#include "common/rng.hh"
#include "metrics/bleu.hh"
#include "metrics/edit_distance.hh"

namespace nlfm
{
namespace
{

metrics::TokenSeq
randomTokens(Rng &rng, std::size_t length, std::int32_t vocab)
{
    metrics::TokenSeq out(length);
    for (auto &token : out)
        token = static_cast<std::int32_t>(rng.uniformInt(vocab));
    return out;
}

// ------------------------------------------- edit distance is a metric

class EditDistanceMetricAxioms : public ::testing::TestWithParam<int>
{
};

TEST_P(EditDistanceMetricAxioms, IdentitySymmetryTriangle)
{
    Rng rng(100 + GetParam());
    const auto a = randomTokens(rng, 5 + rng.uniformInt(20), 6);
    const auto b = randomTokens(rng, 5 + rng.uniformInt(20), 6);
    const auto c = randomTokens(rng, 5 + rng.uniformInt(20), 6);

    EXPECT_EQ(metrics::editDistance(a, a), 0u);
    EXPECT_EQ(metrics::editDistance(a, b), metrics::editDistance(b, a));
    EXPECT_LE(metrics::editDistance(a, c),
              metrics::editDistance(a, b) + metrics::editDistance(b, c));
    // Length difference lower-bounds the distance.
    const auto diff = a.size() > b.size() ? a.size() - b.size()
                                          : b.size() - a.size();
    EXPECT_GE(metrics::editDistance(a, b), diff);
    EXPECT_LE(metrics::editDistance(a, b), std::max(a.size(), b.size()));
}

INSTANTIATE_TEST_SUITE_P(Cases, EditDistanceMetricAxioms,
                         ::testing::Range(0, 12));

// ------------------------------------------------- BLEU monotonicity

TEST(BleuPropertyTest, MoreCorruptionNeverHelps)
{
    Rng rng(7);
    metrics::TokenSeq reference = randomTokens(rng, 60, 20);
    const std::vector<metrics::TokenSeq> refs = {reference};

    double last = 101.0;
    metrics::TokenSeq hypothesis = reference;
    for (int corruptions = 0; corruptions <= 10; ++corruptions) {
        const std::vector<metrics::TokenSeq> hyps = {hypothesis};
        const double bleu = metrics::corpusBleu(refs, hyps);
        EXPECT_LE(bleu, last + 1e-9) << corruptions << " corruptions";
        last = bleu;
        // Corrupt two more positions, spaced out.
        const std::size_t at =
            (static_cast<std::size_t>(corruptions) * 11 + 3) % 60;
        hypothesis[at] = 90 + corruptions;
    }
    EXPECT_LT(last, 70.0);
}

TEST(BleuPropertyTest, ScoreWithinRange)
{
    Rng rng(9);
    for (int trial = 0; trial < 10; ++trial) {
        const auto ref = randomTokens(rng, 10 + rng.uniformInt(40), 15);
        const auto hyp = randomTokens(rng, 10 + rng.uniformInt(40), 15);
        const std::vector<metrics::TokenSeq> refs = {ref};
        const std::vector<metrics::TokenSeq> hyps = {hyp};
        const double bleu = metrics::corpusBleu(refs, hyps);
        EXPECT_GE(bleu, 0.0);
        EXPECT_LE(bleu, 100.0);
    }
}

TEST(WerPropertyTest, InsertingTokensRaisesWer)
{
    Rng rng(11);
    const auto reference = randomTokens(rng, 30, 8);
    metrics::TokenSeq hypothesis = reference;
    double last = 0.0;
    for (int i = 0; i < 5; ++i) {
        hypothesis.insert(hypothesis.begin() + 5 * i, 99);
        const double wer = metrics::wordErrorRate(reference, hypothesis);
        EXPECT_GT(wer, last - 1e-12);
        last = wer;
    }
    EXPECT_NEAR(last, 5.0 / 30.0, 1e-9);
}

// ------------------------------------------- histogram <-> quantiles

TEST(HistogramPropertyTest, QuantileInvertsCdf)
{
    Histogram hist(200, 0.0, 1.0);
    Rng rng(13);
    for (int i = 0; i < 20000; ++i)
        hist.add(rng.uniform());
    for (double q : {0.05, 0.25, 0.5, 0.75, 0.95}) {
        const double x = hist.quantile(q);
        // CDF at the bin containing x must reach at least q.
        const auto bin = static_cast<std::size_t>(
            std::min(199.0, x / (1.0 / 200.0) - 0.5));
        EXPECT_GE(hist.cdf(std::min<std::size_t>(bin + 1, 199)) + 1e-9, q);
    }
}

// ------------------------------------------------- numeric edge cases

TEST(FixedEdgeTest, SaturatesInsteadOfWrapping)
{
    const double huge = 1e30;
    const Q16 saturated = Q16::fromDouble(huge);
    EXPECT_GT(saturated.toDouble(), 1e12);
    const Q16 negative = Q16::fromDouble(-huge);
    EXPECT_LT(negative.toDouble(), -1e12);
    EXPECT_LT(negative, saturated);
}

TEST(FixedEdgeTest, DivisionByZeroPanics)
{
    EXPECT_DEATH(
        {
            const Q16 quotient =
                Q16::fromDouble(1.0) / Q16::fromDouble(0.0);
            (void)quotient;
        },
        "division by zero");
}

// ---------------------------------------------------------- rng tails

TEST(RngPropertyTest, UniformIntIsRoughlyUniform)
{
    Rng rng(17);
    constexpr std::size_t buckets = 16;
    constexpr int draws = 64000;
    std::vector<int> counts(buckets, 0);
    for (int i = 0; i < draws; ++i)
        ++counts[rng.uniformInt(buckets)];
    const double expected = static_cast<double>(draws) / buckets;
    for (std::size_t b = 0; b < buckets; ++b)
        EXPECT_NEAR(counts[b], expected, expected * 0.1) << "bucket " << b;
}

TEST(RngPropertyTest, NormalTailsAreSymmetric)
{
    Rng rng(19);
    int above = 0, below = 0;
    for (int i = 0; i < 100000; ++i) {
        const double v = rng.normal();
        if (v > 1.0)
            ++above;
        if (v < -1.0)
            ++below;
    }
    EXPECT_NEAR(above, below, 0.1 * (above + below));
    // P(|X| > 1) ~= 0.3173.
    EXPECT_NEAR(above + below, 31730, 1500);
}

} // namespace
} // namespace nlfm
