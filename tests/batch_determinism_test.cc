/**
 * @file
 * Determinism of the batched evaluation path under the thread pool:
 * 1 worker vs N workers must yield bitwise-identical outputs and
 * identical aggregated ReuseStats, for the exact and the memoized
 * evaluators alike.
 */

#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "memo/memo_batch.hh"
#include "nn/init.hh"
#include "nn/rnn_network.hh"

namespace nlfm
{
namespace
{

nn::RnnConfig
testConfig()
{
    nn::RnnConfig config;
    config.cellType = nn::CellType::Lstm;
    config.inputSize = 6;
    config.hiddenSize = 8;
    config.layers = 2;
    config.bidirectional = true;
    config.peepholes = true;
    return config;
}

std::vector<nn::Sequence>
makeSequences(std::size_t batch, std::size_t width, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<nn::Sequence> sequences(batch);
    for (std::size_t b = 0; b < batch; ++b) {
        sequences[b].assign(3 + (b * 7) % 11, std::vector<float>(width));
        for (auto &frame : sequences[b])
            rng.fillNormal(frame, 0.0, 1.0);
    }
    return sequences;
}

void
expectIdentical(const std::vector<nn::Sequence> &expected,
                const std::vector<nn::Sequence> &actual)
{
    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t b = 0; b < expected.size(); ++b) {
        ASSERT_EQ(expected[b].size(), actual[b].size()) << "slot " << b;
        for (std::size_t t = 0; t < expected[b].size(); ++t)
            for (std::size_t i = 0; i < expected[b][t].size(); ++i)
                ASSERT_EQ(expected[b][t][i], actual[b][t][i])
                    << "slot " << b << " step " << t << " element " << i;
    }
}

TEST(BatchDeterminismTest, DirectPathIdenticalAcrossWorkerCounts)
{
    const nn::RnnConfig config = testConfig();
    nn::RnnNetwork network(config);
    Rng rng(19);
    nn::initNetwork(network, rng);
    const auto sequences = makeSequences(13, config.inputSize, 91);

    ThreadPool single(1);
    nn::BatchForwardOptions serial_options;
    serial_options.pool = &single;
    const auto reference =
        network.forwardBatchBaseline(sequences, serial_options);

    for (const std::size_t workers : {2u, 4u, 7u}) {
        ThreadPool pool(workers);
        nn::BatchForwardOptions options;
        options.pool = &pool;
        expectIdentical(reference,
                        network.forwardBatchBaseline(sequences, options));
    }
}

TEST(BatchDeterminismTest, MemoizedPathIdenticalOutputsAndStats)
{
    const nn::RnnConfig config = testConfig();
    nn::RnnNetwork network(config);
    Rng rng(23);
    nn::initNetwork(network, rng);
    nn::BinarizedNetwork bnn(network);
    const auto sequences = makeSequences(13, config.inputSize, 97);

    memo::MemoOptions memo_options;
    memo_options.predictor = memo::PredictorKind::Bnn;
    memo_options.theta = 0.05;

    ThreadPool single(1);
    nn::BatchForwardOptions serial_options;
    serial_options.pool = &single;
    memo::BatchMemoEngine reference_engine(network, &bnn, memo_options);
    const auto reference = network.forwardBatch(
        sequences, reference_engine, serial_options);
    const memo::ReuseStats reference_stats = reference_engine.stats();

    for (const std::size_t workers : {2u, 4u, 7u}) {
        ThreadPool pool(workers);
        nn::BatchForwardOptions options;
        options.pool = &pool;
        memo::BatchMemoEngine engine(network, &bnn, memo_options);
        expectIdentical(reference,
                        network.forwardBatch(sequences, engine, options));

        const memo::ReuseStats stats = engine.stats();
        EXPECT_EQ(stats.totalSlots(), reference_stats.totalSlots());
        EXPECT_EQ(stats.totalReused(), reference_stats.totalReused());
        for (std::size_t gate = 0; gate < network.gateInstances().size();
             ++gate)
            EXPECT_EQ(stats.gateReuseFraction(gate),
                      reference_stats.gateReuseFraction(gate))
                << "gate " << gate << " with " << workers << " workers";
    }
}

} // namespace
} // namespace nlfm
