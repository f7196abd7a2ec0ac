/**
 * @file
 * google-benchmark microkernels backing the paper's cost claims:
 * the BNN dot product is orders of magnitude cheaper than the FP dot
 * product (§3.1.2), packed XNOR/popcount crushes the naive ±1 loop, and
 * the per-gate memoization probe adds little on top of a cell step.
 */

#include <benchmark/benchmark.h>

#include <array>

#include "common/rng.hh"
#include "memo/memo_engine.hh"
#include "metrics/edit_distance.hh"
#include "nn/init.hh"
#include "tensor/bitpack.hh"
#include "tensor/vector_ops.hh"

using namespace nlfm;

namespace
{

std::vector<float>
randomVector(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> out(n);
    rng.fillNormal(out, 0.0, 1.0);
    return out;
}

void
BM_FpDot(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto a = randomVector(n, 1);
    const auto b = randomVector(n, 2);
    for (auto _ : state)
        benchmark::DoNotOptimize(tensor::dot(a, b));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FpDot)->Arg(256)->Arg(640)->Arg(2048);

void
BM_BnnDotPacked(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto a = tensor::BitVector::fromFloats(randomVector(n, 3));
    const auto b = tensor::BitVector::fromFloats(randomVector(n, 4));
    for (auto _ : state)
        benchmark::DoNotOptimize(tensor::bnnDot(a, b));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BnnDotPacked)->Arg(256)->Arg(640)->Arg(2048);

void
BM_BnnDotNaive(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto a = randomVector(n, 5);
    const auto b = randomVector(n, 6);
    for (auto _ : state)
        benchmark::DoNotOptimize(tensor::bnnDotNaive(a, b));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BnnDotNaive)->Arg(640);

/**
 * One gate's probe shape (DeepSpeech2-like): 64 weight rows x 1600 bits
 * against one packed input, per forced ISA variant. Skips variants the
 * host cannot run.
 */
void
benchBnnDotRows(benchmark::State &state, tensor::BnnIsa isa)
{
    if (!tensor::bnnSetIsa(isa)) {
        state.SkipWithError("ISA variant not supported on this host");
        return;
    }
    const std::size_t n = 1600;
    const std::size_t rows = 64;
    tensor::BitMatrix w(rows, n);
    for (std::size_t r = 0; r < rows; ++r)
        w.setRow(r, randomVector(n, 100 + r));
    const auto input = tensor::BitVector::fromFloats(randomVector(n, 99));
    std::vector<std::int32_t> out(rows);
    for (auto _ : state) {
        tensor::bnnDotRows(w, 0, rows, input, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(rows * n));
    tensor::bnnSetIsa(tensor::bnnBestIsa());
}

void
BM_BnnDotRowsPortable(benchmark::State &state)
{
    benchBnnDotRows(state, tensor::BnnIsa::Portable);
}
BENCHMARK(BM_BnnDotRowsPortable);

void
BM_BnnDotRowsAvx2(benchmark::State &state)
{
    benchBnnDotRows(state, tensor::BnnIsa::Avx2);
}
BENCHMARK(BM_BnnDotRowsAvx2);

void
BM_BnnDotRowsAvx512(benchmark::State &state)
{
    benchBnnDotRows(state, tensor::BnnIsa::Avx512);
}
BENCHMARK(BM_BnnDotRowsAvx512);

/**
 * The batch engine's panel shape: a neuron block x live slots, per
 * forced ISA variant.
 */
void
benchBnnDotPanel(benchmark::State &state, tensor::BnnIsa isa)
{
    if (!tensor::bnnSetIsa(isa)) {
        state.SkipWithError("ISA variant not supported on this host");
        return;
    }
    const std::size_t n = 1600;
    const std::size_t rows = 32;
    const std::size_t slots = 16;
    tensor::BitMatrix w(rows, n);
    for (std::size_t r = 0; r < rows; ++r)
        w.setRow(r, randomVector(n, 200 + r));
    std::vector<tensor::BitVector> inputs;
    std::vector<const std::uint64_t *> words;
    for (std::size_t s = 0; s < slots; ++s)
        inputs.push_back(tensor::BitVector::fromFloats(
            randomVector(n, 300 + s)));
    for (std::size_t s = 0; s < slots; ++s)
        words.push_back(inputs[s].raw().data());
    std::vector<std::int32_t> out(rows * slots);
    for (auto _ : state) {
        tensor::bnnDotPanel(w, 0, rows, words, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(rows * slots * n));
    tensor::bnnSetIsa(tensor::bnnBestIsa());
}

void
BM_BnnDotPanelPortable(benchmark::State &state)
{
    benchBnnDotPanel(state, tensor::BnnIsa::Portable);
}
BENCHMARK(BM_BnnDotPanelPortable);

void
BM_BnnDotPanelAvx2(benchmark::State &state)
{
    benchBnnDotPanel(state, tensor::BnnIsa::Avx2);
}
BENCHMARK(BM_BnnDotPanelAvx2);

void
BM_BnnDotPanelAvx512(benchmark::State &state)
{
    benchBnnDotPanel(state, tensor::BnnIsa::Avx512);
}
BENCHMARK(BM_BnnDotPanelAvx512);

/**
 * The union-tile break-even of the batch engine's commit
 * (kUnionDensityNum / kUnionDensityDen in memo/memo_batch.cc): three
 * gate rows (Wx of width x, Wh of width h) whose misses are drawn
 * independently at a given rate over a panel of slots, evaluated either
 * as one 3-row dotLanesTile per operand over the union of their misses
 * (BM_MissTileUnion) or one row at a time over its own misses
 * (BM_MissTileRows). The compacted pointer lists are built outside the
 * timed loop. The "density" counter is the rows' own misses over
 * 3 x union: the union tile wins above the density where the two times
 * cross. Args: slots, x, h, miss percent.
 */
struct MissTileFixture
{
    std::vector<std::vector<float>> wx, wh, xs, hs;
    std::vector<const float *> wx_rows, wh_rows;
    std::vector<const float *> union_x, union_h;
    std::vector<std::vector<const float *>> own_x, own_h;
    std::vector<float> fwd, rec;
    double density = 0.0;

    explicit MissTileFixture(const benchmark::State &state)
    {
        const auto slots = static_cast<std::size_t>(state.range(0));
        const auto x = static_cast<std::size_t>(state.range(1));
        const auto h = static_cast<std::size_t>(state.range(2));
        const auto miss_pct = static_cast<std::uint64_t>(state.range(3));
        Rng rng(17);
        for (std::size_t k = 0; k < tensor::kTileWeightRows; ++k) {
            wx.push_back(randomVector(x, 400 + k));
            wh.push_back(randomVector(h, 500 + k));
        }
        for (std::size_t s = 0; s < slots; ++s) {
            xs.push_back(randomVector(x, 600 + s));
            hs.push_back(randomVector(h, 1600 + s));
        }
        own_x.resize(tensor::kTileWeightRows);
        own_h.resize(tensor::kTileWeightRows);
        std::size_t own = 0;
        for (std::size_t s = 0; s < slots; ++s) {
            bool any = false;
            for (std::size_t k = 0; k < tensor::kTileWeightRows; ++k)
                if (rng.uniformInt(100) < miss_pct) {
                    own_x[k].push_back(xs[s].data());
                    own_h[k].push_back(hs[s].data());
                    any = true;
                    ++own;
                }
            if (any) {
                union_x.push_back(xs[s].data());
                union_h.push_back(hs[s].data());
            }
        }
        for (std::size_t k = 0; k < tensor::kTileWeightRows; ++k) {
            wx_rows.push_back(wx[k].data());
            wh_rows.push_back(wh[k].data());
        }
        fwd.resize(tensor::kTileWeightRows * slots);
        rec.resize(tensor::kTileWeightRows * slots);
        density = union_x.empty()
                      ? 1.0
                      : static_cast<double>(own) /
                            static_cast<double>(tensor::kTileWeightRows *
                                                union_x.size());
    }
};

void
BM_MissTileUnion(benchmark::State &state)
{
    MissTileFixture f(state);
    const std::size_t dots = tensor::kTileWeightRows * f.union_x.size();
    for (auto _ : state) {
        tensor::dotLanesTile(f.wx_rows, f.union_x, f.wx[0].size(),
                             {f.fwd.data(), dots});
        tensor::dotLanesTile(f.wh_rows, f.union_h, f.wh[0].size(),
                             {f.rec.data(), dots});
        benchmark::ClobberMemory();
    }
    state.counters["density"] = f.density;
}

void
BM_MissTileRows(benchmark::State &state)
{
    MissTileFixture f(state);
    for (auto _ : state) {
        for (std::size_t k = 0; k < tensor::kTileWeightRows; ++k) {
            const std::size_t dots = f.own_x[k].size();
            tensor::dotLanesRows(f.wx[k], f.own_x[k], {f.fwd.data(), dots});
            tensor::dotLanesRows(f.wh[k], f.own_h[k], {f.rec.data(), dots});
        }
        benchmark::ClobberMemory();
    }
    state.counters["density"] = f.density;
}

void
missTileArgs(benchmark::internal::Benchmark *bench)
{
    // IMDB's gate (x 64, h 128) over its 256-slot chunk, and a
    // DeepSpeech2-width gate (800 + 800) over 64 slots.
    for (const auto &[slots, x, h] :
         {std::array<int, 3>{256, 64, 128}, std::array<int, 3>{64, 800, 800}})
        for (int miss = 5; miss <= 100; miss += 5)
            bench->Args({slots, x, h, miss});
}
BENCHMARK(BM_MissTileUnion)->Apply(missTileArgs);
BENCHMARK(BM_MissTileRows)->Apply(missTileArgs);

void
BM_InputBinarization(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto x = randomVector(n / 2, 7);
    const auto h = randomVector(n - n / 2, 8);
    tensor::BitVector bits(n);
    for (auto _ : state) {
        bits.assignConcat(x, h);
        benchmark::DoNotOptimize(bits);
    }
}
BENCHMARK(BM_InputBinarization)->Arg(640)->Arg(2048);

struct CellFixture
{
    nn::RnnConfig config;
    std::unique_ptr<nn::RnnNetwork> network;
    std::unique_ptr<nn::BinarizedNetwork> bnn;
    nn::Sequence inputs;

    explicit CellFixture(std::size_t hidden)
    {
        config.cellType = nn::CellType::Lstm;
        config.inputSize = hidden;
        config.hiddenSize = hidden;
        config.layers = 1;
        config.peepholes = true;
        network = std::make_unique<nn::RnnNetwork>(config);
        Rng rng(11);
        nn::initNetwork(*network, rng);
        bnn = std::make_unique<nn::BinarizedNetwork>(*network);
        inputs.assign(4, std::vector<float>(hidden));
        for (auto &frame : inputs)
            rng.fillNormal(frame, 0.0, 1.0);
    }
};

void
BM_LstmCellSequence(benchmark::State &state)
{
    CellFixture fixture(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            fixture.network->forwardBaseline(fixture.inputs));
    }
}
BENCHMARK(BM_LstmCellSequence)->Arg(128)->Arg(320);

void
BM_MemoizedSequence(benchmark::State &state)
{
    CellFixture fixture(static_cast<std::size_t>(state.range(0)));
    memo::MemoOptions options;
    options.theta = 0.3;
    memo::MemoEngine engine(*fixture.network, fixture.bnn.get(),
                            options);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            fixture.network->forward(fixture.inputs, engine));
    }
}
BENCHMARK(BM_MemoizedSequence)->Arg(128)->Arg(320);

void
BM_EditDistance(benchmark::State &state)
{
    Rng rng(13);
    metrics::TokenSeq a(200), b(200);
    for (auto &t : a)
        t = static_cast<std::int32_t>(rng.uniformInt(30));
    for (auto &t : b)
        t = static_cast<std::int32_t>(rng.uniformInt(30));
    for (auto _ : state)
        benchmark::DoNotOptimize(metrics::editDistance(a, b));
}
BENCHMARK(BM_EditDistance);

} // namespace
