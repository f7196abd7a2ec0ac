/**
 * @file
 * tensor.* metrics: micro-timings of the three gate kernels, called
 * from outside the library on one gate of a workload's real shapes
 * (neurons x [x ; h] weights against a forwardBatch chunk of rows).
 *
 * Bytes are computed from tensor sizes (weights + inputs + outputs,
 * each counted once per call), not measured: on this CPU-only harness
 * there is no counter for bytes actually moved.
 */

#include "common.hh"
#include "layer_metrics.hh"
#include "tensor/bitpack.hh"
#include "tensor/matrix.hh"
#include "tensor/vector_ops.hh"

namespace perfbench
{

namespace
{

using namespace nlfm;

/** Median ns per call of @p call, over batches run for @p seconds. */
template <typename Call>
double
nsPerCall(double seconds, Call &&call)
{
    call(); // warm-up
    // Batch enough calls that one clock read pair is negligible.
    std::size_t per_batch = 1;
    for (;;) {
        const auto start = Clock::now();
        for (std::size_t i = 0; i < per_batch; ++i)
            call();
        if (secondsSince(start) > 2e-3 || per_batch >= (1u << 20))
            break;
        per_batch *= 2;
    }
    std::vector<double> samples;
    const auto begin = Clock::now();
    while (samples.size() < 5 || secondsSince(begin) < seconds) {
        const auto start = Clock::now();
        for (std::size_t i = 0; i < per_batch; ++i)
            call();
        samples.push_back(secondsSince(start) * 1e9 /
                          static_cast<double>(per_batch));
    }
    return median(samples);
}

void
fillNormal(tensor::Matrix &m, Rng &rng)
{
    for (float &v : m.data())
        v = static_cast<float>(rng.normal());
}

} // namespace

void
measureKernels(const KernelShape &shape, std::uint64_t seed, double seconds,
               LayerMetrics &out)
{
    Rng rng(seed * 0x2545f4914f6cdd1dull + 0x6b);
    const std::size_t n = shape.neurons, b = shape.batch;
    const std::size_t width = shape.xSize + shape.hSize;
    const double share = seconds / 3.0;

    tensor::Matrix wx(n, shape.xSize), wh(n, shape.hSize);
    tensor::Matrix x(b, shape.xSize), h(b, shape.hSize), panel(b, n);
    fillNormal(wx, rng);
    fillNormal(wh, rng);
    fillNormal(x, rng);
    fillNormal(h, rng);

    // dotLanesRows: the commit path's miss-FMA kernel, every row a miss.
    {
        std::vector<const float *> xs(b), hs(b);
        for (std::size_t r = 0; r < b; ++r) {
            xs[r] = x.row(r).data();
            hs[r] = h.row(r).data();
        }
        std::vector<float> acc(b);
        const double ns = nsPerCall(share, [&] {
            for (std::size_t r = 0; r < n; ++r) {
                tensor::dotLanesRows(wx.row(r), xs, acc);
                tensor::dotLanesRows(wh.row(r), hs, acc);
            }
        });
        const double bytes = 4.0 * static_cast<double>(n * width + b * width);
        out.set("tensor.dot_lanes_rows.ns", ns);
        out.set("tensor.dot_lanes_rows.gbps", bytes / ns);
    }

    // bnnDotPanel: the probe's XNOR/popcount panel over sign([wx | wh]).
    {
        tensor::BitMatrix signs(n, width);
        std::vector<float> row(width);
        for (std::size_t r = 0; r < n; ++r) {
            std::copy(wx.row(r).begin(), wx.row(r).end(), row.begin());
            std::copy(wh.row(r).begin(), wh.row(r).end(),
                      row.begin() + static_cast<long>(shape.xSize));
            signs.setRow(r, row);
        }
        std::vector<tensor::BitVector> inputs(b, tensor::BitVector(width));
        std::vector<const std::uint64_t *> words(b);
        for (std::size_t r = 0; r < b; ++r) {
            inputs[r].assignConcat(x.row(r), h.row(r));
            words[r] = inputs[r].raw().data();
        }
        std::vector<std::int32_t> dots(n * b);
        const double ns = nsPerCall(
            share, [&] { tensor::bnnDotPanel(signs, 0, n, words, dots); });
        const double bytes =
            8.0 * static_cast<double>((n + b) * signs.wordStride()) +
            4.0 * static_cast<double>(n * b);
        out.set("tensor.bnn_dot_panel.ns", ns);
        out.set("tensor.bnn_dot_panel.gbps", bytes / ns);
    }

    // matvecPanel: the exact path's gate product, wx.x then wh.h.
    {
        std::vector<std::size_t> rows(b);
        for (std::size_t r = 0; r < b; ++r)
            rows[r] = r;
        const double ns = nsPerCall(share, [&] {
            wx.matvecPanel(x, rows, panel, false);
            wh.matvecPanel(h, rows, panel, true);
        });
        out.set("tensor.matvec_panel.gflops",
                2.0 * static_cast<double>(b * n * width) / ns);
    }
}

} // namespace perfbench
