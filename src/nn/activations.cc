#include "nn/activations.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace nlfm::nn
{

void
sigmoidInPlace(std::span<float> values)
{
    lanes::forEachStep(values.size(), [&](std::size_t n, auto io) {
        io.store(&values[n], lanes::sigmoidLanes(io.load(&values[n])));
    });
}

void
tanhInPlace(std::span<float> values)
{
    lanes::forEachStep(values.size(), [&](std::size_t n, auto io) {
        io.store(&values[n], lanes::tanhLanes(io.load(&values[n])));
    });
}

void
softmax(std::span<const float> values, std::span<float> out)
{
    nlfm_assert(values.size() == out.size() && !values.empty(),
                "softmax: bad sizes");
    const float peak = *std::max_element(values.begin(), values.end());
    double total = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        out[i] = std::exp(values[i] - peak);
        total += out[i];
    }
    const auto inv = static_cast<float>(1.0 / total);
    for (auto &value : out)
        value *= inv;
}

} // namespace nlfm::nn
