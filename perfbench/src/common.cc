#include "common.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

namespace perfbench
{

namespace
{
constexpr std::size_t kTokenVocab = 64; // the zoo's token vocabulary
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
msSince(Clock::time_point start)
{
    return secondsSince(start) * 1e3;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        std::ceil(q / 100.0 * static_cast<double>(values.size()));
    const std::size_t index = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(values.size())));
    return values[index - 1];
}

bool
setupDone(const std::vector<double> &setup_seconds)
{
    double total = 0.0;
    for (const double s : setup_seconds)
        total += s;
    return setup_seconds.size() >= 200 ||
           (setup_seconds.size() >= 5 && total >= 0.3);
}

double
peakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

std::size_t
cpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<std::size_t>(n);
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

bool
sameBits(const nlfm::nn::Sequence &a, const nlfm::nn::Sequence &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t t = 0; t < a.size(); ++t) {
        if (a[t].size() != b[t].size())
            return false;
        if (!a[t].empty() &&
            std::memcmp(a[t].data(), b[t].data(),
                        a[t].size() * sizeof(float)) != 0)
            return false;
    }
    return true;
}

InputMaker::InputMaker(const nlfm::workloads::NetworkSpec &spec)
    : spec_(spec)
{
    if (spec.task != nlfm::workloads::TaskKind::SpeechWer) {
        // Same table the zoo builds for this spec (model_zoo.cc).
        nlfm::Rng embed_rng(spec.seed * 7919 + 17);
        embedder_ = std::make_unique<nlfm::workloads::TokenEmbedder>(
            kTokenVocab, spec.rnn.inputSize, embed_rng,
            spec.embedMeanScale);
    }
}

InputMaker::~InputMaker() = default;

nlfm::nn::Sequence
InputMaker::make(std::size_t steps, nlfm::Rng &rng) const
{
    if (!embedder_) {
        nlfm::workloads::SpeechGenOptions options;
        options.dim = spec_.rnn.inputSize;
        options.correlation = spec_.inputSmoothness;
        return nlfm::workloads::generateSpeechFrames(steps, options, rng);
    }
    const auto tokens = nlfm::workloads::generateMarkovTokens(
        steps, kTokenVocab, spec_.inputSmoothness, rng);
    return embedder_->embedSequence(tokens);
}

void
note(const std::string &line)
{
    std::fprintf(stderr, "[perfbench] %s\n", line.c_str());
}

} // namespace perfbench
