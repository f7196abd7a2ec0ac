/**
 * @file
 * perfbench: the repository's benchmark binary.
 *
 *   perfbench --workload ds2-batch|imdb-batch|fleet-open --seed N
 *             --seconds S --trace 0|1 --model-dir DIR
 *
 * Runs one workload, checks its outputs, and prints one JSON record on
 * stdout: the run's pinned environment (compiler, -march, BNN ISA, CPU
 * and thread counts), the workload parameters, the output-check
 * counts, and the metrics — end-to-end ones with --trace 0, per-layer
 * ones with --trace 1. perfbench/run.py builds and drives it; see
 * perfbench/README.md for every metric.
 *
 * Exit status: 0 when every output check passed, 1 when any output
 * mismatched (the record is still printed), 2 on bad arguments.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hh"
#include "tensor/bitpack.hh"

namespace
{

using namespace perfbench;

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload ds2-batch|imdb-batch|"
                 "fleet-open --seed N --seconds S --trace 0|1 "
                 "--model-dir DIR\n");
}

bool
parseArgs(int argc, char **argv, RunOptions &options)
{
    bool have_workload = false, have_dir = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (key == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0')
                return false;
        } else if (key == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(options.seconds > 0.0) ||
                options.seconds > 600.0)
                return false;
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                return false;
            options.trace = value == "1";
        } else if (key == "--model-dir") {
            options.modelDir = value;
            have_dir = true;
        } else {
            return false;
        }
    }
    return have_workload && have_dir;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string
jsonParams(const std::vector<Param> &params)
{
    std::string out = "{";
    for (std::size_t i = 0; i < params.size(); ++i) {
        if (i > 0)
            out += ",";
        out += jsonString(params[i].key) + ":" + jsonString(params[i].value);
    }
    return out + "}";
}

std::string
jsonMetrics(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0)
            out += ",";
        out += jsonString(metrics[i].name) +
               ":{\"value\":" + jsonNumber(metrics[i].value) +
               ",\"unit\":" + jsonString(metrics[i].unit) + "}";
    }
    return out + "}";
}

void
printRecord(const RunOptions &options, const RunResult &result)
{
    using nlfm::tensor::bnnActiveIsa;
    using nlfm::tensor::bnnBestIsa;
    using nlfm::tensor::bnnIsaName;
    std::string out = "{";
    out += "\"workload\":" + jsonString(options.workload);
    out += ",\"seed\":" + std::to_string(options.seed);
    out += ",\"seconds\":" + jsonNumber(options.seconds);
    out += ",\"trace\":" + std::string(options.trace ? "1" : "0");
    out += ",\"correct\":" +
           std::string(result.mismatches == 0 ? "true" : "false");
    out += ",\"attempted\":" + std::to_string(result.attempted);
    out += ",\"failed\":" + std::to_string(result.failed);
    out += ",\"mismatches\":" + std::to_string(result.mismatches);
    out += ",\"env\":{";
    out += "\"compiler\":" + jsonString(std::string("gcc ") + __VERSION__);
    out += ",\"march\":" + jsonString(PERFBENCH_MARCH);
    out += ",\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE);
    out += ",\"bnn_isa\":" + jsonString(bnnIsaName(bnnActiveIsa()));
    out += ",\"bnn_best_isa\":" + jsonString(bnnIsaName(bnnBestIsa()));
    out += ",\"nproc\":" + std::to_string(cpuCount());
    out += ",\"threads\":" + std::to_string(result.threads);
    out += "},\"params\":" + jsonParams(result.params);
    out += ",\"counts\":" + jsonParams(result.counts);
    out += ",\"metrics\":" + jsonMetrics(result.metrics);
    out += ",\"unbounded_metrics\":" + jsonMetrics(result.unbounded);
    out += "}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions options;
    if (!parseArgs(argc, argv, options)) {
        usage();
        return 2;
    }
    RunResult result;
    if (options.workload == "ds2-batch" || options.workload == "imdb-batch") {
        result = runBatchWorkload(options);
    } else if (options.workload == "fleet-open") {
        result = runFleetWorkload(options);
    } else {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     options.workload.c_str());
        usage();
        return 2;
    }
    printRecord(options, result);
    if (result.mismatches != 0) {
        note("FAILED: " + std::to_string(result.mismatches) +
             " output mismatch(es)");
        return 1;
    }
    return 0;
}
