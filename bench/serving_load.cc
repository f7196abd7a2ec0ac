/**
 * @file
 * Open-loop load sweep of the continuous-batching server.
 *
 * Under Poisson arrivals at a given offered load, what latency
 * distribution (p50/p95/p99) and goodput (deadline-met completions/s)
 * does a one-model slot-pool fleet sustain, and how does the reuse
 * threshold theta move the curve? Sequences have ragged lengths and
 * arrive while the panel is mid-flight, so every run exercises
 * mid-flight admission into recycled slots.
 *
 * Offered load is calibrated by the saturation probe
 * (common/load_driver.hh), so "1.0x" means arrivals at the rate the
 * saturated fleet completes; above that the bounded queue fills and
 * latency is dominated by queueing (goodput saturates, p99 explodes).
 *
 * --trace-out runs one extra load point with telemetry (metrics +
 * driver tracer) on, writes its Chrome trace-event JSON and prints the
 * metrics exposition. Exits non-zero when any request does not
 * complete or the trace cannot be written.
 */

#include <cstdio>
#include <iterator>

#include "common/load_driver.hh"
#include "common/logging.hh"
#include "common/report.hh"

using namespace nlfm;

int
main(int argc, char **argv)
{
    CliParser cli("open-loop serving load: latency percentiles and "
                  "goodput vs offered load under continuous batching, at "
                  "two theta mixes");
    cli.addString("trace-out", "",
                  "also run one telemetry-enabled load point and write "
                  "its Chrome trace-event JSON here (load in Perfetto), "
                  "printing the metrics exposition alongside");
    const bench::ServingOptions options = bench::parseServingArgs(
        cli, argc, argv, "one causal zoo network (default DeepSpeech2)",
        1, 1);
    const std::string trace_out = cli.getString("trace-out");

    const bench::OneModelStudy study =
        bench::setupOneModelStudy(options, "serving_load");
    const bench::LoadModel &model = study.models.front();
    const serve::ModelRegistry registry = bench::registryOf(study.models);
    // Twice the saturated service: a request's own service plus as
    // much again of queueing, met below capacity and missed once the
    // backlog outgrows the pool.
    const double deadline[] = {2.0 * model.serviceMs};

    // Two theta mixes (the >= 2 theta settings) x offered-load sweep;
    // alternating thetas make mixed panels.
    const double mixes[][2] = {{0.01, 0.05}, {0.05, 0.20}};
    const std::vector<double> load_multipliers =
        options.quick ? std::vector<double>{0.5, 1.2}
                      : std::vector<double>{0.4, 0.8, 1.4};

    TablePrinter table("serving load sweep (" + model.spec.name + ")");
    table.setHeader({"theta mix", "offered/s", "completed/s", "goodput/s",
                     "p50 ms", "p95 ms", "p99 ms", "mean queue ms",
                     "reuse"});
    bool all_completed = true;
    std::size_t completed = 0, offered_total = 0;
    serve::StatsSnapshot last;
    std::uint64_t seed = 7;
    for (const auto &mix : mixes) {
        const std::vector<std::vector<serve::Request>> requests = {
            bench::makeRequests(model.inputs, mix, deadline)};
        for (const double multiplier : load_multipliers) {
            const double offered = study.capacity * multiplier;
            serve::FleetServer fleet(registry, study.fleet);
            const bench::Replay run =
                bench::replay(fleet, requests, offered, seed++);
            all_completed = all_completed && bench::accounted(run) &&
                            run.completed == run.offered;
            completed += run.completed;
            offered_total += run.offered;

            last = run.stats.aggregate;
            table.addRow({formatDouble(mix[0], 2) + "/" +
                              formatDouble(mix[1], 2),
                          formatDouble(offered, 2),
                          formatDouble(last.throughput(), 2),
                          formatDouble(last.goodput(), 2),
                          formatDouble(last.p50LatencyMs, 1),
                          formatDouble(last.p95LatencyMs, 1),
                          formatDouble(last.p99LatencyMs, 1),
                          formatDouble(last.meanQueueMs, 1),
                          formatPercent(last.meanReuse)});
        }
    }
    table.print("serving_load");
    const auto &last_mix = mixes[std::size(mixes) - 1];
    std::printf("\n%s\n",
                last.report("last load point (theta mix " +
                                formatDouble(last_mix[0], 2) + "/" +
                                formatDouble(last_mix[1], 2) + ")",
                            "serving_load_last")
                    .c_str());

    // Telemetry pass: the heaviest load point again with the metrics
    // registry and driver tracer on. The sweep above constructs no
    // Telemetry object at all. The trace exports after stop() (the
    // tracer's single-writer contract).
    if (!trace_out.empty()) {
        serve::FleetOptions traced = study.fleet;
        traced.telemetry.metrics = true;
        traced.telemetry.trace = true;
        const double offered = study.capacity * load_multipliers.back();
        std::printf("\ntelemetry pass: offered %.2f/s, trace -> %s\n",
                    offered, trace_out.c_str());
        const std::vector<std::vector<serve::Request>> requests = {
            bench::makeRequests(model.inputs, mixes[0], deadline)};
        serve::FleetServer fleet(registry, traced);
        const bench::Replay run =
            bench::replay(fleet, requests, offered, seed++);
        all_completed = all_completed && bench::accounted(run) &&
                        run.completed == run.offered;
        fleet.stop();
        const serve::Telemetry *telemetry = fleet.telemetry();
        nlfm_assert(telemetry != nullptr && telemetry->tracer(),
                    "telemetry pass constructed without telemetry");
        std::FILE *trace_file = std::fopen(trace_out.c_str(), "w");
        if (trace_file == nullptr) {
            std::fprintf(stderr, "could not open %s for writing\n",
                         trace_out.c_str());
            return 1;
        }
        const std::string trace_json = telemetry->traceJson();
        const bool written = std::fwrite(trace_json.data(), 1,
                                         trace_json.size(), trace_file) ==
                             trace_json.size();
        if (std::fclose(trace_file) != 0 || !written) {
            std::fprintf(stderr, "could not write %s\n", trace_out.c_str());
            return 1;
        }
        std::printf("wrote %s (%llu spans recorded, %llu dropped)\n",
                    trace_out.c_str(),
                    static_cast<unsigned long long>(
                        telemetry->tracer()->recorded()),
                    static_cast<unsigned long long>(
                        telemetry->tracer()->dropped()));
        std::printf("\nmetrics exposition (traced load point):\n%s\n",
                    telemetry->registry().exposition().c_str());
    }

    std::printf("completed %zu/%zu requests across %zu load points%s\n",
                completed, offered_total,
                std::size(mixes) * load_multipliers.size(),
                all_completed ? "" : "; LOST REQUESTS");
    return all_completed ? 0 : 1;
}
