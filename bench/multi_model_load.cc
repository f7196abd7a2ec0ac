/**
 * @file
 * Open-loop load test of the multi-model fleet host.
 *
 * Seeded from serving_load.cc, but asking the fleet question: with 2-3
 * resident zoo models sharing ONE slot pool under equal per-model
 * Poisson offered load, does the weighted-fair (deficit round robin)
 * admission keep per-model goodput balanced — and what does the
 * aggregate goodput/latency curve look like as offered load crosses
 * the shared pool's capacity?
 *
 * Each model gets its own open-loop client thread (arrivals drawn
 * independently of service progress), its own ragged request set, and
 * a per-model deadline calibrated to its own closed-batch service
 * cost, so "goodput" is comparable across models of very different
 * sizes. Fairness per load point is reported as the min/max ratio of
 * per-model deadline-met completions, which is 1.0 when every model's
 * requests all meet their deadline.
 *
 * Full mode additionally runs one overloaded point with 2:1:...
 * admission weights AND admission-time load shedding enabled, showing
 * (a) the weighted scheduler skews queueing toward the light-weight
 * models and (b) sheds are counted per model. The JSON artifact is
 * written only when --out <path> is given (it used to be rewritten
 * unconditionally as BENCH_PR4.json in the working directory — a
 * silent clobber of the checked-in artifact for anyone running the
 * bench from the repo root).
 *
 * --cost-aware repeats the equal-weight sweep with the PR 5 admission
 * policies on (EDF + expired/predictive shedding + cost-aware DRR
 * quanta, all calibrated from the saturation probe) and holds it to
 * the same fairness bar.
 *
 * Exits non-zero when any request goes unaccounted (completed + shed
 * must equal offered) or when equal-weight fairness at the lowest
 * offered load — in either mode — drops below 0.85 (the acceptance
 * bar: per-model goodput within 15% under equal offered load).
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/bench_common.hh"
#include "common/report.hh"
#include "serve/fleet_server.hh"

namespace
{

using namespace nlfm;

/** Ragged copies of the workload inputs: length varies 50%..100%. */
std::vector<nn::Sequence>
makeRaggedRequests(std::span<const nn::Sequence> inputs,
                   std::size_t count, Rng &rng)
{
    std::vector<nn::Sequence> requests;
    requests.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const nn::Sequence &base = inputs[i % inputs.size()];
        const std::size_t min_len =
            std::max<std::size_t>(1, base.size() / 2);
        const std::size_t len =
            min_len + rng.uniformInt(base.size() - min_len + 1);
        requests.emplace_back(base.begin(),
                              base.begin() + static_cast<long>(len));
    }
    return requests;
}

/** One resident model of the bench fleet. */
struct FleetModel
{
    std::string name;
    std::unique_ptr<workloads::Workload> workload;
    std::vector<nn::Sequence> requests;
    double meanLen = 0.0;
    /// Mean service seconds per ragged request under fleet saturation
    /// (the calibration probe run).
    double costSec = 0.0;
    /// costSec reduced to per-step milliseconds — the calibration the
    /// PR 5 admission policies consume (ModelSpec::calibratedStepCostMs).
    double stepCostMs = 0.0;
    double deadlineMs = 0.0;
};

struct PointResult
{
    double multiplier = 0.0;
    double offeredPerModel = 0.0; ///< arrivals/s per model
    serve::FleetStatsSnapshot stats;
    double fairness = 0.0; ///< min/max per-model goodput
};

/**
 * One open-loop fleet run: every model receives @p offered arrivals/s
 * from its own client thread until its request list is exhausted.
 */
serve::FleetStatsSnapshot
runFleetLoad(std::vector<FleetModel> &models,
             const std::vector<double> &weights,
             const serve::FleetOptions &options, double offered,
             std::uint64_t seed)
{
    serve::ModelRegistry registry;
    for (std::size_t m = 0; m < models.size(); ++m) {
        serve::ModelSpec spec;
        spec.name = models[m].name;
        spec.network = models[m].workload->network.get();
        spec.bnn = models[m].workload->bnn.get();
        spec.memo.predictor = memo::PredictorKind::Bnn;
        spec.memo.theta = 0.05;
        spec.weight = weights[m];
        spec.calibratedStepCostMs = models[m].stepCostMs;
        registry.add(spec);
    }
    serve::FleetServer fleet(registry, options);

    std::vector<std::vector<std::future<serve::Response>>> futures(
        models.size());
    std::vector<std::thread> clients;
    for (std::size_t m = 0; m < models.size(); ++m) {
        futures[m].reserve(models[m].requests.size());
        clients.emplace_back([&, m] {
            Rng rng(seed + m);
            auto next_arrival = serve::Clock::now();
            for (const auto &input : models[m].requests) {
                const double gap_s = -std::log(1.0 - rng.uniform()) /
                                     std::max(offered, 1e-9);
                next_arrival += std::chrono::duration_cast<
                    serve::Clock::duration>(
                    std::chrono::duration<double>(gap_s));
                std::this_thread::sleep_until(next_arrival);

                serve::Request request;
                request.input = input;
                request.deadlineMs = models[m].deadlineMs;
                futures[m].push_back(
                    fleet.enqueue(m, std::move(request)));
            }
        });
    }
    for (auto &client : clients)
        client.join();
    fleet.drain();
    // Shed futures carry exceptions; everything else must complete.
    for (auto &model_futures : futures)
        for (auto &future : model_futures) {
            try {
                serve::FleetServer::collect(future);
            } catch (const serve::ShedError &) {
            }
        }
    return fleet.fleetStats();
}

/**
 * Min/max ratio of per-model deadline-met completions. Offered load is
 * equal per model, so this is goodput fairness over the common run —
 * deliberately NOT the ratio of per-model goodput() rates, whose
 * per-model wall clocks end at each model's own last completion and
 * therefore vary with Poisson arrival luck at low load.
 */
double
fairnessOf(const serve::FleetStatsSnapshot &stats)
{
    double lo = 0.0;
    double hi = 0.0;
    for (std::size_t m = 0; m < stats.perModel.size(); ++m) {
        const double met =
            static_cast<double>(stats.perModel[m].deadlineMet);
        if (m == 0 || met < lo)
            lo = met;
        if (m == 0 || met > hi)
            hi = met;
    }
    return hi > 0.0 ? lo / hi : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchOptions options = bench::parseBenchArgs(
        argc, argv,
        "open-loop fleet load: 2-3 resident models sharing one slot "
        "pool; per-model goodput fairness and aggregate latency vs "
        "offered load under weighted-fair admission");

    const std::size_t steps =
        options.steps != 0 ? options.steps : (options.quick ? 6 : 14);
    const std::size_t slots = options.quick ? 4 : 9;
    // Sample sizes leave slack for one missed deadline under the 0.85
    // fairness exit bar: 7/8 = 0.875 (quick, the CI smoke) and
    // 14/15 = 0.933 (full) stay above it; 5/6 would not.
    const std::size_t requests_per_model = options.quick ? 8 : 15;

    // Default zoo mix (a "--networks all" selection is the CLI default,
    // not an explicit choice — and EESEN is bidirectional, unservable).
    std::vector<std::string> names =
        options.quick
            ? std::vector<std::string>{"IMDB", "DeepSpeech2"}
            : std::vector<std::string>{"IMDB", "DeepSpeech2", "MNMT"};
    if (options.networks.size() >= 2 &&
        options.networks.size() < workloads::table1Networks().size())
        names = options.networks;

    std::printf("multi_model_load: %zu-slot shared pool, %zu requests/"
                "model, <=%zu steps/sequence\n",
                slots, requests_per_model, steps);

    std::vector<FleetModel> models;
    Rng rng(2026);
    for (const std::string &name : names) {
        const workloads::NetworkSpec &spec = workloads::specByName(name);
        if (spec.rnn.bidirectional) {
            std::printf("multi_model_load: %s is bidirectional; the "
                        "step-major fleet needs causal stacks.\n",
                        name.c_str());
            return 1;
        }
        FleetModel model;
        model.name = name;
        model.workload = workloads::buildWorkload(
            spec, steps, std::max<std::size_t>(slots, 8));
        model.requests = makeRaggedRequests(
            model.workload->testInputs, requests_per_model, rng);
        for (const auto &request : model.requests)
            model.meanLen += static_cast<double>(request.size());
        model.meanLen /= static_cast<double>(model.requests.size());
        models.push_back(std::move(model));
    }

    serve::FleetOptions fleet_options;
    fleet_options.slots = slots;
    fleet_options.queueCapacity =
        std::max<std::size_t>(16, requests_per_model);
    const std::vector<double> equal_weights(models.size(), 1.0);

    // Capacity calibration by saturation probe: enqueue everything at
    // once and measure what the fleet actually completes per second.
    // (A closed-batch forwardBatch calibration, the PR 3 recipe,
    // overstates fleet capacity ~2x: the fleet's step-major tick walks
    // every resident model's full weight set per timestep, with each
    // model holding only a share of the pool, so its cache behavior is
    // nothing like a single-model layer-major batch.) Saturated
    // per-model service times also set the deadlines: 3x saturated
    // service + queue allowance, so a sub-capacity fleet meets them
    // comfortably and an overloaded one visibly does not.
    const serve::FleetStatsSnapshot saturation = runFleetLoad(
        models, equal_weights, fleet_options, /*offered=*/1e9,
        /*seed=*/3);
    const double per_model_capacity =
        saturation.aggregate.throughput() /
        static_cast<double>(models.size());
    for (std::size_t m = 0; m < models.size(); ++m) {
        models[m].costSec =
            saturation.perModel[m].meanServiceMs / 1000.0;
        models[m].stepCostMs =
            saturation.perModel[m].meanServiceMs / models[m].meanLen;
        models[m].deadlineMs =
            3.0 * saturation.perModel[m].meanServiceMs + 500.0;
        std::printf("  %-12s (%s): saturated service %.1f ms/seq -> "
                    "deadline %.0f ms\n",
                    models[m].name.c_str(),
                    models[m].workload->spec.rnn.describe().c_str(),
                    saturation.perModel[m].meanServiceMs,
                    models[m].deadlineMs);
    }
    std::printf("calibration: saturated fleet throughput %.2f seq/s "
                "-> ~%.2f seq/s per model (x%zu models)\n\n",
                saturation.aggregate.throughput(), per_model_capacity,
                models.size());

    const std::vector<double> load_multipliers =
        options.quick ? std::vector<double>{0.5, 1.2}
                      : std::vector<double>{0.5, 0.9, 1.4};

    TablePrinter table("fleet load sweep (equal weights)");
    table.setHeader({"offered/s/model", "model", "completed/s",
                     "goodput/s", "p50 ms", "p95 ms", "p99 ms",
                     "mean queue ms", "reuse"});

    std::vector<PointResult> points;
    std::uint64_t seed = 11;
    for (const double multiplier : load_multipliers) {
        const double offered = per_model_capacity * multiplier;
        PointResult point;
        point.multiplier = multiplier;
        point.offeredPerModel = offered;
        point.stats = runFleetLoad(models, equal_weights, fleet_options,
                                   offered, seed++);
        point.fairness = fairnessOf(point.stats);
        for (std::size_t m = 0; m < models.size(); ++m) {
            const serve::StatsSnapshot &s = point.stats.perModel[m];
            table.addRow({formatDouble(offered, 2), models[m].name,
                          formatDouble(s.throughput(), 2),
                          formatDouble(s.goodput(), 2),
                          formatDouble(s.p50LatencyMs, 1),
                          formatDouble(s.p95LatencyMs, 1),
                          formatDouble(s.p99LatencyMs, 1),
                          formatDouble(s.meanQueueMs, 1),
                          formatPercent(s.meanReuse)});
        }
        const serve::StatsSnapshot &all = point.stats.aggregate;
        table.addRow({formatDouble(offered, 2), "(all)",
                      formatDouble(all.throughput(), 2),
                      formatDouble(all.goodput(), 2),
                      formatDouble(all.p50LatencyMs, 1),
                      formatDouble(all.p95LatencyMs, 1),
                      formatDouble(all.p99LatencyMs, 1),
                      formatDouble(all.meanQueueMs, 1),
                      formatPercent(all.meanReuse)});
        points.push_back(std::move(point));
    }
    table.print("multi_model_load");
    for (const PointResult &point : points)
        std::printf("fairness at %.1fx offered load: %.3f "
                    "(min/max per-model deadline-met completions)\n",
                    point.multiplier, point.fairness);

    // Cost-aware policy mode (--cost-aware): the same equal-weight
    // sweep with the PR 5 admission policies on — EDF within each
    // model's queue, expired + predictive shedding scaled by the
    // saturation-probe calibration above, and DRR quanta charged by
    // calibrated service cost instead of 1 credit/request. The
    // fairness bar applies unchanged: deadline-aware scheduling must
    // not break weighted fairness.
    std::vector<PointResult> policy_points;
    bool policy_accounted = true;
    double policy_low_fairness = 1.0;
    if (options.costAware) {
        serve::FleetOptions policy_options = fleet_options;
        policy_options.queuePolicy = serve::QueuePolicy::Edf;
        policy_options.shedExpired = true;
        policy_options.shedPredicted = true;
        policy_options.costAwareAdmission = true;

        TablePrinter policy_table(
            "fleet load sweep (EDF + predictive shed + cost-aware "
            "DRR)");
        policy_table.setHeader({"offered/s/model", "model",
                                "completed/s", "goodput/s", "shed",
                                "p99 ms", "mean queue ms"});
        for (const double multiplier : load_multipliers) {
            const double offered = per_model_capacity * multiplier;
            PointResult point;
            point.multiplier = multiplier;
            point.offeredPerModel = offered;
            point.stats = runFleetLoad(models, equal_weights,
                                       policy_options, offered, seed++);
            point.fairness = fairnessOf(point.stats);
            for (std::size_t m = 0; m < models.size(); ++m) {
                const serve::StatsSnapshot &s = point.stats.perModel[m];
                policy_table.addRow(
                    {formatDouble(offered, 2), models[m].name,
                     formatDouble(s.throughput(), 2),
                     formatDouble(s.goodput(), 2),
                     std::to_string(s.shed),
                     formatDouble(s.p99LatencyMs, 1),
                     formatDouble(s.meanQueueMs, 1)});
            }
            if (point.stats.aggregate.completed +
                    point.stats.aggregate.shed !=
                requests_per_model * models.size())
                policy_accounted = false;
            policy_points.push_back(std::move(point));
        }
        policy_table.print("multi_model_policy");
        for (const PointResult &point : policy_points)
            std::printf("policy-mode fairness at %.1fx: %.3f "
                        "(min/max per-model deadline-met)\n",
                        point.multiplier, point.fairness);
        policy_low_fairness = policy_points.front().fairness;
    }

    // Weighted + shedding demonstration (full mode): overload the
    // fleet at 2:1:... weights with expired-deadline shedding on.
    // Weight buys ADMISSION share, not tick time, so the clean
    // prediction is only relative to a contended peer: the weight-2
    // model queues (and sheds) less than a weight-1 model whose queue
    // is equally backlogged. An uncontended weight-1 model can still
    // queue less than either (see BENCH_PR4.json: MNMT's heavier
    // requests drain its queue into slots that then hold them longer).
    serve::FleetStatsSnapshot weighted_stats;
    const bool run_weighted = !options.quick;
    if (run_weighted) {
        std::vector<double> weights(models.size(), 1.0);
        weights[0] = 2.0;
        serve::FleetOptions shed_options = fleet_options;
        shed_options.shedExpired = true;
        weighted_stats =
            runFleetLoad(models, weights, shed_options,
                         per_model_capacity * 1.6, seed++);
        std::printf("\n%s\n",
                    weighted_stats
                        .report("overload at weights 2:1:..., "
                                "shedExpired on",
                                "multi_model_weighted")
                        .c_str());
    }

    std::printf("\n%s\n",
                points.back()
                    .stats
                    .report("last equal-weight load point",
                            "multi_model_last")
                    .c_str());

    // Accounting: every offered request must be completed or shed.
    bool accounted = true;
    for (const PointResult &point : points) {
        const std::size_t offered_total =
            requests_per_model * models.size();
        if (point.stats.aggregate.completed +
                point.stats.aggregate.shed !=
            offered_total)
            accounted = false;
    }
    if (run_weighted &&
        weighted_stats.aggregate.completed +
                weighted_stats.aggregate.shed !=
            requests_per_model * models.size())
        accounted = false;

    const double low_load_fairness = points.front().fairness;
    std::printf("accounting %s; fairness at %.1fx = %.3f (bar 0.85)",
                accounted && policy_accounted ? "ok" : "LOST REQUESTS",
                points.front().multiplier, low_load_fairness);
    if (options.costAware)
        std::printf("; policy-mode fairness %.3f (same bar)",
                    policy_low_fairness);
    std::printf("\n");

    // Artifact gated on an explicit --out: running the bench must not
    // silently rewrite a checked-in BENCH_PR4.json in the cwd.
    if (!options.quick && !options.out.empty()) {
        std::FILE *json = std::fopen(options.out.c_str(), "w");
        if (json) {
            std::fprintf(json, "{\n  \"pr\": 4,\n");
            std::fprintf(json,
                         "  \"title\": \"Multi-model fleet serving: "
                         "shared slot pool with weighted-fair "
                         "admission\",\n");
            std::fprintf(json, "  \"bench\": \"bench_multi_model_load "
                               "(full mode)\",\n");
            std::fprintf(json, "  \"fleet\": {\n");
            std::fprintf(json,
                         "    \"slots\": %zu, \"requests_per_model\": "
                         "%zu, \"steps\": %zu, \"theta\": 0.05,\n",
                         slots, requests_per_model, steps);
            std::fprintf(json, "    \"models\": [");
            for (std::size_t m = 0; m < models.size(); ++m)
                std::fprintf(
                    json,
                    "%s{ \"name\": \"%s\", \"saturated_service_ms\": "
                    "%.1f, \"deadline_ms\": %.0f }",
                    m ? ", " : "", models[m].name.c_str(),
                    1000.0 * models[m].costSec, models[m].deadlineMs);
            std::fprintf(json, "]\n  },\n");
            std::fprintf(json, "  \"equal_weight_sweep\": [\n");
            for (std::size_t p = 0; p < points.size(); ++p) {
                const PointResult &point = points[p];
                std::fprintf(
                    json,
                    "    { \"multiplier\": %.1f, "
                    "\"offered_per_s_per_model\": %.2f, "
                    "\"fairness\": %.3f, \"aggregate_goodput_per_s\": "
                    "%.2f, \"aggregate_p99_ms\": %.1f, \"per_model\": [",
                    point.multiplier, point.offeredPerModel,
                    point.fairness, point.stats.aggregate.goodput(),
                    point.stats.aggregate.p99LatencyMs);
                for (std::size_t m = 0; m < models.size(); ++m) {
                    const serve::StatsSnapshot &s =
                        point.stats.perModel[m];
                    std::fprintf(
                        json,
                        "%s{ \"model\": \"%s\", \"goodput_per_s\": "
                        "%.2f, \"p50_ms\": %.1f, \"p99_ms\": %.1f, "
                        "\"mean_queue_ms\": %.1f, \"reuse\": %.3f }",
                        m ? ", " : "", models[m].name.c_str(),
                        s.goodput(), s.p50LatencyMs, s.p99LatencyMs,
                        s.meanQueueMs, s.meanReuse);
                }
                std::fprintf(json, "] }%s\n",
                             p + 1 < points.size() ? "," : "");
            }
            std::fprintf(json, "  ],\n");
            std::fprintf(json, "  \"weighted_overload\": {\n");
            std::fprintf(json,
                         "    \"note\": \"1.6x offered load, weights "
                         "2:1:..., shedExpired on\",\n");
            std::fprintf(json, "    \"per_model\": [");
            for (std::size_t m = 0; m < models.size(); ++m) {
                const serve::StatsSnapshot &s =
                    weighted_stats.perModel[m];
                std::fprintf(json,
                             "%s{ \"model\": \"%s\", \"weight\": %.0f, "
                             "\"completed\": %zu, \"shed\": %zu, "
                             "\"mean_queue_ms\": %.1f }",
                             m ? ", " : "", models[m].name.c_str(),
                             m == 0 ? 2.0 : 1.0, s.completed, s.shed,
                             s.meanQueueMs);
            }
            std::fprintf(json, "]\n  },\n");
            std::fprintf(
                json,
                "  \"acceptance\": { \"fairness_bar\": 0.85, "
                "\"fairness_at_lowest_load\": %.3f, \"accounted\": %s, "
                "\"identity\": \"fleet outputs bitwise identical to "
                "the serial MemoEngine (tests/fleet_test.cc)\" "
                "}\n}\n",
                low_load_fairness, accounted ? "true" : "false");
            std::fclose(json);
            std::printf("wrote %s\n", options.out.c_str());
        }
    }

    return accounted && policy_accounted && low_load_fairness >= 0.85 &&
                   policy_low_fairness >= 0.85
               ? 0
               : 1;
}
