/**
 * @file
 * Open-loop load test of the multi-model fleet host.
 *
 * With 2-3 resident zoo models sharing ONE slot pool under equal
 * per-model Poisson offered load, does the weighted-fair (deficit round
 * robin) admission keep per-model goodput balanced — and what does the
 * aggregate goodput/latency curve look like as offered load crosses the
 * shared pool's capacity?
 *
 * Each model gets its own open-loop client thread, its own ragged
 * request set, and a per-model deadline calibrated to its own saturated
 * service time (common/load_driver.hh), so "goodput" is comparable
 * across models of very different sizes. Fairness per load point is the
 * min/max ratio of per-model deadline-met completions, which is 1.0
 * when every model's requests all meet their deadline.
 *
 * Full mode additionally runs one overloaded point with 2:1:...
 * admission weights AND expired-deadline shedding on, showing that the
 * weighted scheduler skews queueing toward the light-weight models and
 * that sheds are counted per model.
 *
 * --cost-aware repeats the equal-weight sweep with the deadline-aware
 * admission policies on (EDF + expired/predictive shedding + cost-aware
 * DRR quanta, all calibrated from the saturation probe) and holds it to
 * the same fairness bar.
 *
 * Exits non-zero when any request goes unaccounted (completed + shed
 * must equal offered) or when equal-weight fairness at the lowest
 * offered load — in either mode — drops below 0.85 (per-model goodput
 * within 15% under equal offered load).
 */

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/load_driver.hh"
#include "common/report.hh"

using namespace nlfm;

namespace
{

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
    CliParser cli("open-loop fleet load: 2-3 resident models sharing one "
                  "slot pool; per-model goodput fairness and aggregate "
                  "latency vs offered load under weighted-fair admission");
    cli.addBool("cost-aware", false,
                "also run the fleet sweep with EDF + predictive shedding "
                "+ cost-aware DRR admission");
    const bench::ServingOptions options = bench::parseServingArgs(
        cli, argc, argv,
        "comma list of 2+ causal zoo networks (default IMDB,DeepSpeech2 "
        "with --quick, else IMDB,DeepSpeech2,MNMT)",
        2, std::numeric_limits<std::size_t>::max());
    const bool cost_aware = cli.getBool("cost-aware");

    const std::vector<std::string> names =
        !options.networks.empty() ? options.networks
        : options.quick
            ? std::vector<std::string>{"IMDB", "DeepSpeech2"}
            : std::vector<std::string>{"IMDB", "DeepSpeech2", "MNMT"};
    const std::size_t steps =
        options.steps != 0 ? options.steps : (options.quick ? 6 : 14);
    const std::size_t slots = options.quick ? 4 : 9;
    // Sample sizes leave slack for one missed deadline under the 0.85
    // fairness exit bar: 7/8 = 0.875 (quick, the CI smoke) and
    // 14/15 = 0.933 (full) stay above it; 5/6 would not.
    const std::size_t requests_per_model = options.quick ? 8 : 15;
    std::printf("multi_model_load: %zu-slot shared pool, %zu requests/"
                "model, <=%zu steps/sequence\n",
                slots, requests_per_model, steps);

    std::vector<bench::LoadModel> models =
        bench::makeLoadModels(names, steps, std::max<std::size_t>(slots, 8),
                              requests_per_model);
    serve::FleetOptions fleet_options;
    fleet_options.slots = slots;
    fleet_options.queueCapacity =
        std::max<std::size_t>(16, requests_per_model);

    // Saturated per-model service times set the deadlines: 3x saturated
    // service + queue allowance, so a sub-capacity fleet meets them
    // comfortably and an overloaded one visibly does not.
    const double per_model_capacity =
        bench::calibrate(models, fleet_options) /
        static_cast<double>(models.size());
    std::vector<std::vector<serve::Request>> requests;
    const double default_theta[] = {-1.0};
    for (const bench::LoadModel &model : models) {
        const double deadline[] = {3.0 * model.serviceMs + 500.0};
        requests.push_back(
            bench::makeRequests(model.inputs, default_theta, deadline));
        std::printf("  %-12s (%s): saturated service %.1f ms/seq -> "
                    "deadline %.0f ms\n",
                    model.spec.name.c_str(),
                    model.workload->spec.rnn.describe().c_str(),
                    model.serviceMs, deadline[0]);
    }
    std::printf("calibration: ~%.2f seq/s per model under saturation "
                "(x%zu models)\n\n",
                per_model_capacity, models.size());

    const std::vector<double> load_multipliers =
        options.quick ? std::vector<double>{0.5, 1.2}
                      : std::vector<double>{0.5, 0.9, 1.4};
    bool all_accounted = true;
    std::uint64_t seed = 11;
    const auto run = [&](const serve::ModelRegistry &registry,
                         const serve::FleetOptions &fleet,
                         double offered) {
        serve::FleetServer server(registry, fleet);
        bench::Replay result =
            bench::replay(server, requests, offered, seed++);
        all_accounted = all_accounted && bench::accounted(result);
        return result;
    };
    const serve::ModelRegistry registry = bench::registryOf(models);

    TablePrinter table("fleet load sweep (equal weights)");
    table.setHeader({"offered/s/model", "model", "completed/s",
                     "goodput/s", "p50 ms", "p95 ms", "p99 ms",
                     "mean queue ms", "reuse"});
    std::vector<double> fairness;
    serve::FleetStatsSnapshot last;
    for (const double multiplier : load_multipliers) {
        const double offered = per_model_capacity * multiplier;
        last = run(registry, fleet_options, offered).stats;
        fairness.push_back(fairnessOf(last));
        for (std::size_t m = 0; m <= models.size(); ++m) {
            const bool all = m == models.size();
            const serve::StatsSnapshot &s =
                all ? last.aggregate : last.perModel[m];
            table.addRow({formatDouble(offered, 2),
                          all ? "(all)" : models[m].spec.name,
                          formatDouble(s.throughput(), 2),
                          formatDouble(s.goodput(), 2),
                          formatDouble(s.p50LatencyMs, 1),
                          formatDouble(s.p95LatencyMs, 1),
                          formatDouble(s.p99LatencyMs, 1),
                          formatDouble(s.meanQueueMs, 1),
                          formatPercent(s.meanReuse)});
        }
    }
    table.print("multi_model_load");
    for (std::size_t p = 0; p < load_multipliers.size(); ++p)
        std::printf("fairness at %.1fx offered load: %.3f (min/max "
                    "per-model deadline-met completions)\n",
                    load_multipliers[p], fairness[p]);

    // Cost-aware policy mode: the same equal-weight sweep with EDF
    // within each model's queue, expired + predictive shedding scaled by
    // the saturation-probe calibration, and DRR quanta charged by
    // calibrated service cost instead of 1 credit/request. The fairness
    // bar applies unchanged: deadline-aware scheduling must not break
    // weighted fairness.
    double policy_low_fairness = 1.0;
    if (cost_aware) {
        serve::FleetOptions policy_options = fleet_options;
        policy_options.queuePolicy = serve::QueuePolicy::Edf;
        policy_options.shedExpired = true;
        policy_options.shedPredicted = true;
        policy_options.costAwareAdmission = true;

        TablePrinter policy_table(
            "fleet load sweep (EDF + predictive shed + cost-aware DRR)");
        policy_table.setHeader({"offered/s/model", "model", "completed/s",
                                "goodput/s", "shed", "p99 ms",
                                "mean queue ms"});
        std::vector<double> policy_fairness;
        for (const double multiplier : load_multipliers) {
            const double offered = per_model_capacity * multiplier;
            const serve::FleetStatsSnapshot stats =
                run(registry, policy_options, offered).stats;
            policy_fairness.push_back(fairnessOf(stats));
            for (std::size_t m = 0; m < models.size(); ++m) {
                const serve::StatsSnapshot &s = stats.perModel[m];
                policy_table.addRow({formatDouble(offered, 2),
                                     models[m].spec.name,
                                     formatDouble(s.throughput(), 2),
                                     formatDouble(s.goodput(), 2),
                                     std::to_string(s.shed),
                                     formatDouble(s.p99LatencyMs, 1),
                                     formatDouble(s.meanQueueMs, 1)});
            }
        }
        policy_table.print("multi_model_policy");
        for (std::size_t p = 0; p < load_multipliers.size(); ++p)
            std::printf("policy-mode fairness at %.1fx: %.3f (min/max "
                        "per-model deadline-met)\n",
                        load_multipliers[p], policy_fairness[p]);
        policy_low_fairness = policy_fairness.front();
    }

    // Weighted + shedding demonstration (full mode): overload the fleet
    // at 2:1:... weights with expired-deadline shedding on. Weight buys
    // ADMISSION share, not tick time, so the clean prediction is only
    // relative to a contended peer: the weight-2 model queues (and
    // sheds) less than a weight-1 model whose queue is equally
    // backlogged. An uncontended weight-1 model can still queue less
    // than either (MNMT's heavier requests drain its queue into slots
    // that then hold them longer).
    if (!options.quick) {
        models.front().spec.weight = 2.0;
        serve::FleetOptions shed_options = fleet_options;
        shed_options.shedExpired = true;
        const serve::FleetStatsSnapshot stats =
            run(bench::registryOf(models), shed_options,
                per_model_capacity * 1.6)
                .stats;
        std::printf("\n%s\n",
                    stats
                        .report("overload at weights 2:1:..., "
                                "shedExpired on",
                                "multi_model_weighted")
                        .c_str());
    }

    std::printf("\n%s\n",
                last.report("last equal-weight load point",
                            "multi_model_last")
                    .c_str());

    const double low_load_fairness = fairness.front();
    std::printf("accounting %s; fairness at %.1fx = %.3f (bar 0.85)",
                all_accounted ? "ok" : "LOST REQUESTS",
                load_multipliers.front(), low_load_fairness);
    if (cost_aware)
        std::printf("; policy-mode fairness %.3f (same bar)",
                    policy_low_fairness);
    std::printf("\n");
    return all_accounted && low_load_fairness >= 0.85 &&
                   policy_low_fairness >= 0.85
               ? 0
               : 1;
}
