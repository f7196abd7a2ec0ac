/**
 * @file
 * Admission-policy sweep: FIFO against the deadline-aware policies (EDF
 * queue order + expired and predictive shedding) on a tight/loose
 * deadline mix, at and beyond the queueing knee of a one-model fleet.
 *
 * Both policies replay the same seed-paired Poisson arrivals, so the
 * goodput difference is the policy, not arrival luck. Offered load and
 * the predictive shedder's per-step cost both come from the saturation
 * probe (common/load_driver.hh). Exits non-zero when any request is
 * unaccounted (completed + shed must equal offered).
 */

#include <array>
#include <cstdio>

#include "common/load_driver.hh"
#include "common/report.hh"

using namespace nlfm;

int
main(int argc, char **argv)
{
    CliParser cli("admission policies past the queueing knee: FIFO vs "
                  "EDF + predictive shedding on a tight/loose deadline "
                  "mix, seed-paired arrivals");
    const bench::ServingOptions options = bench::parseServingArgs(
        cli, argc, argv, "one causal zoo network (default DeepSpeech2)",
        1, 1);

    const bench::OneModelStudy study =
        bench::setupOneModelStudy(options, "admission_sweep");
    const bench::LoadModel &model = study.models.front();
    const serve::ModelRegistry registry = bench::registryOf(study.models);

    // Tight deadlines miss as soon as queueing sets in; loose ones only
    // at deep backlogs. FIFO cannot tell them apart; EDF serves tight
    // first and predictive shedding stops burning slots on the provably
    // lost. Both bounds are multiples of the saturated in-slot service,
    // the same probe the shedder's per-step cost comes from. The tight
    // bound covers the longest ragged request's own service (lengths
    // span 50-100% of the base, so at most ~1.33x the mean): it is
    // meetable when prioritized, and no request is a predicted miss
    // into an idle pool.
    const double theta[] = {0.05};
    const double deadline_mix[] = {1.5 * model.serviceMs,
                                   5.0 * model.serviceMs};
    const std::vector<std::vector<serve::Request>> requests = {
        bench::makeRequests(model.inputs, theta, deadline_mix)};
    std::printf("deadline mix %.0f/%.0f ms, step cost %.3f ms\n",
                deadline_mix[0], deadline_mix[1],
                model.spec.calibratedStepCostMs);

    serve::FleetOptions edf = study.fleet;
    edf.queuePolicy = serve::QueuePolicy::Edf;
    edf.shedExpired = true;
    edf.shedPredicted = true;

    TablePrinter table("FIFO vs EDF+predictive (" + model.spec.name + ")");
    table.setHeader({"policy", "offered/s", "completed/s", "goodput/s",
                     "met", "shed", "shed pred", "p99 ms"});
    const std::vector<double> multipliers =
        options.quick ? std::vector<double>{1.3}
                      : std::vector<double>{1.2, 2.0, 3.0};
    bool all_accounted = true;
    std::vector<std::array<double, 2>> goodputs; // {fifo, edf} per point
    std::uint64_t seed = 11;
    for (const double multiplier : multipliers) {
        const double offered = study.capacity * multiplier;
        std::array<double, 2> &goodput = goodputs.emplace_back();
        for (int arm = 0; arm < 2; ++arm) {
            serve::FleetServer fleet(registry, arm == 0 ? study.fleet : edf);
            const bench::Replay run =
                bench::replay(fleet, requests, offered, seed);
            all_accounted = all_accounted && bench::accounted(run);
            const serve::StatsSnapshot &s = run.stats.aggregate;
            goodput[arm] = s.goodput();
            table.addRow({arm == 0 ? "fifo" : "edf+shed",
                          formatDouble(offered, 2),
                          formatDouble(s.throughput(), 2),
                          formatDouble(s.goodput(), 2),
                          std::to_string(s.deadlineMet),
                          std::to_string(s.shed),
                          std::to_string(s.shedPredicted),
                          formatDouble(s.p99LatencyMs, 1)});
        }
        ++seed;
    }
    table.print("admission_sweep");
    for (std::size_t p = 0; p < multipliers.size(); ++p) {
        const auto [fifo, edf_goodput] = goodputs[p];
        std::printf("goodput at %.1fx: fifo %.2f/s vs edf+predictive "
                    "%.2f/s (%+.0f%%)\n",
                    multipliers[p], fifo, edf_goodput,
                    fifo > 0.0 ? 100.0 * (edf_goodput / fifo - 1.0) : 0.0);
    }
    std::printf("accounting %s\n", all_accounted ? "ok" : "LOST REQUESTS");
    return all_accounted ? 0 : 1;
}
