/**
 * @file
 * Theta-autopilot load ramp: a fixed operating theta against the
 * closed-loop ThetaController on seed-paired arrivals.
 *
 * The canonical offline tune sweep (memo::sweepThresholds on the tune
 * split, the same §3.2.1 calibration every figure bench uses) gives the
 * theta/reuse/loss curve. The fixed arm serves at the theta that sweep
 * tunes for a conservative 1% loss target; the autopilot arm may raise
 * the effective floor inside a +5% accuracy budget. Offered load ramps
 * past the saturation-probe capacity and both arms replay the same
 * arrivals. Reports goodput, shed counts, and DELIVERED accuracy
 * (served-vs-exact decodes of the completed requests, scored with the
 * workload's canonical loss metric) per arm. Exits non-zero when any
 * request is unaccounted (completed + shed must equal offered).
 */

#include <algorithm>
#include <cstdio>

#include "common/bench_common.hh"
#include "common/load_driver.hh"
#include "common/report.hh"

using namespace nlfm;

namespace
{

/** One arm of one ramp point: stats plus quality accounting. */
struct RampResult
{
    serve::StatsSnapshot stats;
    /// Canonical task loss (corpus WER / 100-BLEU / flip rate) of the
    /// served decodes vs the exact-baseline decodes, over COMPLETED
    /// requests only (shed requests deliver nothing, so they cannot
    /// dilute it).
    double deliveredLossPct = 0.0;
    double meanServedTheta = 0.0;
    double maxFloor = 0.0;
    bool accounted = true;
};

/** Replay @p requests through a fresh fleet and score what it served. */
RampResult
runArm(const serve::ModelRegistry &registry,
       const serve::FleetOptions &options,
       const workloads::WorkloadEvaluator &evaluator,
       std::span<const std::vector<serve::Request>> requests,
       std::span<const metrics::TokenSeq> exact_decodes, double offered,
       std::uint64_t seed)
{
    serve::FleetServer fleet(registry, options);
    const bench::Replay run = bench::replay(fleet, requests, offered, seed);

    RampResult result;
    result.stats = run.stats.aggregate;
    result.maxFloor = fleet.maxThetaFloorSeen(0);
    result.accounted = bench::accounted(run);
    std::vector<metrics::TokenSeq> served, exact;
    double theta_sum = 0.0;
    for (std::size_t i = 0; i < run.responses[0].size(); ++i) {
        const auto &response = run.responses[0][i];
        if (!response)
            continue;
        theta_sum += response->theta;
        served.push_back(evaluator.decodeSequence(response->output));
        exact.push_back(exact_decodes[i]);
    }
    if (!served.empty()) {
        result.meanServedTheta =
            theta_sum / static_cast<double>(served.size());
        result.deliveredLossPct = evaluator.scoreLoss(exact, served);
    }
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("theta-autopilot load ramp: fixed tuned theta vs the "
                  "closed-loop controller on seed-paired arrivals, with "
                  "delivered accuracy per arm");
    const bench::ServingOptions options = bench::parseServingArgs(
        cli, argc, argv, "one causal zoo network (default DeepSpeech2)",
        1, 1);

    bench::OneModelStudy study =
        bench::setupOneModelStudy(options, "autopilot_ramp");
    bench::LoadModel &model = study.models.front();
    workloads::Workload &workload = *model.workload;

    // Offline curve: the canonical tune sweep — serial memo engine on
    // the tune split, scored with the workload's task metric. The
    // autopilot consumes it as its accuracy bound, and the ramp then
    // verifies DELIVERED accuracy on the served (test-split) traffic
    // with the same metric.
    const double max_loss_pct = 5.0;
    workloads::WorkloadEvaluator evaluator(workload);
    std::vector<metrics::TokenSeq> exact_decodes;
    for (const auto &outputs :
         workload.network->forwardBatchBaseline(model.inputs))
        exact_decodes.push_back(evaluator.decodeSequence(outputs));

    const std::vector<memo::TunePoint> curve_points = bench::runSweep(
        evaluator, memo::PredictorKind::Bnn, /*throttle=*/true,
        workloads::Split::Tune,
        bench::thetaGrid(workload.spec, options.quick ? 5 : 13));
    TablePrinter curve_table("autopilot curve calibration (" +
                             model.spec.name + ")");
    curve_table.setHeader({"theta", "reuse", "loss %"});
    for (const memo::TunePoint &point : curve_points)
        curve_table.addRow({formatDouble(point.theta, 3),
                            formatPercent(point.reuse),
                            formatDouble(point.accuracyLoss, 2)});
    curve_table.print("autopilot_curve");

    // The fixed arm serves at the theta this sweep tunes for a
    // conservative 1% loss target — the operating point a quality-first
    // deployment would pick. The autopilot may spend the remaining
    // budget only under pressure.
    const bench::TunedPoint operating =
        bench::selectFromSweep(curve_points, 1.0);
    model.spec.memo.theta = operating.theta;

    // The controller's bound is ADDITIONAL loss over that operating
    // point, not absolute loss: the fixed arm's quality is what the
    // deployment already delivers (including the predictor's
    // irreducible substitution error at theta ~ 0, several loss points
    // on the synthetic corpora), and the autopilot's promise is "at most
    // max_loss_pct worse than that, and only under pressure". Feeding
    // absolute losses to the prefix-conservative curve would charge that
    // floor against the budget and strand the controller at the default
    // on any workload whose metric has a noise floor.
    std::vector<memo::TunePoint> relative_points = curve_points;
    for (memo::TunePoint &point : relative_points)
        point.accuracyLoss =
            std::max(0.0, point.accuracyLoss - operating.tuneLoss);
    const memo::TuneCurve curve =
        memo::TuneCurve::fromPoints(relative_points);
    const auto ceiling = curve.maxThetaForLoss(max_loss_pct);
    if (!ceiling || *ceiling <= operating.theta) {
        // No curve point above the operating theta qualifies — the
        // controller would have nothing to trade. Honest skip (the
        // quick-mode topologies can land here), not a failure.
        std::printf("autopilot ramp skipped: no curve headroom above "
                    "theta %.3f within +%.1f%% loss\n",
                    operating.theta, max_loss_pct);
        return 0;
    }
    std::printf("autopilot: fixed arm at tuned theta %.3f (%.2f%% tune "
                "loss at the 1%% target); budget +%.1f%% additional loss "
                "allows theta <= %.3f\n",
                operating.theta, operating.tuneLoss, max_loss_pct,
                *ceiling);

    // Both arms share the full deadline-aware admission stack; the ONLY
    // difference is the controller.
    const serve::ModelRegistry fixed_registry =
        bench::registryOf(study.models);
    model.spec.autopilot.enabled = true;
    model.spec.autopilot.curve = curve;
    model.spec.autopilot.maxAccuracyLoss = max_loss_pct;
    // Fast control relative to the burst drain (tens of ms): the ladder
    // must be climbable within one episode.
    model.spec.autopilot.controlIntervalMs = 5.0;
    const serve::ModelRegistry auto_registry =
        bench::registryOf(study.models);

    // Tile the request set: a 40-request burst drains before a sustained
    // backlog forms, which would leave the controller nothing to react
    // to. Three times the set holds the queue past several control
    // intervals.
    const std::size_t tiles = options.quick ? 1 : 3;
    std::vector<nn::Sequence> ramp_inputs;
    std::vector<metrics::TokenSeq> ramp_decodes;
    for (std::size_t tile = 0; tile < tiles; ++tile) {
        ramp_inputs.insert(ramp_inputs.end(), model.inputs.begin(),
                           model.inputs.end());
        ramp_decodes.insert(ramp_decodes.end(), exact_decodes.begin(),
                            exact_decodes.end());
    }
    // Deadline sized to the BURST, not to one request: 30% of the drain
    // time D of the whole tiled set at calibrated capacity. At m times
    // capacity request k of N queues about (k/N)(1 - 1/m) D, so the
    // fixed arm loses the last ~10% of the burst at 1.5x and about half
    // of it at 3x. Every request a faster drain pulls under the wire is
    // a goodput win, so the deadline is sensitive to the reuse speedup
    // across the whole ramp.
    const double drain_fraction = 0.3;
    const double default_theta[] = {-1.0};
    const double ramp_deadline[] = {
        drain_fraction * 1000.0 * static_cast<double>(ramp_inputs.size()) /
        study.capacity};
    const std::vector<std::vector<serve::Request>> requests = {
        bench::makeRequests(ramp_inputs, default_theta, ramp_deadline)};
    std::printf("ramp deadline: %.0f ms (%.1fx the %zu-request burst "
                "drain at calibrated capacity)\n",
                ramp_deadline[0], drain_fraction, ramp_inputs.size());

    serve::FleetOptions fleet_options = study.fleet;
    fleet_options.queuePolicy = serve::QueuePolicy::Edf;
    fleet_options.shedExpired = true;
    fleet_options.shedPredicted = true;
    // The queue must hold the whole tiled burst: enqueue-side
    // backpressure would throttle arrivals and break the open loop.
    fleet_options.queueCapacity =
        std::max(fleet_options.queueCapacity, ramp_inputs.size());

    struct RampPoint
    {
        double multiplier = 0.0;
        double offered = 0.0;
        RampResult fixed;
        RampResult autopilot;
    };
    std::vector<RampPoint> ramp_points;
    // Just past capacity through moderate overload (2-3x). Deeper ramps
    // (5x+) mostly measure which unsavable requests the shedder happened
    // to pick — the controller's headroom is noise there.
    const std::vector<double> multipliers =
        options.quick ? std::vector<double>{1.5}
                      : std::vector<double>{1.5, 2.0, 3.0};
    // Replicated paired runs: wall-clock deadlines on a shared machine
    // put tens of met-counts of noise on a single episode. Each point
    // runs rep_count seed-paired pairs and reports the pair with the
    // MEDIAN autopilot-minus-fixed met delta.
    const std::size_t rep_count = options.quick ? 1 : 3;
    bool all_accounted = true;
    std::uint64_t seed = 7;
    TablePrinter ramp_table("fixed theta vs autopilot (" + model.spec.name +
                            ")");
    ramp_table.setHeader({"arm", "offered/s", "goodput/s", "met", "shed",
                          "loss %", "mean theta", "max floor"});
    for (const double multiplier : multipliers) {
        std::vector<RampPoint> reps;
        for (std::size_t rep = 0; rep < rep_count; ++rep) {
            RampPoint candidate;
            candidate.multiplier = multiplier;
            candidate.offered = study.capacity * multiplier;
            candidate.fixed =
                runArm(fixed_registry, fleet_options, evaluator, requests,
                       ramp_decodes, candidate.offered, seed);
            candidate.autopilot =
                runArm(auto_registry, fleet_options, evaluator, requests,
                       ramp_decodes, candidate.offered, seed);
            ++seed;
            all_accounted = all_accounted && candidate.fixed.accounted &&
                            candidate.autopilot.accounted;
            reps.push_back(std::move(candidate));
        }
        const auto met_delta = [](const RampPoint &p) {
            return static_cast<long>(p.autopilot.stats.deadlineMet) -
                   static_cast<long>(p.fixed.stats.deadlineMet);
        };
        std::sort(reps.begin(), reps.end(),
                  [&](const RampPoint &a, const RampPoint &b) {
                      return met_delta(a) < met_delta(b);
                  });
        const RampPoint &point = ramp_points.emplace_back(
            std::move(reps[reps.size() / 2]));
        for (const RampResult *arm : {&point.fixed, &point.autopilot}) {
            const serve::StatsSnapshot &s = arm->stats;
            ramp_table.addRow({arm == &point.fixed ? "fixed" : "autopilot",
                               formatDouble(point.offered, 2),
                               formatDouble(s.goodput(), 2),
                               std::to_string(s.deadlineMet),
                               std::to_string(s.shed),
                               formatDouble(arm->deliveredLossPct, 2),
                               formatDouble(arm->meanServedTheta, 3),
                               formatDouble(arm->maxFloor, 3)});
        }
    }
    ramp_table.print("autopilot_ramp");

    // Acceptance summary. Deadline-met COUNTS, not goodput() rates: the
    // two arms' measured walls end at each arm's own last event, so the
    // rate denominators differ (see tests/theta_controller_test.cc,
    // ShedTruncatedWindow).
    bool goodput_up = true, accuracy_ok = true, sheds_down = true;
    for (const RampPoint &point : ramp_points) {
        goodput_up = goodput_up && point.autopilot.stats.deadlineMet >=
                                       point.fixed.stats.deadlineMet;
        accuracy_ok = accuracy_ok && point.autopilot.deliveredLossPct <=
                                         point.fixed.deliveredLossPct +
                                             max_loss_pct;
        sheds_down = sheds_down &&
                     point.autopilot.stats.shed <= point.fixed.stats.shed;
        std::printf("ramp %.1fx: deadline met %zu -> %zu, shed %zu -> %zu, "
                    "delivered loss %.2f%% -> %.2f%% (budget +%.2f%%), max "
                    "floor %.3f\n",
                    point.multiplier, point.fixed.stats.deadlineMet,
                    point.autopilot.stats.deadlineMet,
                    point.fixed.stats.shed, point.autopilot.stats.shed,
                    point.fixed.deliveredLossPct,
                    point.autopilot.deliveredLossPct, max_loss_pct,
                    point.autopilot.maxFloor);
    }
    std::printf("autopilot acceptance: goodput %s, accuracy %s, sheds %s\n",
                goodput_up ? "up" : "NOT up",
                accuracy_ok ? "within budget" : "VIOLATED",
                sheds_down ? "down" : "NOT down");
    std::printf("accounting %s\n", all_accounted ? "ok" : "LOST REQUESTS");
    return all_accounted ? 0 : 1;
}
