/**
 * @file
 * Multi-turn session study: warm-start memoization across requests.
 *
 * A fleet (default DeepSpeech2 + IMDB) serves multi-turn
 * "conversations" — each test sequence split into contiguous turns,
 * submitted turn by turn with a barrier between rounds — twice on the
 * identical schedule: once with every request session-tagged (turns
 * after the first warm-resume the stored memo table and recurrent
 * state) and once untagged (every turn starts cold). Reports per-model
 * reuse uplift and the DELIVERED loss of the concatenated turn outputs
 * against the uninterrupted exact-baseline decode of each full session.
 *
 * Exits non-zero when a turn goes unaccounted, a post-first turn of the
 * warm arm misses its warm resume, the cold arm resumes anything, or
 * warm reuse falls below cold.
 */

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/bench_common.hh"
#include "common/load_driver.hh"
#include "common/logging.hh"
#include "common/report.hh"

using namespace nlfm;

namespace
{

/** One resident model of the study. */
struct SessionModel
{
    std::unique_ptr<workloads::WorkloadEvaluator> evaluator;
    /// Test sequences split into contiguous turns: turns[session][turn].
    std::vector<std::vector<nn::Sequence>> turns;
    /// Exact-baseline decode of each full (uninterrupted) session.
    std::vector<metrics::TokenSeq> exactDecodes;
};

/** One arm (warm or cold) of the study. */
struct SessionArm
{
    serve::FleetStatsSnapshot stats;
    /// Per-model canonical loss of the concatenated turn decodes vs the
    /// uninterrupted exact-baseline decodes.
    std::vector<double> deliveredLossPct;
    std::uint64_t evictions = 0;
    bool accounted = true;
};

/**
 * Serve every session's turns on a round-barrier schedule: round t
 * submits turn t of EVERY session of every model at once and collects
 * all of round t before round t+1 begins. Turn order within a session
 * is what the warm-start contract requires (the store's checkout), and
 * the schedule is identical across arms, so the warm/cold difference is
 * the session store — not the workload or the slot pool.
 */
SessionArm
runSessionArm(const std::vector<SessionModel> &models,
              const serve::ModelRegistry &registry,
              const serve::FleetOptions &options, std::size_t turn_count,
              bool warm)
{
    serve::FleetServer fleet(registry, options);
    std::vector<std::vector<nn::Sequence>> served(models.size());
    for (std::size_t m = 0; m < models.size(); ++m)
        served[m].resize(models[m].turns.size());

    SessionArm arm;
    for (std::size_t t = 0; t < turn_count; ++t) {
        std::vector<std::vector<serve::Request>> round(models.size());
        for (std::size_t m = 0; m < models.size(); ++m) {
            for (std::size_t s = 0; s < models[m].turns.size(); ++s) {
                serve::Request &request = round[m].emplace_back();
                request.input = models[m].turns[s][t];
                // The SAME id on every model, deliberately: sessions are
                // keyed (model, id), so shared ids must never leak state
                // across models. A leak would trip the steppers' shape
                // asserts (the models differ in width) before it could
                // corrupt a decode.
                if (warm)
                    request.sessionId = "session-" + std::to_string(s);
            }
        }
        // A resolved future guarantees the turn's state is back in the
        // store: completion delivery happens after the snapshot.
        const bench::Replay run =
            bench::replay(fleet, round,
                          std::numeric_limits<double>::infinity(), t);
        arm.accounted = arm.accounted && bench::accounted(run) &&
                        run.completed == run.offered;
        for (std::size_t m = 0; m < models.size(); ++m) {
            for (std::size_t s = 0; s < run.responses[m].size(); ++s) {
                const auto &response = run.responses[m][s];
                if (response)
                    served[m][s].insert(served[m][s].end(),
                                        response->output.begin(),
                                        response->output.end());
            }
        }
    }

    arm.stats = fleet.fleetStats();
    arm.evictions = fleet.sessionEvictions();
    for (std::size_t m = 0; m < models.size(); ++m) {
        std::vector<metrics::TokenSeq> decodes;
        for (const nn::Sequence &outputs : served[m])
            decodes.push_back(models[m].evaluator->decodeSequence(outputs));
        arm.deliveredLossPct.push_back(models[m].evaluator->scoreLoss(
            models[m].exactDecodes, decodes));
    }
    return arm;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("multi-turn session study: warm (session-tagged) vs "
                  "cold arms of one turn schedule on a fleet; reuse "
                  "uplift and delivered loss per model");
    const bench::ServingOptions options = bench::parseServingArgs(
        cli, argc, argv,
        "comma list of causal zoo networks sharing the fleet (default "
        "DeepSpeech2,IMDB)",
        1, std::numeric_limits<std::size_t>::max());

    const std::vector<std::string> names =
        options.networks.empty()
            ? std::vector<std::string>{"DeepSpeech2", "IMDB"}
            : options.networks;
    const std::size_t steps =
        options.steps != 0 ? options.steps : (options.quick ? 6 : 20);
    const std::size_t session_count = options.quick ? 3 : 10;
    const std::size_t turn_count = 3;
    const std::size_t slots = options.quick ? 4 : 8;
    std::printf("session_turns: %zu sessions/model x %zu turns (%zu "
                "steps/session), %zu-slot fleet\n",
                session_count, turn_count, steps, slots);

    std::vector<bench::LoadModel> load_models =
        bench::makeLoadModels(names, steps, session_count, 0);
    std::vector<SessionModel> models(load_models.size());
    for (std::size_t m = 0; m < models.size(); ++m) {
        SessionModel &model = models[m];
        workloads::Workload &workload = *load_models[m].workload;
        model.evaluator =
            std::make_unique<workloads::WorkloadEvaluator>(workload);
        // The uninterrupted baseline: exact forward over each FULL
        // session. Both arms are scored against it, so the cold arm's
        // extra loss is exactly the cost of restarting the recurrent
        // state at every turn boundary.
        for (const auto &outputs :
             workload.network->forwardBatchBaseline(workload.testInputs))
            model.exactDecodes.push_back(
                model.evaluator->decodeSequence(outputs));
        // Contiguous turns; the last takes the remainder.
        for (const nn::Sequence &session : workload.testInputs) {
            nlfm_assert(session.size() >= turn_count,
                        "session shorter than the turn count");
            const std::size_t base_len = session.size() / turn_count;
            std::vector<nn::Sequence> &turns = model.turns.emplace_back();
            auto begin = session.begin();
            for (std::size_t t = 0; t < turn_count; ++t) {
                const auto end = t + 1 == turn_count
                                     ? session.end()
                                     : begin + static_cast<long>(base_len);
                turns.emplace_back(begin, end);
                begin = end;
            }
        }
    }

    const serve::ModelRegistry registry = bench::registryOf(load_models);
    serve::FleetOptions fleet_options;
    fleet_options.slots = slots;
    fleet_options.queueCapacity = std::max<std::size_t>(16, session_count);
    // Capacity sized to the working set: the study measures the
    // warm-start mechanism, not LRU pressure (that contract is pinned by
    // tests/session_test.cc, EvictedSessionFallsBackCold).
    fleet_options.sessionCapacity = session_count;

    const SessionArm cold = runSessionArm(models, registry, fleet_options,
                                          turn_count, /*warm=*/false);
    const SessionArm warm = runSessionArm(models, registry, fleet_options,
                                          turn_count, /*warm=*/true);

    TablePrinter table("cold vs warm-start sessions");
    table.setHeader({"model", "arm", "reuse", "delivered loss %",
                     "warm resumed", "p95 ms"});
    const std::size_t expected_resumes = session_count * (turn_count - 1);
    bool resumes_complete = true;
    bool reuse_up = true;
    for (std::size_t m = 0; m < models.size(); ++m) {
        const std::string &name = names[m];
        const serve::StatsSnapshot &c = cold.stats.perModel[m];
        const serve::StatsSnapshot &w = warm.stats.perModel[m];
        table.addRow({name, "cold", formatPercent(c.meanReuse),
                      formatDouble(cold.deliveredLossPct[m], 2),
                      std::to_string(c.warmResumed),
                      formatDouble(c.p95LatencyMs, 1)});
        table.addRow({name, "warm", formatPercent(w.meanReuse),
                      formatDouble(warm.deliveredLossPct[m], 2),
                      std::to_string(w.warmResumed) + "/" +
                          std::to_string(expected_resumes),
                      formatDouble(w.p95LatencyMs, 1)});
        resumes_complete = resumes_complete &&
                           w.warmResumed == expected_resumes &&
                           c.warmResumed == 0;
        reuse_up = reuse_up && w.meanReuse >= c.meanReuse;
        std::printf("session study %s: reuse %s -> %s (%+.1f pts), "
                    "delivered loss %.2f%% -> %.2f%% (%+.2f pts)\n",
                    name.c_str(), bench::pct(c.meanReuse).c_str(),
                    bench::pct(w.meanReuse).c_str(),
                    100.0 * (w.meanReuse - c.meanReuse),
                    cold.deliveredLossPct[m], warm.deliveredLossPct[m],
                    warm.deliveredLossPct[m] - cold.deliveredLossPct[m]);
    }
    table.print("session_turns");
    const bool accounted = cold.accounted && warm.accounted;
    std::printf("session acceptance: warm resumes %s, reuse %s, "
                "evictions %llu (expected 0), accounting %s\n",
                resumes_complete ? "complete" : "INCOMPLETE",
                reuse_up ? "up" : "NOT up",
                static_cast<unsigned long long>(warm.evictions),
                accounted ? "ok" : "LOST REQUESTS");
    return accounted && resumes_complete && reuse_up ? 0 : 1;
}
