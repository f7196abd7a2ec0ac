/**
 * @file
 * The open-loop load driver shared by the serving studies.
 *
 * Every serving bench drives a serve::FleetServer (one-model studies
 * register a single entry) through the same four pieces: ragged request
 * inputs, one capacity calibration (a saturation probe), a Poisson
 * replay with one client thread per model, and the accounting check
 * that every offered request either completed or was shed. Each bench
 * binary only encodes the study it reports.
 */

#ifndef NLFM_BENCH_LOAD_DRIVER_HH
#define NLFM_BENCH_LOAD_DRIVER_HH

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/rng.hh"
#include "serve/fleet_server.hh"
#include "workloads/model_zoo.hh"

namespace nlfm::bench
{

/** The flags every serving study reads. */
struct ServingOptions
{
    /// Explicit --networks selection; empty when the flag was not
    /// given, so the study applies its own default.
    std::vector<std::string> networks;
    std::size_t steps = 0; ///< 0 = the study's default
    bool quick = false;    ///< downsized smoke run
};

/**
 * Register --networks (described by @p networks_help), --steps and
 * --quick on @p cli beside the study's own flags, then parse argv.
 * Exits 0 after --help. An explicit --networks the study cannot serve —
 * fewer than @p min_models or more than @p max_models networks, or a
 * bidirectional one (the step-major fleet needs causal stacks) — exits
 * 1 with a message; an unknown name is fatal in specByName.
 */
ServingOptions parseServingArgs(CliParser &cli, int argc,
                                const char *const *argv,
                                const std::string &networks_help,
                                std::size_t min_models,
                                std::size_t max_models);

/** Ragged copies of @p inputs: each length is 50%..100% of its base. */
std::vector<nn::Sequence> makeRaggedRequests(
    std::span<const nn::Sequence> inputs, std::size_t count, Rng &rng);

/**
 * One request per input, cycling @p thetas and @p deadlines_ms (a
 * one-element span gives every request the same value; theta -1 serves
 * at the model's default).
 */
std::vector<serve::Request> makeRequests(
    std::span<const nn::Sequence> inputs, std::span<const double> thetas,
    std::span<const double> deadlines_ms);

/** One resident model of a load study. */
struct LoadModel
{
    std::unique_ptr<workloads::Workload> workload;
    /// Ragged request inputs drawn from the workload's test split.
    std::vector<nn::Sequence> inputs;
    double meanLen = 0.0;
    /// Registry entry: the workload's network and BNN mirror, BNN
    /// memoization at theta 0.05; calibrate() fills
    /// calibratedStepCostMs.
    serve::ModelSpec spec;
    /// Mean in-slot service time per request under saturation
    /// (calibrate()).
    double serviceMs = 0.0;
};

/**
 * Build each named zoo workload with @p steps per sequence and
 * @p corpus test sequences, and draw @p requests ragged inputs per
 * model from one fixed-seed Rng, in name order.
 */
std::vector<LoadModel> makeLoadModels(std::span<const std::string> names,
                                      std::size_t steps, std::size_t corpus,
                                      std::size_t requests);

/** Registry of the models' specs, in order. */
serve::ModelRegistry registryOf(std::span<const LoadModel> models);

/** Outcome of one replay. */
struct Replay
{
    /// The fleet's stats after the replay drained (cumulative since the
    /// fleet was built).
    serve::FleetStatsSnapshot stats;
    /// responses[m][i] answers request i of model m; nullopt when the
    /// request was shed.
    std::vector<std::vector<std::optional<serve::Response>>> responses;
    std::size_t offered = 0;   ///< requests submitted
    std::size_t completed = 0; ///< fleet completions during the replay
    std::size_t shed = 0;      ///< fleet sheds during the replay
};

/**
 * Open-loop Poisson replay: model m's client thread submits
 * requests[m] in order with exponential gaps at @p offered_per_model
 * arrivals/s (Rng seeded seed + m), independent of service progress;
 * then the fleet drains and every future is collected. An infinite rate
 * submits everything at once. Any failure other than a shed propagates.
 */
Replay replay(serve::FleetServer &fleet,
              std::span<const std::vector<serve::Request>> requests,
              double offered_per_model, std::uint64_t seed);

/**
 * completed + shed == offered, and the responses agree with the fleet's
 * own completed and shed counts.
 */
bool accounted(const Replay &run);

/**
 * Capacity calibration by saturation probe: submit every model's
 * inputs at once (default theta, no deadline) into a fleet built with
 * @p options and measure what it completes per second. A closed-batch
 * forwardBatch run overstates this capacity, because the fleet's
 * step-major tick streams every resident model's weights per timestep.
 * Sets each model's serviceMs and spec.calibratedStepCostMs
 * (serviceMs / meanLen, the ModelSpec contract) and returns the
 * saturated aggregate throughput in sequences/s.
 */
double calibrate(std::vector<LoadModel> &models,
                 const serve::FleetOptions &options);

/** The setup the one-model studies share. */
struct OneModelStudy
{
    std::vector<LoadModel> models; ///< exactly one
    serve::FleetOptions fleet;     ///< slot pool and queue, no policies
    double capacity = 0.0;         ///< calibrate() result, sequences/s
};

/**
 * Build the one-model study the serving benches share: the selected
 * network (default DeepSpeech2) with 10 (--quick) or 40 ragged requests
 * of up to 6 or 20 steps (--steps overrides), a 4- or 8-slot fleet, and
 * the saturation-probe calibration. Prints @p study's banner and the
 * calibration.
 */
OneModelStudy setupOneModelStudy(const ServingOptions &options,
                                 const std::string &study);

} // namespace nlfm::bench

#endif // NLFM_BENCH_LOAD_DRIVER_HH
