#include "common/load_driver.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>

#include "common/bench_common.hh"
#include "common/logging.hh"

namespace nlfm::bench
{

ServingOptions
parseServingArgs(CliParser &cli, int argc, const char *const *argv,
                 const std::string &networks_help, std::size_t min_models,
                 std::size_t max_models)
{
    cli.addString("networks", "", networks_help);
    cli.addInt("steps", 0, "timesteps per sequence (0 = study default)");
    cli.addBool("quick", false, "downsized smoke run");
    if (!cli.parse(argc, argv))
        std::exit(0);

    ServingOptions options;
    options.steps = static_cast<std::size_t>(cli.getInt("steps"));
    options.quick = cli.getBool("quick");
    options.networks = splitCommaList(cli.getString("networks"));
    if (options.networks.empty())
        return options;

    if (options.networks.size() < min_models) {
        std::fprintf(stderr,
                     "--networks: this study needs at least %zu networks, "
                     "got %zu\n",
                     min_models, options.networks.size());
        std::exit(1);
    }
    if (options.networks.size() > max_models) {
        std::fprintf(stderr,
                     "--networks: this study serves at most %zu "
                     "network(s), got %zu\n",
                     max_models, options.networks.size());
        std::exit(1);
    }
    for (const std::string &name : options.networks) {
        if (workloads::specByName(name).rnn.bidirectional) {
            std::fprintf(stderr,
                         "--networks: %s is bidirectional; the "
                         "step-major fleet needs causal stacks\n",
                         name.c_str());
            std::exit(1);
        }
    }
    return options;
}

std::vector<nn::Sequence>
makeRaggedRequests(std::span<const nn::Sequence> inputs, std::size_t count,
                   Rng &rng)
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

std::vector<serve::Request>
makeRequests(std::span<const nn::Sequence> inputs,
             std::span<const double> thetas,
             std::span<const double> deadlines_ms)
{
    std::vector<serve::Request> requests(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        requests[i].input = inputs[i];
        requests[i].theta = thetas[i % thetas.size()];
        requests[i].deadlineMs = deadlines_ms[i % deadlines_ms.size()];
    }
    return requests;
}

std::vector<LoadModel>
makeLoadModels(std::span<const std::string> names, std::size_t steps,
               std::size_t corpus, std::size_t requests)
{
    std::vector<LoadModel> models;
    Rng rng(2026);
    for (const std::string &name : names) {
        LoadModel model;
        model.workload = workloads::buildWorkload(
            workloads::specByName(name), steps, corpus);
        model.inputs =
            makeRaggedRequests(model.workload->testInputs, requests, rng);
        for (const nn::Sequence &input : model.inputs)
            model.meanLen += static_cast<double>(input.size());
        if (requests > 0)
            model.meanLen /= static_cast<double>(requests);
        model.spec.name = name;
        model.spec.network = model.workload->network.get();
        model.spec.bnn = model.workload->bnn.get();
        model.spec.memo.predictor = memo::PredictorKind::Bnn;
        model.spec.memo.theta = 0.05;
        models.push_back(std::move(model));
    }
    return models;
}

serve::ModelRegistry
registryOf(std::span<const LoadModel> models)
{
    serve::ModelRegistry registry;
    for (const LoadModel &model : models)
        registry.add(model.spec);
    return registry;
}

Replay
replay(serve::FleetServer &fleet,
       std::span<const std::vector<serve::Request>> requests,
       double offered_per_model, std::uint64_t seed)
{
    const serve::StatsSnapshot before = fleet.stats();
    std::vector<std::vector<std::future<serve::Response>>> futures(
        requests.size());
    std::vector<std::thread> clients;
    for (std::size_t m = 0; m < requests.size(); ++m) {
        futures[m].reserve(requests[m].size());
        clients.emplace_back([&, m] {
            Rng rng(seed + m);
            auto next_arrival = serve::Clock::now();
            for (const serve::Request &request : requests[m]) {
                const double gap_s =
                    -std::log(1.0 - rng.uniform()) / offered_per_model;
                next_arrival += std::chrono::duration_cast<
                    serve::Clock::duration>(
                    std::chrono::duration<double>(gap_s));
                std::this_thread::sleep_until(next_arrival);
                futures[m].push_back(fleet.enqueue(m, request));
            }
        });
    }
    for (std::thread &client : clients)
        client.join();
    fleet.drain();

    Replay run;
    run.responses.resize(requests.size());
    for (std::size_t m = 0; m < requests.size(); ++m) {
        run.offered += requests[m].size();
        run.responses[m].resize(requests[m].size());
        for (std::size_t i = 0; i < futures[m].size(); ++i) {
            try {
                run.responses[m][i] =
                    serve::FleetServer::collect(futures[m][i]);
            } catch (const serve::ShedError &) {
            }
        }
    }
    run.stats = fleet.fleetStats();
    run.completed = run.stats.aggregate.completed - before.completed;
    run.shed = run.stats.aggregate.shed - before.shed;
    return run;
}

bool
accounted(const Replay &run)
{
    std::size_t completed = 0;
    std::size_t shed = 0;
    for (const auto &model : run.responses)
        for (const auto &response : model)
            ++(response ? completed : shed);
    return completed + shed == run.offered && completed == run.completed &&
           shed == run.shed;
}

double
calibrate(std::vector<LoadModel> &models, const serve::FleetOptions &options)
{
    std::vector<std::vector<serve::Request>> requests;
    const double default_theta[] = {-1.0};
    const double no_deadline[] = {0.0};
    for (const LoadModel &model : models)
        requests.push_back(
            makeRequests(model.inputs, default_theta, no_deadline));
    serve::FleetServer fleet(registryOf(models), options);
    const Replay probe = replay(fleet, requests,
                                std::numeric_limits<double>::infinity(),
                                /*seed=*/3);
    nlfm_assert(accounted(probe), "calibration probe lost requests");
    for (std::size_t m = 0; m < models.size(); ++m) {
        models[m].serviceMs = probe.stats.perModel[m].meanServiceMs;
        models[m].spec.calibratedStepCostMs =
            models[m].serviceMs / models[m].meanLen;
    }
    return probe.stats.aggregate.throughput();
}

OneModelStudy
setupOneModelStudy(const ServingOptions &options, const std::string &study)
{
    OneModelStudy setup;
    const std::vector<std::string> names =
        options.networks.empty() ? std::vector<std::string>{"DeepSpeech2"}
                                 : options.networks;
    const std::size_t steps =
        options.steps != 0 ? options.steps : (options.quick ? 6 : 20);
    const std::size_t request_count = options.quick ? 10 : 40;
    // Corpus sized to the request set, not the slot pool: the autopilot
    // ramp calibrates its accuracy curve on the tune split, and a
    // slots-sized corpus (8 sequences x 20 steps = 160 frames) puts
    // several loss points of sampling noise on every curve sample.
    setup.models =
        makeLoadModels(names, steps, request_count, request_count);
    setup.fleet.slots = options.quick ? 4 : 8;
    setup.fleet.queueCapacity = std::max<std::size_t>(16, request_count);

    const LoadModel &model = setup.models.front();
    std::printf("%s: %s (%s), %zu-slot pool, %zu requests, <=%zu "
                "steps/sequence\n",
                study.c_str(), names.front().c_str(),
                model.workload->spec.rnn.describe().c_str(),
                setup.fleet.slots, request_count, steps);
    setup.capacity = calibrate(setup.models, setup.fleet);
    std::printf("calibration: saturated fleet completes %.2f ragged "
                "seq/s; saturated service %.1f ms/seq\n\n",
                setup.capacity, model.serviceMs);
    return setup;
}

} // namespace nlfm::bench
