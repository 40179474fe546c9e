// fig3_train and gpar4_train: the paper's unit of work (an EGNN training
// step at a Fig. 3 grid point) on one process, and the same model trained
// graph-parallel across four simulated ranks.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "sgnn/ckpt/checkpoint.hpp"
#include "sgnn/data/dataset.hpp"
#include "sgnn/data/loader.hpp"
#include "sgnn/graph/batch.hpp"
#include "sgnn/graph/neighbor.hpp"
#include "sgnn/graph/partition.hpp"
#include "sgnn/nn/egnn.hpp"
#include "sgnn/nn/model_io.hpp"
#include "sgnn/obs/metrics.hpp"
#include "sgnn/potential/potential.hpp"
#include "sgnn/store/ddstore.hpp"
#include "sgnn/tensor/memory_tracker.hpp"
#include "sgnn/train/distributed.hpp"
#include "sgnn/train/loss.hpp"
#include "sgnn/train/trainer.hpp"
#include "sgnn/util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using sgnn::AggregatedDataset;
using sgnn::GraphBatch;
using sgnn::MemoryTracker;
using sgnn::MolecularGraph;

// The Fig. 3 grid point both training workloads run.
constexpr std::int64_t kHidden = 64;
constexpr std::int64_t kDepth = 3;
constexpr std::int64_t kBatch = 8;
constexpr double kLearningRate = 2e-3;
constexpr int kRanks = 4;

// Dataset byte budgets of the proportional five-source aggregate, and the
// nominal step rates that turn --seconds into a fixed number of epochs.
// The rates were measured on the reference host (4-core Xeon, simd backend);
// they only size the work, so a faster program finishes the same steps
// sooner.
constexpr std::uint64_t kFig3DatasetBytes = 3u << 20;
constexpr double kFig3NominalStepsPerSecond = 3.0;
/// Share of an end-to-end fig3_train run's seconds that the main pass gets;
/// the scaling bracket, which reruns the first half of its epochs on one
/// pool lane and then on four, takes the rest.
constexpr double kFig3MainShare = 0.4;
constexpr std::uint64_t kGparDatasetBytes = 2u << 20;
/// Steps per second of gpar4_train's main R=4 pass, which a traced run
/// makes twice (untraced and traced).
constexpr double kGparNominalStepsPerSecond = 0.5;
/// An end-to-end gpar4_train run makes one efficiency round (a one-epoch
/// R=4 pass and a one-epoch R=1 pass) per this many seconds.
constexpr double kGparNominalSecondsPerRound = 40.0;
constexpr int kSetupRepetitions = 15;
/// fig3_train's graph-parallel probe: R=4 steps over its first batches.
constexpr std::int64_t kFig3ProbeSteps = 4;

sgnn::ModelConfig grid_config(std::uint64_t seed) {
  sgnn::ModelConfig config;
  config.hidden_dim = kHidden;
  config.num_layers = kDepth;
  config.seed = derive_seed(seed, 1);
  return config;
}

/// The training data is the default aggregate (DatasetOptions' own seed) for
/// every workload seed; the seed drives the model initialisation and the
/// sampling order. The teacher's force labels are heavy-tailed, so the
/// loss of a fixed number of steps scales with the label variance of
/// whichever graphs a seed happened to draw (up to 1.6x between seeds);
/// a fixed dataset keeps train_final_loss comparable across seeds.
AggregatedDataset make_dataset(std::uint64_t bytes) {
  sgnn::DatasetOptions options;
  options.target_bytes = bytes;
  return AggregatedDataset::generate(options, sgnn::ReferencePotential{});
}

/// The training objective over `graphs` of the model with `parameters`
/// (a model payload; empty for the untrained model), in batches of kBatch
/// taken in dataset order: the loss after training, free of the noise of
/// which batches the last epoch happened to draw.
double evaluated_loss(const sgnn::ModelConfig& config,
                      const std::string& parameters,
                      const std::vector<const MolecularGraph*>& graphs) {
  sgnn::EGNNModel model(config);
  if (!parameters.empty()) sgnn::load_model_payload(model, parameters);
  double sum = 0;
  std::int64_t batches = 0;
  for (std::size_t begin = 0; begin < graphs.size(); begin += kBatch) {
    const std::size_t end =
        std::min(graphs.size(), begin + static_cast<std::size_t>(kBatch));
    const std::vector<const MolecularGraph*> chunk(
        graphs.begin() + static_cast<std::ptrdiff_t>(begin),
        graphs.begin() + static_cast<std::ptrdiff_t>(end));
    sum += sgnn::evaluate_batch(model, GraphBatch::from_graphs(chunk),
                                sgnn::LossWeights{})
               .loss;
    ++batches;
  }
  return sum / static_cast<double>(batches);
}

std::vector<const MolecularGraph*> all_graphs(const AggregatedDataset& data) {
  std::vector<const MolecularGraph*> view;
  for (const MolecularGraph& g : data.graphs()) view.push_back(&g);
  return view;
}

std::int64_t epochs_for(double seconds, double steps_per_second,
                        std::int64_t steps_per_epoch) {
  const double steps = seconds * steps_per_second;
  return std::max<std::int64_t>(
      2, static_cast<std::int64_t>(std::llround(
             steps / static_cast<double>(steps_per_epoch))));
}

/// What one training pass measured.
struct TrainPass {
  std::int64_t steps = 0;
  /// Per step after the first: wall time since the previous step
  /// completed (loader, forward, backward, optimizer and any snapshot
  /// write), and the atoms it trained.
  std::vector<double> step_wall;
  std::vector<double> step_atoms;
  std::int64_t total_edges = 0;
  std::vector<double> losses;  ///< per step, rank 0
  std::vector<double> step_seconds;  ///< per step, rank 0
  std::vector<double> rank_seconds;  ///< summed step time per rank
  std::int64_t peak_bytes = 0;
  std::int64_t peak_activation_bytes = 0;
  sgnn::TrainPhase peak_phase = sgnn::TrainPhase::kIdle;
  std::string parameters;  ///< model payload after training
  sgnn::DistTrainReport report;
};

/// Fills the step-derived fields from the telemetry of rank 0 (or of the
/// single-process trainer, rank -1).
void digest_steps(const StepClock& clock, TrainPass& pass) {
  std::map<int, double> per_rank;
  Clock::time_point previous{};
  for (const auto& step : clock.steps()) {
    const auto& t = step.telemetry;
    per_rank[t.rank] += t.step_seconds;
    if (t.rank > 0) continue;
    pass.losses.push_back(t.loss);
    pass.step_seconds.push_back(t.step_seconds);
    pass.total_edges += t.batch_edges;
    if (t.step > 0) {
      pass.step_wall.push_back(seconds_between(previous, step.done));
      pass.step_atoms.push_back(static_cast<double>(t.batch_atoms));
    }
    previous = step.done;
  }
  pass.steps = static_cast<std::int64_t>(pass.losses.size());
  for (const auto& [rank, seconds] : per_rank) {
    pass.rank_seconds.push_back(seconds);
  }
  SGNN_CHECK(pass.steps > 1,
             "training pass recorded " << pass.steps << " steps");
}

/// Bit-equal per-step training losses (rank 0).
bool same_losses(const TrainPass& a, const TrainPass& b) {
  if (a.losses.size() != b.losses.size()) return false;
  for (std::size_t i = 0; i < a.losses.size(); ++i) {
    if (!same_bits(a.losses[i], b.losses[i])) return false;
  }
  return true;
}

void capture_memory(TrainPass& pass) {
  const MemoryTracker& tracker = MemoryTracker::instance();
  pass.peak_bytes = tracker.peak_total();
  pass.peak_activation_bytes =
      tracker.peak().of(sgnn::MemCategory::kActivation);
  pass.peak_phase = tracker.peak_phase();
}

TrainPass fig3_pass(const std::vector<const MolecularGraph*>& graphs,
                    const sgnn::ModelConfig& config, std::int64_t epochs,
                    std::uint64_t loader_seed, const std::string& ckpt_dir) {
  sgnn::EGNNModel model(config);
  sgnn::DataLoader loader(graphs, kBatch, loader_seed);
  sgnn::TrainOptions options;
  options.epochs = epochs;
  options.batch_size = kBatch;
  options.adam.learning_rate = kLearningRate;
  options.activation_checkpointing = false;
  options.checkpoint.every_steps = loader.num_batches();  // one per epoch
  options.checkpoint.directory = ckpt_dir;
  sgnn::Trainer trainer(model, options);
  StepClock clock;
  trainer.set_telemetry(&clock);

  MemoryTracker::instance().reset_peak();
  TrainPass pass;
  trainer.fit(loader);
  capture_memory(pass);
  digest_steps(clock, pass);
  pass.parameters = sgnn::model_payload_bytes(model);
  return pass;
}

/// A graph-parallel pass over `store`; with a `ckpt_dir`, rank 0 writes a
/// training-state snapshot after every step.
TrainPass gpar_pass(const sgnn::DDStore& store,
                    const sgnn::ModelConfig& config, std::int64_t epochs,
                    std::uint64_t sampler_seed,
                    const std::string& ckpt_dir = "") {
  sgnn::DistTrainOptions options;
  options.num_ranks = store.num_ranks();
  options.graph_parallel = true;
  options.activation_checkpointing = true;
  options.epochs = epochs;
  options.per_rank_batch_size = kBatch;  // the global batch in this mode
  options.adam.learning_rate = kLearningRate;
  options.sampler_seed = sampler_seed;
  if (!ckpt_dir.empty()) {
    options.checkpoint.every_steps = 1;
    options.checkpoint.directory = ckpt_dir;
  }
  StepClock clock;
  options.telemetry = &clock;
  sgnn::DistributedTrainer trainer(config, options);

  TrainPass pass;
  pass.report = trainer.train(store);
  capture_memory(pass);
  digest_steps(clock, pass);
  pass.parameters = sgnn::model_payload_bytes(trainer.model());
  return pass;
}

/// Atoms per wall second of each step (the first excluded).
std::vector<double> rate_per_step(const TrainPass& pass) {
  std::vector<double> rates;
  for (std::size_t i = 0; i < pass.step_wall.size(); ++i) {
    rates.push_back(pass.step_atoms[i] / pass.step_wall[i]);
  }
  return rates;
}

/// Steady-state throughput: the median over steps, so a transient stall of
/// the host moves a few steps, not the result.
double atoms_per_second(const TrainPass& pass) {
  return median(rate_per_step(pass));
}

/// The first `steps` steps of `pass`.
TrainPass first_steps(TrainPass pass, std::int64_t steps) {
  const auto n = static_cast<std::size_t>(steps);
  pass.steps = steps;
  pass.losses.resize(n);
  pass.step_seconds.resize(n);
  pass.step_wall.resize(n - 1);
  pass.step_atoms.resize(n - 1);
  return pass;
}

/// `a` with each step's wall time averaged with the same step of `b`.
TrainPass averaged(TrainPass a, const TrainPass& b) {
  for (std::size_t i = 0; i < a.step_wall.size(); ++i) {
    a.step_wall[i] = (a.step_wall[i] + b.step_wall[i]) / 2;
  }
  return a;
}

/// The first pass with each step's wall time the least over `passes`, which
/// ran the same steps.
TrainPass fastest(const std::vector<TrainPass>& passes) {
  TrainPass out = passes.front();
  for (const TrainPass& pass : passes) {
    for (std::size_t i = 0; i < out.step_wall.size(); ++i) {
      out.step_wall[i] = std::min(out.step_wall[i], pass.step_wall[i]);
    }
  }
  return out;
}

/// Strong-scaling efficiency t(1) / (n * t(n)) of each step (the first
/// excluded) on one worker and on `workers`.
std::vector<double> efficiency_per_step(const TrainPass& single,
                                        const TrainPass& multi, int workers) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < multi.step_wall.size(); ++i) {
    ratios.push_back(single.step_wall[i] / (workers * multi.step_wall[i]));
  }
  return ratios;
}

/// Checks the loss the model with `parameters` reaches on `graphs`: finite,
/// positive and below the untrained model's; returns it.
double check_trained(const sgnn::ModelConfig& config,
                     const std::string& parameters,
                     const std::vector<const MolecularGraph*>& graphs,
                     double initial_loss, Result& result) {
  const double loss = evaluated_loss(config, parameters, graphs);
  result.check(std::isfinite(loss) && loss > 0,
               "final training loss is not a positive finite number");
  result.check(loss < initial_loss, "training did not lower the loss");
  return loss;
}

/// Max over min summed step time per rank.
double rank_skew(const TrainPass& pass) {
  return *std::max_element(pass.rank_seconds.begin(),
                           pass.rank_seconds.end()) /
         *std::min_element(pass.rank_seconds.begin(),
                           pass.rank_seconds.end());
}

/// Kernel-profile and tracing-overhead metrics shared by both training
/// workloads, from an untraced pass and a traced pass of the same steps.
void report_traced_training(const TrainPass& untraced, const TrainPass& traced,
                            const ProfView& prof, int ranks, Result& result) {
  const auto steps = static_cast<double>(traced.steps);
  const auto rank_steps = steps * ranks;
  const sgnn::obs::prof::Totals totals = prof.totals();
  result.count("tensor.kernel_calls_per_step",
               static_cast<double>(totals.kernel_calls) / steps);
  result.count("tensor.kernel_flops_per_step",
               static_cast<double>(totals.flops) / steps);
  result.count("tensor.kernel_bytes_per_step",
               static_cast<double>(totals.bytes) / steps);
  result.count("graph.edges_per_step",
               static_cast<double>(traced.total_edges) / steps);
  report_kernel_mix(prof, result);

  result.metric("nn.forward_ms",
                prof.inclusive("train_step;forward") / rank_steps * 1e3, "ms");
  result.metric("nn.backward_ms",
                prof.inclusive("train_step;backward") / rank_steps * 1e3,
                "ms");
  result.metric("train.optimizer_ms",
                prof.inclusive("train_step;optimizer") / rank_steps * 1e3,
                "ms");
  result.metric("train.step_ms_p50", quantile(untraced.step_seconds, 0.5) * 1e3,
                "ms");
  result.metric("train.step_ms_p90", quantile(untraced.step_seconds, 0.9) * 1e3,
                "ms");
  result.metric("mem.peak_activation_mib",
                static_cast<double>(untraced.peak_activation_bytes) / kMiB,
                "MiB");
  result.metric("mem.peak_phase", static_cast<double>(untraced.peak_phase),
                "enum");
  // Median step wall time of the same steps, traced over untraced.
  result.metric("obs.trace_overhead_frac",
                median(traced.step_wall) / median(untraced.step_wall) - 1.0,
                "frac");
  result.check(same_losses(untraced, traced) &&
                   untraced.parameters == traced.parameters,
               "tracing changed the training arithmetic");
}

/// The benchmark's own calls into the data and graph layers over batches of
/// the workload's graphs: batch assembly, neighbor search and (for the
/// graph-parallel workload) partitioning, each in ms per batch.
struct LayerProbe {
  double batch_build_ms = 0;
  double neighbor_ms = 0;
  double partition_ms = 0;
};

LayerProbe probe_layers(const std::vector<const MolecularGraph*>& graphs,
                        double cutoff, bool partition) {
  std::vector<double> build;
  std::vector<double> neighbor;
  std::vector<double> split;
  for (std::size_t begin = 0; begin + kBatch <= graphs.size();
       begin += kBatch) {
    const std::vector<const MolecularGraph*> chunk(
        graphs.begin() + static_cast<std::ptrdiff_t>(begin),
        graphs.begin() + static_cast<std::ptrdiff_t>(begin + kBatch));
    Clock::time_point t0 = Clock::now();
    const GraphBatch batch = GraphBatch::from_graphs(chunk);
    build.push_back(seconds_between(t0, Clock::now()) * 1e3);
    t0 = Clock::now();
    std::int64_t edges = 0;
    for (const MolecularGraph* g : chunk) {
      edges += sgnn::build_neighbors(g->structure, cutoff).size();
    }
    neighbor.push_back(seconds_between(t0, Clock::now()) * 1e3);
    SGNN_CHECK(edges == batch.num_edges,
               "neighbor search found " << edges << " edges, the batch has "
                                        << batch.num_edges);
    if (partition) {
      t0 = Clock::now();
      const auto parts = sgnn::gpar::GraphPartition::build(batch, kRanks);
      split.push_back(seconds_between(t0, Clock::now()) * 1e3);
      SGNN_CHECK(parts.num_edges == batch.num_edges, "partition lost edges");
    }
  }
  return {median(build), median(neighbor), partition ? median(split) : 0.0};
}

/// Loader probe: DataLoader::next over one epoch, ms per batch.
double probe_loader(const std::vector<const MolecularGraph*>& graphs,
                    std::uint64_t seed) {
  sgnn::DataLoader loader(graphs, kBatch, seed);
  loader.begin_epoch();
  std::vector<double> ms;
  while (loader.has_next()) {
    const Clock::time_point t0 = Clock::now();
    const GraphBatch batch = loader.next();
    ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  return median(ms);
}

std::int64_t registry_counter(const std::string& name) {
  return sgnn::obs::MetricsRegistry::instance().counter(name).value();
}

/// A graph-parallel pass made with obs::prof and tracing on.
struct TracedGparPass {
  TrainPass pass;
  std::optional<ProfView> prof;
  std::int64_t collective_calls = 0;
};

TracedGparPass traced_gpar_pass(const sgnn::DDStore& store,
                                const sgnn::ModelConfig& config,
                                std::int64_t epochs,
                                std::uint64_t sampler_seed) {
  TracedGparPass traced;
  const TracedScope scope;
  const std::int64_t calls_before = registry_counter("comm.collective_calls");
  traced.pass = gpar_pass(store, config, epochs, sampler_seed);
  traced.collective_calls =
      registry_counter("comm.collective_calls") - calls_before;
  traced.prof.emplace(sgnn::obs::prof::report(/*with_calibration=*/false));
  return traced;
}

/// The graph-parallel layers of a traced R=kRanks pass: checkpoint
/// recompute, halo traffic and time, collectives and communication waits.
void report_graph_parallel(const TracedGparPass& traced, Result& result) {
  const ProfView& prof = *traced.prof;
  const auto steps = static_cast<double>(traced.pass.steps);
  const auto rank_steps = steps * kRanks;
  result.metric("nn.recompute_ms",
                prof.forward_kernels_under("train_step;backward") /
                    rank_steps * 1e3,
                "ms");
  const sgnn::DistTrainReport& report = traced.pass.report;
  result.count("halo.bytes_per_step",
               static_cast<double>(report.halo_bytes) / steps);
  result.count("halo.exchanges_per_step",
               static_cast<double>(report.halo_exchanges) / steps);
  result.count("comm.collective_calls_per_step",
               static_cast<double>(traced.collective_calls) / steps);
  result.metric("halo.ring_fold_ms",
                prof.kernel_seconds([](const std::string& name) {
                  return name == "halo_ring.bwd";
                }) / steps * 1e3,
                "ms");
  result.metric("halo.exposed_ms", report.halo_exposed_seconds / steps * 1e3,
                "ms");
  result.metric("halo.overlapped_ms",
                report.halo_overlapped_seconds / steps * 1e3, "ms");
  result.metric("comm.wait_ms",
                prof.exclusive_named("halo") / rank_steps * 1e3, "ms");
}

/// Mean write time and bytes per snapshot, from the registry's ckpt.*
/// metrics of the snapshots written since its last reset.
void report_checkpoints(Result& result) {
  auto& registry = sgnn::obs::MetricsRegistry::instance();
  const auto writes = static_cast<double>(registry_counter("ckpt.writes"));
  result.metric(
      "ckpt.write_ms",
      registry.histogram("ckpt.write_seconds").snapshot().mean() * 1e3, "ms");
  result.metric("ckpt.bytes",
                static_cast<double>(registry_counter("ckpt.bytes")) / writes,
                "bytes");
}

}  // namespace

void run_fig3_train(const Args& args, Result& result) {
  const sgnn::ModelConfig config = grid_config(args.seed);
  std::optional<AggregatedDataset> dataset;
  const double setup_s = median_setup_seconds(kSetupRepetitions, [&] {
    dataset.emplace(make_dataset(kFig3DatasetBytes));
    const sgnn::EGNNModel model(config);
  });
  const auto graphs = all_graphs(*dataset);
  const double initial_loss = evaluated_loss(config, "", graphs);
  const std::int64_t steps_per_epoch =
      (static_cast<std::int64_t>(graphs.size()) + kBatch - 1) / kBatch;
  // An end-to-end run spends a share of its time on the scaling bracket; a
  // traced run makes two passes (untraced, then traced) of half the epochs,
  // so either lasts about as long as --seconds.
  const std::int64_t epochs =
      epochs_for(args.seconds * (args.trace ? 0.5 : kFig3MainShare),
                 kFig3NominalStepsPerSecond, steps_per_epoch);
  const std::uint64_t loader_seed = derive_seed(args.seed, 3);
  const std::string ckpt_dir = args.scratch + "/fig3_ckpt";
  result.info("graphs", static_cast<double>(graphs.size()));
  result.info("epochs", static_cast<double>(epochs));
  result.info("steps", static_cast<double>(epochs * steps_per_epoch));
  result.info("initial_loss", initial_loss);

  auto& registry = sgnn::obs::MetricsRegistry::instance();
  registry.reset();
  remove_tree(ckpt_dir);
  const TrainPass pass =
      fig3_pass(graphs, config, epochs, loader_seed, ckpt_dir);
  result.attempt(pass.steps);
  // Output checks: a finite loss that training lowered, and one readable
  // SGCK snapshot per epoch, the newest at the last step.
  const double final_loss =
      check_trained(config, pass.parameters, graphs, initial_loss, result);
  result.check(registry_counter("ckpt.writes") == epochs,
               "expected one checkpoint per epoch");
  const auto latest = sgnn::ckpt::CheckpointManager::load_latest(ckpt_dir);
  result.check(latest && latest->step == static_cast<std::uint64_t>(
                                             pass.steps) &&
                   sgnn::ckpt::SnapshotView(latest->payload)
                           .bytes("meta.kind") == "trainer",
               "the newest checkpoint is not the last step's trainer snapshot");
  remove_tree(ckpt_dir);

  if (!args.trace) {
    // Strong scaling over the intra-op pool: the first half of the epochs
    // again on one lane, then again on four. Four-lane step times are the
    // mean of the main pass's and the rerun's, so a drift of the host's
    // speed cancels to first order.
    const std::int64_t scaling_epochs = (epochs + 1) / 2;
    sgnn::ThreadPool& pool = sgnn::ThreadPool::instance();
    pool.resize(1);
    const TrainPass lane1 =
        fig3_pass(graphs, config, scaling_epochs, loader_seed, ckpt_dir);
    remove_tree(ckpt_dir);
    pool.resize(kFig3PoolThreads);
    const TrainPass again4 =
        fig3_pass(graphs, config, scaling_epochs, loader_seed, ckpt_dir);
    remove_tree(ckpt_dir);
    result.attempt(lane1.steps + again4.steps);
    const TrainPass head4 = first_steps(pass, again4.steps);
    result.check(same_losses(again4, head4) && same_losses(lane1, head4),
                 "the pool's lane count changed the training arithmetic");
    result.metric("setup_s", setup_s, "s");
    result.metric("train_atoms_per_s", atoms_per_second(pass), "atoms/s");
    result.metric("train_final_loss", final_loss, "loss");
    result.metric("peak_mem_mib",
                  static_cast<double>(pass.peak_bytes) / kMiB, "MiB");
    result.metric("scaling_efficiency",
                  median(efficiency_per_step(
                      lane1, averaged(head4, again4), kFig3PoolThreads)),
                  "ratio");
    return;
  }

  TrainPass traced;
  std::optional<ProfView> prof;
  {
    const TracedScope scope;
    traced = fig3_pass(graphs, config, epochs, loader_seed, ckpt_dir);
    prof.emplace(sgnn::obs::prof::report(/*with_calibration=*/false));
  }
  remove_tree(ckpt_dir);
  report_traced_training(pass, traced, *prof, /*ranks=*/1, result);
  report_checkpoints(result);
  const LayerProbe probe =
      probe_layers(graphs, config.cutoff, /*partition=*/true);
  result.metric("data.batch_build_ms", probe_loader(graphs, loader_seed), "ms");
  result.metric("graph.neighbor_ms", probe.neighbor_ms, "ms");
  result.metric("graph.partition_ms", probe.partition_ms, "ms");

  // fig3's Trainer does no halo, comm or recompute work. Those layers are
  // measured on its batches by a short graph-parallel probe: R=4, one lane
  // per rank, activation checkpointing on, over its first batches.
  const std::vector<MolecularGraph> head(
      dataset->graphs().begin(),
      dataset->graphs().begin() + kFig3ProbeSteps * kBatch);
  sgnn::DDStore store(kRanks);
  store.insert(head);
  sgnn::ThreadPool::instance().resize(kGparPoolThreads);
  const TracedGparPass probe_pass =
      traced_gpar_pass(store, config, /*epochs=*/1, loader_seed);
  sgnn::ThreadPool::instance().resize(kFig3PoolThreads);
  result.attempt(probe_pass.pass.steps);
  result.check(probe_pass.pass.steps == kFig3ProbeSteps,
               "the graph-parallel probe ran an unexpected number of steps");
  report_graph_parallel(probe_pass, result);
  result.metric("train.rank_skew", rank_skew(probe_pass.pass), "ratio");
}

void run_gpar4_train(const Args& args, Result& result) {
  const sgnn::ModelConfig config = grid_config(args.seed);
  std::optional<AggregatedDataset> dataset;
  std::optional<sgnn::DDStore> store4;
  std::optional<sgnn::DDStore> store1;
  const double setup_s = median_setup_seconds(kSetupRepetitions, [&] {
    dataset.emplace(make_dataset(kGparDatasetBytes));
    store4.emplace(kRanks);
    store4->insert(dataset->graphs());
    store1.emplace(1);
    store1->insert(dataset->graphs());
    const sgnn::EGNNModel model(config);
  });
  const std::int64_t steps_per_epoch = store4->size() / kBatch;
  const std::uint64_t sampler_seed = derive_seed(args.seed, 4);
  const auto graphs = all_graphs(*dataset);
  const double initial_loss = evaluated_loss(config, "", graphs);
  result.info("graphs", static_cast<double>(store4->size()));
  result.info("steps_per_epoch", static_cast<double>(steps_per_epoch));
  result.info("initial_loss", initial_loss);
  auto& registry = sgnn::obs::MetricsRegistry::instance();
  registry.reset();

  const std::int64_t epochs =
      epochs_for(args.seconds, kGparNominalStepsPerSecond, steps_per_epoch);
  result.info("epochs", static_cast<double>(epochs));
  const TrainPass pass4 = gpar_pass(*store4, config, epochs, sampler_seed);
  result.attempt(pass4.steps);
  const double final_loss =
      check_trained(config, pass4.parameters, graphs, initial_loss, result);

  if (!args.trace) {
    // The single-rank run of the same steps is the bit-identity reference
    // and the efficiency base. More one-epoch R=4 and R=1 passes of the
    // first epoch's steps follow, alternating; each step's time at R=1 and
    // at R=4 is its fastest over the passes, the one least disturbed by
    // the host's other load.
    const TrainPass full1 = gpar_pass(*store1, config, epochs, sampler_seed);
    result.attempt(full1.steps);
    result.check(same_losses(full1, pass4),
                 "R=4 losses are not bit-equal to the R=1 run");
    result.check(full1.parameters == pass4.parameters,
                 "R=4 parameters are not bit-equal to the R=1 run");

    const TrainPass epoch4 = first_steps(pass4, steps_per_epoch);
    std::vector<TrainPass> passes4 = {epoch4};
    std::vector<TrainPass> passes1 = {first_steps(full1, steps_per_epoch)};
    std::string epoch_parameters;
    const auto rerun = [&](const sgnn::DDStore& store,
                           std::vector<TrainPass>& passes) {
      TrainPass pass = gpar_pass(store, config, 1, sampler_seed);
      result.attempt(pass.steps);
      if (epoch_parameters.empty()) epoch_parameters = pass.parameters;
      result.check(same_losses(pass, epoch4) &&
                       pass.parameters == epoch_parameters,
                   "one-epoch R=1 and R=4 runs are not bit-equal");
      passes.push_back(std::move(pass));
    };
    const auto rounds = std::max<std::int64_t>(
        1, std::llround(args.seconds / kGparNominalSecondsPerRound));
    result.info("rounds", static_cast<double>(rounds));
    for (std::int64_t round = 0; round < rounds; ++round) {
      rerun(*store4, passes4);
      rerun(*store1, passes1);
    }
    std::vector<double> rates = rate_per_step(pass4);
    for (std::size_t k = 1; k < passes4.size(); ++k) {
      for (const double rate : rate_per_step(passes4[k])) rates.push_back(rate);
    }
    result.metric("setup_s", setup_s, "s");
    result.metric("train_atoms_per_s", median(rates), "atoms/s");
    result.metric("train_final_loss", final_loss, "loss");
    result.metric("peak_mem_mib",
                  static_cast<double>(pass4.peak_bytes) / kMiB, "MiB");
    result.metric("scaling_efficiency",
                  median(efficiency_per_step(fastest(passes1),
                                             fastest(passes4), kRanks)),
                  "ratio");
    return;
  }

  const TracedGparPass traced =
      traced_gpar_pass(*store4, config, epochs, sampler_seed);
  report_traced_training(pass4, traced.pass, *traced.prof, kRanks, result);
  report_graph_parallel(traced, result);
  result.metric("train.rank_skew", rank_skew(pass4), "ratio");
  const LayerProbe probe =
      probe_layers(graphs, config.cutoff, /*partition=*/true);
  result.metric("data.batch_build_ms", probe.batch_build_ms, "ms");
  result.metric("graph.neighbor_ms", probe.neighbor_ms, "ms");
  result.metric("graph.partition_ms", probe.partition_ms, "ms");

  // The workload itself writes no snapshots; one more epoch with a
  // snapshot after every step measures the graph-parallel trainer's
  // checkpoint writes.
  const std::string ckpt_dir = args.scratch + "/gpar_ckpt";
  remove_tree(ckpt_dir);
  const TrainPass saved =
      gpar_pass(*store4, config, /*epochs=*/1, sampler_seed, ckpt_dir);
  remove_tree(ckpt_dir);
  result.attempt(saved.steps);
  result.check(registry_counter("ckpt.writes") == saved.steps,
               "expected one graph-parallel checkpoint per step");
  report_checkpoints(result);
}

}  // namespace perfbench
