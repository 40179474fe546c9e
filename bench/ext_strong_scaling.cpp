// Extension: strong-scaling projection. The paper motivates HydraGNN by
// its "near-linear strong scaling performance" across thousands of GPUs
// (Sec. II-B); this bench measures a single-rank training epoch on this
// machine, then projects multi-rank step time with the same per-step
// collective payloads priced by the NVLink-3 interconnect model — the
// textbook compute/communication strong-scaling decomposition.
//
// (Threads on this 1-core host share the CPU, so multi-rank COMPUTE cannot
// be measured directly; the collectives and their payloads are real, the
// compute division is the projection.)

#include "bench_common.hpp"

int main() {
  using namespace sgnn;
  using namespace sgnn::bench;

  BenchReport report("ext_strong_scaling");
  const Experiment experiment = make_experiment();
  const auto subset = experiment.dataset.subsample(
      experiment.split.train, paper_tb_to_bytes(0.3), true, 91);

  ModelConfig config;
  config.hidden_dim = 64;
  config.num_layers = 3;
  const auto param_bytes =
      static_cast<std::uint64_t>(config.parameter_count()) * sizeof(real);

  // Measure single-rank compute.
  DistTrainOptions options;
  options.num_ranks = 1;
  options.epochs = 1;
  options.per_rank_batch_size = 4;
  DistributedTrainer trainer(config, options);
  DDStore store(1);
  {
    std::vector<MolecularGraph> graphs;
    for (const auto* g : experiment.dataset.view(subset)) graphs.push_back(*g);
    store.insert(std::move(graphs));
  }
  std::cerr << "[bench] measuring single-rank epoch...\n";
  const DistTrainReport base = trainer.train(store);
  const double single_compute = base.compute_seconds;
  const auto steps = static_cast<double>(base.steps);

  const InterconnectModel fabric;
  // With bucketed non-blocking all-reduce the gradient collectives are
  // posted DURING backward, so up to the backward share of the per-rank
  // compute can hide communication; only the shortfall is exposed stall
  // (see docs/communication.md). Backward is modeled at half the step.
  const double kBackwardShare = 0.5;
  Table table({"Ranks", "Compute s (projected)", "Comm s (modeled)",
               "Exposed s (overlap)", "Total s", "Total s (overlap)",
               "Speedup", "Efficiency", "Eff. (overlap)"});
  const auto project = [&](int ranks) {
    // Fixed global batch: per-rank compute divides; one all-reduce of the
    // full gradient per step regardless of rank count (DDP).
    const double compute = single_compute / ranks;
    const double comm =
        steps * fabric.all_reduce_seconds(param_bytes, ranks) +
        (ranks > 1 ? steps * fabric.latency_seconds : 0.0);
    const double exposed = std::max(0.0, comm - kBackwardShare * compute);
    return std::make_tuple(compute, comm, exposed);
  };
  const auto [c1, m1, e1] = project(1);
  const double t1 = c1 + m1;
  const double t1_overlap = c1 + e1;
  for (const int ranks : {1, 2, 4, 8, 16, 32, 128}) {
    const auto [compute, comm, exposed] = project(ranks);
    const double total = compute + comm;
    const double total_overlap = compute + exposed;
    table.add_row({std::to_string(ranks), Table::fixed(compute, 3),
                   Table::scientific(comm, 2), Table::scientific(exposed, 2),
                   Table::fixed(total, 3), Table::fixed(total_overlap, 3),
                   Table::fixed(t1 / total, 2) + "x",
                   Table::fixed(100.0 * t1 / total / ranks, 1) + "%",
                   Table::fixed(100.0 * t1_overlap / total_overlap / ranks,
                                1) +
                       "%"});
  }
  std::cout << table.to_ascii(
      "Extension — strong-scaling projection (measured 1-rank compute + "
      "modeled NVLink collectives, " +
      std::to_string(config.parameter_count()) + " params)");
  std::cout << "\nContext: HydraGNN-GFM reports near-linear strong scaling "
               "on Perlmutter/Frontier;\nthe projection shows the same "
               "regime — communication stays negligible until the\nper-rank "
               "compute share approaches the all-reduce time. The overlap "
               "columns price\nthe bucketed non-blocking path: gradient "
               "all-reduces hide behind the backward\nhalf of each step, so "
               "exposed comm is strictly below the all-exposed model at\n"
               "every multi-rank point and efficiency decays later.\n";

  report.add_table("projection", table);
  report.add_value("single_rank_compute_s", single_compute,
                   BenchReport::Better::kLower);

  // -- measured graph-parallel axis (sgnn::gpar) ---------------------------
  // Unlike the projection above, this axis RUNS the ranks: every step the
  // same global batch is spatially partitioned, one-hop halo rows are
  // exchanged through the Communicator, and ghost gradients fold back to
  // their owners. Atoms per rank SHRINK as ranks grow — the graph-parallel
  // strong-scaling axis the projection cannot model — while the halo
  // payload and its exposed/overlapped split are measured, not projected.
  // Training is bit-identical to the single-rank run at every rank count
  // (the partition-parity test wall), so the only thing that varies along
  // this axis is cost.
  std::cerr << "[bench] measuring graph-parallel halo axis...\n";
  std::vector<MolecularGraph> gp_graphs;
  double total_atoms = 0;
  for (const auto* g : experiment.dataset.view(subset)) {
    total_atoms += static_cast<double>(g->num_nodes());
    gp_graphs.push_back(*g);
  }
  const double atoms_per_graph =
      gp_graphs.empty() ? 0.0
                        : total_atoms / static_cast<double>(gp_graphs.size());

  Table gp_table({"Ranks", "Atoms/rank/step", "Halo KB/step", "Exch/step",
                  "Halo exposed s", "Halo overlapped s", "Hidden %"});
  for (const int ranks : {1, 2, 4}) {
    DistTrainOptions gp;
    gp.num_ranks = ranks;
    gp.epochs = 1;
    gp.per_rank_batch_size = 4;  // the GLOBAL batch under graph_parallel
    gp.strategy = DistStrategy::kDDP;
    gp.graph_parallel = true;
    gp.max_grad_norm = 0.0;
    DistributedTrainer gp_trainer(config, gp);
    DDStore gp_store(ranks);
    {
      std::vector<MolecularGraph> copy = gp_graphs;
      gp_store.insert(std::move(copy));
    }
    const DistTrainReport run = gp_trainer.train(gp_store);
    const double steps_d = std::max(1.0, static_cast<double>(run.steps));
    const double atoms_per_rank = 4.0 * atoms_per_graph / ranks;
    const double bytes_per_step =
        static_cast<double>(run.halo_bytes) / steps_d;
    const double exch_per_step =
        static_cast<double>(run.halo_exchanges) / steps_d;
    const double halo_total =
        run.halo_exposed_seconds + run.halo_overlapped_seconds;
    const double hidden =
        halo_total > 0 ? 100.0 * run.halo_overlapped_seconds / halo_total
                       : 0.0;
    gp_table.add_row({std::to_string(ranks), Table::fixed(atoms_per_rank, 1),
                      Table::fixed(bytes_per_step / 1024.0, 2),
                      Table::fixed(exch_per_step, 1),
                      Table::scientific(run.halo_exposed_seconds, 2),
                      Table::scientific(run.halo_overlapped_seconds, 2),
                      Table::fixed(hidden, 1) + "%"});
    const std::string prefix = "gp.r" + std::to_string(ranks) + ".";
    // Payload and exchange counts are pure functions of the (seeded)
    // dataset and the partition — deterministic, so the committed baseline
    // gates them exactly: any change fails the compare, even warn-only.
    report.add_value(prefix + "halo_bytes_per_step", bytes_per_step,
                     BenchReport::Better::kExact);
    report.add_value(prefix + "halo_exchanges_per_step", exch_per_step,
                     BenchReport::Better::kExact);
    // Timing split is machine-noisy: informational only.
    report.add_value(prefix + "halo_exposed_s", run.halo_exposed_seconds,
                     BenchReport::Better::kNone);
    report.add_value(prefix + "halo_overlapped_s",
                     run.halo_overlapped_seconds,
                     BenchReport::Better::kNone);
    report.add_info(prefix + "atoms_per_rank_per_step", atoms_per_rank);
  }
  std::cout << "\n"
            << gp_table.to_ascii(
                   "Extension — graph-parallel halo axis (measured: spatial "
                   "partition + one-hop halo exchange, global batch 4)");
  std::cout << "\nContext: under sgnn::gpar the ranks cooperate on ONE "
               "batch, so per-rank atoms\nfall as 1/R while the halo "
               "payload the boundary exchange moves grows with the\ncut "
               "surface. The overlapped column is the share of modeled "
               "fabric time hidden\nbehind the distance/RBF compute window "
               "that separates the x and h waits.\n";
  report.add_table("graph_parallel", gp_table);

  report.write();
  return 0;
}
