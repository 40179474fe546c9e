#pragma once

#include "common.hpp"

namespace perfbench {

/// Intra-op pool lanes per workload (the caller counts as one lane).
/// fig3_train: one trainer, four lanes. gpar4_train: four rank threads with
/// one lane each. serve_mixed: two server workers plus the generator thread,
/// one lane each.
inline constexpr int kFig3PoolThreads = 4;
inline constexpr int kGparPoolThreads = 1;
inline constexpr int kServePoolThreads = 1;

/// Single-process Trainer at the Fig. 3 grid point (hidden 64, depth 3,
/// batch 8, Adam 2e-3) on the proportional five-source dataset, one SGCK
/// snapshot per epoch, and the first half of its epochs again on one pool
/// lane against four.
void run_fig3_train(const Args& args, Result& result);

/// Graph-parallel DistributedTrainer at R=4 on the same model and a global
/// batch of 8 with activation checkpointing, against an R=1 run of the same
/// steps.
void run_gpar4_train(const Args& args, Result& result);

/// serve::Server with two workers under an open-loop Poisson load with hot
/// re-sends, force requests and a mid-run weight swap, then a closed-window
/// capacity phase.
void run_serve_mixed(const Args& args, Result& result);

}  // namespace perfbench
