#include "sgnn/train/halo.hpp"

#include <algorithm>

#include "sgnn/obs/metrics.hpp"
#include "sgnn/obs/prof.hpp"
#include "sgnn/tensor/kernels.hpp"
#include "sgnn/tensor/memory_tracker.hpp"
#include "sgnn/util/error.hpp"

namespace sgnn::gpar {

HaloExchanger::HaloExchanger(Communicator& comm, int rank,
                             const GraphPartition& partition,
                             const GraphBatch& batch)
    : comm_(comm),
      me_(rank),
      part_(partition),
      mine_(partition.ranks.at(static_cast<std::size_t>(rank))),
      gather_row_counts_(std::any_of(
          partition.ranks.begin(), partition.ranks.end(),
          [](const RankPartition& r) {
            return r.num_owned() == r.num_local_edges();
          })) {
  SGNN_CHECK(comm.num_ranks() == partition.num_ranks,
             "partition built for " << partition.num_ranks
                                    << " ranks, communicator has "
                                    << comm.num_ranks());
  SGNN_CHECK(partition.num_nodes == batch.num_nodes &&
                 partition.num_edges == batch.num_edges,
             "partition does not describe this batch");
  const std::int64_t owned = mine_.num_owned();
  const std::int64_t local_edges = mine_.num_local_edges();

  species_.reserve(static_cast<std::size_t>(owned));
  for (std::int64_t i = mine_.owned_begin; i < mine_.owned_end; ++i) {
    species_.push_back(batch.species[static_cast<std::size_t>(i)]);
  }

  positions_ = Tensor::zeros(Shape{owned, 3});
  std::copy_n(batch.positions.data() + mine_.owned_begin * 3,
              static_cast<std::size_t>(owned * 3), positions_.data());

  Tensor shift = Tensor::zeros(Shape{local_edges, 3});
  std::copy_n(batch.edge_shift.data() + mine_.edge_begin * 3,
              static_cast<std::size_t>(local_edges * 3), shift.data());

  // Every in-edge of an owned node lives in this rank's slice, so the
  // local degree count IS the global one (integer counts — exact).
  const ScopedMemCategory scope(MemCategory::kWorkspace);
  Tensor inv_degree = Tensor::zeros(Shape{owned, 1});
  real* d = inv_degree.data();
  for (const auto dst : mine_.local_dst) d[dst] += 1;
  for (std::int64_t i = 0; i < owned; ++i) {
    d[i] = real{1} / std::max(d[i], real{1});
  }

  context_.edge_src = &mine_.local_src;
  context_.edge_dst = &mine_.local_dst;
  context_.edge_shift = shift;
  context_.inv_degree = inv_degree;
  context_.num_nodes = owned;
  context_.halo = this;
}

HaloExchanger::~HaloExchanger() {
  // A simulated crash can unwind mid-window with gathers still in flight;
  // the progress engine owns the buffers until completion, so drain them
  // here (every rank posted symmetrically before throwing, so these waits
  // complete; failures from a dying communicator are already reported
  // through the primary exception).
  for (PendingGather* pending : {&pending_x_, &pending_h_}) {
    if (pending->open && pending->posted) {
      try {
        pending->handle.wait();
      } catch (...) {  // NOLINT(bugprone-empty-catch)
      }
    }
    pending->open = false;
  }
}

void HaloExchanger::record_event(CollectiveKind kind, std::uint64_t bytes,
                                 double post, double wait) {
  InterconnectModel::OverlapEvent event;
  event.kind = kind;
  event.bytes = bytes;
  event.post_seconds = post;
  event.wait_seconds = wait;
  events_.push_back(event);
}

std::vector<InterconnectModel::OverlapEvent> HaloExchanger::take_events() {
  std::vector<InterconnectModel::OverlapEvent> taken;
  taken.swap(events_);
  return taken;
}

void HaloExchanger::count_exchange(std::uint64_t bytes) {
  halo_bytes_ += bytes;
  ++exchanges_;
  if (me_ == 0) {
    // Once per LOGICAL collective (mirrors the Communicator's traffic
    // counters, which the progress engine bumps once per op, not per rank).
    obs::MetricsRegistry::instance()
        .counter("halo.bytes")
        .add(static_cast<std::int64_t>(bytes));
    obs::MetricsRegistry::instance().counter("halo.exchanges").add(1);
  }
}

void HaloExchanger::post_boundary_gather(const real* rows, std::int64_t cols,
                                         PendingGather& pending) {
  SGNN_CHECK(!pending.open, "halo boundary gather already in flight");
  const int num_ranks = part_.num_ranks;
  std::vector<std::size_t> counts(static_cast<std::size_t>(num_ranks));
  std::size_t total = 0;
  for (int r = 0; r < num_ranks; ++r) {
    counts[static_cast<std::size_t>(r)] =
        part_.ranks[static_cast<std::size_t>(r)].boundary.size() *
        static_cast<std::size_t>(cols);
    total += counts[static_cast<std::size_t>(r)];
  }
  pending.open = true;
  pending.posted = total > 0;
  pending.bytes = total * sizeof(real);
  pending.post_seconds = clock_.seconds();
  if (!pending.posted) return;  // symmetric: counts are global

  pending.piece.resize(mine_.boundary.size() * static_cast<std::size_t>(cols));
  real* out = pending.piece.data();
  for (std::size_t i = 0; i < mine_.boundary.size(); ++i) {
    const std::int64_t local = mine_.boundary[i] - mine_.owned_begin;
    std::copy_n(rows + local * cols, static_cast<std::size_t>(cols),
                out + static_cast<std::int64_t>(i) * cols);
  }
  pending.gathered.resize(total);
  pending.handle =
      comm_.iall_gather_counts(me_, pending.piece, counts, pending.gathered);
  count_exchange(pending.bytes);
}

void HaloExchanger::wait_gather(PendingGather& pending) {
  SGNN_CHECK(pending.open, "halo gather waited before being posted");
  if (pending.posted) {
    pending.handle.wait();
    record_event(CollectiveKind::kAllGather, pending.bytes,
                 pending.post_seconds, clock_.seconds());
  }
  pending.open = false;
}

Tensor HaloExchanger::make_src_select(const Tensor& owned,
                                      const std::vector<real>& ghost,
                                      std::int64_t cols) {
  const Tensor od = owned.detach();
  const std::int64_t owned_rows = mine_.num_owned();
  const std::int64_t edges = mine_.num_local_edges();
  Tensor out = Tensor::make_result(
      Shape{edges, cols}, {owned},
      [this, cols](const Tensor& grad) -> std::vector<Tensor> {
        return {ghost_scatter_grad(grad, cols)};
      },
      "halo_select_src");
  const obs::prof::KernelScope prof(
      "halo_select", 0,
      obs::prof::sat_mul(2 * static_cast<std::int64_t>(sizeof(real)), edges,
                         cols));
  const real* po = od.data();
  const real* pg = ghost.data();
  real* dst = out.data();
  for (std::int64_t e = 0; e < edges; ++e) {
    const std::int64_t src = mine_.local_src[static_cast<std::size_t>(e)];
    const real* row =
        src < owned_rows
            ? po + src * cols
            : pg + mine_.halo_fetch[static_cast<std::size_t>(
                       src - owned_rows)] *
                       cols;
    std::copy_n(row, static_cast<std::size_t>(cols), dst + e * cols);
  }
  return out;
}

Tensor HaloExchanger::select_src_x(const Tensor& x, const Tensor& h) {
  const std::int64_t owned = mine_.num_owned();
  SGNN_CHECK(x.rank() == 2 && x.dim(0) == owned && x.dim(1) == 3,
             "select_src_x expects owned (" << owned << ", 3) coordinates, "
                                            << "got "
                                            << x.shape().to_string());
  SGNN_CHECK(h.rank() == 2 && h.dim(0) == owned,
             "select_src_x expects owned feature rows, got "
                 << h.shape().to_string());
  const obs::prof::ProfRegion region("halo");
  // Post BOTH exchanges up front: x resolves now (the geometry needs it),
  // h keeps flying across the distance/RBF compute and lands in
  // select_src_h — that window is the overlap this module exists for.
  const Tensor xd = x.detach();
  const Tensor hd = h.detach();
  post_boundary_gather(xd.data(), 3, pending_x_);
  post_boundary_gather(hd.data(), h.dim(1), pending_h_);
  if (pre_wait_hook_) pre_wait_hook_();
  wait_gather(pending_x_);
  return make_src_select(x, pending_x_.gathered, 3);
}

Tensor HaloExchanger::select_src_h(const Tensor& h) {
  SGNN_CHECK(pending_h_.open,
             "select_src_h without a preceding select_src_x (the h exchange "
             "is posted there)");
  const obs::prof::ProfRegion region("halo");
  wait_gather(pending_h_);
  return make_src_select(h, pending_h_.gathered, h.dim(1));
}

Tensor HaloExchanger::ghost_scatter_grad(const Tensor& grad,
                                         std::int64_t cols) {
  const obs::prof::ProfRegion region("halo");
  const int num_ranks = part_.num_ranks;
  const std::int64_t owned = mine_.num_owned();
  Tensor out = Tensor::zeros(Shape{owned, cols});

  // Exchange the per-edge gradient rows of every rank's ghost edges. The
  // rows are shipped PER EDGE (not pre-summed per node) precisely so the
  // owner can fold them in global edge order — pre-summing would re-bracket
  // the floating-point accumulation and break bit-identity.
  std::vector<std::size_t> counts(static_cast<std::size_t>(num_ranks));
  std::size_t total = 0;
  for (int r = 0; r < num_ranks; ++r) {
    counts[static_cast<std::size_t>(r)] =
        part_.ranks[static_cast<std::size_t>(r)].ghost_edges.size() *
        static_cast<std::size_t>(cols);
    total += counts[static_cast<std::size_t>(r)];
  }
  const real* pg = grad.data();
  std::vector<real> gathered(total);
  if (total > 0) {
    std::vector<real> piece(mine_.ghost_edges.size() *
                            static_cast<std::size_t>(cols));
    for (std::size_t i = 0; i < mine_.ghost_edges.size(); ++i) {
      std::copy_n(pg + mine_.ghost_edges[i] * cols,
                  static_cast<std::size_t>(cols),
                  piece.data() + static_cast<std::int64_t>(i) * cols);
    }
    const double post = clock_.seconds();
    CollectiveHandle handle =
        comm_.iall_gather_counts(me_, piece, counts, gathered);
    handle.wait();  // backward needs the rows immediately: fully exposed
    record_event(CollectiveKind::kAllGather, total * sizeof(real), post,
                 post);
    count_exchange(total * sizeof(real));
  }

  // Fold every edge's contribution into its owner row in GLOBAL edge order:
  // rank blocks ascending, slice order within a block. Block me_ uses the
  // local gradient rows directly (same bytes as its gathered copy).
  const obs::prof::KernelScope prof(
      "halo_scatter", 0,
      obs::prof::sat_mul(
          static_cast<std::int64_t>(sizeof(real)),
          obs::prof::sat_add(
              obs::prof::sat_mul(2, mine_.num_local_edges(), cols),
              2 * static_cast<std::int64_t>(total))));
  real* po = out.data();
  std::size_t offset = 0;
  for (int r = 0; r < num_ranks; ++r) {
    if (r == me_) {
      const std::int64_t edges = mine_.num_local_edges();
      for (std::int64_t e = 0; e < edges; ++e) {
        const std::int64_t src = mine_.local_src[static_cast<std::size_t>(e)];
        if (src >= owned) continue;  // ghost: delivered to its owner
        real* dst = po + src * cols;
        const real* row = pg + e * cols;
        for (std::int64_t c = 0; c < cols; ++c) dst[c] += row[c];
      }
    } else {
      const real* block = gathered.data() + offset;
      for (const auto& [pos, target] :
           mine_.inbound[static_cast<std::size_t>(r)]) {
        real* dst = po + target * cols;
        const real* row = block + pos * cols;
        for (std::int64_t c = 0; c < cols; ++c) dst[c] += row[c];
      }
    }
    offset += counts[static_cast<std::size_t>(r)];
  }
  return out;
}

Tensor HaloExchanger::all_gather_rows(const Tensor& owned) {
  const std::int64_t owned_rows = mine_.num_owned();
  SGNN_CHECK(owned.rank() == 2 && owned.dim(0) == owned_rows,
             "all_gather_rows expects this rank's owned rows, got "
                 << owned.shape().to_string());
  const obs::prof::ProfRegion region("halo");
  const std::int64_t cols = owned.dim(1);
  const Tensor od = owned.detach();
  const std::int64_t begin = mine_.owned_begin;
  Tensor out = Tensor::make_result(
      Shape{part_.num_nodes, cols}, {owned},
      [owned_rows, cols, begin](const Tensor& grad) -> std::vector<Tensor> {
        // The readout past this point is replicated, so its gradient is
        // identical on every rank; this rank's share is just its own rows.
        const obs::prof::KernelScope prof(
            "halo_all_gather", 0,
            obs::prof::sat_mul(2 * static_cast<std::int64_t>(sizeof(real)),
                               owned_rows, cols),
            ".bwd");
        Tensor gx = Tensor::zeros(Shape{owned_rows, cols});
        std::copy_n(grad.data() + begin * cols,
                    static_cast<std::size_t>(owned_rows * cols), gx.data());
        return {gx};
      },
      "halo_all_gather");
  if (part_.num_ranks == 1) {
    std::copy_n(od.data(), static_cast<std::size_t>(owned_rows * cols),
                out.data());
    return out;
  }
  std::vector<std::size_t> counts(static_cast<std::size_t>(part_.num_ranks));
  std::size_t total = 0;
  for (int r = 0; r < part_.num_ranks; ++r) {
    counts[static_cast<std::size_t>(r)] =
        static_cast<std::size_t>(
            part_.ranks[static_cast<std::size_t>(r)].num_owned()) *
        static_cast<std::size_t>(cols);
    total += counts[static_cast<std::size_t>(r)];
  }
  std::vector<real> piece(od.data(),
                          od.data() + static_cast<std::size_t>(owned_rows) *
                                          static_cast<std::size_t>(cols));
  std::vector<real> gathered(total);
  const double post = clock_.seconds();
  CollectiveHandle handle =
      comm_.iall_gather_counts(me_, piece, counts, gathered);
  handle.wait();  // the heads need the full tensor now: fully exposed
  record_event(CollectiveKind::kAllGather, total * sizeof(real), post, post);
  count_exchange(total * sizeof(real));
  // Rank-order concatenation of contiguous owned ranges IS global node
  // order — no permutation needed.
  std::copy(gathered.begin(), gathered.end(), out.data());
  return out;
}

std::vector<std::int64_t> HaloExchanger::shard_offsets(
    std::int64_t local_rows) {
  const int num_ranks = part_.num_ranks;
  const auto ranks = static_cast<std::size_t>(num_ranks);
  std::vector<std::int64_t> offsets(ranks + 1, 0);
  if (num_ranks == 1) {
    offsets[1] = local_rows;
    return offsets;
  }
  if (gather_row_counts_) {
    // Some rank's edge and node counts are equal, so its row count does not
    // say which global order a fold runs over: gather the counts instead.
    // The condition is a property of the partition, so every rank posts
    // this alike.
    const std::vector<real> piece = {static_cast<real>(local_rows)};
    const std::vector<std::size_t> counts(ranks, 1);
    std::vector<real> gathered(ranks);
    comm_.iall_gather_counts(me_, piece, counts, gathered).wait();
    count_exchange(ranks * sizeof(real));
    for (std::size_t r = 0; r < ranks; ++r) {
      offsets[r + 1] = offsets[r] + static_cast<std::int64_t>(gathered[r]);
    }
    return offsets;
  }
  const bool edges = local_rows == mine_.num_local_edges();
  SGNN_CHECK(edges || local_rows == mine_.num_owned(),
             "graph-parallel fold over " << local_rows
                                         << " rows: neither this rank's "
                                         << mine_.num_local_edges()
                                         << " edges nor its "
                                         << mine_.num_owned() << " nodes");
  for (std::size_t r = 0; r < ranks; ++r) {
    const RankPartition& rp = part_.ranks[r];
    offsets[r] = edges ? rp.edge_begin : rp.owned_begin;
  }
  offsets[ranks] = edges ? part_.num_edges : part_.num_nodes;
  return offsets;
}

Tensor HaloExchanger::fold(std::int64_t local_rows, std::int64_t rows,
                           std::int64_t cols, std::int64_t flops,
                           std::int64_t bytes, const RowFold& fold_rows) {
  const obs::prof::ProfRegion region("halo");
  // The block adds below run in fp64; under float32 compute matmul's
  // blocked order adds in float, so only fp64 reproduces the local bits.
  SGNN_CHECK(kernels::active_compute_dtype() ==
                 kernels::ComputeDtype::kFloat64,
             "graph-parallel gradient folds require float64 compute");
  constexpr std::int64_t kBlock = kernels::kFoldBlockRows;
  const std::size_t size =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  Tensor out = Tensor::zeros(Shape{rows, cols});
  if (size == 0) return out;
  const int num_ranks = part_.num_ranks;
  const std::vector<std::int64_t> offsets = shard_offsets(local_rows);
  const std::int64_t g0 = offsets[static_cast<std::size_t>(me_)];

  // The shard split at global block boundaries: `head` rows continue the
  // block a lower rank left open (closing it when the shard reaches its
  // end), then `whole` complete blocks, then a tail that opens a block.
  const std::int64_t to_boundary = (kBlock - g0 % kBlock) % kBlock;
  const std::int64_t head = std::min(local_rows, to_boundary);
  const bool closes = to_boundary > 0 && local_rows >= to_boundary;
  const std::int64_t whole = (local_rows - head) / kBlock;
  const std::int64_t tail = head + whole * kBlock;
  // Prices the op's kernel over `share` of the shard's rows.
  const auto priced = [&](std::int64_t share, const auto& work) {
    const auto part = [&](std::int64_t cost) {
      return local_rows > 0 ? obs::prof::sat_mul(cost, share) / local_rows
                            : 0;
    };
    const obs::prof::KernelScope prof("halo_ring", part(flops), part(bytes),
                                      ".bwd");
    work();
  };
  const auto add_into = [size](real* dst, const real* src) {
    for (std::size_t e = 0; e < size; ++e) dst[e] += src[e];
  };

  // Op i of the ring carries rank i's running total over global rows
  // [0, offsets[i+1]) — every block closed so far, added in ascending order
  // — plus, when that boundary falls inside a block, the open block's
  // partial. Every rank posts empty pieces for the other ops, the lower
  // ones before its own work, so op i completes as soon as rank i posts:
  // the chain is deadlock-free by induction.
  const auto carries = [&](int i) {
    return i + 1 < num_ranks &&
           offsets[static_cast<std::size_t>(i) + 1] % kBlock != 0;
  };
  const auto ranks = static_cast<std::size_t>(num_ranks);
  std::vector<CollectiveHandle> handles(ranks);
  std::vector<std::vector<real>> gathered(ranks);
  const std::vector<real> empty;
  std::uint64_t ring_bytes = 0;
  const auto post = [&](int i, const std::vector<real>& piece) {
    const auto ii = static_cast<std::size_t>(i);
    std::vector<std::size_t> counts(ranks, 0);
    counts[ii] = size * (carries(i) ? 2 : 1);
    ring_bytes += counts[ii] * sizeof(real);
    gathered[ii].resize(counts[ii]);
    handles[ii] = comm_.iall_gather_counts(me_, piece, counts, gathered[ii]);
  };
  const double post_seconds = clock_.seconds();
  for (int i = 0; i < me_; ++i) post(i, empty);

  // Phase 1, before any wait: this rank's complete blocks and its tail,
  // each folded from +0.
  std::vector<real> partials(static_cast<std::size_t>(whole + 1) * size);
  const auto partial = [&](std::int64_t j) {
    return partials.data() + static_cast<std::size_t>(j) * size;
  };
  if (head < local_rows) {
    priced(local_rows - head, [&] {
      for (std::int64_t j = 0; j < whole; ++j) {
        fold_rows(head + j * kBlock, head + (j + 1) * kBlock, partial(j));
      }
      if (tail < local_rows) fold_rows(tail, local_rows, partial(whole));
    });
  }

  // Phase 2, the hop: continue the incoming open block with the head rows,
  // add the closed blocks in ascending order, and pass the result on.
  real* total = out.data();
  std::vector<real> open(size, real{0});
  if (me_ > 0) {
    const auto prev = static_cast<std::size_t>(me_ - 1);
    handles[prev].wait();
    std::copy_n(gathered[prev].begin(), size, total);
    if (carries(me_ - 1)) {
      std::copy_n(gathered[prev].begin() + static_cast<std::ptrdiff_t>(size),
                  size, open.begin());
    }
  }
  priced(head, [&] {
    if (head > 0) fold_rows(0, head, open.data());
    if (closes) {
      add_into(total, open.data());
      std::fill(open.begin(), open.end(), real{0});
    }
    for (std::int64_t j = 0; j < whole; ++j) add_into(total, partial(j));
    if (tail < local_rows) std::copy_n(partial(whole), size, open.begin());
    // The last block of all rows may be partial: it closes at the end.
    if (me_ == num_ranks - 1 && offsets[ranks] % kBlock != 0) {
      add_into(total, open.data());
    }
  });
  if (num_ranks == 1) return out;

  std::vector<real> piece(total, total + size);
  if (carries(me_)) piece.insert(piece.end(), open.begin(), open.end());
  post(me_, piece);
  for (int i = me_ + 1; i < num_ranks; ++i) post(i, empty);
  const std::size_t last = ranks - 1;
  handles[last].wait();
  std::copy_n(gathered[last].begin(), size, total);
  // Earlier ops executed before the last one (the engine matches posts in
  // order); these waits only release their buffers.
  for (std::size_t i = 0; i < last; ++i) handles[i].wait();
  // One summarized event per ring: the chain is mostly exposed, so only
  // the aggregate split is interesting, not per-hop stamps.
  record_event(CollectiveKind::kAllGather, ring_bytes, post_seconds,
               clock_.seconds());
  count_exchange(ring_bytes);
  return out;
}

}  // namespace sgnn::gpar
