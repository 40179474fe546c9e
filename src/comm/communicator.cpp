#include "sgnn/comm/communicator.hpp"

#include <algorithm>
#include <numeric>

#include "sgnn/obs/metrics.hpp"
#include "sgnn/obs/trace.hpp"
#include "sgnn/util/error.hpp"

namespace sgnn {

namespace comm_detail {

/// Shared completion state of one rank's post (one per handle). The engine
/// flips `done` (or sets `error`) under the mutex and notifies.
struct NbOpState {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::string error;  ///< non-empty: wait()/test() throw instead
};

/// One rank's enqueued collective post, parked until every rank's
/// matching post (same position in its FIFO) has arrived.
struct PendingOp {
  CollectiveKind kind = CollectiveKind::kAllReduce;
  int rank = -1;
  std::vector<real>* inout = nullptr;        ///< all-reduce: in and out
  const std::vector<real>* input = nullptr;  ///< rs input / ag piece
  std::vector<real>* output = nullptr;       ///< rs piece / ag gathered
  std::vector<std::size_t> counts;           ///< partition sizes; empty
                                             ///< for the blocking all-gather
  std::shared_ptr<NbOpState> state;
};

/// Completes every handle of a matched set, with or without an error.
void finish(std::vector<PendingOp>& ops, const std::string& error) {
  for (auto& op : ops) {
    const std::lock_guard<std::mutex> lock(op.state->mutex);
    op.state->error = error;
    op.state->done = true;
    op.state->cv.notify_all();
  }
}

}  // namespace comm_detail

bool CollectiveHandle::test() const {
  SGNN_CHECK(state_ != nullptr, "test() on an empty CollectiveHandle");
  const std::lock_guard<std::mutex> lock(state_->mutex);
  if (state_->done && !state_->error.empty()) {
    throw Error(state_->error);
  }
  return state_->done;
}

void CollectiveHandle::wait() const {
  SGNN_CHECK(state_ != nullptr, "wait() on an empty CollectiveHandle");
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->done; });
  if (!state_->error.empty()) {
    throw Error(state_->error);
  }
}

Communicator::Communicator(int num_ranks) : num_ranks_(num_ranks) {
  SGNN_CHECK(num_ranks > 0, "communicator needs at least one rank");
  nb_queues_.resize(static_cast<std::size_t>(num_ranks));
}

Communicator::~Communicator() {
  std::vector<comm_detail::PendingOp> orphans;
  {
    const std::lock_guard<std::mutex> lock(nb_mutex_);
    nb_shutdown_ = true;
    nb_cv_.notify_all();
  }
  if (nb_engine_.joinable()) nb_engine_.join();
  // The engine drains every matchable set before exiting; whatever is left
  // is an un-matchable partial post (some rank never posted its half).
  // Fail those handles so a stray wait() throws instead of hanging forever.
  for (auto& queue : nb_queues_) {
    for (auto& op : queue) orphans.push_back(std::move(op));
    queue.clear();
  }
  comm_detail::finish(orphans,
                      orphans.empty()
                          ? ""
                          : "communicator destroyed with unmatched "
                            "collective posts");
}

void Communicator::barrier() {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::uint64_t generation = generation_;
  if (++arrived_ == num_ranks_) {
    arrived_ = 0;
    ++generation_;
    cv_.notify_all();
  } else {
    cv_.wait(lock, [&] { return generation_ != generation; });
  }
}

std::pair<std::size_t, std::size_t> Communicator::shard_range(std::size_t n,
                                                              int rank,
                                                              int num_ranks) {
  const std::size_t r = static_cast<std::size_t>(rank);
  const std::size_t R = static_cast<std::size_t>(num_ranks);
  const std::size_t base = n / R;
  const std::size_t extra = n % R;
  const std::size_t begin = r * base + std::min(r, extra);
  const std::size_t size = base + (r < extra ? 1 : 0);
  return {begin, begin + size};
}

// The blocking collectives are post + wait on the progress engine, so they
// share its FIFO, its cross-rank validation, its rank-order reduction and its
// traffic accounting with the non-blocking ones.

void Communicator::all_reduce_sum(int rank, std::vector<real>& data) {
  SGNN_CHECK(rank >= 0 && rank < num_ranks_, "invalid rank " << rank);
  obs::TraceSpan span("all_reduce", "collective");
  if (span.active()) {
    span.arg("bytes",
             static_cast<std::uint64_t>(data.size() * sizeof(real)));
  }
  iall_reduce_sum(rank, data).wait();
}

std::vector<real> Communicator::reduce_scatter_sum(
    int rank, const std::vector<real>& input) {
  SGNN_CHECK(rank >= 0 && rank < num_ranks_, "invalid rank " << rank);
  obs::TraceSpan span("reduce_scatter", "collective");
  if (span.active()) {
    span.arg("bytes",
             static_cast<std::uint64_t>(input.size() * sizeof(real)));
  }
  // The shard_range partition of this rank's length: ranks whose lengths
  // differ post different counts, which the engine rejects on every rank.
  std::vector<std::size_t> counts;
  for (int r = 0; r < num_ranks_; ++r) {
    const auto [begin, end] = shard_range(input.size(), r, num_ranks_);
    counts.push_back(end - begin);
  }
  std::vector<real> shard;
  ireduce_scatter_counts(rank, input, counts, shard).wait();
  return shard;
}

std::vector<real> Communicator::all_gather(int rank,
                                           const std::vector<real>& shard) {
  SGNN_CHECK(rank >= 0 && rank < num_ranks_, "invalid rank " << rank);
  obs::TraceSpan span("all_gather", "collective");
  if (span.active()) {
    span.arg("bytes",
             static_cast<std::uint64_t>(shard.size() * sizeof(real)));
  }
  // Counts-free: every rank's shard is concatenated as posted, so uneven
  // shards (ZeRO's trailing ones) need no size exchange.
  std::vector<real> gathered;
  comm_detail::PendingOp op;
  op.kind = CollectiveKind::kAllGather;
  op.rank = rank;
  op.input = &shard;
  op.output = &gathered;
  enqueue(std::move(op)).wait();
  return gathered;
}

CollectiveHandle Communicator::iall_reduce_sum(int rank,
                                               std::vector<real>& data) {
  SGNN_CHECK(rank >= 0 && rank < num_ranks_, "invalid rank " << rank);
  comm_detail::PendingOp op;
  op.kind = CollectiveKind::kAllReduce;
  op.rank = rank;
  op.inout = &data;
  return enqueue(std::move(op));
}

CollectiveHandle Communicator::ireduce_scatter_counts(
    int rank, const std::vector<real>& input,
    const std::vector<std::size_t>& counts, std::vector<real>& piece) {
  SGNN_CHECK(rank >= 0 && rank < num_ranks_, "invalid rank " << rank);
  SGNN_CHECK(counts.size() == static_cast<std::size_t>(num_ranks_),
             "ireduce_scatter_counts needs one count per rank, got "
                 << counts.size() << " for " << num_ranks_ << " ranks");
  const std::size_t total =
      std::accumulate(counts.begin(), counts.end(), std::size_t{0});
  SGNN_CHECK(total == input.size(),
             "ireduce_scatter_counts counts sum to "
                 << total << " but input has " << input.size() << " elements");
  comm_detail::PendingOp op;
  op.kind = CollectiveKind::kReduceScatter;
  op.rank = rank;
  op.input = &input;
  op.output = &piece;
  op.counts = counts;
  return enqueue(std::move(op));
}

CollectiveHandle Communicator::iall_gather_counts(
    int rank, const std::vector<real>& piece,
    const std::vector<std::size_t>& counts, std::vector<real>& gathered) {
  SGNN_CHECK(rank >= 0 && rank < num_ranks_, "invalid rank " << rank);
  SGNN_CHECK(counts.size() == static_cast<std::size_t>(num_ranks_),
             "iall_gather_counts needs one count per rank, got "
                 << counts.size() << " for " << num_ranks_ << " ranks");
  SGNN_CHECK(piece.size() == counts[static_cast<std::size_t>(rank)],
             "iall_gather_counts piece has "
                 << piece.size() << " elements but counts[" << rank << "] is "
                 << counts[static_cast<std::size_t>(rank)]);
  comm_detail::PendingOp op;
  op.kind = CollectiveKind::kAllGather;
  op.rank = rank;
  op.input = &piece;
  op.output = &gathered;
  op.counts = counts;
  return enqueue(std::move(op));
}

CollectiveHandle Communicator::enqueue(comm_detail::PendingOp op) {
  op.state = std::make_shared<comm_detail::NbOpState>();
  CollectiveHandle handle(op.state);
  {
    const std::lock_guard<std::mutex> lock(nb_mutex_);
    SGNN_CHECK(!nb_shutdown_, "collective post on a shutting-down "
                              "communicator");
    if (!nb_engine_started_) {
      nb_engine_started_ = true;
      nb_engine_ = std::thread([this] { progress_loop(); });
    }
    nb_queues_[static_cast<std::size_t>(op.rank)].push_back(std::move(op));
    nb_cv_.notify_all();
  }
  return handle;
}

namespace {

/// Cross-rank validation of one matched set of posts. Returns an empty
/// string when the set forms a well-posed collective; otherwise the error
/// every handle should fail with. A mismatch cannot throw in any rank's
/// thread here, so it is deferred to wait()/test() — on every rank.
std::string validate_matched(const std::vector<comm_detail::PendingOp>& ops) {
  const CollectiveKind kind = ops.front().kind;
  for (const auto& op : ops) {
    if (op.kind != kind) {
      return "mismatched collective kinds across ranks "
             "(SPMD post-order violation)";
    }
  }
  switch (kind) {
    case CollectiveKind::kAllReduce: {
      const std::size_t n = ops.front().inout->size();
      for (const auto& op : ops) {
        if (op.inout->size() != n) {
          return "all_reduce size mismatch across ranks";
        }
      }
      break;
    }
    case CollectiveKind::kReduceScatter:
    case CollectiveKind::kAllGather: {
      const auto& counts = ops.front().counts;
      for (const auto& op : ops) {
        if (op.counts != counts) {
          return "collective counts differ across ranks";
        }
      }
      break;
    }
  }
  return std::string();
}

}  // namespace

void Communicator::progress_loop() {
  for (;;) {
    std::vector<comm_detail::PendingOp> ops;
    {
      std::unique_lock<std::mutex> lock(nb_mutex_);
      const auto matchable = [&] {
        for (const auto& queue : nb_queues_) {
          if (queue.empty()) return false;
        }
        return true;
      };
      nb_cv_.wait(lock, [&] { return nb_shutdown_ || matchable(); });
      // Drain every matchable set even while shutting down — the posts
      // already happened, and their ranks may be blocked in wait().
      if (!matchable()) {
        if (nb_shutdown_) return;
        continue;
      }
      ops.reserve(static_cast<std::size_t>(num_ranks_));
      for (auto& queue : nb_queues_) {
        ops.push_back(std::move(queue.front()));
        queue.pop_front();
      }
    }
    const std::string error = validate_matched(ops);
    if (!error.empty()) {
      comm_detail::finish(ops, error);
      continue;
    }
    switch (ops.front().kind) {
      case CollectiveKind::kAllReduce: {
        // Fixed rank-order summation from +0, so bucketed results are
        // bit-identical to one big all_reduce_sum.
        std::vector<real> total(ops.front().inout->size(), real{0});
        for (const auto& op : ops) {
          const auto& src = *op.inout;
          for (std::size_t i = 0; i < total.size(); ++i) total[i] += src[i];
        }
        for (auto& op : ops) *op.inout = total;
        count_collective(CollectiveKind::kAllReduce,
                          total.size() * sizeof(real));
        break;
      }
      case CollectiveKind::kReduceScatter: {
        const auto& counts = ops.front().counts;
        std::size_t offset = 0;
        for (std::size_t r = 0; r < counts.size(); ++r) {
          auto& piece = *ops[r].output;
          piece.assign(counts[r], real{0});
          for (const auto& op : ops) {
            const auto& src = *op.input;
            for (std::size_t i = 0; i < counts[r]; ++i) {
              piece[i] += src[offset + i];
            }
          }
          offset += counts[r];
        }
        count_collective(CollectiveKind::kReduceScatter,
                          offset * sizeof(real));
        break;
      }
      case CollectiveKind::kAllGather: {
        std::vector<real> gathered;
        for (const auto& op : ops) {
          gathered.insert(gathered.end(), op.input->begin(), op.input->end());
        }
        for (auto& op : ops) *op.output = gathered;
        count_collective(CollectiveKind::kAllGather,
                          gathered.size() * sizeof(real));
        break;
      }
    }
    comm_detail::finish(ops, std::string());
  }
}

void Communicator::count_collective(CollectiveKind kind,
                                     std::uint64_t bytes) {
  auto& registry = obs::MetricsRegistry::instance();
  switch (kind) {
    case CollectiveKind::kAllReduce:
      all_reduce_bytes_.fetch_add(bytes);
      all_reduce_calls_.fetch_add(1);
      registry.counter("comm.all_reduce_bytes")
          .add(static_cast<std::int64_t>(bytes));
      break;
    case CollectiveKind::kReduceScatter:
      reduce_scatter_bytes_.fetch_add(bytes);
      reduce_scatter_calls_.fetch_add(1);
      registry.counter("comm.reduce_scatter_bytes")
          .add(static_cast<std::int64_t>(bytes));
      break;
    case CollectiveKind::kAllGather:
      all_gather_bytes_.fetch_add(bytes);
      all_gather_calls_.fetch_add(1);
      registry.counter("comm.all_gather_bytes")
          .add(static_cast<std::int64_t>(bytes));
      break;
  }
  collective_calls_.fetch_add(1);
  registry.counter("comm.collective_calls").add(1);
}

Communicator::Traffic Communicator::traffic() const {
  Traffic t;
  t.all_reduce_bytes = all_reduce_bytes_.load();
  t.reduce_scatter_bytes = reduce_scatter_bytes_.load();
  t.all_gather_bytes = all_gather_bytes_.load();
  t.all_reduce_calls = all_reduce_calls_.load();
  t.reduce_scatter_calls = reduce_scatter_calls_.load();
  t.all_gather_calls = all_gather_calls_.load();
  t.collective_calls = collective_calls_.load();
  return t;
}

void Communicator::reset_traffic() {
  all_reduce_bytes_ = 0;
  reduce_scatter_bytes_ = 0;
  all_gather_bytes_ = 0;
  all_reduce_calls_ = 0;
  reduce_scatter_calls_ = 0;
  all_gather_calls_ = 0;
  collective_calls_ = 0;
}

Communicator::Traffic Communicator::Traffic::since(
    const Traffic& earlier) const {
  SGNN_CHECK(earlier.all_reduce_bytes <= all_reduce_bytes &&
                 earlier.reduce_scatter_bytes <= reduce_scatter_bytes &&
                 earlier.all_gather_bytes <= all_gather_bytes &&
                 earlier.all_reduce_calls <= all_reduce_calls &&
                 earlier.reduce_scatter_calls <= reduce_scatter_calls &&
                 earlier.all_gather_calls <= all_gather_calls &&
                 earlier.collective_calls <= collective_calls,
             "Traffic::since called with a later snapshot as `earlier`; "
             "unsigned subtraction would wrap");
  Traffic delta;
  delta.all_reduce_bytes = all_reduce_bytes - earlier.all_reduce_bytes;
  delta.reduce_scatter_bytes =
      reduce_scatter_bytes - earlier.reduce_scatter_bytes;
  delta.all_gather_bytes = all_gather_bytes - earlier.all_gather_bytes;
  delta.all_reduce_calls = all_reduce_calls - earlier.all_reduce_calls;
  delta.reduce_scatter_calls =
      reduce_scatter_calls - earlier.reduce_scatter_calls;
  delta.all_gather_calls = all_gather_calls - earlier.all_gather_calls;
  delta.collective_calls = collective_calls - earlier.collective_calls;
  return delta;
}

double InterconnectModel::all_reduce_seconds(std::uint64_t bytes,
                                             int ranks) const {
  if (ranks <= 1) return 0.0;
  const double steps = 2.0 * (ranks - 1);
  return steps * (static_cast<double>(bytes) / ranks /
                  link_bandwidth_bytes_per_s);
}

double InterconnectModel::reduce_scatter_seconds(std::uint64_t bytes,
                                                 int ranks) const {
  if (ranks <= 1) return 0.0;
  const double steps = static_cast<double>(ranks - 1);
  return steps * (static_cast<double>(bytes) / ranks /
                  link_bandwidth_bytes_per_s);
}

double InterconnectModel::all_gather_seconds(std::uint64_t bytes,
                                             int ranks) const {
  return reduce_scatter_seconds(bytes, ranks);
}

double InterconnectModel::all_reduce_latency_seconds(int ranks) const {
  if (ranks <= 1) return 0.0;
  return 2.0 * (ranks - 1) * latency_seconds;
}

double InterconnectModel::reduce_scatter_latency_seconds(int ranks) const {
  if (ranks <= 1) return 0.0;
  return static_cast<double>(ranks - 1) * latency_seconds;
}

double InterconnectModel::all_gather_latency_seconds(int ranks) const {
  return reduce_scatter_latency_seconds(ranks);
}

double InterconnectModel::seconds(const Communicator::Traffic& traffic,
                                  int ranks) const {
  return all_reduce_seconds(traffic.all_reduce_bytes, ranks) +
         reduce_scatter_seconds(traffic.reduce_scatter_bytes, ranks) +
         all_gather_seconds(traffic.all_gather_bytes, ranks) +
         static_cast<double>(traffic.all_reduce_calls) *
             all_reduce_latency_seconds(ranks) +
         static_cast<double>(traffic.reduce_scatter_calls) *
             reduce_scatter_latency_seconds(ranks) +
         static_cast<double>(traffic.all_gather_calls) *
             all_gather_latency_seconds(ranks);
}

double InterconnectModel::call_seconds(CollectiveKind kind,
                                       std::uint64_t bytes, int ranks) const {
  switch (kind) {
    case CollectiveKind::kAllReduce:
      return all_reduce_seconds(bytes, ranks) +
             all_reduce_latency_seconds(ranks);
    case CollectiveKind::kReduceScatter:
      return reduce_scatter_seconds(bytes, ranks) +
             reduce_scatter_latency_seconds(ranks);
    case CollectiveKind::kAllGather:
      return all_gather_seconds(bytes, ranks) +
             all_gather_latency_seconds(ranks);
  }
  SGNN_CHECK(false, "unknown CollectiveKind");
  return 0.0;
}

InterconnectModel::OverlapCost InterconnectModel::overlap_cost(
    const std::vector<OverlapEvent>& events, int ranks) const {
  OverlapCost cost;
  // The fabric is serial: op i occupies it for its modeled duration
  // starting no earlier than its (stall-adjusted) post time and no earlier
  // than the previous op's finish. Whenever a wait() arrives before its
  // op's modeled finish, the shortfall is exposed stall, and it pushes
  // every later measured timestamp out by the same amount (the rank's
  // clock ran while the fabric's did not).
  double fabric_free = 0.0;  // when the modeled fabric next becomes idle
  double stall = 0.0;        // accumulated exposed time so far
  double prev_post = 0.0;
  for (const auto& event : events) {
    SGNN_CHECK(event.wait_seconds >= event.post_seconds,
               "overlap event waited before it was posted");
    SGNN_CHECK(event.post_seconds >= prev_post,
               "overlap events must be FIFO-ordered by post time");
    prev_post = event.post_seconds;
    const double duration = call_seconds(event.kind, event.bytes, ranks);
    const double start = std::max(event.post_seconds + stall, fabric_free);
    const double finish = start + duration;
    fabric_free = finish;
    const double now = event.wait_seconds + stall;
    const double exposed = std::max(0.0, finish - now);
    stall += exposed;
    cost.total_seconds += duration;
    cost.exposed_seconds += exposed;
    ++cost.ops;
  }
  cost.overlapped_seconds = cost.total_seconds - cost.exposed_seconds;
  return cost;
}

}  // namespace sgnn
