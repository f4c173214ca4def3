// simmpi: a message-passing runtime with MPI point-to-point semantics
// (nonblocking send/recv with source+tag matching, WaitAll, barrier,
// allreduce), backed by threads instead of a network.
//
// This is the substitution for the paper's MPI layer (see DESIGN.md):
// every rank genuinely executes the decomposition, 26-neighbor
// exchange, packing/aggregation and communication-avoiding logic; only
// the wire time is modeled (src/net) rather than measured, because the
// reproduction host has no interconnect.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace gmg::comm {

/// Matches any source rank (MPI_ANY_SOURCE analogue).
inline constexpr int kAnySource = -1;

/// A scatter/gather segment of a message (iovec analogue). Messages
/// sent or received directly from brick storage use several segments;
/// the packing-free exchange is expressed this way.
struct Segment {
  void* data = nullptr;
  std::size_t bytes = 0;
};
struct ConstSegment {
  const void* data = nullptr;
  std::size_t bytes = 0;

  ConstSegment() = default;
  ConstSegment(const void* d, std::size_t b) : data(d), bytes(b) {}
  explicit ConstSegment(const Segment& s) : data(s.data), bytes(s.bytes) {}
};

namespace detail {
struct RequestState;
struct WorldState;
}  // namespace detail

/// Handle to a pending nonblocking operation.
class Request {
 public:
  Request() = default;
  bool valid() const { return state_ != nullptr; }

 private:
  friend class Communicator;
  explicit Request(std::shared_ptr<detail::RequestState> s)
      : state_(std::move(s)) {}
  std::shared_ptr<detail::RequestState> state_;
};

/// Per-rank communicator handle. Thread-affine: each rank thread uses
/// only its own Communicator.
class Communicator {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// Nonblocking send/recv. Buffers must stay valid until wait_all.
  /// Sends are buffered (complete immediately, MPI_Ibsend-like);
  /// receives complete when a matching send arrives.
  Request isend(const void* buf, std::size_t bytes, int dest, int tag);
  Request irecv(void* buf, std::size_t bytes, int source, int tag);

  /// Scatter/gather variants used by the packing-free brick exchange.
  Request isendv(std::vector<ConstSegment> segments, int dest, int tag);
  Request irecvv(std::vector<Segment> segments, int source, int tag);

  void wait_all(std::span<Request> requests);
  void wait(Request& request);

  void barrier();
  /// Global max / sum of one double per rank. Contributions combine in
  /// rank order whatever order the ranks arrive in, so the result is
  /// reproducible from run to run.
  double allreduce_max(double v);
  double allreduce_sum(double v);
  /// Gather one double from every rank (index == rank).
  std::vector<double> allgather(double v);

  /// Bytes/messages sent by this rank since construction (feeds the
  /// network model and the bench harnesses).
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t messages_sent() const { return messages_sent_; }

 private:
  friend class World;
  Communicator(detail::WorldState* w, int rank) : world_(w), rank_(rank) {}

  detail::WorldState* world_ = nullptr;
  int rank_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t messages_sent_ = 0;
};

/// A world of N ranks. `run` executes `fn(comm)` on every rank
/// concurrently and rethrows the first rank failure after joining.
class World {
 public:
  explicit World(int nranks);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const { return nranks_; }

  void run(const std::function<void(Communicator&)>& fn);

  /// Aggregate traffic across all ranks from the last run().
  std::uint64_t total_bytes_sent() const { return total_bytes_; }
  std::uint64_t total_messages_sent() const { return total_messages_; }

 private:
  int nranks_;
  std::unique_ptr<detail::WorldState> state_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t total_messages_ = 0;
};

}  // namespace gmg::comm
