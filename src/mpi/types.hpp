// Public types of the simulated MPI library.
#pragma once

#include <cstdint>
#include <memory>

#include "mpi/protocol.hpp"
#include "util/types.hpp"

namespace ovp::mpi {

/// Reduction operators for reduce/allreduce on doubles.
enum class Op : std::uint8_t { Sum, Max, Min, Prod };

/// Completion information for a received message.
struct Status {
  Rank source = -1;
  int tag = -1;
  Bytes bytes = 0;
};

class Mpi;
struct RequestState;

/// Handle to a non-blocking operation.  Cheap to copy; becomes inactive
/// after wait().
class Request {
 public:
  Request() = default;
  [[nodiscard]] bool valid() const { return state_ != nullptr; }

 private:
  friend class Mpi;
  explicit Request(std::shared_ptr<RequestState> s) : state_(std::move(s)) {}
  std::shared_ptr<RequestState> state_;
};

}  // namespace ovp::mpi
