// Configuration of the simulated MPI library.
//
// The three presets mirror the libraries the paper instrumented (Sec. 2.4,
// 3.3–3.5):
//
//  * OpenMpiPipelined    — Open MPI 1.0.1 default long-message path: RTS
//    carries the first fragment; after the receiver's ACK the sender
//    pipelines the remaining fragments as RDMA Writes with on-the-fly
//    registration.  Only the first fragment can overlap.
//  * OpenMpiLeavePinned  — Open MPI with mpi_leave_pinned: pipelining is
//    bypassed; registrations are cached (MRU); on RDMA-Read networks the
//    receiver reads the sender's buffer directly on seeing the RTS.
//  * Mvapich2            — MVAPICH2 0.6.5: eager messages are copied into
//    pre-registered buffers and RDMA-Written; rendezvous is zero-copy with
//    on-the-fly pinning and a receiver-side RDMA Read.
//
// All presets share the polling progress engine: the library only advances
// protocol state while the application is inside a library call.
#pragma once

#include <memory>
#include <vector>

#include "mpi/library.hpp"
#include "mpi/protocol.hpp"
#include "util/types.hpp"

namespace ovp::mpi {

enum class Preset : std::uint8_t {
  OpenMpiPipelined,
  OpenMpiLeavePinned,
  Mvapich2,
  /// MVAPICH-style rendezvous that RDMA-Writes the whole message after the
  /// receiver's CTS (the design alternative of Sur et al. [27], which the
  /// paper cites for its impact on overlap capability: the *sender* must
  /// notice the CTS through polling, so sender-side overlap collapses).
  Mvapich2RdmaWrite,
};

[[nodiscard]] constexpr const char* presetName(Preset p) {
  switch (p) {
    case Preset::OpenMpiPipelined: return "OpenMPI(pipelined)";
    case Preset::OpenMpiLeavePinned: return "OpenMPI(leave_pinned)";
    case Preset::Mvapich2: return "MVAPICH2";
    case Preset::Mvapich2RdmaWrite: return "MVAPICH2(write-rendezvous)";
  }
  return "?";
}

/// How the selected preset moves long messages.
enum class RendezvousStyle : std::uint8_t {
  PipelinedWrite,  // RTS carries frag1; ACK; sender pipelines RDMA Writes
  WholeWrite,      // RTS; CTS with receive address; one sender RDMA Write
  Read,            // RTS with send address; receiver RDMA Reads
};

[[nodiscard]] constexpr RendezvousStyle rendezvousStyle(Preset p) {
  switch (p) {
    case Preset::OpenMpiPipelined: return RendezvousStyle::PipelinedWrite;
    case Preset::OpenMpiLeavePinned: return RendezvousStyle::Read;
    case Preset::Mvapich2: return RendezvousStyle::Read;
    case Preset::Mvapich2RdmaWrite: return RendezvousStyle::WholeWrite;
  }
  return RendezvousStyle::Read;
}

/// Fixed host cost of entering any library call (argument checking, queue
/// locking...).
inline constexpr DurationNs kCallOverhead = 150;

/// Host cost per byte of applying a reduction operator.
inline constexpr double kReduceNsPerByte = 0.25;

struct MpiConfig : LibraryConfig {
  Preset preset = Preset::OpenMpiPipelined;

  /// Messages below this size use the eager protocol (sendsEagerly).
  Bytes eager_limit = kEagerLimit;

  /// Pipelined-RDMA fragment size (first fragment and RDMA fragments).
  /// Scaled with this repo's reduced problem sizes (Open MPI 1.0 used
  /// larger fragments against proportionally larger NAS messages).
  Bytes frag_size = 32 * 1024;

  /// Job-local rank namespace for multi-job cluster runs: group[i] is the
  /// global engine rank acting as this job's local rank i.  Application
  /// code, matching, statuses and reports all see local ranks; the mapping
  /// is applied only where the library crosses into the fabric (NIC posts).
  /// Null (the default) is the identity namespace of a whole-machine job.
  std::shared_ptr<const std::vector<Rank>> group;
};

}  // namespace ovp::mpi
