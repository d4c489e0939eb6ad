// The per-rank instance of the simulated MPI library.
//
// API shape follows the MPI-1 subset the NAS benchmarks need: blocking and
// non-blocking point-to-point, probe/iprobe, and the common collectives
// (built over point-to-point, as in many real implementations).
//
// Two properties matter for the reproduction:
//
//  1. POLLING PROGRESS.  All protocol state advances happen inside
//     progress(), which runs only while the application is inside a
//     library call.  A control packet that arrives while the application
//     computes sits in the NIC receive queue until the next call — e.g.
//     the pipelined-RDMA ACK is only acted upon when the sender enters
//     MPI_Wait (paper Sec. 3.5), and an MPI_Iprobe inserted into a compute
//     loop lets the library act earlier (the paper's NAS SP fix, Sec. 4.3).
//
//  2. LIBRARY-RESIDENT INSTRUMENTATION.  Every public entry point brackets
//     itself with CALL_ENTER/CALL_EXIT; protocol code stamps
//     XFER_BEGIN/XFER_END exactly where a real port would (post of a
//     work request carrying user bytes / poll that detects its completion).
//     How an event is stamped, charged and collected is the shell's
//     (mpi/library.hpp), shared with Armci.  In a traced job the library
//     also pushes its own send-post, recv-post and match records to the
//     trace collector, as Armci does its RMA ones.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "mpi/config.hpp"
#include "mpi/library.hpp"
#include "mpi/types.hpp"
#include "mpi/wire.hpp"
#include "net/nic.hpp"
#include "sim/engine.hpp"
#include "trace/record.hpp"
#include "util/types.hpp"

namespace ovp::mpi {

/// Internal per-operation state (definition in mpi.cpp).
struct RequestState;

class Mpi final : public LibraryCore<MpiConfig> {
 public:
  Mpi(sim::Context& ctx, net::Fabric& fabric, const MpiConfig& cfg);
  ~Mpi() override;

  [[nodiscard]] Rank rank() const;
  [[nodiscard]] int size() const;

  // ---- point-to-point ----
  void send(const void* buf, Bytes n, Rank dst, int tag);
  void recv(void* buf, Bytes n, Rank src, int tag, Status* status = nullptr);
  [[nodiscard]] Request isend(const void* buf, Bytes n, Rank dst, int tag);
  [[nodiscard]] Request irecv(void* buf, Bytes n, Rank src, int tag);
  void wait(Request& req, Status* status = nullptr);
  void waitall(Request* reqs, int count);
  /// Blocks until at least one valid request completes; consumes it and
  /// returns its index (-1 if no valid request was passed).
  int waitany(Request* reqs, int count, Status* status = nullptr);
  /// Non-blocking completion check; consumes the request when true.
  [[nodiscard]] bool test(Request& req, Status* status = nullptr);
  /// Non-blocking check of a whole set; consumes all when all complete.
  [[nodiscard]] bool testall(Request* reqs, int count);
  /// Synchronous send: returns only once the matching receive was posted
  /// and the transfer completed at this side (no eager buffering
  /// semantics: small messages use the rendezvous path too).
  void ssend(const void* buf, Bytes n, Rank dst, int tag);
  /// True if a matchable message is pending (drives the progress engine —
  /// the paper's SP modification relies on this side effect).
  bool iprobe(Rank src, int tag, Status* status = nullptr);
  void probe(Rank src, int tag, Status* status = nullptr);
  void sendrecv(const void* sbuf, Bytes sn, Rank dst, int stag, void* rbuf,
                Bytes rn, Rank src, int rtag, Status* status = nullptr);

  // ---- collectives (doubles for reductions, bytes elsewhere) ----
  void barrier();
  void bcast(void* buf, Bytes n, Rank root);
  void reduce(const double* in, double* out, int count, Op op, Rank root);
  void allreduce(const double* in, double* out, int count, Op op);
  void alltoall(const void* sbuf, void* rbuf, Bytes bytes_per_rank);
  /// Variable-size all-to-all: rank i's block for rank j has
  /// send_counts[j] bytes at offset send_offsets[j]; symmetric on receive.
  void alltoallv(const void* sbuf, const Bytes* send_counts,
                 const Bytes* send_offsets, void* rbuf,
                 const Bytes* recv_counts, const Bytes* recv_offsets);
  void allgather(const void* sbuf, void* rbuf, Bytes bytes_per_rank);
  void gather(const void* sbuf, void* rbuf, Bytes n, Rank root);
  void scatter(const void* sbuf, void* rbuf, Bytes n, Rank root);

  /// Typed convenience wrappers.
  template <typename T>
  void sendT(const T* buf, int count, Rank dst, int tag) {
    send(buf, static_cast<Bytes>(count) * static_cast<Bytes>(sizeof(T)), dst,
         tag);
  }
  template <typename T>
  void recvT(T* buf, int count, Rank src, int tag) {
    recv(buf, static_cast<Bytes>(count) * static_cast<Bytes>(sizeof(T)), src,
         tag);
  }
  template <typename T>
  [[nodiscard]] Request isendT(const T* buf, int count, Rank dst, int tag) {
    return isend(buf, static_cast<Bytes>(count) * static_cast<Bytes>(sizeof(T)),
                 dst, tag);
  }
  template <typename T>
  [[nodiscard]] Request irecvT(T* buf, int count, Rank src, int tag) {
    return irecv(buf, static_cast<Bytes>(count) * static_cast<Bytes>(sizeof(T)),
                 src, tag);
  }

 private:
  struct UnexpectedMsg;

  void handleCompletion(const net::Completion& c) override;
  /// An eager message or RTS meets its posted receive here, or is queued.
  void handlePacket(net::Packet& received) override;

  /// Builds one point-to-point request; a null `call` (ssend's internal
  /// request) keeps it from the usage checker.
  std::shared_ptr<RequestState> newRequest(bool is_send, const void* buf,
                                           Bytes n, Rank peer, int tag,
                                           const char* call);

  // protocol steps
  void startSend(const std::shared_ptr<RequestState>& req, bool sync);
  void startEagerSend(const std::shared_ptr<RequestState>& req);
  void startRendezvousSend(const std::shared_ptr<RequestState>& req,
                           bool sync);
  /// Posts a receive, or delivers the queued message it matches.
  void matchReceive(const std::shared_ptr<RequestState>& recv_req);
  /// The first queued message a receive of (src, tag) matches; its status
  /// goes to `status` when one is found and `status` is not null.
  std::deque<UnexpectedMsg>::iterator findUnexpected(Rank src, int tag,
                                                     Status* status);
  /// A matched receive, whichever came first: checks the size, sets the
  /// status, then copies out an eager payload, starts a read rendezvous,
  /// or answers a write rendezvous (`data` is its first fragment).
  void deliver(const std::shared_ptr<RequestState>& recv_req,
               const wire::Header& hdr, int channel, const std::byte* data);
  void beginRdmaRead(const std::shared_ptr<RequestState>& recv_req,
                     const wire::Header& rts);
  void sendFragments(const std::shared_ptr<RequestState>& send_req,
                     const wire::Header& ack);

  /// Consumes a completed request handle, telling the usage checker.
  void retire(Request& req);

  /// One matching-stream record (SEND_POST, RECV_POST or MATCH); no-op
  /// without a trace sink.
  void traceP2p(trace::RecordKind record_kind, Rank peer, int tag,
                Bytes bytes);

  /// Global engine rank acting as job-local rank `local` (identity without
  /// a group).  Applied exactly where protocol code targets the fabric.
  [[nodiscard]] Rank global(Rank local) const {
    return cfg_.group ? (*cfg_.group)[static_cast<std::size_t>(local)] : local;
  }

  Rank lrank_ = 0;  // this process's job-local rank
  int lsize_ = 0;   // job size (group size, or world size)

  // Matching structures.
  std::deque<std::shared_ptr<RequestState>> posted_recvs_;
  std::deque<UnexpectedMsg> unexpected_;

  // Outstanding protocol bookkeeping.
  std::unordered_map<net::WorkId, std::function<void()>> on_completion_;
  std::unordered_map<std::uint64_t, std::shared_ptr<RequestState>>
      sends_in_flight_;  // keyed by our seq
  std::unordered_map<std::uint64_t, std::shared_ptr<RequestState>>
      recvs_awaiting_fin_;  // keyed by our local recv id
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_recv_id_ = 1;
  std::uint64_t next_req_uid_ = 1;  // usage-checker request ids

  /// Persistent reduction scratch (grow-only).  Reduce/allreduce combine
  /// into these instead of per-call temporaries so the buffers keep one
  /// address for the life of the rank: per-call vectors inherit
  /// thread-dependent malloc reuse, which makes the NIC registration
  /// cache's exact (ptr, size) hits diverge between worker counts and
  /// breaks sequential/parallel bit-identity.
  std::vector<double> reduce_acc_;
  std::vector<double> reduce_incoming_;
};

/// RAII section helper: `MpiSection s(mpi, "x_solve");`
class MpiSection {
 public:
  MpiSection(Mpi& mpi, std::string_view name) : mpi_(mpi) {
    mpi_.sectionBegin(name);
  }
  ~MpiSection() { mpi_.sectionEnd(); }
  MpiSection(const MpiSection&) = delete;
  MpiSection& operator=(const MpiSection&) = delete;

 private:
  Mpi& mpi_;
};

}  // namespace ovp::mpi
