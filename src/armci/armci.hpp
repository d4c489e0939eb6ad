// Simulated ARMCI: one-sided remote memory access library (paper Sec. 1,
// 4.4; Nieplocha et al.).
//
// ARMCI's operations are inherently non-blocking and require no
// coordination with the target process: puts and gets map directly onto
// NIC RDMA operations against pre-exchanged memory windows.  Once posted,
// a transfer proceeds entirely on the NICs — which is why the paper's
// instrumented ARMCI MG benchmark reports up to 99% maximum overlap for
// the non-blocking variant: XFER_BEGIN is stamped at the post inside
// ARMCI_NbPut/NbGet and XFER_END at the completion detected inside
// ARMCI_Wait, with arbitrary user computation in between.
//
// The same library shell as MPI's (mpi::LibraryCore) instruments it,
// demonstrating the framework's claim of working for both two-sided (MPI)
// and one-sided (ARMCI) models, and the same job runner runs it:
// ArmciMachine is mpi::BasicMachine over ArmciJob, which contributes only
// how a rank builds its Armci, the job's SharedBarrier and the name
// ARMCI_Finalize.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mpi/library.hpp"
#include "mpi/machine.hpp"
#include "net/nic.hpp"
#include "sim/engine.hpp"
#include "trace/collector.hpp"
#include "util/types.hpp"

namespace ovp::armci {

/// Handle for a non-blocking ARMCI operation.
class NbHandle {
 public:
  NbHandle() = default;
  [[nodiscard]] bool valid() const { return id >= 0; }

 private:
  friend class Armci;
  std::int64_t id = -1;
};

/// Fixed host cost of entering an ARMCI call.
inline constexpr DurationNs kCallOverhead = 120;

/// ARMCI adds nothing to the shell's configuration.
using ArmciConfig = mpi::LibraryConfig;

/// Job-wide collective-memory registry shared by all ranks' Armci
/// instances.  Barrier and reduction state is *not* here: those are
/// implemented with owner-local state and control packets over the NIC, so
/// ARMCI jobs can run under the engine's conservative-parallel mode.  The
/// allocation table is only written between message barriers (rank 0
/// creates a slot, each rank fills its own disjoint entry), so accesses are
/// ordered by the barrier protocol itself.
struct SharedBarrier {
  explicit SharedBarrier(int nranks) : nranks(nranks) {}
  int nranks;
  /// Backing store for collectiveMalloc: allocations[id][rank].
  std::vector<std::vector<std::unique_ptr<std::byte[]>>> allocations;
};

/// Control-packet vocabulary of the message-layer collectives (barrier
/// dissemination tokens and reduction value/result traffic).
enum class CtrlKind : std::uint8_t { BarrierToken, ReduceValue, ReduceResult };

/// Per-rank ARMCI library instance.  With a trace sink installed
/// (setTraceSink) it emits RMA_PUT/GET/ACC records at post time,
/// RMA_COMPLETE at origin-side retirement, and FENCE/BARRIER records — the
/// stream the offline happens-before analysis is built from.
class Armci final : public mpi::LibraryCore<ArmciConfig> {
 public:
  Armci(sim::Context& ctx, net::Fabric& fabric, const ArmciConfig& cfg,
        std::shared_ptr<SharedBarrier> barrier = nullptr);
  ~Armci() override;

  [[nodiscard]] Rank rank() const { return ctx_.rank(); }
  [[nodiscard]] int size() const { return ctx_.worldSize(); }

  // ---- one-sided data movement (contiguous) ----
  // `remote` addresses name memory in the target process; in this
  // simulation all ranks share the host address space, so remote pointers
  // are ordinary pointers that the application obtained via its own
  // exchange (ARMCI_Malloc returns the full pointer vector in reality).

  /// Blocking put: returns when the data has been delivered remotely.
  void put(const void* local_src, void* remote_dst, Bytes n, Rank target);
  /// Blocking get.
  void get(const void* remote_src, void* local_dst, Bytes n, Rank target);

  /// Non-blocking variants; complete via wait()/waitAll().
  [[nodiscard]] NbHandle nbPut(const void* local_src, void* remote_dst,
                               Bytes n, Rank target);
  [[nodiscard]] NbHandle nbGet(const void* remote_src, void* local_dst,
                               Bytes n, Rank target);

  /// One-sided accumulate (ARMCI_ACC_D): remote_dst[i] += scale * src[i]
  /// for `count` doubles, combined atomically at the target by the
  /// NIC/agent with no target-process involvement.
  [[nodiscard]] NbHandle nbAcc(const double* local_src, double* remote_dst,
                               int count, double scale, Rank target);
  /// Blocking accumulate: returns once combined remotely.
  void acc(const double* local_src, double* remote_dst, int count,
           double scale, Rank target);

  /// Collective memory allocation (ARMCI_Malloc): every rank allocates
  /// `bytes` and receives the full vector of all ranks' segment addresses,
  /// usable as put/get/acc targets.  Must be called by all ranks.
  [[nodiscard]] std::vector<void*> collectiveMalloc(Bytes bytes);

  /// Strided put/get: `count` rows of `row_bytes`, with the given strides
  /// on each side (ARMCI's 2-level strided interface, used by ghost-cell
  /// exchanges on non-contiguous faces).
  [[nodiscard]] NbHandle nbPutStrided(const void* local_src, Bytes src_stride,
                                      void* remote_dst, Bytes dst_stride,
                                      Bytes row_bytes, int count, Rank target);
  [[nodiscard]] NbHandle nbGetStrided(const void* remote_src, Bytes src_stride,
                                      void* local_dst, Bytes dst_stride,
                                      Bytes row_bytes, int count, Rank target);

  /// Blocks until the given handle's transfer completed locally.
  void wait(NbHandle& h);
  /// Blocks until all outstanding non-blocking operations completed.
  void waitAll();
  /// Orders puts to `target`: returns once previously issued puts to it are
  /// complete at the target (our puts complete remotely at local CQE +
  /// delivery; fence waits for local completion of all of them).
  void fence(Rank target);

  /// Message-layer barrier: log2(n) dissemination rounds of control
  /// packets over the NIC.  All state is owner-local, so the barrier is
  /// safe under the engine's conservative-parallel mode.
  void barrier();

  /// Global sum over all ranks (stands in for ARMCI's message-layer
  /// reduction; costs three barrier rounds).  Values are combined at rank 0
  /// in ascending rank order, so the floating-point result is deterministic
  /// and independent of the engine's worker count.
  [[nodiscard]] double allreduceSum(double value);

  /// Registers rank-local memory as a remote-access target so RMA records
  /// can name it as a stable (segment, offset) pair.  collectiveMalloc
  /// registers its slabs automatically; call this for plain heap memory
  /// peers will put/get/acc into.  No-op without a trace sink.
  void registerLocal(const void* base, Bytes bytes);

 private:
  /// Retires the work request's op once its last request completed.
  void handleCompletion(const net::Completion& c) override;
  /// Receive-queue drain: the only two-sided traffic an ARMCI NIC sees is
  /// the library's own control channel (barrier tokens, reduction values).
  void handlePacket(net::Packet& pkt) override;
  /// Posts one control packet to `target`'s receive queue (dedicated
  /// channel; never stamps XFER events — control traffic is not user data).
  void sendCtrl(Rank target, CtrlKind kind, std::int64_t epoch, int round,
                double value);
  /// Polls progress once, as every post does on entry, then opens one
  /// operation of `requests` NIC work requests and tracks it with the usage
  /// checker as `call` over its local buffer.
  NbHandle openOp(int requests, bool reads_local, const void* local,
                  Bytes local_bytes, const char* call);
  /// Blocks until `h`'s operation retired, tells the checker, and clears
  /// the handle.
  void retire(NbHandle& h);
  NbHandle postContig(bool is_put, const void* src, void* dst, Bytes n,
                      Rank target);
  NbHandle postStrided(bool is_put, const void* src, Bytes src_stride,
                       void* dst, Bytes dst_stride, Bytes row_bytes, int count,
                       Rank target);
  void stampBeginForOp(std::int64_t op_id, Bytes bytes);
  void registerWork(net::WorkId wid, std::int64_t op_id);
  /// Emits one RMA access record against `target`'s registered segments and
  /// charges the per-record cost.  No-op without a trace sink.
  void traceRma(trace::RecordKind kind, std::int64_t op_id, Rank target,
                const void* remote, Bytes n);
  /// Emits a non-access record (RmaComplete / Fence / Barrier).
  void traceSync(trace::RecordKind kind, std::int64_t id, Rank peer);

  /// Open operations: op id -> NIC work requests not yet completed.
  std::unordered_map<std::int64_t, int> pending_;
  std::unordered_map<net::WorkId, std::int64_t> work_to_op_;
  std::unordered_map<std::int64_t, TransferId> op_xfer_;
  std::int64_t next_op_ = 1;

  std::shared_ptr<SharedBarrier> barrier_;

  // ---- owner-local collective state (replaces shared counters) ----
  /// Next barrier epoch this rank enters; collective calls keep all ranks'
  /// counters in lockstep without sharing them.
  std::int64_t barrier_epoch_ = 0;
  std::int64_t reduce_epoch_ = 0;
  /// Dissemination tokens received early, keyed (epoch, round); a peer can
  /// run at most one barrier epoch ahead, so this stays O(log n).
  std::set<std::pair<std::int64_t, int>> barrier_tokens_;
  /// Rank 0 only: gathered addends keyed (reduce epoch, source rank).
  std::map<std::pair<std::int64_t, Rank>, double> reduce_values_;
  /// Non-zero ranks: reduction results keyed by reduce epoch.
  std::map<std::int64_t, double> reduce_results_;
};

struct ArmciJobConfig {
  int nranks = 2;
  net::FabricParams fabric;
  ArmciConfig armci;
  trace::CollectorConfig trace;
  /// Engine worker threads; results are bit-identical at any value, fault
  /// injection included.
  int workers = 1;
};

/// ARMCI's part of a job (see mpi::BasicMachine): every rank's Armci shares
/// the job's collective-memory registry.
struct ArmciJob {
  using Library = Armci;
  using Config = ArmciJobConfig;
  using Shared = std::shared_ptr<SharedBarrier>;
  static constexpr std::string_view kFinalize = "ARMCI_Finalize";

  static const ArmciConfig& library(const ArmciJobConfig& c) {
    return c.armci;
  }
  static Shared share(int nranks) {
    return std::make_shared<SharedBarrier>(nranks);
  }
  static Armci make(sim::Context& ctx, net::Fabric& fabric,
                    const ArmciJobConfig& c, const Shared& shared) {
    return Armci(ctx, fabric, c.armci, shared);
  }
};

/// Cluster-of-ARMCI-processes job runner: mpi::Machine's runner over
/// ArmciJob.
using ArmciMachine = mpi::BasicMachine<ArmciJob>;

}  // namespace ovp::armci

extern template class ovp::mpi::BasicMachine<ovp::armci::ArmciJob>;
