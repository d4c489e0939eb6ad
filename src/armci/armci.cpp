#include "armci/armci.hpp"

#include <cassert>
#include <memory>
#include <stdexcept>

namespace ovp::armci {

namespace {

/// net::Packet::channel of ARMCI's message-layer control traffic (disjoint
/// from the MPI library's wire::Channel values).
constexpr int kCtrlChannel = 64;

/// Fixed-layout control-packet body (barrier tokens and reduction traffic).
struct CtrlMsg {
  CtrlKind kind = CtrlKind::BarrierToken;
  std::int64_t epoch = 0;
  int round = 0;
  Rank src = -1;
  double value = 0.0;
};

}  // namespace

Armci::Armci(sim::Context& ctx, net::Fabric& fabric, const ArmciConfig& cfg,
             std::shared_ptr<SharedBarrier> barrier)
    : LibraryCore(ctx, fabric, cfg, "armci", "ARMCI section end",
                  kCallOverhead),
      barrier_(std::move(barrier)) {
  createMonitor(ctx_.rank());
}

Armci::~Armci() = default;

void Armci::stampBeginForOp(std::int64_t op_id, Bytes bytes) {
  const TransferId id = stampXferBegin(bytes);
  if (id != kInvalidTransfer) op_xfer_[op_id] = id;
}

void Armci::registerWork(net::WorkId wid, std::int64_t op_id) {
  work_to_op_.emplace(wid, op_id);
}

void Armci::registerLocal(const void* base, Bytes bytes) {
  if (trace_sink_ == nullptr || base == nullptr || bytes <= 0) return;
  trace_sink_->registerSegment(ctx_.rank(), base, bytes);
}

void Armci::traceRma(trace::RecordKind kind, std::int64_t op_id, Rank target,
                     const void* remote, Bytes n) {
  if (trace_sink_ == nullptr) return;
  const trace::Collector::SegmentRef ref =
      trace_sink_->resolveSegment(target, remote, n);
  trace::Record rec;
  rec.kind = kind;
  rec.peer = target;
  rec.id = op_id;
  rec.bytes = n;
  rec.tag = ref.segment;
  rec.addr = ref.offset;
  pushRecord(rec);
}

void Armci::traceSync(trace::RecordKind kind, std::int64_t id, Rank peer) {
  trace::Record rec;
  rec.kind = kind;
  rec.peer = peer;
  rec.id = id;
  pushRecord(rec);
}

void Armci::handleCompletion(const net::Completion& c) {
  const auto wit = work_to_op_.find(c.id);
  if (wit == work_to_op_.end()) return;
  const std::int64_t op = wit->second;
  work_to_op_.erase(wit);
  const auto pit = pending_.find(op);
  assert(pit != pending_.end());
  if (--pit->second > 0) return;
  pending_.erase(pit);
  const auto xit = op_xfer_.find(op);
  if (xit != op_xfer_.end()) {
    stampXferEnd(xit->second);
    op_xfer_.erase(xit);
  }
  // Origin-side retirement: the settle point the race detector uses.
  traceSync(trace::RecordKind::RmaComplete, op, -1);
}

void Armci::sendCtrl(Rank target, CtrlKind kind, std::int64_t epoch, int round,
                     double value) {
  CtrlMsg msg;
  msg.kind = kind;
  msg.epoch = epoch;
  msg.round = round;
  msg.src = ctx_.rank();
  msg.value = value;
  net::Packet pkt;
  pkt.src = ctx_.rank();
  pkt.channel = kCtrlChannel;
  pkt.payload = net::packPod(msg);
  ctx_.advance(fabric_.params().post_overhead);
  // The Send CQE is drained (and ignored) by progress(): control packets
  // never map to a pending user operation.
  (void)nic_.postSend(target, std::move(pkt));
}

void Armci::handlePacket(net::Packet& pkt) {
  if (pkt.channel != kCtrlChannel) {
    throw std::logic_error("armci: unknown packet channel");
  }
  const CtrlMsg msg = net::unpackPod<CtrlMsg>(pkt.payload);
  switch (msg.kind) {
    case CtrlKind::BarrierToken:
      barrier_tokens_.emplace(msg.epoch, msg.round);
      break;
    case CtrlKind::ReduceValue:
      reduce_values_[{msg.epoch, msg.src}] = msg.value;
      break;
    case CtrlKind::ReduceResult:
      reduce_results_[msg.epoch] = msg.value;
      break;
  }
}

NbHandle Armci::openOp(int requests, bool reads_local, const void* local,
                       Bytes local_bytes, const char* call) {
  progress();
  NbHandle h;
  h.id = next_op_++;
  pending_[h.id] = requests;
  if (checker_ != nullptr) {
    checker_->onRequestPosted(static_cast<std::uint64_t>(h.id), reads_local,
                              local, local_bytes, call);
  }
  return h;
}

void Armci::retire(NbHandle& h) {
  progressUntil([&] { return !pending_.contains(h.id); });
  if (checker_ != nullptr) {
    checker_->onRequestConsumed(static_cast<std::uint64_t>(h.id));
  }
  h.id = -1;
}

NbHandle Armci::postContig(bool is_put, const void* src, void* dst, Bytes n,
                           Rank target) {
  // The local side is read by a put and written by a get.
  const NbHandle h = openOp(1, is_put, is_put ? src : dst, n,
                            is_put ? "ARMCI_NbPut" : "ARMCI_NbGet");
  ctx_.advance(fabric_.params().post_overhead);
  stampBeginForOp(h.id, n);
  traceRma(is_put ? trace::RecordKind::RmaPut : trace::RecordKind::RmaGet,
           h.id, target, is_put ? dst : src, n);
  net::WorkId wid;
  if (is_put) {
    wid = nic_.postRdmaWrite(target, src, dst, n, nullptr);
  } else {
    wid = nic_.postRdmaRead(target, dst, src, n);
  }
  registerWork(wid, h.id);
  return h;
}

NbHandle Armci::postStrided(bool is_put, const void* src, Bytes src_stride,
                            void* dst, Bytes dst_stride, Bytes row_bytes,
                            int count, Rank target) {
  // Strided regions are non-contiguous; track the request for leak
  // detection but skip the byte-range hazard check (no local range).
  const NbHandle h = openOp(count, is_put, nullptr, 0,
                            is_put ? "ARMCI_NbPutS" : "ARMCI_NbGetS");
  // One data transfer op for the whole strided region: the NIC moves it as
  // `count` scatter/gather rows.
  stampBeginForOp(h.id, row_bytes * count);
  const auto* s = static_cast<const std::byte*>(src);
  auto* d = static_cast<std::byte*>(dst);
  for (int r = 0; r < count; ++r) {
    ctx_.advance(fabric_.params().post_overhead);
    // One access record per row, all sharing the op id (rows are the
    // remotely-touched intervals; the gaps between them are not accessed).
    traceRma(is_put ? trace::RecordKind::RmaPut : trace::RecordKind::RmaGet,
             h.id, target, is_put ? d : s, row_bytes);
    net::WorkId wid;
    if (is_put) {
      wid = nic_.postRdmaWrite(target, s, d, row_bytes, nullptr);
    } else {
      wid = nic_.postRdmaRead(target, d, s, row_bytes);
    }
    registerWork(wid, h.id);
    s += src_stride;
    d += dst_stride;
  }
  return h;
}

void Armci::put(const void* local_src, void* remote_dst, Bytes n,
                Rank target) {
  CallGuard guard(*this);
  NbHandle h = postContig(/*is_put=*/true, local_src, remote_dst, n, target);
  retire(h);
  // Blocking put semantics: ensure remote delivery, not just local CQE.
  ctx_.advance(fabric_.params().wire_latency);
}

void Armci::get(const void* remote_src, void* local_dst, Bytes n,
                Rank target) {
  CallGuard guard(*this);
  NbHandle h = postContig(/*is_put=*/false, remote_src, local_dst, n, target);
  retire(h);
}

NbHandle Armci::nbPut(const void* local_src, void* remote_dst, Bytes n,
                      Rank target) {
  CallGuard guard(*this);
  return postContig(true, local_src, remote_dst, n, target);
}

NbHandle Armci::nbGet(const void* remote_src, void* local_dst, Bytes n,
                      Rank target) {
  CallGuard guard(*this);
  return postContig(false, remote_src, local_dst, n, target);
}

NbHandle Armci::nbPutStrided(const void* local_src, Bytes src_stride,
                             void* remote_dst, Bytes dst_stride,
                             Bytes row_bytes, int count, Rank target) {
  CallGuard guard(*this);
  return postStrided(true, local_src, src_stride, remote_dst, dst_stride,
                     row_bytes, count, target);
}

NbHandle Armci::nbGetStrided(const void* remote_src, Bytes src_stride,
                             void* local_dst, Bytes dst_stride,
                             Bytes row_bytes, int count, Rank target) {
  CallGuard guard(*this);
  return postStrided(false, remote_src, src_stride, local_dst, dst_stride,
                     row_bytes, count, target);
}

NbHandle Armci::nbAcc(const double* local_src, double* remote_dst, int count,
                      double scale, Rank target) {
  CallGuard guard(*this);
  const Bytes bytes = static_cast<Bytes>(count) *
                      static_cast<Bytes>(sizeof(double));
  const NbHandle h =
      openOp(1, /*reads_local=*/true, local_src, bytes, "ARMCI_NbAccD");
  ctx_.advance(fabric_.params().post_overhead);
  stampBeginForOp(h.id, bytes);
  traceRma(trace::RecordKind::RmaAcc, h.id, target, remote_dst, bytes);
  const net::WorkId wid = nic_.postRdmaApply(
      target, local_src, remote_dst, bytes,
      [scale](const std::byte* staged, void* dst, Bytes n) {
        const auto* in = reinterpret_cast<const double*>(staged);
        auto* out = static_cast<double*>(dst);
        const std::size_t cnt = static_cast<std::size_t>(n) / sizeof(double);
        for (std::size_t i = 0; i < cnt; ++i) out[i] += scale * in[i];
      });
  registerWork(wid, h.id);
  return h;
}

void Armci::acc(const double* local_src, double* remote_dst, int count,
                double scale, Rank target) {
  NbHandle h = nbAcc(local_src, remote_dst, count, scale, target);
  wait(h);
  CallGuard guard(*this);
  // Remote combination lags local completion by the wire latency.
  ctx_.advance(fabric_.params().wire_latency);
}

std::vector<void*> Armci::collectiveMalloc(Bytes bytes) {
  if (!barrier_) {
    throw std::logic_error("armci: collectiveMalloc needs a job");
  }
  SharedBarrier& b = *barrier_;
  // Rank 0 creates the slot between two barriers; each rank then fills its
  // own disjoint entry before the third.  The message barriers order every
  // access (in parallel runs the engine's window protocol carries the
  // cross-thread visibility), so the table needs no lock.
  barrier();
  if (ctx_.rank() == 0) {
    b.allocations.emplace_back(static_cast<std::size_t>(b.nranks));
  }
  barrier();
  auto& slot = b.allocations.back();
  slot[static_cast<std::size_t>(ctx_.rank())] =
      std::make_unique<std::byte[]>(static_cast<std::size_t>(bytes));
  // Own slab becomes a named remote-access target before any peer can
  // address it (the next barrier orders registration before first use).
  registerLocal(slot[static_cast<std::size_t>(ctx_.rank())].get(), bytes);
  barrier();
  std::vector<void*> ptrs(static_cast<std::size_t>(b.nranks));
  for (int r = 0; r < b.nranks; ++r) {
    ptrs[static_cast<std::size_t>(r)] = slot[static_cast<std::size_t>(r)].get();
  }
  return ptrs;
}

void Armci::wait(NbHandle& h) {
  if (!h.valid()) {
    if (checker_ != nullptr) checker_->onWaitInactive("ARMCI_Wait");
    return;
  }
  CallGuard guard(*this);
  retire(h);
}

void Armci::waitAll() {
  CallGuard guard(*this);
  progressUntil([&] { return pending_.empty(); });
  if (checker_ != nullptr) checker_->onAllRequestsConsumed();
}

void Armci::fence(Rank target) {
  CallGuard guard(*this);
  progressUntil([&] { return pending_.empty(); });
  if (checker_ != nullptr) checker_->onAllRequestsConsumed();
  // Local completion means the data left this NIC; remote placement lags by
  // the wire latency.
  ctx_.advance(fabric_.params().wire_latency);
  // Stamped at exit: everything recorded before this point is remotely
  // placed once the fence returns.
  traceSync(trace::RecordKind::Fence, 0, target);
}

void Armci::barrier() {
  if (!barrier_) {
    throw std::logic_error("armci: barrier requires a SharedBarrier");
  }
  CallGuard guard(*this);
  const int n = barrier_->nranks;
  const Rank me = ctx_.rank();
  const std::int64_t my_epoch = barrier_epoch_++;
  // Dissemination barrier over NIC control packets: in round r, notify
  // rank (me + 2^r) mod n and wait for the matching token from
  // (me - 2^r) mod n.  Every rank's state is owner-local and every hop
  // crosses the wire (>= the engine lookahead), so the barrier is legal
  // under conservative-parallel execution.  A peer can run at most one
  // epoch ahead; early tokens sit in barrier_tokens_ until their round.
  for (int round = 0, dist = 1; dist < n; ++round, dist <<= 1) {
    sendCtrl((me + dist) % n, CtrlKind::BarrierToken, my_epoch, round, 0.0);
    const std::pair<std::int64_t, int> key{my_epoch, round};
    progressUntil([&] { return barrier_tokens_.contains(key); });
    barrier_tokens_.erase(key);
  }
  // Stamped at exit: the happens-before join for epoch `my_epoch` sits
  // after every record this rank produced inside the barrier, including
  // completions drained while waiting.
  traceSync(trace::RecordKind::Barrier, my_epoch, -1);
}

double Armci::allreduceSum(double value) {
  if (!barrier_) throw std::logic_error("armci: allreduceSum needs a job");
  const std::int64_t epoch = reduce_epoch_++;
  const int n = barrier_->nranks;
  const Rank me = ctx_.rank();
  barrier();
  double result = value;
  if (n > 1) {
    CallGuard guard(*this);
    if (me == 0) {
      // Gather every peer's addend, then combine in ascending rank order so
      // the floating-point sum is schedule-independent.
      progressUntil([&] {
        for (Rank r = 1; r < n; ++r) {
          if (!reduce_values_.contains({epoch, r})) return false;
        }
        return true;
      });
      for (Rank r = 1; r < n; ++r) {
        const auto it = reduce_values_.find({epoch, r});
        result += it->second;
        reduce_values_.erase(it);
      }
      for (Rank r = 1; r < n; ++r) {
        sendCtrl(r, CtrlKind::ReduceResult, epoch, 0, result);
      }
    } else {
      sendCtrl(0, CtrlKind::ReduceValue, epoch, 0, value);
      progressUntil([&] { return reduce_results_.contains(epoch); });
      result = reduce_results_.at(epoch);
      reduce_results_.erase(epoch);
    }
  }
  // Two trailing rounds keep the historical three-barrier cost shape of
  // ARMCI's message-layer reduction (and the skeleton model relies on it).
  barrier();
  barrier();
  return result;
}

}  // namespace ovp::armci

template class ovp::mpi::BasicMachine<ovp::armci::ArmciJob>;
