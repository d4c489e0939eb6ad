#include "mpi/mpi.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace ovp::mpi {

using net::Packet;

namespace {

/// Builds a packet: header followed by `data_bytes` of user data.
Packet makePacket(Rank src, int channel, const wire::Header& hdr,
                  const void* data, Bytes data_bytes) {
  Packet pkt;
  pkt.src = src;
  pkt.channel = channel;
  pkt.payload.resize(sizeof(wire::Header) +
                     static_cast<std::size_t>(data_bytes));
  std::memcpy(pkt.payload.data(), &hdr, sizeof(wire::Header));
  if (data_bytes > 0) {
    std::memcpy(pkt.payload.data() + sizeof(wire::Header), data,
                static_cast<std::size_t>(data_bytes));
  }
  return pkt;
}

wire::Header headerOf(const Packet& pkt) {
  wire::Header hdr;
  assert(pkt.payload.size() >= sizeof(wire::Header));
  std::memcpy(&hdr, pkt.payload.data(), sizeof(wire::Header));
  return hdr;
}

const std::byte* dataOf(const Packet& pkt) {
  return pkt.payload.data() + sizeof(wire::Header);
}

}  // namespace

/// Internal state of one point-to-point operation.
struct RequestState {
  bool complete = false;
  Bytes size = 0;
  int tag = 0;
  Rank peer = -1;  // send: destination; recv: requested source (may be any)
  Status status;

  // send side
  const void* sbuf = nullptr;
  std::uint64_t seq = 0;
  int frags_outstanding = 0;

  // recv side
  void* rbuf = nullptr;
  std::uint64_t recv_id = 0;

  // instrumentation: transfer op ids owned by this request
  TransferId xfer = kInvalidTransfer;       // whole message / first fragment
  TransferId rest_xfer = kInvalidTransfer;  // pipelined rest-of-message

  // usage-checker request id (0 = untracked, e.g. blocking-call internals)
  std::uint64_t uid = 0;
};
// make_shared's block size is part of the heap sequence IS's virtual time
// depends on (ROADMAP item 1).
static_assert(sizeof(RequestState) == 104);

struct Mpi::UnexpectedMsg {
  int channel = 0;
  wire::Header hdr;
  std::vector<std::byte> data;  // eager payload or pipelined first fragment
};

Mpi::Mpi(sim::Context& ctx, net::Fabric& fabric, const MpiConfig& cfg)
    : LibraryCore(ctx, fabric, cfg, "mpi", "MPI section end", kCallOverhead) {
  if (cfg_.group) {
    const std::vector<Rank>& g = *cfg_.group;
    lrank_ = -1;
    for (std::size_t i = 0; i < g.size(); ++i) {
      if (g[i] == ctx_.rank()) {
        lrank_ = static_cast<Rank>(i);
        break;
      }
    }
    if (lrank_ < 0) {
      throw std::logic_error("mpi: global rank is not a member of its group");
    }
    lsize_ = static_cast<int>(g.size());
  } else {
    lrank_ = ctx_.rank();
    lsize_ = ctx_.worldSize();
  }
  createMonitor(lrank_);
  // A new library instance is a new process image: whatever a previous job
  // on this engine rank pinned is gone.  Starting cold also keeps cache
  // hits a function of the job's own buffer reuse, never of whether the
  // allocator handed this job an address some earlier job had registered —
  // which differs across engine worker counts and would break the
  // campaign-level bit-identical guarantee.  Single-job runs construct one
  // instance per rank on a fresh NIC, so for them this is a no-op.
  nic_.regCache().clear();
}

Mpi::~Mpi() = default;

Rank Mpi::rank() const { return lrank_; }
int Mpi::size() const { return lsize_; }

/// One matching-stream record, charged to the rank exactly where a real
/// tool's callback would run.
void Mpi::traceP2p(trace::RecordKind record_kind, Rank peer, int tag,
                   Bytes bytes) {
  trace::Record rec;
  rec.kind = record_kind;
  rec.peer = peer;
  rec.tag = tag;
  rec.bytes = bytes;
  pushRecord(rec);
}

// -------------------------------------------------------------- handlers

void Mpi::handleCompletion(const net::Completion& c) {
  const auto it = on_completion_.find(c.id);
  if (it == on_completion_.end()) return;  // e.g. control-packet send CQE
  auto callback = std::move(it->second);
  on_completion_.erase(it);
  callback();
}

void Mpi::handlePacket(net::Packet& received) {
  // Owned here, so the payload is freed when the handler returns, before
  // the next poll charges its cost (and yields): where later buffers land
  // in the heap is part of IS's output (ROADMAP item 1).
  const net::Packet pkt = std::move(received);
  const wire::Header hdr = headerOf(pkt);
  switch (pkt.channel) {
    case wire::kEager:
    case wire::kRts: {
      const bool eager = pkt.channel == wire::kEager;
      // The physical transfer of an eager message is over; this poll is the
      // moment the library learns of it.  The initiation was invisible to
      // this process -> inconclusive bounds (paper case 3).
      if (eager) stampXferEndUnmatched(hdr.msg_bytes);
      const auto it = std::find_if(
          posted_recvs_.begin(), posted_recvs_.end(), [&](const auto& r) {
            return receiveMatches(r->peer, r->tag, hdr.src, hdr.tag);
          });
      if (it == posted_recvs_.end()) {
        // No posted receive: stash the message.  An eager header's
        // frag_bytes is its msg_bytes (startEagerSend), so this keeps an
        // eager payload whole and an RTS's piggybacked first fragment.
        UnexpectedMsg u;
        u.channel = pkt.channel;
        u.hdr = hdr;
        u.data.assign(dataOf(pkt), dataOf(pkt) + hdr.frag_bytes);
        unexpected_.push_back(std::move(u));
        return;
      }
      // An eager message is copied out before its match is recorded; a
      // rendezvous response starts after it.
      const std::shared_ptr<RequestState> req = *it;
      if (eager) deliver(req, hdr, pkt.channel, dataOf(pkt));
      posted_recvs_.erase(it);
      traceP2p(trace::RecordKind::Match, hdr.src, hdr.tag, hdr.msg_bytes);
      if (!eager) deliver(req, hdr, pkt.channel, dataOf(pkt));
      return;
    }
    case wire::kAck:
    case wire::kFinToSend: {
      const auto it = sends_in_flight_.find(hdr.seq);
      if (it == sends_in_flight_.end()) return;
      auto req = it->second;
      sends_in_flight_.erase(it);
      if (pkt.channel == wire::kAck) {
        sendFragments(req, hdr);
        return;
      }
      // The receiver's RDMA Read of our buffer has completed.
      stampXferEnd(req->xfer);
      req->complete = true;
      return;
    }
    case wire::kFinToRecv: {
      const auto it = recvs_awaiting_fin_.find(hdr.peer_seq);
      if (it == recvs_awaiting_fin_.end()) return;
      auto req = it->second;
      recvs_awaiting_fin_.erase(it);
      stampXferEnd(req->rest_xfer);
      req->status = {hdr.src, req->status.tag, req->size};
      req->complete = true;
      return;
    }
    default:
      throw std::logic_error("mpi: unknown packet channel");
  }
}

void Mpi::deliver(const std::shared_ptr<RequestState>& req,
                  const wire::Header& hdr, int channel,
                  const std::byte* data) {
  if (req->size < hdr.msg_bytes) {
    throw std::runtime_error("mpi: message overflows recv buffer");
  }
  req->status = {hdr.src, hdr.tag, hdr.msg_bytes};
  const net::FabricParams& p = fabric_.params();
  if (channel == wire::kEager) {
    ctx_.advance(p.hostCopy(hdr.msg_bytes));
    std::memcpy(req->rbuf, data, static_cast<std::size_t>(hdr.msg_bytes));
    req->complete = true;
    return;
  }
  if (rendezvousStyle(cfg_.preset) == RendezvousStyle::Read) {
    beginRdmaRead(req, hdr);
    return;
  }
  // Write rendezvous: copy out the first fragment that rode along with the
  // RTS.
  const Bytes frag1 = hdr.frag_bytes;
  if (frag1 > 0) {
    ctx_.advance(p.hostCopy(frag1));
    std::memcpy(req->rbuf, data, static_cast<std::size_t>(frag1));
    stampXferEndUnmatched(frag1);
  }
  const Bytes rest = hdr.msg_bytes - frag1;
  if (rest == 0) {
    req->complete = true;
    return;
  }
  // Register the rest of our buffer and tell the sender where to write.
  std::byte* rest_ptr = static_cast<std::byte*>(req->rbuf) + frag1;
  ctx_.advance(nic_.regCache().registerRegion(rest_ptr, rest));
  ctx_.advance(p.post_overhead);
  // The remaining bytes now move under sender control; stamp BEGIN so
  // interleaved computation on *this* side is credited if the FIN is
  // detected in a later call.
  req->rest_xfer = stampXferBegin(rest);
  req->recv_id = next_recv_id_++;
  recvs_awaiting_fin_[req->recv_id] = req;
  wire::Header ack;
  ack.src = rank();
  ack.tag = hdr.tag;
  ack.msg_bytes = hdr.msg_bytes;
  ack.frag_bytes = frag1;
  ack.seq = hdr.seq;
  ack.peer_seq = req->recv_id;
  ack.addr = reinterpret_cast<std::uintptr_t>(rest_ptr);
  (void)nic_.postSend(global(hdr.src),
                      makePacket(rank(), wire::kAck, ack, nullptr, 0));
}

void Mpi::beginRdmaRead(const std::shared_ptr<RequestState>& req,
                        const wire::Header& rts) {
  // Zero-copy rendezvous: pin our buffer on the fly (cache-aware) and read
  // the sender's exposed buffer; the sender's host stays uninvolved.
  ctx_.advance(nic_.regCache().registerRegion(req->rbuf, rts.msg_bytes));
  ctx_.advance(fabric_.params().post_overhead);
  req->xfer = stampXferBegin(rts.msg_bytes);
  // Pin the message stream's (peer, tag) channel so the data leg cannot be
  // reordered against other streams on a multi-rail fabric.
  const net::WorkId wid = nic_.postRdmaRead(
      global(rts.src), req->rbuf, reinterpret_cast<const void*>(rts.addr),
      rts.msg_bytes, nic_.vciFor(global(rts.src), rts.tag));
  const std::uint64_t sender_seq = rts.seq;
  const Rank sender = rts.src;
  on_completion_[wid] = [this, req, sender, sender_seq] {
    stampXferEnd(req->xfer);
    req->complete = true;
    // Tell the sender its buffer is free (its XFER_END).
    wire::Header fin;
    fin.src = rank();
    fin.seq = sender_seq;
    ctx_.advance(fabric_.params().post_overhead);
    (void)nic_.postSend(global(sender), makePacket(rank(), wire::kFinToSend,
                                                   fin, nullptr, 0));
  };
}

void Mpi::sendFragments(const std::shared_ptr<RequestState>& req,
                        const wire::Header& ack) {
  // Pipelined-RDMA phase 2: the receiver ACKed with its registered address;
  // stream the remaining fragments as RDMA Writes.  On-the-fly registration
  // is pipelined with the wire (we charge it per fragment at post time).
  const net::FabricParams& p = fabric_.params();
  const Bytes frag1 = ack.frag_bytes;
  Bytes offset = frag1;
  // Whole-message write rendezvous is the degenerate single-fragment case.
  const bool pipelined =
      rendezvousStyle(cfg_.preset) == RendezvousStyle::PipelinedWrite;
  // All fragments of one message ride one channel (same-stream ordering).
  const int vci = nic_.vciFor(global(req->peer), req->tag);
  while (offset < req->size) {
    const Bytes frag =
        pipelined ? std::min(cfg_.frag_size, req->size - offset)
                  : req->size - offset;
    const std::byte* src_ptr =
        static_cast<const std::byte*>(req->sbuf) + offset;
    std::byte* dst_ptr =
        reinterpret_cast<std::byte*>(ack.addr) + (offset - frag1);
    ctx_.advance(nic_.regCache().registerRegion(src_ptr, frag));
    ctx_.advance(p.post_overhead);
    const TransferId fx = stampXferBegin(frag);
    const bool last = offset + frag >= req->size;
    net::WorkId wid;
    if (last) {
      // The final fragment carries the FIN notification to the receiver
      // (ordered behind the data on the same QP).
      wire::Header fin;
      fin.src = rank();
      fin.tag = req->tag;
      fin.msg_bytes = req->size;
      fin.seq = req->seq;
      fin.peer_seq = ack.peer_seq;
      const Packet fin_pkt =
          makePacket(rank(), wire::kFinToRecv, fin, nullptr, 0);
      wid = nic_.postRdmaWrite(global(req->peer), src_ptr, dst_ptr, frag,
                               &fin_pkt, vci);
    } else {
      wid = nic_.postRdmaWrite(global(req->peer), src_ptr, dst_ptr, frag,
                               nullptr, vci);
    }
    ++req->frags_outstanding;
    on_completion_[wid] = [this, req, fx] {
      stampXferEnd(fx);
      if (--req->frags_outstanding == 0) req->complete = true;
    };
    offset += frag;
  }
}

// ----------------------------------------------------------- send paths

void Mpi::startEagerSend(const std::shared_ptr<RequestState>& req) {
  const net::FabricParams& p = fabric_.params();
  // Copy into a library bounce buffer; the user buffer is immediately
  // reusable, which is why eager sends "complete" at once.
  ctx_.advance(p.hostCopy(req->size));
  ctx_.advance(p.post_overhead);
  req->xfer = stampXferBegin(req->size);
  wire::Header hdr;
  hdr.src = rank();
  hdr.tag = req->tag;
  hdr.msg_bytes = req->size;
  hdr.frag_bytes = req->size;
  hdr.seq = req->seq;
  const net::WorkId wid =
      nic_.postSend(global(req->peer),
                    makePacket(rank(), wire::kEager, hdr, req->sbuf,
                               req->size),
                    nic_.vciFor(global(req->peer), req->tag));
  on_completion_[wid] = [this, req] { stampXferEnd(req->xfer); };
  req->complete = true;
}

void Mpi::startRendezvousSend(const std::shared_ptr<RequestState>& req,
                              bool sync) {
  const net::FabricParams& p = fabric_.params();
  sends_in_flight_[req->seq] = req;
  wire::Header rts;
  rts.src = rank();
  rts.tag = req->tag;
  rts.msg_bytes = req->size;
  rts.seq = req->seq;
  const RendezvousStyle style = rendezvousStyle(cfg_.preset);
  if (style == RendezvousStyle::PipelinedWrite) {
    // RTS carries the first fragment (copied, like an eager part).  A
    // synchronous send carries none, so completion always needs the
    // receiver's ACK.
    const Bytes frag1 = sync ? 0 : std::min(cfg_.frag_size, req->size);
    rts.frag_bytes = frag1;
    ctx_.advance(p.hostCopy(frag1));
    ctx_.advance(p.post_overhead);
    req->xfer = stampXferBegin(frag1);
    const net::WorkId wid = nic_.postSend(
        global(req->peer),
        makePacket(rank(), wire::kRts, rts, req->sbuf, frag1),
        nic_.vciFor(global(req->peer), req->tag));
    const bool whole_message = frag1 >= req->size;
    on_completion_[wid] = [this, req, whole_message] {
      stampXferEnd(req->xfer);
      if (whole_message) {
        req->complete = true;
        sends_in_flight_.erase(req->seq);
      }
    };
  } else if (style == RendezvousStyle::WholeWrite) {
    // Bare RTS; the receiver's CTS will carry its registered address and
    // this side RDMA-Writes the whole message (Sur et al. [27]'s
    // write-based design).  Register the user buffer up front.
    ctx_.advance(nic_.regCache().registerRegion(req->sbuf, req->size));
    ctx_.advance(p.post_overhead);
    (void)nic_.postSend(global(req->peer),
                        makePacket(rank(), wire::kRts, rts, nullptr, 0));
  } else {
    // Zero-copy: pin the user buffer (registration cache!) and expose it;
    // the receiver will RDMA-Read it.  XFER_BEGIN is stamped at the post
    // of the RTS — the library's closest approximation (paper Fig. 1).
    ctx_.advance(nic_.regCache().registerRegion(req->sbuf, req->size));
    ctx_.advance(p.post_overhead);
    req->xfer = stampXferBegin(req->size);
    rts.addr = reinterpret_cast<std::uintptr_t>(req->sbuf);
    (void)nic_.postSend(global(req->peer),
                        makePacket(rank(), wire::kRts, rts, nullptr, 0));
  }
}

void Mpi::startSend(const std::shared_ptr<RequestState>& req, bool sync) {
  req->seq = next_seq_++;
  traceP2p(trace::RecordKind::SendPost, req->peer, req->tag, req->size);
  if (!sync && sendsEagerly(req->size, cfg_.eager_limit)) {
    startEagerSend(req);
  } else {
    startRendezvousSend(req, sync);
  }
}

// --------------------------------------------------------------- receive

void Mpi::matchReceive(const std::shared_ptr<RequestState>& req) {
  traceP2p(trace::RecordKind::RecvPost, req->peer, req->tag, req->size);
  // First try the unexpected queue (FIFO), then post.
  const auto it = findUnexpected(req->peer, req->tag, nullptr);
  if (it == unexpected_.end()) {
    posted_recvs_.push_back(req);
    return;
  }
  const UnexpectedMsg u = std::move(*it);
  unexpected_.erase(it);
  traceP2p(trace::RecordKind::Match, u.hdr.src, u.hdr.tag, u.hdr.msg_bytes);
  deliver(req, u.hdr, u.channel, u.data.data());
}

std::deque<Mpi::UnexpectedMsg>::iterator Mpi::findUnexpected(
    Rank src, int tag, Status* status) {
  const auto it = std::find_if(
      unexpected_.begin(), unexpected_.end(), [&](const UnexpectedMsg& u) {
        return receiveMatches(src, tag, u.hdr.src, u.hdr.tag);
      });
  if (it != unexpected_.end() && status != nullptr) {
    *status = {it->hdr.src, it->hdr.tag, it->hdr.msg_bytes};
  }
  return it;
}

void Mpi::retire(Request& req) {
  if (checker_ != nullptr && req.state_ && req.state_->uid != 0) {
    checker_->onRequestConsumed(req.state_->uid);
  }
  req.state_.reset();
}

// ------------------------------------------------------------ public API

std::shared_ptr<RequestState> Mpi::newRequest(bool is_send, const void* buf,
                                              Bytes n, Rank peer, int tag,
                                              const char* call) {
  auto state = std::make_shared<RequestState>();
  if (is_send) {
    state->sbuf = buf;
  } else {
    state->rbuf = const_cast<void*>(buf);  // irecv's buffer, passed writable
  }
  state->size = n;
  state->peer = peer;
  state->tag = tag;
  if (checker_ != nullptr && call != nullptr) {
    state->uid = next_req_uid_++;
    checker_->onRequestPosted(state->uid, is_send, buf, n, call);
  }
  return state;
}

Request Mpi::isend(const void* buf, Bytes n, Rank dst, int tag) {
  CallGuard guard(*this);
  progress();
  auto state = newRequest(/*is_send=*/true, buf, n, dst, tag, "MPI_Isend");
  startSend(state, /*sync=*/false);
  return Request(state);
}

Request Mpi::irecv(void* buf, Bytes n, Rank src, int tag) {
  CallGuard guard(*this);
  progress();
  auto state = newRequest(/*is_send=*/false, buf, n, src, tag, "MPI_Irecv");
  matchReceive(state);
  return Request(state);
}

void Mpi::wait(Request& req, Status* status) {
  if (!req.valid()) {
    if (checker_ != nullptr) checker_->onWaitInactive("MPI_Wait");
    return;
  }
  CallGuard guard(*this);
  auto state = req.state_;
  progressUntil([&] { return state->complete; });
  if (status != nullptr) *status = state->status;
  retire(req);
}

void Mpi::waitall(Request* reqs, int count) {
  CallGuard guard(*this);
  progressUntil([&] {
    for (int i = 0; i < count; ++i) {
      if (reqs[i].valid() && !reqs[i].state_->complete) return false;
    }
    return true;
  });
  for (int i = 0; i < count; ++i) retire(reqs[i]);
}

bool Mpi::test(Request& req, Status* status) {
  if (!req.valid()) return true;
  CallGuard guard(*this);
  progress();
  if (!req.state_->complete) return false;
  if (status != nullptr) *status = req.state_->status;
  retire(req);
  return true;
}

void Mpi::send(const void* buf, Bytes n, Rank dst, int tag) {
  Request r = isend(buf, n, dst, tag);
  wait(r);
}

void Mpi::ssend(const void* buf, Bytes n, Rank dst, int tag) {
  CallGuard guard(*this);
  progress();
  auto state = newRequest(/*is_send=*/true, buf, n, dst, tag, nullptr);
  startSend(state, /*sync=*/true);
  progressUntil([&] { return state->complete; });
}

int Mpi::waitany(Request* reqs, int count, Status* status) {
  bool any_valid = false;
  for (int i = 0; i < count; ++i) any_valid |= reqs[i].valid();
  if (!any_valid) return -1;
  CallGuard guard(*this);
  int ready = -1;
  progressUntil([&] {
    for (int i = 0; i < count; ++i) {
      if (reqs[i].valid() && reqs[i].state_->complete) {
        ready = i;
        return true;
      }
    }
    return false;
  });
  if (status != nullptr) *status = reqs[ready].state_->status;
  retire(reqs[ready]);
  return ready;
}

bool Mpi::testall(Request* reqs, int count) {
  CallGuard guard(*this);
  progress();
  for (int i = 0; i < count; ++i) {
    if (reqs[i].valid() && !reqs[i].state_->complete) return false;
  }
  for (int i = 0; i < count; ++i) retire(reqs[i]);
  return true;
}

void Mpi::recv(void* buf, Bytes n, Rank src, int tag, Status* status) {
  Request r = irecv(buf, n, src, tag);
  wait(r, status);
}

bool Mpi::iprobe(Rank src, int tag, Status* status) {
  CallGuard guard(*this);
  progress();
  return findUnexpected(src, tag, status) != unexpected_.end();
}

void Mpi::probe(Rank src, int tag, Status* status) {
  CallGuard guard(*this);
  progressUntil(
      [&] { return findUnexpected(src, tag, status) != unexpected_.end(); });
}

void Mpi::sendrecv(const void* sbuf, Bytes sn, Rank dst, int stag, void* rbuf,
                   Bytes rn, Rank src, int rtag, Status* status) {
  CallGuard guard(*this);
  Request rr = irecv(rbuf, rn, src, rtag);
  Request sr = isend(sbuf, sn, dst, stag);
  wait(sr);
  wait(rr, status);
}

}  // namespace ovp::mpi
