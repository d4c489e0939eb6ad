// Collective operations, built over the point-to-point layer the way many
// MPI implementations build theirs.  The nested point-to-point calls do not
// double-stamp CALL_ENTER/CALL_EXIT (the Monitor only stamps the outermost
// level), but their data transfers ARE instrumented — which is exactly why
// the paper sees Alltoall's long messages dominate FT's (lack of) overlap
// while Reduce/Bcast's short messages still overlap a little (Sec. 4.2).
#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "mpi/mpi.hpp"
#include "mpi/protocol.hpp"

namespace ovp::mpi {

namespace {

void applyOp(Op op, const double* in, double* inout, int count) {
  switch (op) {
    case Op::Sum:
      for (int i = 0; i < count; ++i) inout[i] += in[i];
      return;
    case Op::Max:
      for (int i = 0; i < count; ++i) inout[i] = std::max(inout[i], in[i]);
      return;
    case Op::Min:
      for (int i = 0; i < count; ++i) inout[i] = std::min(inout[i], in[i]);
      return;
    case Op::Prod:
      for (int i = 0; i < count; ++i) inout[i] *= in[i];
      return;
  }
}

}  // namespace

void Mpi::barrier() {
  CallGuard guard(*this);
  // Dissemination barrier: log2(P) rounds of tiny messages.
  const int P = size();
  const Rank r = rank();
  // Distinct send/recv tokens: MPI_Sendrecv requires disjoint buffers, and
  // the analysis-layer UsageChecker flags aliasing ones.
  const char send_token = 0;
  char recv_token = 0;
  for (int k = 1; k < P; k <<= 1) {
    const Rank to = static_cast<Rank>((r + k) % P);
    const Rank from = static_cast<Rank>((r - k + P) % P);
    sendrecv(&send_token, 1, to, tags::kBarrier, &recv_token, 1, from,
             tags::kBarrier);
  }
}

void Mpi::bcast(void* buf, Bytes n, Rank root) {
  CallGuard guard(*this);
  // Binomial tree rooted at `root`.
  const int P = size();
  const Rank r = rank();
  const int vrank = (r - root + P) % P;
  // Receive from parent (if not root).
  int mask = 1;
  while (mask < P) {
    if (vrank & mask) {
      const Rank parent =
          static_cast<Rank>(((vrank & ~mask) + root) % P);
      recv(buf, n, parent, tags::kBcast);
      break;
    }
    mask <<= 1;
  }
  // Forward to children.
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < P) {
      const Rank child = static_cast<Rank>((vrank + mask + root) % P);
      send(buf, n, child, tags::kBcast);
    }
    mask >>= 1;
  }
}

void Mpi::reduce(const double* in, double* out, int count, Op op, Rank root) {
  CallGuard guard(*this);
  // Binomial-tree reduction; every non-leaf combines children into a local
  // accumulator.  The combine cost is charged as library time.
  const int P = size();
  const Rank r = rank();
  const int vrank = (r - root + P) % P;
  // Combine via the persistent scratch members (see mpi.hpp): the message
  // buffers must keep stable addresses or registration-cache hits become
  // worker-count-dependent.
  const auto n = static_cast<std::size_t>(count);
  if (reduce_acc_.size() < n) reduce_acc_.resize(n);
  if (reduce_incoming_.size() < n) reduce_incoming_.resize(n);
  double* acc = reduce_acc_.data();
  double* incoming = reduce_incoming_.data();
  std::memcpy(acc, in, sizeof(double) * n);
  int mask = 1;
  while (mask < P) {
    if (vrank & mask) {
      const Rank parent = static_cast<Rank>(((vrank & ~mask) + root) % P);
      sendT(acc, count, parent, tags::kReduce);
      break;
    }
    if (vrank + mask < P) {
      const Rank child = static_cast<Rank>((vrank + mask + root) % P);
      recvT(incoming, count, child, tags::kReduce);
      ctx_.advance(static_cast<DurationNs>(
          kReduceNsPerByte * static_cast<double>(count) *
          static_cast<double>(sizeof(double))));
      applyOp(op, incoming, acc, count);
    }
    mask <<= 1;
  }
  if (r == root && out != nullptr) {
    std::memcpy(out, acc, sizeof(double) * n);
  }
}

void Mpi::allreduce(const double* in, double* out, int count, Op op) {
  CallGuard guard(*this);
  reduce(in, out, count, op, 0);
  bcast(out, static_cast<Bytes>(count) * static_cast<Bytes>(sizeof(double)),
        0);
}

void Mpi::alltoall(const void* sbuf, void* rbuf, Bytes bytes_per_rank) {
  CallGuard guard(*this);
  // Fully-posted exchange: all receives and sends in flight, then waitall —
  // the style NAS FT uses; every rank sits inside the collective for the
  // whole exchange, which is why these transfers cannot overlap.
  const int P = size();
  const Rank r = rank();
  const auto* sp = static_cast<const std::byte*>(sbuf);
  auto* rp = static_cast<std::byte*>(rbuf);
  std::memcpy(rp + static_cast<std::size_t>(r) *
                       static_cast<std::size_t>(bytes_per_rank),
              sp + static_cast<std::size_t>(r) *
                       static_cast<std::size_t>(bytes_per_rank),
              static_cast<std::size_t>(bytes_per_rank));
  std::vector<Request> reqs;
  reqs.reserve(static_cast<std::size_t>(2 * (P - 1)));
  for (int i = 1; i < P; ++i) {
    const Rank peer = static_cast<Rank>((r + i) % P);
    reqs.push_back(irecv(rp + static_cast<std::size_t>(peer) *
                                  static_cast<std::size_t>(bytes_per_rank),
                         bytes_per_rank, peer, tags::kAlltoall));
  }
  for (int i = 1; i < P; ++i) {
    const Rank peer = static_cast<Rank>((r + i) % P);
    reqs.push_back(isend(sp + static_cast<std::size_t>(peer) *
                                  static_cast<std::size_t>(bytes_per_rank),
                         bytes_per_rank, peer, tags::kAlltoall));
  }
  waitall(reqs.data(), static_cast<int>(reqs.size()));
}

void Mpi::alltoallv(const void* sbuf, const Bytes* send_counts,
                    const Bytes* send_offsets, void* rbuf,
                    const Bytes* recv_counts, const Bytes* recv_offsets) {
  CallGuard guard(*this);
  const int P = size();
  const Rank r = rank();
  const auto* sp = static_cast<const std::byte*>(sbuf);
  auto* rp = static_cast<std::byte*>(rbuf);
  if (recv_counts[r] > 0) {
    std::memcpy(rp + recv_offsets[r], sp + send_offsets[r],
                static_cast<std::size_t>(recv_counts[r]));
  }
  std::vector<Request> reqs;
  reqs.reserve(static_cast<std::size_t>(2 * (P - 1)));
  for (int i = 1; i < P; ++i) {
    const Rank peer = static_cast<Rank>((r + i) % P);
    if (recv_counts[peer] > 0) {
      reqs.push_back(irecv(rp + recv_offsets[peer], recv_counts[peer], peer,
                           tags::kAlltoallv));
    }
  }
  for (int i = 1; i < P; ++i) {
    const Rank peer = static_cast<Rank>((r + i) % P);
    if (send_counts[peer] > 0) {
      reqs.push_back(isend(sp + send_offsets[peer], send_counts[peer], peer,
                           tags::kAlltoallv));
    }
  }
  waitall(reqs.data(), static_cast<int>(reqs.size()));
}

void Mpi::allgather(const void* sbuf, void* rbuf, Bytes bytes_per_rank) {
  CallGuard guard(*this);
  const int P = size();
  const Rank r = rank();
  auto* rp = static_cast<std::byte*>(rbuf);
  std::memcpy(rp + static_cast<std::size_t>(r) *
                       static_cast<std::size_t>(bytes_per_rank),
              sbuf, static_cast<std::size_t>(bytes_per_rank));
  std::vector<Request> reqs;
  for (int i = 1; i < P; ++i) {
    const Rank peer = static_cast<Rank>((r + i) % P);
    reqs.push_back(irecv(rp + static_cast<std::size_t>(peer) *
                                  static_cast<std::size_t>(bytes_per_rank),
                         bytes_per_rank, peer, tags::kAllgather));
  }
  for (int i = 1; i < P; ++i) {
    const Rank peer = static_cast<Rank>((r + i) % P);
    reqs.push_back(isend(sbuf, bytes_per_rank, peer, tags::kAllgather));
  }
  waitall(reqs.data(), static_cast<int>(reqs.size()));
}

void Mpi::gather(const void* sbuf, void* rbuf, Bytes n, Rank root) {
  CallGuard guard(*this);
  const int P = size();
  if (rank() == root) {
    auto* rp = static_cast<std::byte*>(rbuf);
    std::memcpy(rp + static_cast<std::size_t>(root) * static_cast<std::size_t>(n),
                sbuf, static_cast<std::size_t>(n));
    std::vector<Request> reqs;
    for (Rank p = 0; p < P; ++p) {
      if (p == root) continue;
      reqs.push_back(irecv(rp + static_cast<std::size_t>(p) *
                                    static_cast<std::size_t>(n),
                           n, p, tags::kGather));
    }
    waitall(reqs.data(), static_cast<int>(reqs.size()));
  } else {
    send(sbuf, n, root, tags::kGather);
  }
}

void Mpi::scatter(const void* sbuf, void* rbuf, Bytes n, Rank root) {
  CallGuard guard(*this);
  const int P = size();
  if (rank() == root) {
    const auto* sp = static_cast<const std::byte*>(sbuf);
    std::memmove(rbuf,
                 sp + static_cast<std::size_t>(root) * static_cast<std::size_t>(n),
                 static_cast<std::size_t>(n));
    std::vector<Request> reqs;
    for (Rank p = 0; p < P; ++p) {
      if (p == root) continue;
      reqs.push_back(isend(sp + static_cast<std::size_t>(p) *
                                    static_cast<std::size_t>(n),
                           n, p, tags::kScatter));
    }
    waitall(reqs.data(), static_cast<int>(reqs.size()));
  } else {
    recv(rbuf, n, root, tags::kScatter);
  }
}

}  // namespace ovp::mpi
