#include "nas/is.hpp"

#include <algorithm>
#include <vector>

#include "nas/class_tables.hpp"
#include "util/rng.hpp"

namespace ovp::nas {

NasResult runIs(const NasParams& params) {
  const tables::IsSizes sz = tables::isSizes(params.cls);
  const int niter = params.iterations > 0 ? params.iterations : sz.niter;
  mpi::Machine machine(makeJobConfig(params));

  double checksum = 0.0;
  bool verified = true;

  machine.run([&](mpi::Mpi& mpi) {
    const int P = mpi.size();
    const Rank me = mpi.rank();
    const BlockDist dist = blockDistribute(static_cast<int>(sz.keys), P);
    const int my_n = dist.size[static_cast<std::size_t>(me)];
    const CostModel& cost = params.cost;

    // Deterministic keys: a global function of the key index, so any rank
    // count generates the same multiset.
    std::vector<int> keys(static_cast<std::size_t>(my_n));
    {
      const int g0 = dist.start[static_cast<std::size_t>(me)];
      for (int i = 0; i < my_n; ++i) {
        util::Rng rng(static_cast<std::uint64_t>(g0 + i) * 2654435761u + 1);
        keys[static_cast<std::size_t>(i)] =
            static_cast<int>(rng.below(static_cast<std::uint64_t>(sz.max_key)));
      }
      mpi.compute(cost.flops(20LL * my_n));
    }

    // One bucket per rank; splitters chosen from the global histogram so
    // buckets are balanced.
    std::vector<double> hist(static_cast<std::size_t>(sz.max_key), 0.0);
    std::vector<double> ghist(hist.size(), 0.0);
    std::vector<int> sorted;  // this rank's final key range, sorted

    for (int it = 0; it < niter; ++it) {
      // Local histogram.
      std::fill(hist.begin(), hist.end(), 0.0);
      for (const int k : keys) hist[static_cast<std::size_t>(k)] += 1.0;
      mpi.compute(cost.flops(2LL * my_n));
      // Global histogram (the NPB IS Allreduce; long-ish message).
      mpi.allreduce(hist.data(), ghist.data(), sz.max_key, mpi::Op::Sum);
      // Splitters: prefix-sum until each bucket holds ~keys/P.
      std::vector<int> splitter(static_cast<std::size_t>(P + 1), sz.max_key);
      splitter[0] = 0;
      {
        const double per = static_cast<double>(sz.keys) / P;
        double acc = 0;
        int next = 1;
        for (int k = 0; k < sz.max_key && next < P; ++k) {
          acc += ghist[static_cast<std::size_t>(k)];
          while (next < P && acc >= per * next) {
            splitter[static_cast<std::size_t>(next)] = k + 1;
            ++next;
          }
        }
        mpi.compute(cost.flops(sz.max_key));
      }
      auto bucketOf = [&](int key) {
        int b = 0;
        while (key >= splitter[static_cast<std::size_t>(b + 1)]) ++b;
        return b;
      };
      // Pack keys by destination bucket.
      std::vector<Bytes> send_counts(static_cast<std::size_t>(P), 0);
      for (const int k : keys) {
        send_counts[static_cast<std::size_t>(bucketOf(k))] +=
            static_cast<Bytes>(sizeof(int));
      }
      std::vector<Bytes> send_offsets(static_cast<std::size_t>(P), 0);
      for (int p = 1; p < P; ++p) {
        send_offsets[static_cast<std::size_t>(p)] =
            send_offsets[static_cast<std::size_t>(p - 1)] +
            send_counts[static_cast<std::size_t>(p - 1)];
      }
      std::vector<int> outgoing(static_cast<std::size_t>(my_n));
      {
        std::vector<Bytes> cursor = send_offsets;
        for (const int k : keys) {
          const int b = bucketOf(k);
          outgoing[static_cast<std::size_t>(
              cursor[static_cast<std::size_t>(b)] /
              static_cast<Bytes>(sizeof(int)))] = k;
          cursor[static_cast<std::size_t>(b)] +=
              static_cast<Bytes>(sizeof(int));
        }
        mpi.compute(cost.flops(6LL * my_n));
      }
      // Exchange bucket sizes, then the keys (NPB IS's two alltoalls).
      std::vector<double> out_sizes(static_cast<std::size_t>(P)),
          in_sizes(static_cast<std::size_t>(P));
      for (int p = 0; p < P; ++p) {
        out_sizes[static_cast<std::size_t>(p)] =
            static_cast<double>(send_counts[static_cast<std::size_t>(p)]);
      }
      mpi.alltoall(out_sizes.data(), in_sizes.data(), sizeof(double));
      std::vector<Bytes> recv_counts(static_cast<std::size_t>(P), 0),
          recv_offsets(static_cast<std::size_t>(P), 0);
      Bytes total_in = 0;
      for (int p = 0; p < P; ++p) {
        recv_counts[static_cast<std::size_t>(p)] =
            static_cast<Bytes>(in_sizes[static_cast<std::size_t>(p)]);
        recv_offsets[static_cast<std::size_t>(p)] = total_in;
        total_in += recv_counts[static_cast<std::size_t>(p)];
      }
      std::vector<int> incoming(
          static_cast<std::size_t>(total_in / static_cast<Bytes>(sizeof(int))));
      mpi.alltoallv(outgoing.data(), send_counts.data(), send_offsets.data(),
                    incoming.data(), recv_counts.data(), recv_offsets.data());
      // Rank locally: a counting sort over this bucket's key range, counted
      // in `hist` (its histogram is spent for this iteration) and written
      // back in place, so ranking allocates nothing.
      sorted = std::move(incoming);
      const int lo = splitter[static_cast<std::size_t>(me)];
      const int hi = splitter[static_cast<std::size_t>(me) + 1];
      bool in_bucket = true;
      std::fill(hist.begin() + lo, hist.begin() + hi, 0.0);
      for (const int k : sorted) {
        if (k < lo || k >= hi) {
          in_bucket = false;
          break;
        }
        hist[static_cast<std::size_t>(k)] += 1.0;
      }
      if (in_bucket) {
        auto out = sorted.begin();
        for (int k = lo; k < hi; ++k) {
          const auto count =
              static_cast<std::ptrdiff_t>(hist[static_cast<std::size_t>(k)]);
          out = std::fill_n(out, count, k);
        }
      }
      mpi.compute(cost.flops(
          20LL * static_cast<std::int64_t>(sorted.size())));

      // Verification: local order + boundary order + global count.
      bool ok = in_bucket && std::is_sorted(sorted.begin(), sorted.end());
      if (!sorted.empty()) {
        ok = ok && sorted.front() >= splitter[static_cast<std::size_t>(me)];
        ok = ok &&
             sorted.back() < splitter[static_cast<std::size_t>(me) + 1];
      }
      const double n_local = static_cast<double>(sorted.size());
      double n_global = 0;
      mpi.allreduce(&n_local, &n_global, 1, mpi::Op::Sum);
      const double ok_local = ok ? 1.0 : 0.0;
      double ok_global = 0;
      mpi.allreduce(&ok_local, &ok_global, 1, mpi::Op::Min);
      if (me == 0) {
        if (ok_global < 1.0 ||
            n_global != static_cast<double>(sz.keys)) {
          verified = false;
        }
      }
    }

    // Checksum over the final key multiset (partition-invariant: the
    // global multiset is identical for any rank count).
    double cs_local = 0;
    for (const int k : sorted) {
      const double v = static_cast<double>(k);
      cs_local += v + v * v * 1e-6;
    }
    double cs = 0;
    mpi.allreduce(&cs_local, &cs, 1, mpi::Op::Sum);
    if (me == 0) checksum = cs;
  });

  return nasResult(machine, checksum, verified);
}

}  // namespace ovp::nas
