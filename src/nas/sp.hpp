// NAS SP reproduction: scalar-pentadiagonal ADI solver.
//
// Structure follows NPB SP: per time step a stencil RHS computation with a
// large ghost-face exchange (copy_faces — lots of data, nothing to overlap
// with), then x_solve / y_solve / z_solve, each running the Thomas
// algorithm on pentadiagonal lines.  Lines along x and y cross the 2-D
// process grid, so the forward elimination and back-substitution are
// pipelined rank-to-rank with aggregated per-plane boundary messages.
//
// SP is the paper's tuning case study (Sec. 4.3).  The solve routines
// "explicitly attempt overlap ... by computing in between the posting of
// an Irecv and waiting for the communication to complete" — which fails
// under a polling progress engine, because the rendezvous RTS is only
// served once the rank enters MPI_Wait.  The `modified` flag reproduces
// the paper's fix: MPI_Iprobe calls placed inside the computation region,
// which drive the progress engine and let the transfer overlap.  The
// overlap-attempting regions are wrapped in the monitored section
// "solve-overlap" so both the section-limited (Figs. 14/15) and whole-code
// (Figs. 16/17) readings can be reproduced, along with total MPI time
// (Fig. 18).
//
// Scaled classes (original in parens): S 24x24x16 (12^3), A 48^3 (64^3),
// B 72x72x48 (102^3).  Rank counts must form a 2-D grid dividing nx and
// ny ({4, 9, 16} all work, matching the paper's runs).
#pragma once

#include "nas/common.hpp"

namespace ovp::nas {

struct SpParams : NasParams {
  /// Apply the paper's modification: Iprobe calls inside the computation
  /// of the overlapping sections.
  bool modified = false;
};

/// Runs SP; checksum = final solution norm (partition-invariant up to
/// reduction rounding).  verified = penta solves are diagonally-dominant
/// contractions, a sampled local z-line solves exactly, and all norms stay
/// finite.
[[nodiscard]] NasResult runSp(const SpParams& params);

}  // namespace ovp::nas
