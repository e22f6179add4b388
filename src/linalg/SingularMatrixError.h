// Numeric singularity, thrown by SparseLu and BbdSolver when a pivot
// column has no usable entry (a floating node, a degenerate stamp). The
// Newton loop reports it as a singular system; the recovery ladder and
// the DC structural-rank pass take it from there.
#pragma once

#include <stdexcept>

namespace nemtcam::linalg {

struct SingularMatrixError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

}  // namespace nemtcam::linalg
