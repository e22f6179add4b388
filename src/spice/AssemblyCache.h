// Fixed-pattern MNA assembly reused across Newton iterations and time
// steps.
//
// Device stamping is deterministic for a fixed circuit topology: every
// iteration issues the same sequence of (row, col) matrix contributions,
// only the values change. The first assembly after a (re)build runs in
// build mode — it records that sequence, accumulates triplets (keeping
// exact zeros: a conductance that happens to be 0 this iteration still
// owns its slot), and finalizes a CSR pattern with one value slot per
// distinct position plus a per-call slot map. Every later assembly just
// zeroes the value array and replays the sequence with one compare and
// one add per stamp call — no allocation, no sort, no merge.
//
// If a device ever deviates from the recorded sequence (e.g. the circuit
// switches between DC and transient stamping, which opens capacitors),
// the pass is flagged, the pattern dropped, and the caller re-stamps in
// build mode — correctness never depends on the pattern staying fixed.
//
// Bound stamping: a device whose stamp shape is fixed (a transistor or a
// capacitor in a transient pass) may bind its contiguous range of the
// recorded sequence. The first replay after a build stamps it through
// add(), which checks every key; if they all matched, the device keeps a
// StampBinding (pattern token, range start and length). Later replays of
// the same pattern hand it the range's slot indices and it adds its
// values straight into them, in the recorded order, so every slot and
// right-hand-side entry is summed exactly as on the key-checked path.
// The token comes from one process-wide counter, bumped by every pattern
// build in every cache, so a binding is never honoured by another cache
// or by a rebuilt pattern. A replay that reaches a bound range anywhere
// but at its recorded start (an earlier device changed shape) is voided
// and re-recorded like any other deviation.
//
// The cache also owns the SparseLu for the assembled system and keeps its
// symbolic analysis alive across solves: factorize() first attempts the
// cheap numeric refactorization and falls back to a full factorization
// (fresh pivot order) when a reused pivot degenerates.
//
// Solver selection: a caller that knows the circuit's block structure
// (the array fixture) installs a BbdPartition; factorize_and_solve() then
// routes through the bordered-block-diagonal solver, falling back to the
// monolithic SparseLu — with one warning — if the matrix turns out not to
// fit the partition. Paths without a partition (every single-row fixture)
// are untouched.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "linalg/SparseLu.h"

namespace nemtcam::linalg {
class BbdSolver;
struct BbdPartition;
}  // namespace nemtcam::linalg

namespace nemtcam::util {
class ThreadPool;
}

namespace nemtcam::spice {

// A device's claim on its range of one recorded stamp pattern (see the
// file comment). Default-constructed = unbound.
struct StampBinding {
  std::uint64_t token = 0;  // pattern the range was verified against
  std::uint32_t start = 0;  // first sequence index of the range
  std::uint32_t count = 0;  // matrix terms in the range
};

class AssemblyCache {
 public:
  struct Stats {
    std::uint64_t assemblies = 0;          // begin() calls
    std::uint64_t pattern_builds = 0;      // build-mode passes
    std::uint64_t full_factorizations = 0;
    std::uint64_t refactorizations = 0;
    std::uint64_t bbd_factorizations = 0;    // full BBD split + factor
    std::uint64_t bbd_refactorizations = 0;  // numeric-only BBD replays
    std::uint64_t bbd_fallbacks = 0;         // partition rejected → SparseLu
    // Successful replay passes in which at least one device stamped
    // through its binding. A binding that silently stopped being honoured
    // shows here as bound_passes lagging assemblies.
    std::uint64_t bound_passes = 0;
  };

  AssemblyCache();
  ~AssemblyCache();
  AssemblyCache(AssemblyCache&&) noexcept;
  AssemblyCache& operator=(AssemblyCache&&) noexcept;

  // Starts one assembly pass over an n-unknown system.
  void begin(std::size_t n);

  // One matrix contribution; accumulates at (r, c).
  void add(std::size_t r, std::size_t c, double v) {
    if (fast_) {
      if (cursor_ < seq_key_.size() && seq_key_[cursor_] == r * n_ + c) {
        vals_[seq_slot_[cursor_++]] += v;
      } else {
        fast_ = false;  // pattern changed; pass is void
      }
      return;
    }
    if (building_) {
      seq_key_.push_back(r * n_ + c);
      trip_val_.push_back(v);
    }
  }

  // Slot indices of `b`'s range when `b` was verified against this
  // cache's current pattern and the replay cursor stands at the range's
  // start; the cursor then moves past the range. nullptr otherwise — the
  // caller stamps through add(), which checks every key.
  const std::size_t* bound_slots(const StampBinding& b) {
    if (!fast_ || b.token != token_) return nullptr;
    if (cursor_ != b.start) {
      fast_ = false;  // an earlier device changed shape; pass is void
      return nullptr;
    }
    cursor_ += b.count;
    bound_pass_ = true;
    return seq_slot_.data() + b.start;
  }
  // The per-pass value array bound stamps add into.
  double* values() noexcept { return vals_.data(); }
  // Position in the recorded sequence (the next add() compares against it).
  std::size_t cursor() const noexcept { return cursor_; }
  // Binds `b` to the range [mark, cursor()) a device has just stamped
  // through add(). Only a replay whose keys have all matched so far
  // verifies a range; any other pass leaves `b` untouched.
  void bind(StampBinding& b, std::size_t mark) const {
    if (!fast_ || cursor_ > UINT32_MAX) return;
    b = {token_, static_cast<std::uint32_t>(mark),
         static_cast<std::uint32_t>(cursor_ - mark)};
  }

  // Ends the pass. Returns false when a fast pass deviated from the
  // recorded pattern — the pattern is dropped and the caller must redo
  // the pass (which will run in build mode). A build pass finalizes the
  // CSR pattern and always succeeds.
  bool finish();

  bool has_pattern() const noexcept { return !row_ptr_.empty(); }
  // Drops the pattern and the factorization (topology changed).
  void invalidate();

  // View of the assembled matrix (valid after a successful finish()).
  linalg::CsrView view() const noexcept {
    return {n_, row_ptr_.data(), cols_.data(), vals_.data()};
  }

  // Factorizes the assembled system, reusing the symbolic analysis when
  // possible. Throws linalg::SingularMatrixError like SparseLu.
  linalg::SparseLu& factorize();

  // Installs (or, with nullptr, clears) a BBD partition; subsequent
  // factorize_and_solve() calls route through BbdSolver on `pool`. The
  // partition survives invalidate() — a pattern rebuild re-splits the new
  // pattern against the same partition — but Circuit drops it when the
  // topology itself changes (the unknown numbering is stale then).
  void set_partition(std::shared_ptr<const linalg::BbdPartition> partition,
                     util::ThreadPool* pool);
  void clear_partition() { set_partition(nullptr, nullptr); }
  bool using_bbd() const noexcept { return partition_ != nullptr; }

  // Factorizes the assembled system and solves in place, dispatching to
  // the BBD solver when a partition is installed (else the monolithic
  // SparseLu). If the matrix does not fit the partition, warns once,
  // drops the partition, and proceeds monolithically. Throws
  // linalg::SingularMatrixError on numeric singularity either way.
  void factorize_and_solve(std::vector<double>& rhs);

  // The BBD solver instance, when one has been used (stat inspection).
  const linalg::BbdSolver* bbd() const noexcept { return bbd_.get(); }

  const Stats& stats() const noexcept { return stats_; }

 private:
  std::size_t n_ = 0;
  bool fast_ = false;      // replaying the recorded sequence
  bool building_ = false;  // recording a new sequence
  bool bound_pass_ = false;  // this pass honoured a binding
  std::size_t cursor_ = 0;
  std::uint64_t token_ = 0;  // current pattern's binding token; 0 = none

  // Recorded stamp sequence: flattened (r, c) key and CSR slot per call.
  std::vector<std::size_t> seq_key_;
  std::vector<std::size_t> seq_slot_;
  std::vector<double> trip_val_;  // build-pass values, aligned with seq_key_

  // Fixed CSR pattern + the per-pass value array.
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> cols_;
  std::vector<double> vals_;

  linalg::SparseLu lu_;
  bool lu_analyzed_ = false;  // lu_ holds a symbolic analysis of this pattern

  std::shared_ptr<const linalg::BbdPartition> partition_;
  util::ThreadPool* bbd_pool_ = nullptr;
  std::unique_ptr<linalg::BbdSolver> bbd_;
  bool bbd_ready_ = false;  // bbd_ holds a split of the current pattern

  Stats stats_;
};

}  // namespace nemtcam::spice
