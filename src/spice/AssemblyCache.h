// Fixed-pattern MNA assembly reused across Newton iterations and time
// steps.
//
// Device stamping is deterministic for a fixed circuit topology: every
// iteration issues the same sequence of terms — matrix (row, col)
// contributions and right-hand-side (row) contributions — only the values
// change. The first assembly after a (re)build runs in build mode: it
// records that sequence and the position at which each device's terms
// start, accumulates triplets (keeping exact zeros: a conductance that
// happens to be 0 this iteration still owns its slot) and finalizes a CSR
// pattern with one value slot per distinct position. Build-mode RHS terms
// go straight into the caller's vector.
//
// Every later assembly is a replay: each term is compared against its
// recorded key and summed into its slot — a CSR value or a right-hand-side
// entry — in recorded sequence order, so every sum is exactly the one the
// build pass formed. A cache without a pool (every row fixture) adds each
// term straight into its slot. A cache with a pool writes each term into a
// per-pass term buffer at its recorded sequence position instead, and
// finish() sums every slot over its terms in ascending position through a
// slot→sequence gather map built once per pattern: the same sums, but
// because no two terms share a buffer position, the device loop (split
// into contiguous device ranges, each replayed from its recorded start)
// and the gather (split into slot ranges) run across the pool with
// bit-identical results.
//
// If a device ever deviates from the recorded sequence (e.g. the circuit
// switches between DC and transient stamping, which opens capacitors),
// the pass is flagged, the pattern dropped, and the caller re-stamps in
// build mode — correctness never depends on the pattern staying fixed.
//
// Bound stamping: a device whose stamp shape is fixed (a transistor, a
// capacitor, a relay, a resistor or a voltage source in a transient pass)
// may bind its contiguous range of the recorded sequence. The first replay
// after a build stamps it key-checked; if every key matched, the device
// keeps a StampBinding (pattern token, range start and length). Later
// replays of the same pattern let it issue its values into that range —
// the range's slots, or its stretch of the term buffer — without
// comparing keys. The token comes from
// one process-wide counter, bumped by every pattern build in every cache,
// so a binding is never honoured by another cache or by a rebuilt pattern.
// A replay that reaches a bound range anywhere but at its recorded start
// (an earlier device changed shape), or a bound device that issues a
// different number of terms, voids the pass and is re-recorded like any
// other deviation.
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
// are untouched. The pool (set_pool) is independent of the partition: the
// BBD block factorizations, the replay's device loop and gather, and the
// transient engine's accepted-step hooks all fan out on it.
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
  std::uint32_t count = 0;  // terms (matrix and right-hand side) in the range
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
    // Successful replay passes whose device loop ran split across the
    // pool. Stays 0 on a cache without a pool; a silent fall-back to the
    // inline loop on a pooled cache shows as this lagging assemblies.
    std::uint64_t parallel_passes = 0;
  };

  // One replay cursor over a contiguous range [cursor, end) of the
  // recorded sequence. The whole pass has one; a device loop split across
  // the pool has one per device range.
  struct Lane {
    std::size_t cursor = 0;
    std::size_t end = 0;
    bool ok = false;     // replaying, and every term so far matched
    bool bound = false;  // honoured a binding
  };

  // Where a live binding's `count` terms go: added into sums[slots[i]]
  // (a cache without a pool), or written to terms[i] (slots == nullptr).
  struct BoundRange {
    double* out = nullptr;
    const std::uint32_t* slots = nullptr;
    std::uint32_t count = 0;
  };

  AssemblyCache();
  ~AssemblyCache();
  AssemblyCache(AssemblyCache&&) noexcept;
  AssemblyCache& operator=(AssemblyCache&&) noexcept;

  // Starts one assembly pass over an n-unknown system.
  void begin(std::size_t n);

  bool building() const noexcept { return building_; }
  // The whole pass's lane.
  Lane& main_lane() noexcept { return main_; }

  // One matrix term (r, c) of the pass, issued through `lane`. A replay
  // checks it against the term recorded at the lane's cursor and sums it
  // into its slot; a build pass records it.
  void put(Lane& lane, std::size_t r, std::size_t c, double v) {
    if (lane.ok) {
      // The recorded slot holds (r, c) iff it lies in row r's CSR range
      // at column c.
      const bool match = lane.cursor < lane.end && [&] {
        const std::size_t s = seq_slot_[lane.cursor];
        return s >= row_ptr_[r] && s < row_ptr_[r + 1] && cols_[s] == c;
      }();
      accept(lane, match, v);
      return;
    }
    if (building_) record(static_cast<std::uint64_t>(r) * n_ + c, v);
  }
  // One right-hand-side term for row r; see put().
  void put_rhs(Lane& lane, std::size_t r, double v) {
    if (lane.ok) {
      accept(lane,
             lane.cursor < lane.end && seq_slot_[lane.cursor] == nnz() + r,
             v);
      return;
    }
    if (building_) record(rhs_key_base() + r, v);
  }

  // When `b` was verified against this cache's current pattern and `lane`
  // stands at the range's start, fills `range` and moves the lane past the
  // range. False otherwise — the caller stamps key-checked.
  bool bound_range(Lane& lane, const StampBinding& b, BoundRange& range) {
    if (!lane.ok || b.token != token_) return false;
    if (lane.cursor != b.start || lane.end - lane.cursor < b.count) {
      lane.ok = false;  // an earlier device changed shape; pass is void
      return false;
    }
    range = pool_ != nullptr
                ? BoundRange{terms_.data() + b.start, nullptr, b.count}
                : BoundRange{vals_.data(), seq_slot_.data() + b.start, b.count};
    lane.cursor += b.count;
    lane.bound = true;
    return true;
  }
  // Binds `b` to the range [mark, lane.cursor) a device has just stamped
  // key-checked. Only a replay whose keys have all matched so far verifies
  // a range; any other pass leaves `b` untouched.
  void bind(const Lane& lane, StampBinding& b, std::size_t mark) const {
    if (!lane.ok || lane.cursor > UINT32_MAX) return;
    b = {token_, static_cast<std::uint32_t>(mark),
         static_cast<std::uint32_t>(lane.cursor - mark)};
  }

  // The right-hand side a replay's finish() copies its sums into (the
  // Stamper attaches its vector). Cleared by begin().
  void attach_rhs(std::vector<double>& rhs) noexcept { rhs_ = &rhs; }

  // Device boundaries. A build pass on a cache with a pool records where
  // the next device's terms start (call once before each device and once
  // after the last); other passes ignore it.
  void mark_device() {
    if (building_ && pool_ != nullptr)
      dev_start_.push_back(static_cast<std::uint32_t>(build_key_.size()));
  }
  // True when this is a replay of a pattern recorded with `n_devices`
  // device boundaries and a pool is attached: the device loop may split.
  bool can_split(std::size_t n_devices) const noexcept {
    return main_.ok && pool_ != nullptr && main_.cursor == 0 &&
           dev_start_.size() == n_devices + 1;
  }
  // Lanes for `chunks` contiguous device ranges of a splittable pass;
  // lane c replays devices [device_begin(c), device_begin(c + 1)).
  std::vector<Lane>& split(std::size_t chunks);
  std::size_t device_begin(std::size_t chunk) const noexcept {
    return chunk * (dev_start_.size() - 1) / lanes_.size();
  }
  // Folds the split lanes back into the pass and moves the main lane past
  // the last device.
  void join();

  // Ends the pass. Returns false when a replay deviated from the recorded
  // pattern — the pattern is dropped and the caller must redo the pass
  // (which will run in build mode). A build pass finalizes the CSR
  // pattern and always succeeds; a replay (with a pool, after summing the
  // term buffer) copies the right-hand-side sums into the attached vector.
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

  // The pool replay passes, BBD block factorizations and the transient
  // engine's accepted-step hooks fan out on; nullptr (the default) runs
  // everything inline. Drops the pattern (a pooled pattern also records
  // device boundaries and a gather map); survives invalidate().
  void set_pool(util::ThreadPool* pool);
  util::ThreadPool* pool() const noexcept { return pool_; }

  // Installs (or, with nullptr, clears) a BBD partition; subsequent
  // factorize_and_solve() calls route through BbdSolver on the pool. The
  // partition survives invalidate() — a pattern rebuild re-splits the new
  // pattern against the same partition — but Circuit drops it when the
  // topology itself changes (the unknown numbering is stale then).
  void set_partition(std::shared_ptr<const linalg::BbdPartition> partition);
  void clear_partition() { set_partition(nullptr); }
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
  // Build-pass keys: r·n + c for matrix terms, n·n + r for RHS terms.
  std::uint64_t rhs_key_base() const noexcept {
    return static_cast<std::uint64_t>(n_) * n_;
  }
  std::size_t nnz() const noexcept { return cols_.size(); }
  void accept(Lane& lane, bool match, double v) {
    if (!match) {
      lane.ok = false;  // pattern changed; pass is void
      return;
    }
    const std::size_t i = lane.cursor++;
    if (pool_ != nullptr) terms_[i] = v;
    else vals_[seq_slot_[i]] += v;
  }
  void record(std::uint64_t key, double v) {
    build_key_.push_back(key);
    trip_val_.push_back(v);
  }
  // Sums slots [lo, hi) over the term buffer.
  void gather(std::size_t lo, std::size_t hi);

  std::size_t n_ = 0;
  bool building_ = false;  // recording a new sequence
  bool split_ = false;     // this pass's device loop ran across the pool
  Lane main_;
  std::uint64_t token_ = 0;  // current pattern's binding token; 0 = none
  std::vector<double>* rhs_ = nullptr;

  // Build pass: one key and one value per term, released by finalize.
  std::vector<std::uint64_t> build_key_;
  std::vector<double> trip_val_;

  // Recorded stamp sequence: the slot of every term (CSR slot s < nnz for
  // a matrix term, nnz + r for an RHS term in row r) and, with a pool, the
  // sequence position at which each device's terms start (plus one past
  // the last device).
  std::vector<std::uint32_t> seq_slot_;
  std::vector<std::uint32_t> dev_start_;

  // Replay with a pool: per-pass term buffer in sequence order, and the
  // gather map — slot s sums terms_[gather_seq_[k]] for k in
  // [gather_ptr_[s], gather_ptr_[s + 1]), positions ascending.
  std::vector<double> terms_;
  std::vector<std::uint32_t> gather_ptr_;
  std::vector<std::uint32_t> gather_seq_;
  std::vector<Lane> lanes_;

  // Fixed CSR pattern + the per-pass sums: nnz CSR values, then n
  // right-hand-side entries.
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> cols_;
  std::vector<double> vals_;

  linalg::SparseLu lu_;
  bool lu_analyzed_ = false;  // lu_ holds a symbolic analysis of this pattern

  util::ThreadPool* pool_ = nullptr;
  std::shared_ptr<const linalg::BbdPartition> partition_;
  std::unique_ptr<linalg::BbdSolver> bbd_;
  bool bbd_ready_ = false;  // bbd_ holds a split of the current pattern

  Stats stats_;
};

}  // namespace nemtcam::spice
