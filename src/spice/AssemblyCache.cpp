#include "spice/AssemblyCache.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "linalg/BbdSolver.h"
#include "util/Expect.h"
#include "util/Log.h"
#include "util/ThreadPool.h"

namespace nemtcam::spice {

namespace {

// Binding tokens: unique across every cache and every pattern build in
// the process, so no cache ever honours a binding made against another.
std::uint64_t next_token() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

// Frees a vector's storage (clear() would keep its capacity).
template <class T>
void release(std::vector<T>& v) {
  std::vector<T>().swap(v);
}

}  // namespace

AssemblyCache::AssemblyCache() = default;
AssemblyCache::~AssemblyCache() = default;
AssemblyCache::AssemblyCache(AssemblyCache&&) noexcept = default;
AssemblyCache& AssemblyCache::operator=(AssemblyCache&&) noexcept = default;

void AssemblyCache::begin(std::size_t n) {
  ++stats_.assemblies;
  rhs_ = nullptr;
  split_ = false;
  if (has_pattern() && n == n_) {
    building_ = false;
    main_ = {0, seq_slot_.size(), true, false};
    if (pool_ == nullptr) std::fill(vals_.begin(), vals_.end(), 0.0);
    return;
  }
  invalidate();
  n_ = n;
  building_ = true;
  ++stats_.pattern_builds;
}

std::vector<AssemblyCache::Lane>& AssemblyCache::split(std::size_t chunks) {
  NEMTCAM_EXPECT(chunks > 0 && chunks < dev_start_.size());
  lanes_.resize(chunks);
  for (std::size_t c = 0; c < chunks; ++c)
    lanes_[c] = {dev_start_[device_begin(c)], dev_start_[device_begin(c + 1)],
                 true, false};
  split_ = true;
  return lanes_;
}

void AssemblyCache::join() {
  for (const Lane& lane : lanes_) {
    if (!lane.ok || lane.cursor != lane.end) main_.ok = false;
    main_.bound = main_.bound || lane.bound;
  }
  main_.cursor = dev_start_.back();
}

void AssemblyCache::gather(std::size_t lo, std::size_t hi) {
  const std::uint32_t* ptr = gather_ptr_.data();
  const std::uint32_t* seq = gather_seq_.data();
  const double* terms = terms_.data();
  for (std::size_t s = lo; s < hi; ++s) {
    double acc = 0.0;
    for (std::uint32_t k = ptr[s]; k < ptr[s + 1]; ++k) acc += terms[seq[k]];
    vals_[s] = acc;
  }
}

bool AssemblyCache::finish() {
  if (main_.ok) {
    main_.ok = false;
    if (main_.cursor != seq_slot_.size()) {
      invalidate();  // short pass: fewer terms than recorded
      return false;
    }
    NEMTCAM_EXPECT_MSG(rhs_ != nullptr && rhs_->size() == n_,
                       "AssemblyCache: replay without a right-hand side");
    if (pool_ != nullptr) {
      const std::size_t slots = vals_.size();
      // Each slot is summed by exactly one task, so the split is exact.
      constexpr std::size_t kGatherGrain = 4096;
      if (slots >= 2 * kGatherGrain) {
        const std::size_t chunks = slots / kGatherGrain;
        pool_->parallel_for(0, chunks, [&](std::size_t c) {
          gather(c * slots / chunks, (c + 1) * slots / chunks);
        });
      } else {
        gather(0, slots);
      }
    }
    std::copy(vals_.begin() + static_cast<std::ptrdiff_t>(nnz()), vals_.end(),
              rhs_->begin());
    if (main_.bound) ++stats_.bound_passes;
    if (split_) ++stats_.parallel_passes;
    return true;
  }
  if (!building_) {
    // A replay that deviated mid-stream: drop the stale pattern so the
    // caller's retry runs in build mode.
    invalidate();
    return false;
  }
  building_ = false;

  // Finalize: distinct (r, c) positions -> CSR, one slot per position.
  // Only matrix terms are sorted: the sort sees the same key sequence
  // whatever RHS terms sit between them, so the build-pass sums below
  // meet equal keys in the same order as a sort of the matrix terms alone.
  const std::size_t total = build_key_.size();
  NEMTCAM_EXPECT_MSG(total < UINT32_MAX,
                     "AssemblyCache: stamp sequence exceeds 32-bit indexing");
  const std::uint64_t rhs_base = rhs_key_base();
  std::vector<std::uint32_t> order;
  order.reserve(total);
  for (std::size_t i = 0; i < total; ++i)
    if (build_key_[i] < rhs_base) order.push_back(static_cast<std::uint32_t>(i));
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return build_key_[a] < build_key_[b];
  });

  std::size_t distinct = 0;
  for (std::size_t j = 0; j < order.size(); ++j)
    distinct += j == 0 || build_key_[order[j]] != build_key_[order[j - 1]];
  row_ptr_.assign(n_ + 1, 0);
  cols_.clear();
  vals_.clear();
  cols_.reserve(distinct);
  vals_.reserve(distinct + n_);
  seq_slot_.resize(total);
  std::uint64_t prev_key = 0;
  bool have_prev = false;
  for (const std::uint32_t i : order) {
    const std::uint64_t key = build_key_[i];
    if (!have_prev || key != prev_key) {
      cols_.push_back(static_cast<std::size_t>(key % n_));
      vals_.push_back(0.0);
      ++row_ptr_[key / n_ + 1];
      prev_key = key;
      have_prev = true;
    }
    seq_slot_[i] = static_cast<std::uint32_t>(vals_.size() - 1);
    vals_.back() += trip_val_[i];
  }
  for (std::size_t r = 0; r < n_; ++r) row_ptr_[r + 1] += row_ptr_[r];
  NEMTCAM_EXPECT(nnz() + n_ < UINT32_MAX);
  for (std::size_t i = 0; i < total; ++i)
    if (build_key_[i] >= rhs_base)
      seq_slot_[i] =
          static_cast<std::uint32_t>(nnz() + (build_key_[i] - rhs_base));
  vals_.resize(nnz() + n_, 0.0);  // the right-hand-side sums
  release(order);
  release(build_key_);
  release(trip_val_);
  token_ = next_token();
  if (pool_ == nullptr) return true;

  // Gather map: a counting sort of sequence positions by slot, which
  // keeps each slot's positions ascending.
  gather_ptr_.assign(vals_.size() + 1, 0);
  for (std::size_t i = 0; i < total; ++i) ++gather_ptr_[seq_slot_[i] + 1];
  for (std::size_t s = 0; s + 1 < gather_ptr_.size(); ++s)
    gather_ptr_[s + 1] += gather_ptr_[s];
  gather_seq_.resize(total);
  for (std::size_t i = 0; i < total; ++i)
    gather_seq_[gather_ptr_[seq_slot_[i]]++] = static_cast<std::uint32_t>(i);
  // Each slot's cursor now sits at the next slot's start; shift back.
  for (std::size_t s = gather_ptr_.size() - 1; s > 0; --s)
    gather_ptr_[s] = gather_ptr_[s - 1];
  gather_ptr_[0] = 0;

  terms_.assign(total, 0.0);
  return true;
}

void AssemblyCache::invalidate() {
  building_ = false;
  main_ = {};
  split_ = false;
  token_ = 0;
  // The per-term arrays go with the pattern, so a rebuild's arrays never
  // sit on top of a stale pattern's.
  release(build_key_);
  release(trip_val_);
  release(seq_slot_);
  release(dev_start_);
  release(terms_);
  release(gather_ptr_);
  release(gather_seq_);
  row_ptr_.clear();
  cols_.clear();
  vals_.clear();
  lu_analyzed_ = false;
  bbd_ready_ = false;  // the partition itself survives; see set_partition
}

void AssemblyCache::set_pool(util::ThreadPool* pool) {
  invalidate();  // the replay mode is fixed when a pattern is recorded
  pool_ = pool;
  bbd_.reset();  // re-created on the next solve, fanning out on `pool`
}

void AssemblyCache::set_partition(
    std::shared_ptr<const linalg::BbdPartition> partition) {
  partition_ = std::move(partition);
  bbd_.reset();
  bbd_ready_ = false;
}

linalg::SparseLu& AssemblyCache::factorize() {
  NEMTCAM_EXPECT_MSG(has_pattern(), "AssemblyCache::factorize before finish");
  if (lu_analyzed_ && lu_.refactorize(view())) {
    ++stats_.refactorizations;
    return lu_;
  }
  lu_analyzed_ = false;
  lu_.factorize(view());  // throws SingularMatrixError on failure
  lu_analyzed_ = true;
  ++stats_.full_factorizations;
  return lu_;
}

void AssemblyCache::factorize_and_solve(std::vector<double>& rhs) {
  if (partition_) {
    if (!bbd_) bbd_ = std::make_unique<linalg::BbdSolver>();
    if (!bbd_->has_partition()) bbd_->set_partition(partition_, pool_);
    const linalg::CsrView a = view();
    bool ok = false;
    if (bbd_ready_ && bbd_->refactorize(a)) {
      ok = true;
      ++stats_.bbd_refactorizations;
    }
    if (!ok) {
      bbd_ready_ = false;
      // May throw SingularMatrixError — bbd_ready_ stays false so the
      // recovery ladder's retry re-splits from scratch.
      if (bbd_->factorize(a)) {
        ok = true;
        bbd_ready_ = true;
        ++stats_.bbd_factorizations;
      }
    }
    if (ok) {
      bbd_->solve_inplace(rhs);
      return;
    }
    // The matrix does not fit the partition (an entry couples two blocks
    // or the size is stale). Warn once and go monolithic for good.
    ++stats_.bbd_fallbacks;
    log::warn("AssemblyCache: matrix does not fit the BBD partition; "
              "falling back to monolithic SparseLu");
    clear_partition();
  }
  linalg::SparseLu& lu = factorize();
  lu.solve_inplace(rhs);
}

}  // namespace nemtcam::spice
