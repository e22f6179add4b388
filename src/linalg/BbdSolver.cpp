#include "linalg/BbdSolver.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "linalg/SingularMatrixError.h"
#include "util/Expect.h"
#include "util/ThreadPool.h"

namespace nemtcam::linalg {

namespace {

constexpr double kPivotTol = 1e-30;

// Locates `value` in a sorted vector; the caller guarantees presence.
std::size_t sorted_pos(const std::vector<std::size_t>& v, std::size_t value) {
  const auto it = std::lower_bound(v.begin(), v.end(), value);
  return static_cast<std::size_t>(it - v.begin());
}

}  // namespace

void BbdSolver::set_partition(std::shared_ptr<const BbdPartition> partition,
                              util::ThreadPool* pool) {
  partition_ = std::move(partition);
  pool_ = pool;
  analyzed_ = false;
  factored_ = false;
}

bool BbdSolver::split(const CsrView& a) {
  analyzed_ = false;
  factored_ = false;
  if (!partition_ || partition_->block_of.size() != a.n) return false;
  const std::vector<int>& part = partition_->block_of;
  const std::size_t k_blocks =
      static_cast<std::size_t>(std::max(partition_->n_blocks, 0));
  for (const int b : part)
    if (b < -1 || b >= static_cast<int>(k_blocks)) return false;

  n_ = a.n;
  blocks_.assign(k_blocks, Block{});
  border_idx_.clear();
  loc_.assign(n_, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    if (part[i] < 0) {
      loc_[i] = border_idx_.size();
      border_idx_.push_back(i);
    } else {
      Block& blk = blocks_[static_cast<std::size_t>(part[i])];
      loc_[i] = blk.unknowns.size();
      blk.unknowns.push_back(i);  // ascending: i is visited in order
    }
  }
  m_ = border_idx_.size();
  block_off_.assign(k_blocks + 1, 0);
  for (std::size_t k = 0; k < k_blocks; ++k)
    block_off_[k + 1] = block_off_[k] + blocks_[k].unknowns.size();

  // Classify every entry. Destination slots are recorded symbolically
  // (kind, block, index) and resolved to pointers once storage is final.
  enum class Dest : std::uint8_t { D, B, C, E };
  struct Slot {
    Dest dest;
    std::size_t block;  // unused for E
    std::size_t idx;
  };
  std::vector<Slot> slots(a.nnz());
  // B entries are collected per block as (border pos, local row, input j)
  // and sorted into CSC once the touched sets are known.
  struct BEntry {
    std::size_t pos, row, input;
  };
  std::vector<std::vector<BEntry>> b_entries(k_blocks);
  e_base_.assign(m_ * m_, 0.0);

  for (std::size_t k = 0; k < k_blocks; ++k)
    blocks_[k].d_ptr.assign(blocks_[k].unknowns.size() + 1, 0);

  for (std::size_t r = 0; r < n_; ++r) {
    const int br = part[r];
    for (std::size_t j = a.row_ptr[r]; j < a.row_ptr[r + 1]; ++j) {
      const std::size_t c = a.cols[j];
      const int bc = part[c];
      if (br >= 0 && bc >= 0) {
        if (br != bc) return false;  // direct block-to-block coupling
        Block& blk = blocks_[static_cast<std::size_t>(br)];
        blk.d_cols.push_back(loc_[c]);
        blk.d_vals.push_back(0.0);
        slots[j] = {Dest::D, static_cast<std::size_t>(br),
                    blk.d_vals.size() - 1};
        ++blk.d_ptr[loc_[r] + 1];
      } else if (br >= 0) {  // interior row, border column → B
        b_entries[static_cast<std::size_t>(br)].push_back(
            {loc_[c], loc_[r], j});
        slots[j] = {Dest::B, static_cast<std::size_t>(br), 0};  // patched
      } else if (bc >= 0) {  // border row, interior column → C
        Block& blk = blocks_[static_cast<std::size_t>(bc)];
        blk.c_rows.push_back(loc_[r]);  // border pos; compressed below
        blk.c_cols.push_back(loc_[c]);
        blk.c_vals.push_back(0.0);
        slots[j] = {Dest::C, static_cast<std::size_t>(bc),
                    blk.c_vals.size() - 1};
      } else {  // border row and column → E
        slots[j] = {Dest::E, 0, loc_[r] * m_ + loc_[c]};
      }
    }
  }

  for (std::size_t k = 0; k < k_blocks; ++k) {
    Block& blk = blocks_[k];
    for (std::size_t r = 0; r < blk.unknowns.size(); ++r)
      blk.d_ptr[r + 1] += blk.d_ptr[r];

    // Touched border set: union of B columns and C rows.
    blk.touched.clear();
    for (const BEntry& e : b_entries[k]) blk.touched.push_back(e.pos);
    for (const std::size_t pos : blk.c_rows) blk.touched.push_back(pos);
    std::sort(blk.touched.begin(), blk.touched.end());
    blk.touched.erase(std::unique(blk.touched.begin(), blk.touched.end()),
                      blk.touched.end());
    const std::size_t tk = blk.touched.size();
    for (std::size_t& pos : blk.c_rows) pos = sorted_pos(blk.touched, pos);
    blk.rows_with_c = blk.c_rows;
    std::sort(blk.rows_with_c.begin(), blk.rows_with_c.end());
    blk.rows_with_c.erase(
        std::unique(blk.rows_with_c.begin(), blk.rows_with_c.end()),
        blk.rows_with_c.end());

    // B → CSC over the touched columns.
    std::vector<BEntry>& be = b_entries[k];
    for (BEntry& e : be) e.pos = sorted_pos(blk.touched, e.pos);
    std::sort(be.begin(), be.end(), [](const BEntry& x, const BEntry& y) {
      return x.pos != y.pos ? x.pos < y.pos : x.row < y.row;
    });
    blk.b_ptr.assign(tk + 1, 0);
    blk.b_rows.resize(be.size());
    blk.b_vals.assign(be.size(), 0.0);
    blk.cols_with_b.clear();
    for (std::size_t e = 0; e < be.size(); ++e) {
      blk.b_rows[e] = be[e].row;
      ++blk.b_ptr[be[e].pos + 1];
      slots[be[e].input] = {Dest::B, k, e};
      if (blk.cols_with_b.empty() || blk.cols_with_b.back() != be[e].pos)
        blk.cols_with_b.push_back(be[e].pos);
    }
    for (std::size_t t = 0; t < tk; ++t) blk.b_ptr[t + 1] += blk.b_ptr[t];
  }

  // Storage is final; resolve scatter pointers.
  scatter_.resize(a.nnz());
  for (std::size_t j = 0; j < a.nnz(); ++j) {
    const Slot& s = slots[j];
    switch (s.dest) {
      case Dest::D: scatter_[j] = &blocks_[s.block].d_vals[s.idx]; break;
      case Dest::B: scatter_[j] = &blocks_[s.block].b_vals[s.idx]; break;
      case Dest::C: scatter_[j] = &blocks_[s.block].c_vals[s.idx]; break;
      case Dest::E: scatter_[j] = &e_base_[s.idx]; break;
    }
  }
  in_row_ptr_.assign(a.row_ptr, a.row_ptr + n_ + 1);
  in_cols_.assign(a.cols, a.cols + a.nnz());

  // Share symbolic analyses between identically patterned blocks.
  for (std::size_t k = 0; k < k_blocks; ++k) {
    blocks_[k].tmpl = k;
    for (std::size_t p = 0; p < k; ++p) {
      if (blocks_[p].tmpl != p) continue;
      if (blocks_[p].unknowns.size() == blocks_[k].unknowns.size() &&
          blocks_[p].d_ptr == blocks_[k].d_ptr &&
          blocks_[p].d_cols == blocks_[k].d_cols) {
        blocks_[k].tmpl = p;
        ++stats_.pattern_shares;
        break;
      }
    }
  }

  int_b_.assign(block_off_.back(), 0.0);
  int_y_.assign(block_off_.back(), 0.0);
  border_b_.assign(m_, 0.0);
  s_perm_.assign(m_, 0);

  ++stats_.symbolic_builds;
  analyzed_ = true;
  return true;
}

void BbdSolver::scatter(const CsrView& a) {
  std::fill(e_base_.begin(), e_base_.end(), 0.0);
  const double* vals = a.vals;
  for (std::size_t j = 0; j < scatter_.size(); ++j) *scatter_[j] = vals[j];
}

// Precomputes the sparse-rhs Schur schedule for block k against its LU's
// current elimination order: per B column the forward ops its pattern
// activates (plus the rows to wipe afterwards), and one descending stage
// closure covering every column C reads. Structural only — valid for any
// numeric refill until the LU re-pivots.
void BbdSolver::build_schur_plan(std::size_t k) {
  Block& blk = blocks_[k];
  const SparseLu::ScheduleView sv = blk.lu.schedule();
  const std::size_t nk = blk.unknowns.size();
  const std::size_t tk = blk.touched.size();
  blk.plan_fwd_begin.assign(tk + 1, 0);
  blk.plan_fwd.clear();
  blk.plan_pat_begin.assign(tk + 1, 0);
  blk.plan_pat.clear();
  blk.plan_bwd.clear();

  // Forward reach per B column: walking stages in schedule order, a stage
  // fires when its pivot row is structurally nonzero in the rhs; its ops
  // then spread the pattern to their target rows.
  std::vector<bool> live(nk, false);
  for (std::size_t t = 0; t < tk; ++t) {
    blk.plan_fwd_begin[t] = blk.plan_fwd.size();
    blk.plan_pat_begin[t] = blk.plan_pat.size();
    if (blk.b_ptr[t] == blk.b_ptr[t + 1]) continue;
    for (std::size_t e = blk.b_ptr[t]; e < blk.b_ptr[t + 1]; ++e) {
      live[blk.b_rows[e]] = true;
      blk.plan_pat.push_back(static_cast<std::uint32_t>(blk.b_rows[e]));
    }
    for (std::size_t s = 0; s < sv.n; ++s) {
      const std::size_t piv = sv.pivot_of_stage[s];
      if (!live[piv]) continue;
      for (std::size_t oi = sv.stage_op_begin[s]; oi < sv.stage_op_begin[s + 1];
           ++oi) {
        const std::size_t tgt = sv.op_target[oi];
        if (!live[tgt]) {
          live[tgt] = true;
          blk.plan_pat.push_back(static_cast<std::uint32_t>(tgt));
        }
        blk.plan_fwd.push_back({static_cast<std::uint32_t>(tgt),
                                static_cast<std::uint32_t>(piv),
                                static_cast<std::uint32_t>(oi)});
      }
    }
    for (std::size_t e = blk.plan_pat_begin[t]; e < blk.plan_pat.size(); ++e)
      live[blk.plan_pat[e]] = false;
  }
  blk.plan_fwd_begin[tk] = blk.plan_fwd.size();
  blk.plan_pat_begin[tk] = blk.plan_pat.size();

  // Backward closure: C reads x only at its column positions; stage s
  // additionally needs x at its pivot row's active (later-stage) columns.
  // An ascending walk marks dependencies before reaching them; evaluation
  // order is descending.
  std::vector<std::size_t> stage_of_col(nk, 0);
  for (std::size_t s = 0; s < sv.n; ++s) stage_of_col[sv.col_of_stage[s]] = s;
  std::vector<bool> needed(nk, false);
  for (const std::size_t lc : blk.c_cols) needed[stage_of_col[lc]] = true;
  for (std::size_t s = 0; s < sv.n; ++s) {
    if (!needed[s]) continue;
    for (std::size_t j = sv.stage_src_begin[s]; j < sv.stage_src_begin[s + 1];
         ++j)
      needed[stage_of_col[sv.u_cols[sv.stage_src[j]]]] = true;
  }
  for (std::size_t s = sv.n; s-- > 0;)
    if (needed[s]) blk.plan_bwd.push_back(static_cast<std::uint32_t>(s));

  blk.plan_generation = blk.lu.schedule_generation();
  blk.plan_valid = true;
}

// Replays (or re-runs) this block's LU over the freshly scattered values
// and leaves S_k = C_k D_k⁻¹ B_k in `scr`, formed column-by-column via
// the sparse Schur plan. Touches only block-private and slot-private
// state, so blocks run concurrently. Returns true when the numeric
// replay sufficed (false = full LU re-run).
bool BbdSolver::block_numeric(std::size_t k, Scratch& scr, bool force_full,
                              double* s_direct) {
  Block& blk = blocks_[k];
  const std::size_t nk = blk.unknowns.size();
  const std::size_t tk = blk.touched.size();
  const CsrView dv{nk, blk.d_ptr.data(), blk.d_cols.data(),
                   blk.d_vals.data()};
  bool replayed = false;
  if (!force_full && blk.lu.factored() && blk.lu.refactorize(dv)) {
    replayed = true;
  } else {
    blk.lu.factorize(dv);  // throws SingularMatrixError on failure
  }
  if (nk == 0 || tk == 0) {
    if (s_direct == nullptr) scr.sk.assign(tk * tk, 0.0);
    return replayed;
  }
  if (!blk.plan_valid || blk.plan_generation != blk.lu.schedule_generation())
    build_schur_plan(k);

  const SparseLu::ScheduleView sv = blk.lu.schedule();
  // rhs/x are kept zero-clean by the per-column wipes below, so a matching
  // size means they are already all-zero.
  if (scr.rhs.size() != nk) scr.rhs.assign(nk, 0.0);
  if (scr.x.size() != nk) scr.x.assign(nk, 0.0);
  if (s_direct == nullptr)
    scr.sk.assign(tk * tk, 0.0);
  else if (scr.cacc.size() < tk)
    scr.cacc.resize(tk);
  scr.inv_diag.resize(blk.plan_bwd.size());
  for (std::size_t i = 0; i < blk.plan_bwd.size(); ++i)
    scr.inv_diag[i] = 1.0 / sv.u_vals[sv.diag_idx[blk.plan_bwd[i]]];
  double* y = scr.rhs.data();
  double* x = scr.x.data();
  for (const std::size_t t : blk.cols_with_b) {
    for (std::size_t e = blk.b_ptr[t]; e < blk.b_ptr[t + 1]; ++e)
      y[blk.b_rows[e]] = blk.b_vals[e];
    for (std::size_t f = blk.plan_fwd_begin[t]; f < blk.plan_fwd_begin[t + 1];
         ++f) {
      const Block::FwdOp& op = blk.plan_fwd[f];
      y[op.target] -= sv.op_factor[op.op] * y[op.pivot];
    }
    for (std::size_t i = 0; i < blk.plan_bwd.size(); ++i) {
      const std::uint32_t s = blk.plan_bwd[i];
      double acc = y[sv.pivot_of_stage[s]];
      for (std::size_t j = sv.stage_src_begin[s];
           j < sv.stage_src_begin[s + 1]; ++j) {
        const std::size_t u = sv.stage_src[j];
        acc -= sv.u_vals[u] * x[sv.u_cols[u]];
      }
      x[sv.col_of_stage[s]] = acc * scr.inv_diag[i];
    }
    if (s_direct == nullptr) {
      for (std::size_t e = 0; e < blk.c_vals.size(); ++e)
        scr.sk[blk.c_rows[e] * tk + t] += blk.c_vals[e] * x[blk.c_cols[e]];
    } else {
      // Serial path: accumulate this S_k column in a small buffer and
      // subtract it from S immediately, skipping the dense sk staging.
      // Rounding matches the batched path exactly — same add order per
      // cell, one subtraction — so thread counts stay bit-identical.
      double* cacc = scr.cacc.data();
      for (const std::size_t tr : blk.rows_with_c) cacc[tr] = 0.0;
      for (std::size_t e = 0; e < blk.c_vals.size(); ++e)
        cacc[blk.c_rows[e]] += blk.c_vals[e] * x[blk.c_cols[e]];
      const std::size_t gc = blk.touched[t];
      for (const std::size_t tr : blk.rows_with_c)
        s_direct[blk.touched[tr] * m_ + gc] -= cacc[tr];
    }
    // Wipe only what this column dirtied; the buffers stay zero-clean.
    for (std::size_t e = blk.plan_pat_begin[t]; e < blk.plan_pat_begin[t + 1];
         ++e)
      y[blk.plan_pat[e]] = 0.0;
    for (const std::uint32_t s : blk.plan_bwd) x[sv.col_of_stage[s]] = 0.0;
  }
  return replayed;
}

void BbdSolver::accumulate_schur(std::size_t k, const Scratch& scr) {
  const Block& blk = blocks_[k];
  const std::size_t tk = blk.touched.size();
  for (const std::size_t tr : blk.rows_with_c) {
    double* s_row = s_.data() + blk.touched[tr] * m_;
    const double* sk_row = scr.sk.data() + tr * tk;
    for (const std::size_t t : blk.cols_with_b)
      s_row[blk.touched[t]] -= sk_row[t];
  }
}

void BbdSolver::factor_schur() {
  for (std::size_t i = 0; i < m_; ++i) s_perm_[i] = i;
  for (std::size_t j = 0; j < m_; ++j) {
    std::size_t piv = j;
    double best = std::fabs(s_[j * m_ + j]);
    for (std::size_t r = j + 1; r < m_; ++r) {
      const double mag = std::fabs(s_[r * m_ + j]);
      if (mag > best) {
        best = mag;
        piv = r;
      }
    }
    if (best < kPivotTol)
      throw SingularMatrixError("BbdSolver: singular Schur complement");
    if (piv != j) {
      for (std::size_t c = 0; c < m_; ++c)
        std::swap(s_[j * m_ + c], s_[piv * m_ + c]);
      std::swap(s_perm_[j], s_perm_[piv]);
    }
    const double inv_piv = 1.0 / s_[j * m_ + j];
    const double* pivot_row = s_.data() + j * m_;
    for (std::size_t r = j + 1; r < m_; ++r) {
      double* row = s_.data() + r * m_;
      const double f = row[j] * inv_piv;
      row[j] = f;
      if (f == 0.0) continue;
      for (std::size_t c = j + 1; c < m_; ++c) row[c] -= f * pivot_row[c];
    }
  }
}

void BbdSolver::run_blocks(std::size_t begin, std::size_t end,
                           const std::function<void(std::size_t)>& fn) {
  if (pool_ != nullptr && pool_->thread_count() > 1 && end - begin > 1) {
    pool_->parallel_for(begin, end, fn, 1);
  } else {
    for (std::size_t k = begin; k < end; ++k) fn(k);
  }
}

// Shared numeric pass: factor/replay every block batch-wise (bounded
// scratch: one W/S_k slot per pool thread) and assemble the Schur
// complement in block order regardless of scheduling.
bool BbdSolver::numeric() {
  const std::size_t k_blocks = blocks_.size();
  s_ = e_base_;
  const std::size_t slots = std::max<std::size_t>(
      1, pool_ != nullptr ? pool_->thread_count() : 1);
  scratch_.resize(std::max<std::size_t>(
      1, std::min(slots, std::max<std::size_t>(k_blocks, 1))));
  std::atomic<std::uint64_t> full{0}, replayed{0};
  if (scratch_.size() == 1) {
    // Serial: blocks already run in order, so each one subtracts its S_k
    // from S directly (same block order and rounding as the batched path).
    for (std::size_t k = 0; k < k_blocks; ++k) {
      if (block_numeric(k, scratch_[0], /*force_full=*/false, s_.data()))
        replayed.fetch_add(1, std::memory_order_relaxed);
      else
        full.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    for (std::size_t batch = 0; batch < k_blocks; batch += scratch_.size()) {
      const std::size_t batch_end =
          std::min(k_blocks, batch + scratch_.size());
      run_blocks(batch, batch_end, [&](std::size_t k) {
        if (block_numeric(k, scratch_[k - batch], /*force_full=*/false,
                          nullptr))
          replayed.fetch_add(1, std::memory_order_relaxed);
        else
          full.fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t k = batch; k < batch_end; ++k)
        accumulate_schur(k, scratch_[k - batch]);
    }
  }
  stats_.block_factorizations += full.load();
  stats_.block_refactorizations += replayed.load();
  factor_schur();
  factored_ = true;
  return true;
}

bool BbdSolver::factorize(const CsrView& a) {
  if (!split(a)) return false;
  scatter(a);

  // One full analysis per distinct pattern, in parallel; everyone else
  // copies the template's symbolic schedule before the numeric pass.
  std::vector<std::size_t> reps;
  for (std::size_t k = 0; k < blocks_.size(); ++k)
    if (blocks_[k].tmpl == k) reps.push_back(k);
  run_blocks(0, reps.size(), [&](std::size_t i) {
    Block& blk = blocks_[reps[i]];
    const CsrView dv{blk.unknowns.size(), blk.d_ptr.data(),
                     blk.d_cols.data(), blk.d_vals.data()};
    blk.lu.factorize(dv);
  });
  stats_.block_factorizations += reps.size();
  for (std::size_t k = 0; k < blocks_.size(); ++k)
    if (blocks_[k].tmpl != k) blocks_[k].lu = blocks_[blocks_[k].tmpl].lu;

  return numeric();
}

bool BbdSolver::refactorize(const CsrView& a) {
  if (!analyzed_ || a.n != n_ || a.nnz() != in_cols_.size()) return false;
  if (!std::equal(in_row_ptr_.begin(), in_row_ptr_.end(), a.row_ptr) ||
      !std::equal(in_cols_.begin(), in_cols_.end(), a.cols))
    return false;
  factored_ = false;
  scatter(a);
  return numeric();
}

void BbdSolver::solve_inplace(std::vector<double>& b) {
  NEMTCAM_EXPECT_MSG(factored_, "BbdSolver::solve before factorize");
  NEMTCAM_EXPECT(b.size() == n_);
  const std::size_t k_blocks = blocks_.size();

  // Split the rhs into block slices and the border slice.
  for (std::size_t k = 0; k < k_blocks; ++k) {
    const Block& blk = blocks_[k];
    double* bk = int_b_.data() + block_off_[k];
    for (std::size_t r = 0; r < blk.unknowns.size(); ++r)
      bk[r] = b[blk.unknowns[r]];
  }
  for (std::size_t i = 0; i < m_; ++i) border_b_[i] = b[border_idx_[i]];

  // Block-forward: y_k = D_k⁻¹ b_k (disjoint slices → parallel-safe).
  run_blocks(0, k_blocks, [&](std::size_t k) {
    const Block& blk = blocks_[k];
    const std::size_t nk = blk.unknowns.size();
    if (nk == 0) return;
    std::copy(int_b_.begin() + block_off_[k],
              int_b_.begin() + block_off_[k] + nk,
              int_y_.begin() + block_off_[k]);
    blk.lu.solve_inplace(int_y_.data() + block_off_[k]);
  });

  // Border rhs: b_s − Σ C_k y_k, accumulated in block order.
  for (std::size_t k = 0; k < k_blocks; ++k) {
    const Block& blk = blocks_[k];
    const double* yk = int_y_.data() + block_off_[k];
    for (std::size_t e = 0; e < blk.c_vals.size(); ++e)
      border_b_[blk.touched[blk.c_rows[e]]] -=
          blk.c_vals[e] * yk[blk.c_cols[e]];
  }

  // Dense border solve: permute, forward, backward.
  xs_.resize(m_);
  std::vector<double>& xs = xs_;
  for (std::size_t i = 0; i < m_; ++i) xs[i] = border_b_[s_perm_[i]];
  for (std::size_t r = 1; r < m_; ++r) {
    const double* row = s_.data() + r * m_;
    double acc = xs[r];
    for (std::size_t c = 0; c < r; ++c) acc -= row[c] * xs[c];
    xs[r] = acc;
  }
  for (std::size_t r = m_; r-- > 0;) {
    const double* row = s_.data() + r * m_;
    double acc = xs[r];
    for (std::size_t c = r + 1; c < m_; ++c) acc -= row[c] * xs[c];
    xs[r] = acc / row[r];
  }

  // Block-backward: x_k = D_k⁻¹ (b_k − B_k x_s), reusing int_y_'s slices
  // (still disjoint per block).
  run_blocks(0, k_blocks, [&](std::size_t k) {
    const Block& blk = blocks_[k];
    const std::size_t nk = blk.unknowns.size();
    if (nk == 0) return;
    double* rhs = int_y_.data() + block_off_[k];
    std::copy(int_b_.begin() + block_off_[k],
              int_b_.begin() + block_off_[k] + nk, rhs);
    for (const std::size_t t : blk.cols_with_b) {
      const double x_border = xs[blk.touched[t]];
      if (x_border == 0.0) continue;
      for (std::size_t e = blk.b_ptr[t]; e < blk.b_ptr[t + 1]; ++e)
        rhs[blk.b_rows[e]] -= blk.b_vals[e] * x_border;
    }
    blk.lu.solve_inplace(rhs);
  });

  // Gather.
  for (std::size_t k = 0; k < k_blocks; ++k) {
    const Block& blk = blocks_[k];
    const double* xk = int_y_.data() + block_off_[k];
    for (std::size_t r = 0; r < blk.unknowns.size(); ++r)
      b[blk.unknowns[r]] = xk[r];
  }
  for (std::size_t i = 0; i < m_; ++i) b[border_idx_[i]] = xs[i];
}

}  // namespace nemtcam::linalg
