// MNA assembly helper.
//
// Unknown layout: node voltages for ids 1..N-1 occupy indices 0..N-2;
// branch currents follow. The assembled system is the Newton update
// equation J·v_new = rhs where rhs already folds in the nonlinear
// equivalent currents (rhs = J·v_iter − f(v_iter) contributions).
//
// Sign conventions:
//  - conductance(a, b, g): element between a and b.
//  - current(a, b, i): current i flows from a to b *through the device*
//    (it leaves node a and enters node b).
//  - vccs(a, b, c, d, gm): current gm·(v_c − v_d) flows from a to b.
//  - voltage_source(p, m, br, V): enforces v_p − v_m = V; the branch
//    unknown is the current flowing from p to m through the source
//    (i.e. into the + terminal).
#pragma once

#include "spice/AssemblyCache.h"
#include "spice/Types.h"
#include "util/Expect.h"

#include <memory>
#include <vector>

namespace nemtcam::spice {

class Device;
class StampContext;

// Element stamps shared by the two stamping back ends. `Sink` supplies
// madd(r, c, v) for matrix terms and radd(r, v) for right-hand-side
// terms; unknown indexing, ground elision and term order are common, so a
// bound pass issues exactly the contributions of a key-checked pass, in
// the same order.
template <class Sink>
class StampOps {
 public:
  void conductance(NodeId a, NodeId b, double g) {
    const int ia = idx(a);
    const int ib = idx(b);
    if (ia >= 0) madd(u(ia), u(ia), g);
    if (ib >= 0) madd(u(ib), u(ib), g);
    if (ia >= 0 && ib >= 0) {
      madd(u(ia), u(ib), -g);
      madd(u(ib), u(ia), -g);
    }
  }

  void current(NodeId a, NodeId b, double i) {
    const int ia = idx(a);
    const int ib = idx(b);
    if (ia >= 0) radd(u(ia), -i);
    if (ib >= 0) radd(u(ib), i);
  }

  void vccs(NodeId a, NodeId b, NodeId c, NodeId d, double gm) {
    const int ia = idx(a);
    const int ib = idx(b);
    const int ic = idx(c);
    const int id = idx(d);
    if (ia >= 0 && ic >= 0) madd(u(ia), u(ic), gm);
    if (ia >= 0 && id >= 0) madd(u(ia), u(id), -gm);
    if (ib >= 0 && ic >= 0) madd(u(ib), u(ic), -gm);
    if (ib >= 0 && id >= 0) madd(u(ib), u(id), gm);
  }

  // Convenience for a two-terminal nonlinear element: current i(v_ab)
  // flowing a→b, with derivative didv, both evaluated at iterate v_ab.
  void nonlinear_current(NodeId a, NodeId b, double i_at_iter, double didv,
                         double v_ab_iter) {
    conductance(a, b, didv);
    current(a, b, i_at_iter - didv * v_ab_iter);
  }

  void voltage_source(NodeId plus, NodeId minus, BranchId br, double volts) {
    NEMTCAM_EXPECT(br >= 0);
    const int ip = idx(plus);
    const int im = idx(minus);
    const std::size_t rb = static_cast<std::size_t>(n_node_unknowns_ + br);
    if (ip >= 0) {
      madd(u(ip), rb, 1.0);
      madd(rb, u(ip), 1.0);
    }
    if (im >= 0) {
      madd(u(im), rb, -1.0);
      madd(rb, u(im), -1.0);
    }
    radd(rb, volts);
  }

  // Adds series resistance to a previously stamped voltage-source branch:
  // the branch row becomes v_p − v_m − r·i = V.
  void branch_series_resistance(BranchId br, double r) {
    NEMTCAM_EXPECT(br >= 0);
    const std::size_t rb = static_cast<std::size_t>(n_node_unknowns_ + br);
    madd(rb, rb, -r);
  }

  // Current gain·i(src_branch) flowing a→b (CCCS coupling).
  void branch_controlled_current(NodeId a, NodeId b, BranchId src_branch,
                                 double gain) {
    NEMTCAM_EXPECT(src_branch >= 0);
    const std::size_t cb = static_cast<std::size_t>(n_node_unknowns_ + src_branch);
    const int ia = idx(a);
    const int ib = idx(b);
    if (ia >= 0) madd(u(ia), cb, gain);
    if (ib >= 0) madd(u(ib), cb, -gain);
  }

  // Adds coeff·v(n) into a branch row (VCVS control term).
  void branch_row_node(BranchId row_branch, NodeId n, double coeff) {
    NEMTCAM_EXPECT(row_branch >= 0);
    const int in = idx(n);
    if (in < 0) return;
    const std::size_t rb = static_cast<std::size_t>(n_node_unknowns_ + row_branch);
    madd(rb, u(in), coeff);
  }

  // Adds coeff·i(ctrl_branch) into a branch row (CCVS control term).
  void branch_row_branch(BranchId row_branch, BranchId ctrl_branch,
                         double coeff) {
    NEMTCAM_EXPECT(row_branch >= 0 && ctrl_branch >= 0);
    const std::size_t rb = static_cast<std::size_t>(n_node_unknowns_ + row_branch);
    const std::size_t cb = static_cast<std::size_t>(n_node_unknowns_ + ctrl_branch);
    madd(rb, cb, coeff);
  }

  int node_unknowns() const noexcept { return n_node_unknowns_; }

 protected:
  explicit StampOps(int n_node_unknowns) : n_node_unknowns_(n_node_unknowns) {}

 private:
  static int idx(NodeId n) { return n - 1; }  // -1 for ground
  static std::size_t u(int i) { return static_cast<std::size_t>(i); }

  void madd(std::size_t r, std::size_t c, double v) {
    static_cast<Sink&>(*this).madd(r, c, v);
  }
  void radd(std::size_t r, double v) { static_cast<Sink&>(*this).radd(r, v); }

  int n_node_unknowns_;
};

// Issues a bound device's terms straight into its recorded range, one
// after another — added into their slots, or written to the term buffer —
// the keys were verified when the range was bound. A device issuing more
// or fewer terms than the range holds is caught by filled() (extra terms
// are dropped, never written past it).
class BoundStamper : public StampOps<BoundStamper> {
 public:
  BoundStamper(const AssemblyCache::BoundRange& range, int n_node_unknowns)
      : StampOps(n_node_unknowns), range_(range) {}

  bool filled() const noexcept { return !overflow_ && next_ == range_.count; }

 private:
  friend class StampOps<BoundStamper>;
  void put(double v) {
    if (next_ == range_.count) {
      overflow_ = true;
      return;
    }
    const std::uint32_t i = next_++;
    if (range_.slots != nullptr) range_.out[range_.slots[i]] += v;
    else range_.out[i] = v;
  }
  void madd(std::size_t, std::size_t, double v) { put(v); }
  void radd(std::size_t, double v) { put(v); }

  AssemblyCache::BoundRange range_;
  std::uint32_t next_ = 0;
  bool overflow_ = false;
};

class Stamper : public StampOps<Stamper> {
 public:
  // Terms go to `cache` (fixed-pattern assembly, see AssemblyCache); a
  // build pass adds right-hand-side terms to `rhs` directly, a replay has
  // the cache's finish() copy their sums into it.
  Stamper(AssemblyCache& cache, std::vector<double>& rhs, int n_node_unknowns)
      : StampOps(n_node_unknowns), cache_(cache), rhs_(&rhs),
        lane_(&cache.main_lane()) {
    cache.attach_rhs(rhs);
  }

  // Stamps every device at `ctx`, recording device boundaries on a build
  // pass. A replay on a cache with a pool splits the devices into
  // contiguous ranges, each replayed from its recorded start on the pool
  // (devices must only read shared state while stamping); otherwise the
  // loop runs inline. Either way every slot sums its terms in recorded
  // order.
  void stamp_devices(const std::vector<std::unique_ptr<Device>>& devices,
                     const StampContext& ctx);

  // Stamps a fixed-shape group of terms through a device's binding.
  // `terms` is called with either this Stamper or a BoundStamper and must
  // issue the same calls either way. When `b` is live in this pass the
  // terms go straight into their recorded range; otherwise they are
  // stamped key-checked and, on a replay that has matched so far, `b` is
  // (re)bound to the range they covered.
  template <class Terms>
  void bound(StampBinding& b, Terms&& terms) {
    AssemblyCache::BoundRange range;
    if (cache_.bound_range(*lane_, b, range)) {
      BoundStamper bs(range, node_unknowns());
      terms(bs);
      if (!bs.filled()) lane_->ok = false;  // shape changed; pass is void
      return;
    }
    const std::size_t mark = lane_->cursor;
    terms(*this);
    cache_.bind(*lane_, b, mark);
  }

 private:
  friend class StampOps<Stamper>;
  // A stamper for one lane of a split replay (no right-hand side: replays
  // never touch it directly).
  Stamper(AssemblyCache& cache, AssemblyCache::Lane& lane, int n_node_unknowns)
      : StampOps(n_node_unknowns), cache_(cache), lane_(&lane) {}

  void madd(std::size_t r, std::size_t c, double v) {
    cache_.put(*lane_, r, c, v);
  }
  void radd(std::size_t r, double v) {
    if (cache_.building()) (*rhs_)[r] += v;
    cache_.put_rhs(*lane_, r, v);
  }

  AssemblyCache& cache_;
  std::vector<double>* rhs_ = nullptr;
  AssemblyCache::Lane* lane_;
};

}  // namespace nemtcam::spice
