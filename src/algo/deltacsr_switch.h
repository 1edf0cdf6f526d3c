// Kill switch for incremental delta-CSR snapshot maintenance (DESIGN.md
// §11).
//
// With the switch on (default), AlgoView::Of patches a stale cached
// snapshot forward by replaying the graph's delta journal — O(batch +
// touched nodes) — and compacts back into a fresh dense base when the
// patched fraction crosses the compaction threshold. With the switch off,
// every stale snapshot is rebuilt from scratch (the pre-§11 behavior); that
// path is the parity oracle proving delta-patched views are structurally
// identical to full rebuilds. Same discipline as radix::SetEnabled.
#ifndef RINGO_ALGO_DELTACSR_SWITCH_H_
#define RINGO_ALGO_DELTACSR_SWITCH_H_

namespace ringo {
namespace deltacsr {

// True (default) = stale cached views are delta-patched when the journal
// covers the gap; false = always full rebuild. Reads are relaxed atomics,
// safe from any thread; toggle only between algorithm calls.
bool Enabled();
void SetEnabled(bool on);

// Compaction threshold: once the fraction of arcs served from patch runs
// would exceed this, the next refresh folds everything into a fresh dense
// base instead (counter "algo_view/compact"). Exposed for tests that need
// to force or forbid compaction deterministically.
double CompactionFraction();
void SetCompactionFraction(double fraction);

// RAII toggles for tests and ablations.
class ScopedEnable {
 public:
  explicit ScopedEnable(bool on) : prev_(Enabled()) { SetEnabled(on); }
  ~ScopedEnable() { SetEnabled(prev_); }
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool prev_;
};

class ScopedCompactionFraction {
 public:
  explicit ScopedCompactionFraction(double fraction)
      : prev_(CompactionFraction()) {
    SetCompactionFraction(fraction);
  }
  ~ScopedCompactionFraction() { SetCompactionFraction(prev_); }
  ScopedCompactionFraction(const ScopedCompactionFraction&) = delete;
  ScopedCompactionFraction& operator=(const ScopedCompactionFraction&) =
      delete;

 private:
  double prev_;
};

}  // namespace deltacsr
}  // namespace ringo

#endif  // RINGO_ALGO_DELTACSR_SWITCH_H_
