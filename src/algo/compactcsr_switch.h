// Kill switch for the compressed (delta+varint) CSR base layout
// (DESIGN.md §14).
//
// With the switch on, AlgoView::BuildFull stores the base neighbor arrays
// delta+varint-encoded and Out()/In() decode runs into pooled thread-local
// scratch behind the same span-shaped interface; with the switch off
// (default), the base stays plain flat arrays — the parity oracle. It is
// the library's one process-wide path selector because it is a real
// space/time trade, not an oracle toggle. The compact layout is *opt-in*
// (env RINGO_COMPACT_CSR=on or SetEnabled(true)) because it trades
// per-read decode CPU for ~3-4x less memory per arc — the right default
// for beyond-RAM datasets, not for the latency-tracked benchmark rows.
//
// The switch is sampled when a base CSR is built; already-built snapshots
// keep their layout, so toggling never invalidates cached views. Patch
// overlays (DirPatch) are always plain — they are small by the compaction
// invariant.
#ifndef RINGO_ALGO_COMPACTCSR_SWITCH_H_
#define RINGO_ALGO_COMPACTCSR_SWITCH_H_

namespace ringo {
namespace compactcsr {

// True = newly built base CSRs are varint-compressed; false (default
// unless env RINGO_COMPACT_CSR is "on"/"1"/"true") = plain arrays. Reads
// are relaxed atomics, safe from any thread; toggle only between builds.
bool Enabled();
void SetEnabled(bool on);

// RAII toggle for tests and ablations.
class ScopedEnable {
 public:
  explicit ScopedEnable(bool on) : prev_(Enabled()) { SetEnabled(on); }
  ~ScopedEnable() { SetEnabled(prev_); }
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool prev_;
};

}  // namespace compactcsr
}  // namespace ringo

#endif  // RINGO_ALGO_COMPACTCSR_SWITCH_H_
