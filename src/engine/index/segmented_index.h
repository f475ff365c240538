#ifndef TIP_ENGINE_INDEX_SEGMENTED_INDEX_H_
#define TIP_ENGINE_INDEX_SEGMENTED_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "core/tx_context.h"
#include "engine/index/interval_index.h"
#include "engine/storage/heap_table.h"
#include "engine/types/datum.h"

namespace tip::engine {

/// The index key an access-method support function extracts from one
/// value: the closed bounding interval of the time the value covers, or
/// "empty" when it covers none under the given context (an empty
/// Element, or a NOW-relative period that grounds inverted). The
/// `now_dependent` bit reports whether the key is a function of the
/// transaction time — a NOW-relative value's bounding interval moves as
/// NOW does, an absolute value's never does. The segmented index uses it
/// to decide which segment a row belongs to.
struct IntervalKey {
  int64_t start = 0;
  int64_t end = 0;  // inclusive; meaningful only when !empty
  bool empty = false;
  bool now_dependent = false;

  static IntervalKey Bounds(int64_t start, int64_t end, bool now_dependent) {
    IntervalKey key;
    key.start = start;
    key.end = end;
    key.now_dependent = now_dependent;
    return key;
  }
  /// A value covering no time. It still carries `now_dependent`: an
  /// empty NOW-relative value may become non-empty under another NOW.
  static IntervalKey Empty(bool now_dependent) {
    IntervalKey key;
    key.empty = true;
    key.now_dependent = now_dependent;
    return key;
  }
};

/// Extracts the IntervalKey of an indexable value (grounded under
/// `ctx`). This is the "access method support function" an index
/// DataBlade registers for its types. NULL datums are never passed in.
using IntervalKeyFn =
    std::function<Result<IntervalKey>(const Datum&, const TxContext&)>;

/// A point-in-time copy of one index's counters.
struct IndexStatsSnapshot {
  uint64_t absolute_builds = 0;  // full scans building the absolute segment
  uint64_t overlay_builds = 0;   // NOW-dependent overlay (re)builds
  uint64_t probes = 0;           // FindOverlapping/FindStabbing calls
  uint64_t rows_scanned = 0;     // heap rows examined during builds
  uint64_t rows_returned = 0;    // candidate row ids produced by probes
  uint64_t delta_applies = 0;    // writes folded in without a full build
};

/// Monotonic per-index counters. Probes run outside the rebuild mutex,
/// so the counters are atomics; rebuild counters reuse them for
/// uniformity.
class IndexStats {
 public:
  void RecordAbsoluteBuild(uint64_t rows_scanned) {
    absolute_builds_.fetch_add(1, std::memory_order_relaxed);
    rows_scanned_.fetch_add(rows_scanned, std::memory_order_relaxed);
  }
  void RecordOverlayBuild(uint64_t rows_scanned) {
    overlay_builds_.fetch_add(1, std::memory_order_relaxed);
    rows_scanned_.fetch_add(rows_scanned, std::memory_order_relaxed);
  }
  void RecordDeltaApply(uint64_t rows_scanned) {
    delta_applies_.fetch_add(1, std::memory_order_relaxed);
    rows_scanned_.fetch_add(rows_scanned, std::memory_order_relaxed);
  }
  void RecordProbe(uint64_t rows_returned) {
    probes_.fetch_add(1, std::memory_order_relaxed);
    rows_returned_.fetch_add(rows_returned, std::memory_order_relaxed);
  }

  IndexStatsSnapshot Snapshot() const;

 private:
  std::atomic<uint64_t> absolute_builds_{0};
  std::atomic<uint64_t> overlay_builds_{0};
  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> rows_scanned_{0};
  std::atomic<uint64_t> rows_returned_{0};
  std::atomic<uint64_t> delta_applies_{0};
};

/// An immutable probe view over the parts of a segmented interval
/// index, consistent as of one (heap version, NOW) pair. Copyable and
/// cheap: it shares ownership of every part, so a view stays valid even
/// if a concurrent query swaps fresh parts into the owning state.
class IntervalIndexView {
 public:
  /// The shared, immutable parts a view probes. `stale` (sorted) names
  /// the rows whose entries in `absolute` are out of date; `delta`
  /// holds their current absolute entries, unordered: it stays small,
  /// so a probe scans it rather than every write rebuilding a tree.
  /// Any part may be null.
  struct Parts {
    std::shared_ptr<const IntervalIndex> absolute;
    std::shared_ptr<const std::vector<RowId>> stale;
    std::shared_ptr<const std::vector<IntervalEntry>> delta;
    std::shared_ptr<const IntervalIndex> overlay;
  };

  IntervalIndexView() = default;
  IntervalIndexView(Parts parts, std::shared_ptr<IndexStats> stats)
      : parts_(std::move(parts)), stats_(std::move(stats)) {}

  /// Appends the rows of every entry overlapping [qs, qe] from every
  /// part to `out` (order unspecified). Requires qs <= qe.
  void FindOverlapping(int64_t qs, int64_t qe, std::vector<RowId>* out) const;

  /// Appends the rows of every entry containing chronon `q`.
  void FindStabbing(int64_t q, std::vector<RowId>* out) const {
    FindOverlapping(q, q, out);
  }

  /// Entries a probe can return: those of every part, less the stale
  /// absolute ones. Not counted as a probe.
  size_t entry_count() const;

 private:
  void Collect(int64_t qs, int64_t qe, std::vector<RowId>* out) const;

  Parts parts_;
  std::shared_ptr<IndexStats> stats_;
};

/// The lazily built, mutex-guarded state of one segmented interval
/// index:
///
///  * the *absolute segment* — rows whose key does not depend on NOW —
///    built by one full heap scan and reused across NOW changes;
///  * the *NOW-dependent overlay* — the (typically few) rows whose key
///    moves with the transaction time — rebuilt whenever the NOW a
///    query runs under differs from the one the overlay was built at.
///
/// This is what keeps the paper's NOW-override what-if browsing cheap:
/// re-evaluating the same query under many transaction times re-grounds
/// only the NOW-relative rows instead of rebuilding the whole index.
///
/// Writes are folded in the way of a differential file (Severance &
/// Lohman, TODS 1976): the absolute segment stays as built, and the rows
/// the heap's change journal names since then become *stale* — their
/// absolute entries are filtered out of probes and their current
/// entries live in a small *delta* segment (or in the overlay, when the
/// key now depends on NOW). Once more than 1/16 of the absolute
/// segment's entries (at least 64) would be stale, or the journal no
/// longer reaches back to the build, the next view merges everything
/// into a fresh full build instead.
///
/// Rebuilds are atomic: parts are constructed into locals and only
/// swapped in on success, so a key-extraction error mid-rebuild leaves
/// the previous consistent state untouched. All rebuild decisions and
/// swaps happen under an internal mutex, making concurrent GetView
/// calls from multiple query threads safe.
class IntervalIndexState {
 public:
  IntervalIndexState() = default;

  IntervalIndexState(const IntervalIndexState&) = delete;
  IntervalIndexState& operator=(const IntervalIndexState&) = delete;

  /// Returns a probe view consistent with `heap`'s current version and
  /// `ctx`'s transaction time, bringing the stale part(s) up to date
  /// first. `column` selects the indexed column; `key_fn` extracts keys.
  Result<IntervalIndexView> GetView(const HeapTable& heap, size_t column,
                                    const IntervalKeyFn& key_fn,
                                    const TxContext& ctx);

  /// Makes the next heap change rebuild the index from a full scan
  /// instead of folding into parts that CHECK found disagreeing with
  /// the heap. Until then the parts stay in use, so repeated CHECKs of
  /// an unchanged heap report the same findings.
  void DistrustParts() {
    std::lock_guard<std::mutex> lock(mu_);
    distrusted_ = true;
  }

  IndexStatsSnapshot stats() const { return stats_->Snapshot(); }

 private:
  /// Rescans the heap into a fresh absolute segment and overlay.
  Status FullBuild(const HeapTable& heap, size_t column,
                   const IntervalKeyFn& key_fn, const TxContext& ctx);
  /// Folds the rows in `changed` (sorted, unique) into the delta, the
  /// stale set and now_rows_; `stale` is the new stale set.
  Status CatchUp(const HeapTable& heap, size_t column,
                 const IntervalKeyFn& key_fn, const TxContext& ctx,
                 const std::vector<RowId>& changed, std::vector<RowId> stale);

  std::mutex mu_;

  // Every part below is valid iff absolute_valid_, for heap version
  // built_version_. now_rows_ (sorted) lists the rows excluded from the
  // absolute segment and delta because their keys depend on NOW (the
  // overlay's domain).
  bool absolute_valid_ = false;
  bool distrusted_ = false;  // see DistrustParts
  uint64_t built_version_ = 0;
  IntervalIndexView::Parts parts_;
  std::vector<RowId> now_rows_;

  // Overlay (parts_.overlay) over now_rows_, valid iff overlay_valid_
  // for transaction time overlay_now_. The explicit flag (not a magic
  // built_now value) is what distinguishes "never built" from "built at
  // the epoch".
  bool overlay_valid_ = false;
  int64_t overlay_now_ = 0;

  std::shared_ptr<IndexStats> stats_ = std::make_shared<IndexStats>();
};

}  // namespace tip::engine

#endif  // TIP_ENGINE_INDEX_SEGMENTED_INDEX_H_
