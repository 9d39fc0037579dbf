// Dask-style distributed snapshot store (the paper's DDP baseline).
//
// The baseline materializes every snapshot and partitions them
// contiguously across workers; a worker whose shuffled batch contains
// snapshots owned elsewhere must fetch them over the network.
//
// DistStore exists in two modes:
//
//  * Ledger-only (num_snapshots/snapshot_bytes ctor): the ownership
//    map plus fetch accounting from PR 1 — remote accesses are counted
//    (snapshots, bytes, request messages) and priced by the
//    NetworkModel, but no data exists.  ClusterModel-style validation
//    and microbenches use this mode.
//  * Materialized (StandardDataset ctor): a real partitioned snapshot
//    store implementing data::SnapshotProvider.  Each rank owns the
//    contiguous shard [partition(rank)) of the materialized x/y arrays
//    (shard_x/shard_y expose the owned slices); fetch() returns actual
//    tensor data — a zero-copy view for rank-local snapshots, a real
//    copied tensor served through a bounded per-rank LRU cache for
//    remote ones.  The StoreStats ledger keeps the PR 1 *model*
//    (every remote access priced, consolidation per owner) and adds
//    the *measured* movement (bytes_copied, cache hits), so modeled
//    bytes can be asserted against bytes that physically moved:
//    remote_bytes == bytes_copied + cache_hit_bytes always holds.
//
// Announcement protocol (the consolidation contract): a batch of
// snapshot ids is announced once (fetch_batch / prefetch_batch) and
// each announced remote snapshot is then consumed by exactly one
// fetch().  Announced snapshots are *pinned* in the cache until
// consumed, so even a zero-capacity or byte-tight cache can never
// evict a snapshot between its announcement and its consumption — the
// failure mode that used to re-price announced fetches as their own
// single-snapshot requests.  abandon_prefetches(rank) releases
// announcements that will never be consumed (epoch truncation).
//
// Async prefetch pipeline (paper §7 future work): with
// async_prefetch, prefetch_batch() prices the batch and enqueues it on
// a per-rank background staging thread instead of copying inline;
// fetch() blocks only on snapshots not yet staged.  Loaders may keep
// any number of batches in flight (depth-N lookahead) — the staging
// queue is FIFO and every in-flight batch's snapshots stay pinned.
// Modeled fetch time then splits into *overlapped* seconds (hidden
// behind the real compute that elapsed between the announcement and
// the first time the consumer needed the batch) and *exposed* seconds
// (the remainder, the part still on the critical path).
// drain_modeled_seconds() drains only the exposed share — the
// synchronous path exposes everything, so the two modes price
// identical ledgers and differ only in the split.
//
// Schedule-aware eviction: announce_schedule(rank, ids) installs the
// epoch's consumption order; when the cache must evict, victims are
// unpinned entries with no remaining scheduled use first (LRU among
// them), then the farthest-scheduled (Belady fallback) — so a
// snapshot scheduled for a nearer-future batch always outlives
// already-consumed residue.  Without a schedule, eviction degrades to
// plain pinned-aware LRU.
//
// With consolidate_requests, all items owned by one peer travel in a
// single request per batch — the Dask batching optimization §5.1
// applies to the baseline to keep the comparison fair.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "data/preprocess.h"
#include "data/snapshot_provider.h"
#include "dist/cluster_model.h"
#include "runtime/arena.h"

namespace pgti::dist {

/// Remote-fetch ledger (what DistResult reports).  The first block is
/// the fetch *model* (every remote access priced); the second is the
/// *measured* movement of a materialized store.  Invariant for
/// materialized stores: remote_bytes == bytes_copied + cache_hit_bytes.
struct StoreStats {
  std::uint64_t local_snapshots = 0;
  std::uint64_t remote_snapshots = 0;
  std::uint64_t remote_bytes = 0;
  std::uint64_t request_messages = 0;
  double modeled_seconds = 0.0;

  /// Split of modeled_seconds by whether the async staging pipeline hid
  /// the time behind compute.  overlapped + exposed converges to
  /// modeled_seconds once every announced batch has been consumed or
  /// abandoned (synchronous fetches are exposed in full).
  double overlapped_seconds = 0.0;
  double exposed_seconds = 0.0;

  std::uint64_t bytes_copied = 0;     ///< bytes physically cloned on cache misses
  std::uint64_t cache_hits = 0;       ///< remote accesses served from the LRU cache
  std::uint64_t cache_hit_bytes = 0;  ///< modeled bytes the cache absorbed
  std::uint64_t cache_evictions = 0;
};

/// Contiguous ceil-chunked ownership of `num_snapshots` snapshots
/// across `world` workers, with per-batch fetch accounting and
/// (materialized mode) real byte-moving snapshot storage.
/// Thread-safe for concurrent calls with DISTINCT ranks; within one
/// rank, the consumer, the staging thread, and a drainer may run
/// concurrently (per-rank state is mutex-protected).
class DistStore final : public data::SnapshotProvider {
 public:
  /// Default per-rank LRU cache capacity, in snapshots.
  static constexpr std::int64_t kDefaultCacheSnapshots = 64;

  /// Ledger-only mode: ownership map + fetch accounting, no data.
  DistStore(std::int64_t num_snapshots, std::int64_t snapshot_bytes, int world,
            NetworkModel network, bool consolidate_requests = true);

  /// Materialized mode: takes ownership of the dataset and partitions
  /// its snapshots contiguously across `world` ranks.
  /// `cache_snapshots_per_rank` bounds each rank's remote cache in
  /// snapshots (0 is a valid zero-capacity cache: announced snapshots
  /// survive until consumed, then evict immediately; negative = auto —
  /// the store owns its default and sizes the cache to a couple of
  /// batches of the dataset's spec, never below
  /// kDefaultCacheSnapshots); `cache_bytes_per_rank` adds a byte bound
  /// on top (0 = no byte bound).  `async_prefetch` spawns one staging
  /// thread per rank and turns prefetch_batch into an asynchronous
  /// enqueue.
  DistStore(data::StandardDataset dataset, int world, NetworkModel network,
            bool consolidate_requests = true,
            std::int64_t cache_snapshots_per_rank = -1,
            std::int64_t cache_bytes_per_rank = 0, bool async_prefetch = false);

  ~DistStore() override;

  DistStore(const DistStore&) = delete;
  DistStore& operator=(const DistStore&) = delete;

  /// Registers a read-only rank (a serving-side view of the store) and
  /// returns its rank id.  Readers own no partition — every fetch is
  /// remote, priced and cached exactly like a worker's remote accesses
  /// — so training shards are untouched by serving traffic.  With
  /// async_prefetch the reader gets its own staging thread.  Setup
  /// time only: call before any concurrent use of the store (rank
  /// registration is not synchronized against in-flight accesses).
  int add_reader();

  /// Owning rank of a snapshot; throws std::out_of_range for ids
  /// outside [0, num_snapshots).
  int owner(std::int64_t snapshot) const;

  /// [begin, end) snapshot range owned by `rank`.
  std::pair<std::int64_t, std::int64_t> partition(int rank) const;

  /// Accounts one batch of snapshot accesses by `rank` and returns the
  /// modeled seconds this batch spent fetching remote snapshots.  In
  /// materialized mode this is also where remote bytes physically move:
  /// missing snapshots are copied into `rank`'s LRU cache and pinned
  /// until consumed by fetch().  Always synchronous (the async pipeline
  /// goes through prefetch_batch).
  double fetch_batch(int rank, const std::vector<std::int64_t>& snapshots);

  StoreStats stats() const;

  std::int64_t snapshot_bytes() const noexcept { return snapshot_bytes_; }
  int world() const noexcept { return world_; }
  bool materialized() const noexcept { return dataset_.has_value(); }
  bool async_prefetch() const noexcept { return async_prefetch_; }
  std::int64_t cache_capacity() const noexcept { return cache_capacity_; }
  std::int64_t cache_bytes_capacity() const noexcept { return cache_bytes_capacity_; }

  /// The materialized x/y shard owned by `rank`: zero-copy views of
  /// the snapshot range [partition(rank)).  Materialized mode only.
  Tensor shard_x(int rank) const;
  Tensor shard_y(int rank) const;

  // --- data::SnapshotProvider (materialized mode only, except
  // num_snapshots; the data accessors throw std::logic_error on a
  // ledger-only store) -------------------------------------------------
  std::pair<Tensor, Tensor> fetch(int rank, std::int64_t i) override;
  void prefetch_batch(int rank, const std::vector<std::int64_t>& ids) override;
  void abandon_prefetches(int rank) override;
  void notify_batch_delivered(int rank) override;
  /// Switches first-need classification from the fetching thread to
  /// notify_batch_delivered (FIFO, one request per delivery).  Enable
  /// BEFORE any consumer runs when a prefetch pipeline assembles
  /// batches ahead of compute — the worker's fetch happens up to
  /// `depth` batches before the consumer's need, and classifying there
  /// would shrink the measured window as depth grows.  Requests a
  /// truncated epoch consumed but never delivered are reconciled as
  /// fully overlapped by abandon_prefetches.
  void set_delivery_driven_classification(bool on) { delivery_driven_ = on; }
  /// Installs `rank`'s announced consumption order for schedule-aware
  /// eviction (replaces any previous schedule; ids may repeat —
  /// loaders announce the current epoch's order followed by the next
  /// epoch's, so end-of-epoch residue the coming epoch reuses keeps a
  /// future position across the boundary).  Position in `ids` =
  /// consumption order; eviction victims are chosen among unpinned
  /// entries preferring ones with no remaining scheduled use, then the
  /// farthest-scheduled (Belady fallback) — a snapshot scheduled for a
  /// nearer-future batch is never evicted while an already-consumed
  /// one is resident.  The schedule survives abandon_prefetches (the
  /// following start_epoch replaces it) so boundary eviction still
  /// sees the next epoch's needs.
  void announce_schedule(int rank, const std::vector<std::int64_t>& ids) override;
  double drain_modeled_seconds(int rank) override;
  std::int64_t num_snapshots() const noexcept override { return num_snapshots_; }
  MemorySpaceId space() const override;
  const data::StandardScaler& scaler() const override;
  const data::SplitRanges& splits() const override;
  const data::DatasetSpec& spec() const override;

 private:
  struct CacheEntry {
    Tensor x, y;
    std::list<std::int64_t>::iterator lru_it;
    std::int64_t bytes = 0;
    /// Outstanding announcements: > 0 means announced but not yet
    /// consumed by fetch(); pinned entries are never evicted.
    int pins = 0;
  };

  /// One asynchronously announced batch: the remote ids to stage, the
  /// modeled price charged at enqueue, and the enqueue timestamp the
  /// overlapped/exposed classification measures the compute window
  /// from.
  struct StageRequest {
    std::vector<std::int64_t> remote_ids;
    double modeled_seconds = 0.0;
    std::chrono::steady_clock::time_point enqueued_at;
    bool staged = false;
    bool classified = false;
    bool awaiting_delivery = false;  ///< consumed, queued for delivery classification
    bool orphaned = false;  ///< abandoned before staging: stage unpinned
    /// Staging failure (e.g. bad_alloc in a clone), rethrown on the
    /// consumer that waits for this request instead of terminating the
    /// staging thread's process.
    std::exception_ptr error;
  };

  /// Per-rank remote-snapshot cache, staging pipeline, and
  /// exposed-time drain accumulator.  `m` serializes the rank's
  /// consumer thread, its staging thread, and drain callers.
  struct RankState {
    std::mutex m;
    std::condition_variable cv;
    std::list<std::int64_t> lru;  // front = most recently used
    std::unordered_map<std::int64_t, CacheEntry> cache;
    std::int64_t cache_bytes = 0;
    double pending_exposed_seconds = 0.0;
    std::deque<std::shared_ptr<StageRequest>> queue;  // enqueued, not yet staged
    /// Announced-but-unconsumed remote ids -> the request staging them.
    std::unordered_map<std::int64_t, std::shared_ptr<StageRequest>> in_flight;
    /// Delivery-driven mode: requests the (worker) consumer fetched,
    /// FIFO, waiting for notify_batch_delivered to classify them.
    std::deque<std::shared_ptr<StageRequest>> awaiting_delivery;
    std::thread stager;
    bool staging = false;  ///< a popped request is mid-staging
    bool stop = false;

    /// Epoch schedule for schedule-aware eviction: id -> ALL positions
    /// (ascending) in the announced consumption order.  Loaders
    /// announce the current epoch followed by the next one (both are
    /// pure functions of the seed), so an id may appear several times;
    /// only its first position at or past schedule_progress matters.
    /// Positions below schedule_progress have already been consumed
    /// (remote consumes advance it).
    std::unordered_map<std::int64_t, std::vector<std::int64_t>> schedule_pos;
    std::int64_t schedule_progress = 0;

    /// Pool for the staging thread's snapshot clones: the stager runs
    /// under an ArenaScope on this arena, so after the first pass over
    /// a shape the per-batch remote copies recycle pool blocks instead
    /// of hitting the heap (clones fully overwrite, so recycled
    /// uninitialized memory is safe).  Cache evictions release blocks
    /// from the consumer thread; the arena is thread-safe for that.
    runtime::TensorArena arena;
  };

  /// Per-owner-consolidated price of one announced batch (the PR 1
  /// fetch model, unchanged).
  struct BatchPrice {
    std::uint64_t local = 0;
    std::uint64_t remote = 0;
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    double seconds = 0.0;
    std::vector<std::int64_t> remote_ids;
  };

  const data::StandardDataset& dataset_ref() const;
  RankState& rank_state(int rank);
  void check_rank(int rank) const;
  BatchPrice price_batch(int rank, const std::vector<std::int64_t>& snapshots) const;

  /// Serves remote snapshot `i` into `rank`'s cache (rs.m held),
  /// physically cloning it in on a miss.  `pin` marks the snapshot
  /// announced-until-consumed.  Updates the measured-movement stats.
  void stage_locked(RankState& rs, std::int64_t i, bool pin);
  /// Hit half of stage_locked (rs.m held): if `i` is resident, records
  /// the cache hit, refreshes LRU, optionally pins, and returns true.
  bool try_stage_hit_locked(RankState& rs, std::int64_t i, bool pin);
  /// Miss half of stage_locked (rs.m held): inserts the cloned
  /// tensors, records the copied bytes, and enforces the bounds.
  void insert_entry_locked(RankState& rs, std::int64_t i, Tensor x, Tensor y,
                           bool pin);
  /// Hands the cached snapshot to the consumer (rs.m held): unpins one
  /// announcement and enforces the cache bounds.
  std::pair<Tensor, Tensor> consume_locked(RankState& rs, std::int64_t i);
  /// Evicts unpinned entries while over either bound (rs.m held);
  /// victim choice is schedule-aware: entries with no remaining
  /// scheduled use go first (LRU order among them), then the
  /// farthest-scheduled; pinned (announced, unconsumed) entries are
  /// never victims.  Evictions count into stats_.cache_evictions.
  void evict_over_capacity_locked(RankState& rs);
  /// Next scheduled position of `i` in `rs`'s announced epoch order,
  /// or -1 when `i` is unscheduled / already past (rs.m held).
  static std::int64_t future_schedule_pos_locked(const RankState& rs,
                                                 std::int64_t i);
  /// First-need classification of an async request (rs.m held):
  /// exposed = max(0, modeled - wall seconds since enqueue).
  void classify_locked(RankState& rs, StageRequest& req, bool fully_overlapped);

  void stager_loop(int rank);

  std::int64_t num_snapshots_;
  std::int64_t snapshot_bytes_;
  int world_;
  int reader_ranks_ = 0;  ///< read-only ranks appended after the workers
  std::int64_t chunk_ = 1;
  NetworkModel network_;
  bool consolidate_requests_;
  std::int64_t cache_capacity_ = kDefaultCacheSnapshots;
  std::int64_t cache_bytes_capacity_ = 0;  ///< 0 = no byte bound
  bool async_prefetch_ = false;
  bool delivery_driven_ = false;  ///< set before consumers run, const after

  std::optional<data::StandardDataset> dataset_;
  std::vector<std::unique_ptr<RankState>> ranks_;

  mutable std::mutex mu_;
  StoreStats stats_;
};

}  // namespace pgti::dist
