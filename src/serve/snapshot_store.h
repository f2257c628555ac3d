/**
 * @file
 * Versioned model snapshots: the read side of train-and-serve.
 *
 * The Trainer mutates one DlrmModel in place every iteration; serving
 * needs a CONSISTENT model for the whole lifetime of an inference
 * micro-batch. ModelSnapshotStore bridges the two with RCU-style
 * publication:
 *
 *  - publish() (single writer: the training thread) deep-copies the
 *    current weights into a fresh (or recycled) ModelSnapshot and swaps
 *    it into the store's current shared_ptr under a mutex that guards
 *    nothing but that pointer. Copy-on-publish means the training step
 *    never waits for readers beyond one pointer copy.
 *  - current() (any number of readers: the serve lanes) copies the
 *    shared_ptr under the same mutex. A reader holds its snapshot for
 *    as long as it wants; the weights it sees can never change
 *    underneath it, and a snapshot's memory is reclaimed only after
 *    the last reader drops it (shared_ptr refcount = the RCU grace
 *    period).
 *
 * Consistency contract: every snapshot a reader can obtain was
 * published by a completed publish() call -- there are no torn or
 * partially-copied states reachable through current(), because the
 * copy finishes before the swap. Version numbers are dense
 * (1, 2, 3, ...) and strictly increasing; a reader comparing versions
 * can therefore detect both staleness and update frequency.
 *
 * Two publication modes (SnapshotOptions::mode):
 *
 *  - Full (default): every publish deep-copies every parameter into a
 *    dense model. O(model size) per publish, but the snapshot is a
 *    self-contained dense model (weights() works; checkpoint-parity
 *    tests compare it bytewise).
 *  - Delta: O(dirty rows) per publish. MLP weights (kilobytes, fully
 *    dirty every iteration) are still copied outright; embedding
 *    tables (the gigabytes) are page-granular copy-on-write -- pages
 *    untouched since the previous published version (per the
 *    DirtyRowTracker the trainer threads in) are SHARED with it via
 *    refcounted TablePage handles, only dirty pages are
 *    re-materialized. Without a tracker (engines that update tables
 *    densely, or mutations outside training) every page is copied:
 *    the full-copy fallback is always correct, just not cheap.
 *    Optionally (sealPages) each materialized page is mprotect'ed
 *    read-only so a torn-write bug faults instead of corrupting
 *    serving.
 *
 * Retired snapshot shells and pages are recycled through a free-list
 * (SnapshotPool) instead of being freed: the custom shared_ptr deleter
 * runs AFTER the last reader's refcount release (an acquire/release
 * pair), and hand-off back to the writer goes through the pool mutex,
 * so -- unlike the subtly racy use_count()==1 probing this replaces --
 * a recycled buffer's refill is properly ordered after every prior
 * reader's last load.
 *
 * Privacy note (paper Section 3 threat model): mid-training LazyDP
 * weights carry *pending* noise, exactly like a saveModel() checkpoint
 * taken at the same iteration. A snapshot is a faithful copy of the
 * training state -- consumers inside the trust boundary (the serving
 * tier of the training system) may read it, but it is NOT a releasable
 * private artifact until finalize() has flushed pending noise.
 */

#ifndef LAZYDP_SERVE_SNAPSHOT_STORE_H
#define LAZYDP_SERVE_SNAPSHOT_STORE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "nn/dlrm.h"

namespace lazydp {

class DirtyRowTracker;

/** How ModelSnapshotStore materializes a published version. */
enum class SnapshotMode
{
    Full, //!< dense deep copy of every parameter (O(model))
    Delta //!< page-granular copy-on-write tables (O(dirty rows))
};

/** Construction-time knobs of a ModelSnapshotStore. */
struct SnapshotOptions
{
    SnapshotMode mode = SnapshotMode::Full;

    /**
     * Rows per copy-on-write page (Delta mode). Must match the
     * DirtyRowTracker handed to publish. Smaller pages share more but
     * cost more handle bookkeeping per publish.
     */
    std::size_t pageRows = 256;

    /**
     * Delta mode: back pages with mmap and mprotect each one read-only
     * once filled, so any torn-write bug becomes a hard fault instead
     * of silent serving corruption.
     */
    bool sealPages = false;

    /** Free-list caps (retired buffers beyond these are freed). */
    std::size_t maxFreeSnapshots = 2;
    std::size_t maxFreePages = 4096;
};

/** Per-publish cost receipt (writer-side accounting). */
struct PublishReceipt
{
    double seconds = 0.0;           //!< wall time of this publish
    std::uint64_t rowsCopied = 0;   //!< embedding rows memcpy'd
    std::uint64_t pagesCopied = 0;  //!< pages re-materialized
    std::uint64_t pagesShared = 0;  //!< pages shared with the previous
                                    //!< version (pointer-identical)
};

/** Cumulative publish-side totals of one store. */
struct PublishTotals
{
    std::uint64_t publishes = 0;
    double seconds = 0.0;
    std::uint64_t rowsCopied = 0;
    std::uint64_t pagesCopied = 0;
    std::uint64_t pagesShared = 0;
    std::uint64_t snapshotsRecycled = 0; //!< shell free-list hits
    std::uint64_t pagesRecycled = 0;     //!< page free-list hits
};

/** One published, immutable-by-contract model version. */
struct ModelSnapshot
{
    /** Full-mode shell: dense tables, RNG init skipped. */
    explicit ModelSnapshot(const ModelConfig &config)
        : model(config, DlrmModel::UninitializedTables{})
    {
    }

    /** Delta-mode shell: paged tables, pages bound at publish. */
    ModelSnapshot(const ModelConfig &config, DlrmModel::PagedTables tag)
        : mode(SnapshotMode::Delta), model(config, tag)
    {
    }

    std::uint64_t version = 0;   //!< dense 1-based publication ordinal
    std::uint64_t iteration = 0; //!< global training iteration copied
    SnapshotMode mode = SnapshotMode::Full; //!< storage layout
    /**
     * Copy of the training model's parameters (dense in Full mode,
     * refcount-shared pages in Delta mode). Readers must use only the
     * const entry points (workspace forward). Mutable only during
     * publish(), before the snapshot becomes reachable.
     */
    DlrmModel model;
};

/**
 * Free-list of retired snapshot shells and table pages.
 *
 * Owned via shared_ptr by the store AND captured by the custom
 * deleters of everything the store publishes, so it outlives the store
 * for as long as any reader still holds a snapshot. The last reader's
 * shared_ptr release (an acquire/release refcount pair) runs the
 * deleter, which hands the buffer back through the pool mutex -- the
 * writer's refill of a recycled buffer is therefore ordered strictly
 * after every prior reader's last load. (This is the correct form of
 * the use_count()==1 probing an earlier revision rejected: probing has
 * no such ordering, reclamation does.)
 */
class SnapshotPool
{
  public:
    /** Apply the store's free-list caps. */
    void configure(std::size_t max_snapshots, std::size_t max_pages);

    /** @return a retired shell, or nullptr (caller allocates). */
    std::unique_ptr<ModelSnapshot> acquireSnapshot();

    /**
     * Park a retired shell (or free it beyond the cap). Unbinds all
     * page handles first so a pooled shell never pins pages newer
     * snapshots still share.
     */
    void retireSnapshot(std::unique_ptr<ModelSnapshot> s);

    /**
     * @return a retired page with capacity >= @p floats and matching
     * mmap backing, unsealed and ready to fill, or nullptr.
     */
    std::unique_ptr<TablePage> acquirePage(std::size_t floats,
                                           bool mmapped);

    /** Park a retired page (or free it beyond the cap). */
    void retirePage(std::unique_ptr<TablePage> p);

    /** @return free-list hit counters (under the pool mutex). */
    std::uint64_t snapshotsRecycled() const;
    std::uint64_t pagesRecycled() const;

  private:
    mutable std::mutex mu_;
    std::size_t maxSnapshots_ = 2;
    std::size_t maxPages_ = 4096;
    std::vector<std::unique_ptr<ModelSnapshot>> snapshots_;
    std::vector<std::unique_ptr<TablePage>> pages_;
    std::uint64_t snapshotsRecycled_ = 0;
    std::uint64_t pagesRecycled_ = 0;
};

/**
 * Single-writer / multi-reader snapshot exchange (see file comment).
 *
 * Writer API (publish) must be called from one thread at a time -- in
 * this repository, the thread driving Trainer::run. Reader API
 * (current / version) is safe from any thread; current() holds the
 * store's mutex for one shared_ptr copy, so readers and the writer
 * never wait on each other's copy or forward pass.
 *
 * The pointer is a mutex-guarded shared_ptr rather than
 * std::atomic<std::shared_ptr>: libstdc++'s atomic version guards its
 * handoff with a lock bit that ThreadSanitizer cannot model, so it
 * reports a race on every store()/load() pair (GCC 12). A plain mutex
 * lets the TSan build check the same primitive production runs; it is
 * taken once per serve micro-batch and once per publish.
 */
class ModelSnapshotStore
{
  public:
    /** Full-mode store with default options. */
    ModelSnapshotStore() : ModelSnapshotStore(SnapshotOptions{}) {}

    explicit ModelSnapshotStore(const SnapshotOptions &options);

    ModelSnapshotStore(const ModelSnapshotStore &) = delete;
    ModelSnapshotStore &operator=(const ModelSnapshotStore &) = delete;

    /**
     * Copy @p src 's parameters into a fresh-or-recycled buffer and
     * publish it as the next version. Readers never block this call;
     * this call never blocks on readers. Retired buffers are recycled
     * (or freed) when their last reader drops them (the shared_ptr
     * release IS the RCU grace period).
     *
     * Full mode copies everything and ignores @p dirty . Delta mode
     * copies the MLPs plus every table page @p dirty marks (all pages
     * when @p dirty is null -- the dense-engine fallback), shares the
     * rest with the previous version, then resets the tracker. The
     * tracker's page size must equal SnapshotOptions::pageRows and its
     * marks must cover every mutation since the previous publish.
     *
     * @param src model to copy (training model, between iterations)
     * @param iteration global training iteration the weights belong to
     * @param dirty rows mutated since the last publish (may be null)
     * @return the cost receipt of this publish
     */
    PublishReceipt publish(const DlrmModel &src, std::uint64_t iteration,
                           DirtyRowTracker *dirty = nullptr);

    const SnapshotOptions &options() const { return options_; }

    /**
     * @return cumulative publish costs. Writer-side accounting: call
     * from the publishing thread, or after it quiesced.
     */
    PublishTotals totals() const;

    /**
     * @return the latest published snapshot (nullptr before the first
     * publish). The returned shared_ptr keeps the snapshot alive for
     * as long as the caller holds it.
     */
    std::shared_ptr<const ModelSnapshot>
    current() const
    {
        std::lock_guard<std::mutex> lock(currentMu_);
        return current_;
    }

    /** @return version of the latest completed publish (0 = none). */
    std::uint64_t
    version() const
    {
        return version_.load(std::memory_order_acquire);
    }

  private:
    /** @return a recycled-or-new shell matching @p src 's shape. */
    std::unique_ptr<ModelSnapshot> acquireShell(const DlrmModel &src);

    /** Wrap @p page so its release recycles it through pool_. */
    std::shared_ptr<const TablePage>
    wrapPage(std::unique_ptr<TablePage> page);

    /** Delta-mode table materialization; accounts into @p receipt . */
    void buildDeltaTables(const DlrmModel &src, ModelSnapshot &shell,
                          const ModelSnapshot *prev,
                          const DirtyRowTracker *dirty,
                          PublishReceipt &receipt);

    SnapshotOptions options_;
    std::shared_ptr<SnapshotPool> pool_;
    mutable std::mutex currentMu_; //!< guards current_ only
    std::shared_ptr<const ModelSnapshot> current_;
    std::atomic<std::uint64_t> version_{0};
    PublishTotals totals_; //!< writer-thread accounting
};

} // namespace lazydp

#endif // LAZYDP_SERVE_SNAPSHOT_STORE_H
