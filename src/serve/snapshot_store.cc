#include "serve/snapshot_store.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/macros.h"
#include "common/timer.h"
#include "train/dirty_tracker.h"

namespace lazydp {

// --- SnapshotPool ------------------------------------------------------

void
SnapshotPool::configure(std::size_t max_snapshots, std::size_t max_pages)
{
    std::lock_guard<std::mutex> lock(mu_);
    maxSnapshots_ = max_snapshots;
    maxPages_ = max_pages;
}

std::unique_ptr<ModelSnapshot>
SnapshotPool::acquireSnapshot()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (snapshots_.empty())
        return nullptr;
    auto s = std::move(snapshots_.back());
    snapshots_.pop_back();
    ++snapshotsRecycled_;
    return s;
}

void
SnapshotPool::retireSnapshot(std::unique_ptr<ModelSnapshot> s)
{
    // Unbind page handles BEFORE taking the pool mutex: dropping the
    // last reference to a page re-enters retirePage, which locks mu_
    // itself (std::mutex is non-recursive). Also keeps a pooled shell
    // from pinning pages newer snapshots still share.
    for (auto &tbl : s->model.tables())
        if (tbl.paged())
            tbl.unbindPages();
    std::lock_guard<std::mutex> lock(mu_);
    if (snapshots_.size() < maxSnapshots_)
        snapshots_.push_back(std::move(s));
    // else: unique_ptr frees the shell here, beyond the cap.
}

std::unique_ptr<TablePage>
SnapshotPool::acquirePage(std::size_t floats, bool mmapped)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = pages_.size(); i-- > 0;) {
        if (pages_[i]->floats() >= floats &&
            pages_[i]->mmapped() == mmapped) {
            auto p = std::move(pages_[i]);
            pages_[i] = std::move(pages_.back());
            pages_.pop_back();
            ++pagesRecycled_;
            p->unseal(); // recycled pages may come back sealed
            return p;
        }
    }
    return nullptr;
}

void
SnapshotPool::retirePage(std::unique_ptr<TablePage> p)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (pages_.size() < maxPages_)
        pages_.push_back(std::move(p));
}

std::uint64_t
SnapshotPool::snapshotsRecycled() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return snapshotsRecycled_;
}

std::uint64_t
SnapshotPool::pagesRecycled() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return pagesRecycled_;
}

// --- ModelSnapshotStore ------------------------------------------------

namespace {

/** @return true when @p shell can be refilled from @p src . */
bool
shellMatches(const ModelSnapshot &shell, const DlrmModel &src)
{
    const auto &st = shell.model.tables();
    const auto &mt = src.tables();
    if (st.size() != mt.size())
        return false;
    for (std::size_t t = 0; t < st.size(); ++t) {
        if (st[t].rows() != mt[t].rows() || st[t].dim() != mt[t].dim())
            return false;
    }
    return shell.model.mlpParamCount() == src.mlpParamCount();
}

} // namespace

ModelSnapshotStore::ModelSnapshotStore(const SnapshotOptions &options)
    : options_(options), pool_(std::make_shared<SnapshotPool>())
{
    LAZYDP_ASSERT(options_.pageRows > 0, "pageRows must be positive");
    pool_->configure(options_.maxFreeSnapshots, options_.maxFreePages);
}

std::unique_ptr<ModelSnapshot>
ModelSnapshotStore::acquireShell(const DlrmModel &src)
{
    std::unique_ptr<ModelSnapshot> shell = pool_->acquireSnapshot();
    if (shell != nullptr && !shellMatches(*shell, src))
        shell.reset(); // store reused across model shapes: reallocate
    if (shell == nullptr) {
        shell = options_.mode == SnapshotMode::Delta
                    ? std::make_unique<ModelSnapshot>(
                          src.config(), DlrmModel::PagedTables{})
                    : std::make_unique<ModelSnapshot>(src.config());
    }
    return shell;
}

std::shared_ptr<const TablePage>
ModelSnapshotStore::wrapPage(std::unique_ptr<TablePage> page)
{
    return std::shared_ptr<const TablePage>(
        page.release(), [pool = pool_](const TablePage *p) {
            pool->retirePage(
                std::unique_ptr<TablePage>(const_cast<TablePage *>(p)));
        });
}

void
ModelSnapshotStore::buildDeltaTables(const DlrmModel &src,
                                     ModelSnapshot &shell,
                                     const ModelSnapshot *prev,
                                     const DirtyRowTracker *dirty,
                                     PublishReceipt &receipt)
{
    const std::size_t page_rows = options_.pageRows;
    // Sharing is only sound against a previous DELTA snapshot of the
    // same shape and page geometry; anything else degrades to a full
    // page copy (correct, just not cheap).
    const bool can_share = prev != nullptr &&
                           prev->mode == SnapshotMode::Delta &&
                           shellMatches(*prev, src) &&
                           !prev->model.tables().empty() &&
                           prev->model.tables()[0].pageRows() ==
                               page_rows;
    if (dirty != nullptr) {
        LAZYDP_ASSERT(dirty->pageRows() == page_rows,
                      "tracker page size != store page size");
        LAZYDP_ASSERT(dirty->numTables() == src.tables().size(),
                      "tracker table count != model");
    }

    for (std::size_t t = 0; t < src.tables().size(); ++t) {
        const EmbeddingTable &st = src.tables()[t];
        const std::uint64_t rows = st.rows();
        const std::size_t dim = st.dim();
        const auto npages = static_cast<std::size_t>(
            (rows + page_rows - 1) / page_rows);
        const std::vector<std::shared_ptr<const TablePage>>
            *prev_pages = can_share ? &prev->model.tables()[t].pages()
                                    : nullptr;

        std::vector<std::shared_ptr<const TablePage>> pages;
        pages.reserve(npages);
        for (std::size_t p = 0; p < npages; ++p) {
            const bool copy = prev_pages == nullptr ||
                              dirty == nullptr || dirty->pageDirty(t, p);
            if (!copy) {
                pages.push_back((*prev_pages)[p]);
                ++receipt.pagesShared;
                continue;
            }
            const std::uint64_t lo =
                static_cast<std::uint64_t>(p) * page_rows;
            const std::size_t span = static_cast<std::size_t>(
                std::min<std::uint64_t>(page_rows, rows - lo));
            std::unique_ptr<TablePage> page =
                pool_->acquirePage(page_rows * dim, options_.sealPages);
            if (page == nullptr)
                page = std::make_unique<TablePage>(page_rows * dim,
                                                   options_.sealPages);
            // copyRowsOut instead of a weights() memcpy: tiered source
            // tables have no contiguous buffer (rows come from the hot
            // frame or the cold mapping page by page); for dense
            // sources it degenerates to the same single memcpy.
            st.copyRowsOut(lo, span, page->data());
            if (options_.sealPages)
                page->seal();
            ++receipt.pagesCopied;
            receipt.rowsCopied += span;
            pages.push_back(wrapPage(std::move(page)));
        }
        shell.model.tables()[t].bindPages(page_rows, std::move(pages));
    }
}

PublishReceipt
ModelSnapshotStore::publish(const DlrmModel &src, std::uint64_t iteration,
                            DirtyRowTracker *dirty)
{
    WallTimer wall;
    PublishReceipt receipt;
    const bool delta = options_.mode == SnapshotMode::Delta;

    // The writer's own previous publish: the sharing base. Loading it
    // here (single writer) is cheap and keeps the store free of any
    // second retention path for old versions.
    std::shared_ptr<const ModelSnapshot> prev;
    if (delta)
        prev = current();

    std::unique_ptr<ModelSnapshot> shell = acquireShell(src);
    if (delta) {
        shell->model.copyMlpWeightsFrom(src);
        buildDeltaTables(src, *shell, prev.get(), dirty, receipt);
        // The marks were consumed into this version; from here on the
        // tracker accumulates dirt against it.
        if (dirty != nullptr)
            dirty->reset();
    } else {
        shell->model.copyWeightsFrom(src);
        for (const auto &t : src.tables())
            receipt.rowsCopied += t.rows();
    }
    shell->iteration = iteration;
    shell->version = version_.load(std::memory_order_relaxed) + 1;

    // The copy above completed before this swap, so every snapshot
    // reachable through current() is fully published -- readers can
    // never observe a torn state. The custom deleter recycles the
    // shell through the pool once the last reader releases it.
    std::shared_ptr<const ModelSnapshot> snap(
        shell.release(), [pool = pool_](const ModelSnapshot *s) {
            pool->retireSnapshot(std::unique_ptr<ModelSnapshot>(
                const_cast<ModelSnapshot *>(s)));
        });
    const std::uint64_t published = snap->version;
    {
        // The version this replaces is released after the lock drops,
        // so its recycling never runs inside a reader's wait.
        std::lock_guard<std::mutex> lock(currentMu_);
        current_.swap(snap);
    }
    version_.store(published, std::memory_order_release);

    receipt.seconds = wall.seconds();
    ++totals_.publishes;
    totals_.seconds += receipt.seconds;
    totals_.rowsCopied += receipt.rowsCopied;
    totals_.pagesCopied += receipt.pagesCopied;
    totals_.pagesShared += receipt.pagesShared;
    return receipt;
}

PublishTotals
ModelSnapshotStore::totals() const
{
    PublishTotals t = totals_;
    t.snapshotsRecycled = pool_->snapshotsRecycled();
    t.pagesRecycled = pool_->pagesRecycled();
    return t;
}

} // namespace lazydp
