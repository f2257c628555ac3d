/**
 * @file
 * Paper Figure 11: latency breakdown of LazyDP itself at batch 2048,
 * including the LazyDP-introduced overhead and its three components
 * (next-index dedup / HistoryTable read + ANS stddev / HistoryTable
 * update). In the paper the overhead totals ~15% of training time,
 * split 61% / 22% / 17%.
 */

#include <cstdio>
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "common/cli.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/lazydp.h"
#include "data/data_loader.h"
#include "train/trainer.h"

using namespace lazydp;
using namespace lazydp::bench;

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv,
                       {"threads", "table-mb", "iters", "pipeline",
                        "kernels", "help"});
    if (args.has("help")) {
        std::printf("fig11_lazydp_breakdown [--threads=N] [--iters=N] "
                    "[--pipeline[=on]] [--table-mb=N] "
                    "[--kernels=scalar|avx2|avx512|auto]\n");
        return 0;
    }
    args.applyKernels();
    const std::size_t threads = args.getThreads(1);
    const std::uint64_t iters = args.getU64("iters", 3);
    const bool pipeline = args.getBool("pipeline", false);
    ThreadPool pool(threads);
    ExecContext exec(&pool);

    const std::uint64_t table_bytes = args.getU64("table-mb", 960) << 20;
    printPreamble("Figure 11",
                  "LazyDP latency breakdown (batch 2048, " +
                      std::to_string(threads) + " threads, pipeline " +
                      (pipeline ? "on" : "off") + ")");

    // Run LazyDP directly (not via the factory) to read the overhead
    // sub-stage counters.
    const auto mc = ModelConfig::mlperfBench(table_bytes);
    DlrmModel model(mc, 1);
    SyntheticDataset dataset(
        datasetFor(mc, AccessConfig::uniform(), 2048, 0xDA7A));
    TrainHyper hyper;
    LazyDpAlgorithm lazy(model, hyper, /*use_ans=*/true);
    lazy.warmStartHistory(4096, expectedDelay(mc, 2048), 7);

    SequentialLoader loader(dataset);
    const std::uint64_t warmup = 1;
    TrainOptions options;
    options.pipeline = pipeline;
    options.recordLosses = false;
    options.startIter = 4096;
    options.warmupIters = warmup;
    options.previewFinal = true;
    Trainer trainer(lazy, loader, &exec);
    const TrainResult result = trainer.run(warmup + iters, options);
    const StageTimer &timer = result.timer;

    const double total = timer.totalSeconds();
    TablePrinter table("Figure 11: LazyDP stage shares");
    table.setHeader({"stage", "sec/iter", "share"});
    auto add = [&](Stage s) {
        table.addRow({stageName(s),
                      TablePrinter::num(timer.seconds(s) / iters, 5),
                      TablePrinter::num(
                          100.0 * timer.seconds(s) / total, 1) +
                          "%"});
    };
    add(Stage::Forward);
    add(Stage::BackwardPerExample);
    add(Stage::BackwardPerBatch);
    add(Stage::GradCoalesce);
    add(Stage::NoiseSampling);
    add(Stage::NoisyGradGen);
    add(Stage::NoisyGradUpdate);
    add(Stage::LazyOverhead);
    add(Stage::Else);
    table.print(std::cout);

    // Under the pipeline, prepare stages overlap compute, so the busy
    // sum exceeds wall time; both are needed to read the shares above.
    std::printf("\nbusy %.5f s/iter (stage sum) vs wall %.5f s/iter "
                "(end-to-end, incl. data loading)\n",
                total / static_cast<double>(iters),
                result.secondsPerIteration());

    const auto &ovh = lazy.overheadBreakdown();
    const double ovh_total = ovh.dedupSeconds + ovh.historyReadSeconds +
                             ovh.historyWriteSeconds;
    TablePrinter split("LazyDP overhead components (paper: 61/22/17%)");
    split.setHeader({"component", "share"});
    auto pct = [&](double x) {
        return TablePrinter::num(100.0 * x / ovh_total, 1) + "%";
    };
    split.addRow({"dedup next-batch indices", pct(ovh.dedupSeconds)});
    split.addRow(
        {"HistoryTable read + ANS stddev", pct(ovh.historyReadSeconds)});
    split.addRow({"HistoryTable update", pct(ovh.historyWriteSeconds)});
    split.print(std::cout);

    std::printf("\nPaper anchors: no single stage dominates; LazyDP "
                "overhead ~15%% of iteration time; noise sampling "
                "reduced 1081x and noisy update 418x vs DP-SGD(F).\n");
    return 0;
}
