/**
 * @file
 * Paper Figure 10: end-to-end training time of SGD, LazyDP,
 * LazyDP(w/o ANS) and DP-SGD(F) across mini-batch sizes
 * (1024/2048/4096), normalized to SGD at batch 2048.
 *
 * Expected shape: DP-SGD(F) orders of magnitude above SGD (growing
 * with table size); LazyDP(w/o ANS) in between (memory bottleneck gone,
 * sampling bottleneck remains); LazyDP within ~2-3x of SGD.
 *
 * Threading: `--threads=N` runs every measurement on an N-wide pool
 * (and, for N > 1, also measures the LazyDP@2048 configuration at one
 * thread to report the multi-core speedup). `--thread-sweep=1,2,4,8`
 * replaces the batch sweep with a LazyDP/DP-SGD(F) scaling table; the
 * trained model is bit-identical at every width, so the sweep measures
 * pure execution scaling.
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "common/cli.h"
#include "common/string_util.h"

using namespace lazydp;
using namespace lazydp::bench;

namespace {

RunSpec
specFor(const char *algo, std::size_t batch, std::uint64_t table_bytes,
        std::size_t threads, bool pipeline, std::size_t replicas = 1)
{
    RunSpec spec;
    spec.algo = algo;
    spec.model = ModelConfig::mlperfBench(table_bytes);
    spec.batch = batch;
    spec.iters = 3;
    spec.warmup = 1;
    spec.threads = threads;
    spec.pipeline = pipeline;
    spec.replicas = replicas;
    return spec;
}

void
runReplicaSweep(const std::vector<std::size_t> &counts,
                std::uint64_t table_bytes, std::size_t threads,
                bool pipeline)
{
    TablePrinter table(
        "Figure 10 replica sweep: lot-sharded data-parallel workers "
        "(batch 2048, " + std::to_string(threads) + " threads, pipeline " +
        (pipeline ? "on" : "off") + "; bit-identical model at every "
        "count)");
    table.setHeader({"algo", "replicas", "sec/iter (wall)",
                     "busy s/iter", "speedup vs 1st"});
    for (const char *algo : {"lazydp", "dpsgd-f"}) {
        double base = 0.0;
        for (const std::size_t r : counts) {
            const RunStats stats = runMeasured(specFor(
                algo, 2048, table_bytes, threads, pipeline, r));
            const double sec = stats.secondsPerIter();
            if (base == 0.0)
                base = sec;
            table.addRow({algo, std::to_string(r),
                          TablePrinter::num(sec, 4),
                          TablePrinter::num(stats.busySecondsPerIter(), 4),
                          TablePrinter::num(base / sec, 2) + "x"});
        }
    }
    table.print(std::cout);
}

void
runThreadSweep(const std::vector<std::size_t> &counts,
               std::uint64_t table_bytes, bool pipeline)
{
    TablePrinter table("Figure 10 thread sweep: sec/iter vs pool width "
                       "(batch 2048)");
    table.setHeader(
        {"algo", "threads", "sec/iter", "speedup vs 1st"});
    for (const char *algo : {"lazydp", "lazydp-noans", "dpsgd-f"}) {
        double base = 0.0;
        for (const std::size_t t : counts) {
            const RunStats stats = runMeasured(
                specFor(algo, 2048, table_bytes, t, pipeline));
            const double sec = stats.secondsPerIter();
            if (base == 0.0)
                base = sec;
            table.addRow({algo, std::to_string(t),
                          TablePrinter::num(sec, 4),
                          TablePrinter::num(base / sec, 2) + "x"});
        }
    }
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv,
                       {"threads", "thread-sweep", "replica-sweep",
                        "table-mb", "pipeline", "kernels", "help"});
    if (args.has("help")) {
        std::printf("fig10_end_to_end [--threads=N] [--pipeline[=on]] "
                    "[--thread-sweep=1,2,4,8] [--replica-sweep=1,2,4] "
                    "[--table-mb=N] [--kernels=scalar|avx2|avx512|auto]\n");
        return 0;
    }
    args.applyKernels();
    const std::size_t threads = args.getThreads(1);
    const bool pipeline = args.getBool("pipeline", false);
    const std::uint64_t table_bytes = args.getU64("table-mb", 960) << 20;

    if (args.has("replica-sweep")) {
        std::vector<std::size_t> counts;
        for (const auto &tok :
             split(args.getString("replica-sweep", ""), ','))
            counts.push_back(parseU64(tok));
        if (counts.empty()) // bare --replica-sweep: all valid counts
            counts = {1, 2, 4};
        printPreamble("Figure 10",
                      "replica sweep: lot-sharded data-parallel "
                      "LazyDP / DP-SGD(F)");
        runReplicaSweep(counts, table_bytes, threads, pipeline);
        return 0;
    }

    printPreamble("Figure 10",
                  "end-to-end time: SGD / LazyDP / LazyDP(w/o ANS) / "
                  "DP-SGD(F) x batch size");

    if (args.has("thread-sweep")) {
        std::vector<std::size_t> counts;
        for (const auto &tok :
             split(args.getString("thread-sweep", ""), ','))
            counts.push_back(parseU64(tok));
        if (counts.empty()) // bare --thread-sweep: default widths
            counts = {1, 2, 4, 8};
        runThreadSweep(counts, table_bytes, pipeline);
        return 0;
    }

    const char *algos[] = {"sgd", "lazydp", "lazydp-noans", "dpsgd-f"};
    const std::size_t batches[] = {1024, 2048, 4096};

    TablePrinter table(
        "Figure 10: training time, " + humanBytes(table_bytes) +
        " tables, " + std::to_string(threads) + " threads, pipeline " +
        (pipeline ? "on" : "off") + " (normalized to SGD@2048)");
    table.setHeader({"algo", "batch", "mode", "sec/iter", "busy s/iter",
                     "vs SGD@2048"});

    // First pass: measure SGD@2048 for the normalization base.
    double ref = 0.0;
    struct Cell
    {
        std::string algo;
        std::size_t batch;
        RunStats stats;
        ModelConfig model;
    };
    std::vector<Cell> cells;

    for (const char *algo : algos) {
        for (const std::size_t batch : batches) {
            RunSpec spec =
                specFor(algo, batch, table_bytes, threads, pipeline);
            Cell cell{algo, batch, runMeasured(spec), spec.model};
            if (cell.algo == "sgd" && batch == 2048)
                ref = cell.stats.secondsPerIter();
            cells.push_back(std::move(cell));
        }
    }

    for (const auto &cell : cells) {
        table.addRow(
            {cell.algo, std::to_string(cell.batch), "measured",
             TablePrinter::num(cell.stats.secondsPerIter(), 4),
             TablePrinter::num(cell.stats.busySecondsPerIter(), 4),
             TablePrinter::num(cell.stats.secondsPerIter() / ref, 2)});
    }

    // Modeled series at the paper's 96 GB scale (batch 2048).
    const std::uint64_t paper_bytes = 96ull << 30;
    for (const auto &cell : cells) {
        if (cell.batch != 2048)
            continue;
        double sec;
        if (cell.algo == "sgd") {
            sec = cell.stats.secondsPerIter(); // size-independent
        } else if (cell.algo == "dpsgd-f") {
            sec = modeledEagerSeconds(cell.stats, cell.model,
                                      paper_bytes, cell.batch);
        } else {
            sec = modeledLazySeconds(cell.stats, cell.model, cell.batch,
                                     cell.algo == "lazydp", paper_bytes);
        }
        table.addRow({cell.algo, "2048", "modeled 96GB",
                      TablePrinter::num(sec, 4), "-",
                      TablePrinter::num(sec / ref, 2)});
    }

    table.print(std::cout);

    if (threads > 1) {
        // Scaling check: the same LazyDP configuration on one thread.
        const RunStats serial = runMeasured(
            specFor("lazydp", 2048, table_bytes, 1, pipeline));
        double multi = 0.0;
        for (const auto &cell : cells) {
            if (cell.algo == "lazydp" && cell.batch == 2048)
                multi = cell.stats.secondsPerIter();
        }
        std::printf("\nLazyDP@2048 threads=%zu speedup over threads=1: "
                    "%.2fx (%.4fs -> %.4fs per iter)\n",
                    threads, serial.secondsPerIter() / multi,
                    serial.secondsPerIter(), multi);
    }

    if (pipeline) {
        // Pipeline check: the same LazyDP configuration, serial
        // schedule. The trained model is bit-identical; only the
        // overlap differs.
        const RunStats off = runMeasured(
            specFor("lazydp", 2048, table_bytes, threads, false));
        double on = 0.0;
        for (const auto &cell : cells) {
            if (cell.algo == "lazydp" && cell.batch == 2048)
                on = cell.stats.secondsPerIter();
        }
        std::printf("\nLazyDP@2048 pipeline speedup over off "
                    "(threads=%zu): %.2fx (%.4fs -> %.4fs per iter)\n",
                    threads, off.secondsPerIter() / on,
                    off.secondsPerIter(), on);
    }

    std::printf("\nPaper anchors: DP-SGD(F) 166-375x SGD; LazyDP(w/o "
                "ANS) ~72%% faster than DP-SGD(F) but still 97-218x "
                "SGD; LazyDP 1.96-2.42x SGD (85-155x speedup).\n");
    return 0;
}
