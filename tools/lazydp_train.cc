/**
 * @file
 * lazydp_train — the command-line training driver.
 *
 * One binary to run any engine on any model preset / dataset skew /
 * scale, print a stage breakdown and (for DP engines) the privacy
 * budget, and optionally checkpoint. This is the entry point a user
 * who just cloned the repository is expected to reach for.
 *
 * Examples:
 *   lazydp_train --algo=lazydp --model=mlperf --table-mb=960 \
 *                --batch=2048 --iters=20 --sigma=1.1 --clip=1.0
 *   lazydp_train --algo=dpsgd-f --model=rmc1 --skew=high --iters=10
 *   lazydp_train --algo=lazydp --weight-decay=0.05 --save=ckpt.bin
 */

#include <cstdio>
#include <iostream>
#include <memory>

#include "common/cli.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/table_printer.h"
#include "core/factory.h"
#include "core/lazydp.h"
#include "data/data_loader.h"
#include "dp/accountant.h"
#include "io/checkpoint.h"
#include "obs/obs_cli.h"
#include "serve/snapshot_store.h"
#include "train/trainer.h"

using namespace lazydp;

int
main(int argc, char **argv)
{
    const CliArgs args(
        argc, argv,
        obs::withObsFlags(withTierFlags(std::vector<FlagSpec>{
         {"algo", "engine: sgd|dpsgd-b|dpsgd-r|dpsgd-f|eana|lazydp|"
                  "lazydp-noans"},
         {"model", "preset: mlperf|mlperf-full|mlperf-hetero|rmc1|rmc2|"
                   "rmc3|tiny"},
         {"table-mb", "total embedding-table megabytes"},
         {"batch", "mini-batch (lot) size"},
         {"iters", "training iterations"},
         {"pooling", "embedding lookups per table per example"},
         {"lr", "learning rate"},
         {"sigma", "DP noise multiplier"},
         {"clip", "per-example gradient clipping norm C"},
         {"weight-decay", "L2 weight decay lambda (deferred by LazyDP)"},
         {"skew", "table-access skew: uniform|low|medium|high|zipf"},
         {"seed", "model/data seed"},
         {"population", "privacy accounting: training population N"},
         {"delta", "privacy accounting: target delta"},
         {"threads", "execution width (0 = all hardware threads; "
                     "bit-identical model for every N)"},
         {"pipeline", "on|off: overlap noise prep + batch prefetch "
                      "with compute (bit-identical model)"},
         {"replicas", "1|2|4 lot-sharded data-parallel workers "
                      "(bit-identical model)"},
         {"kernels", "SIMD backend: scalar|avx2|avx512|auto (scalar is "
                     "the bit-exact golden reference)"},
         {"publish-every", "publish a serving snapshot every N "
                           "iterations (0 = off): measures the publish "
                           "cost a live serving tier would add"},
         {"snapshot", "snapshot store mode: full|delta (with "
                      "--publish-every)"},
         {"save", "write a checkpoint here (LazyDP: full training "
                  "state)"},
         {"csv", "print the result table as CSV"},
         {"help", "print this listing"}})));
    if (args.has("help")) {
        std::printf("%s",
                    args.helpText("lazydp_train",
                                  "command-line DP training driver "
                                  "(one binary, any engine/model/skew)")
                        .c_str());
        return 0;
    }

    const std::string algo_name = args.getString("algo", "lazydp");
    const std::uint64_t table_mb = args.getU64("table-mb", 96);
    ModelConfig model_cfg =
        modelPreset(args.getString("model", "mlperf"), table_mb << 20);
    if (args.has("pooling"))
        model_cfg.pooling = args.getU64("pooling", model_cfg.pooling);

    const std::size_t batch = args.getU64("batch", 1024);
    const std::uint64_t iters = args.getU64("iters", 20);
    if (iters == 0)
        fatal("--iters must be positive");
    const std::uint64_t seed = args.getU64("seed", 1);

    TrainHyper hyper;
    hyper.lr = static_cast<float>(args.getDouble("lr", 0.05));
    hyper.noiseMultiplier =
        static_cast<float>(args.getDouble("sigma", 1.0));
    hyper.clipNorm = static_cast<float>(args.getDouble("clip", 1.0));
    hyper.weightDecay =
        static_cast<float>(args.getDouble("weight-decay", 0.0));
    hyper.noiseSeed = seed * 0x9E3779B9u + 7;

    // Out-of-core mode: --cold-path switches the embedding tables to
    // the DRAM-hot / file-cold tiered backend. Same trained model bits
    // as all-DRAM; only residency traffic and wall time change.
    const std::string cold_path = args.getString("cold-path", "");
    if (args.has("hot-mb") && cold_path.empty())
        fatal("--hot-mb needs --cold-path (it sizes the tiered "
              "tables' DRAM budget)");
    std::unique_ptr<DlrmModel> model_holder;
    if (!cold_path.empty()) {
        DlrmModel::TieredModelOptions tier;
        tier.hotBytes = args.getU64("hot-mb", 64) << 20;
        tier.coldDir = cold_path;
        tier.prefetch = args.getBool("prefetch", true);
        model_holder =
            std::make_unique<DlrmModel>(model_cfg, seed, tier);
    } else {
        model_holder = std::make_unique<DlrmModel>(model_cfg, seed);
    }
    DlrmModel &model = *model_holder;
    DatasetConfig data_cfg;
    data_cfg.numDense = model_cfg.numDense;
    data_cfg.numTables = model_cfg.numTables;
    data_cfg.rowsPerTable = model_cfg.rowsPerTable;
    data_cfg.rowsPerTableVec = model_cfg.rowsPerTableVec;
    data_cfg.pooling = model_cfg.pooling;
    data_cfg.batchSize = batch;
    data_cfg.access = accessPreset(args.getString("skew", "uniform"));
    data_cfg.seed = seed + 0xDA7A;
    SyntheticDataset dataset(data_cfg);
    SequentialLoader loader(dataset);

    // Telemetry: --trace / --stats-out turn on the metrics registry and
    // (for stats) the background sampler for the duration of the run.
    obs::ObsSession obs(obs::obsOptionsFromCli(args));

    const std::size_t threads = args.getThreads(1);
    const bool pipeline = args.getBool("pipeline", false);
    const std::size_t replicas = args.getU64("replicas", 1);
    const std::string kernels_name = args.applyKernels();
    ThreadPool pool(threads);
    ExecContext exec(&pool);

    auto algo = makeAlgorithm(algo_name, model, hyper);
    inform("training ", algo->name(), " on ", model_cfg.name, " (",
           humanBytes(model.tableBytes()), " tables, batch ", batch,
           ", ", iters, " iters, ", threads, " threads, pipeline ",
           pipeline ? "on" : "off", ", replicas ", replicas,
           ", kernels ", kernels_name, ")");
    if (model.tiered())
        inform("out-of-core tables: hot tier ",
               humanBytes(args.getU64("hot-mb", 64) << 20),
               ", cold tier under ", cold_path, ", prefetch ",
               args.getBool("prefetch", true) ? "on" : "off");

    Trainer trainer(*algo, loader, &exec);
    TrainOptions options;
    options.pipeline = pipeline;
    options.replicas = replicas;
    options.recordIterSeconds = true;

    // Optional snapshot publishing: no serving tier here, but the
    // publish cost lands on the training loop either way -- this is
    // how a user measures what --publish-every would cost them.
    const std::uint64_t publish_every = args.getU64("publish-every", 0);
    const std::string snapshot_mode =
        args.getString("snapshot", "full");
    if (snapshot_mode != "full" && snapshot_mode != "delta")
        fatal("--snapshot must be full or delta, got ", snapshot_mode);
    std::unique_ptr<ModelSnapshotStore> store;
    if (publish_every > 0) {
        SnapshotOptions snap_opts;
        snap_opts.mode = snapshot_mode == "delta" ? SnapshotMode::Delta
                                                  : SnapshotMode::Full;
        store = std::make_unique<ModelSnapshotStore>(snap_opts);
        options.publishEveryIters = publish_every;
        options.snapshotStore = store.get();
    }
    const TrainResult result = trainer.run(iters, options);

    // All traced work is done (lanes are idle once run() returns):
    // flush the trace + final stats scrape before reporting.
    obs.finish();

    TablePrinter table("Result: " + algo->name());
    table.setHeader({"metric", "value"});
    table.addRow({"sec/iter (wall)",
                  TablePrinter::num(result.secondsPerIteration(), 4)});
    // Under --pipeline the overlapped prepare stages count into busy
    // but not wall, so busy/iter can exceed wall/iter.
    table.addRow({"sec/iter (busy)",
                  TablePrinter::num(result.busySeconds() /
                                        static_cast<double>(iters),
                                    4)});
    const auto iter_pct =
        stats::computePercentiles(result.iterSeconds);
    table.addRow({"sec/iter p95",
                  TablePrinter::num(iter_pct.p95, 4)});
    table.addRow({"sec/iter p99",
                  TablePrinter::num(iter_pct.p99, 4)});
    table.addRow({"total wall s",
                  TablePrinter::num(result.wallSeconds +
                                        result.finalizeSeconds,
                                    2)});
    table.addRow({"finalize s",
                  TablePrinter::num(result.finalizeSeconds, 4)});
    table.addRow({"loss first",
                  TablePrinter::num(result.losses.front(), 4)});
    table.addRow({"loss last",
                  TablePrinter::num(result.losses.back(), 4)});
    for (const auto &[stage, secs] : result.timer.breakdown()) {
        if (secs <= 0.0)
            continue;
        table.addRow(
            {"stage: " + stage,
             TablePrinter::num(secs / static_cast<double>(iters), 4)});
    }
    if (result.publishes > 0) {
        table.addRow({"snapshot mode", snapshot_mode});
        table.addRow({"publishes",
                      TablePrinter::num(
                          static_cast<double>(result.publishes), 0)});
        table.addRow(
            {"publish ms mean",
             TablePrinter::num(result.publishSeconds * 1e3 /
                                   static_cast<double>(result.publishes),
                               3)});
        table.addRow({"publish rows copied",
                      TablePrinter::num(
                          static_cast<double>(result.rowsCopied), 0)});
        table.addRow({"publish pages shared",
                      TablePrinter::num(
                          static_cast<double>(result.pagesShared), 0)});
    }
    if (model.tiered()) {
        const TierStats &ts = result.tierStats;
        table.addRow({"tier hit rate",
                      TablePrinter::num(ts.hitRate(), 4)});
        table.addRow({"tier promotions",
                      TablePrinter::num(
                          static_cast<double>(ts.promotions), 0)});
        table.addRow({"tier promotions warmed",
                      TablePrinter::num(
                          static_cast<double>(ts.warmedPromotions), 0)});
        table.addRow({"tier evictions",
                      TablePrinter::num(
                          static_cast<double>(ts.evictions), 0)});
        table.addRow({"tier write-backs",
                      TablePrinter::num(
                          static_cast<double>(ts.writebacks), 0)});
        table.addRow({"tier overcommits",
                      TablePrinter::num(
                          static_cast<double>(ts.overcommits), 0)});
    }
    if (args.getBool("csv", false))
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    // Privacy accounting for the DP engines.
    if (algo_name != "sgd") {
        const std::uint64_t population =
            args.getU64("population", 10'000'000);
        const double delta = args.getDouble("delta", 1e-6);
        RdpAccountant acc(hyper.noiseMultiplier,
                          static_cast<double>(batch) /
                              static_cast<double>(population));
        acc.addSteps(iters);
        inform("privacy: epsilon = ", acc.epsilon(delta),
               " at delta = ", delta, " (population ", population,
               ", Poisson-sampling assumption)");
        if (algo_name == "eana")
            warn("EANA's guarantee is weaker than this accounting "
                 "suggests for skewed data (see paper Section 7.4)");
    }

    if (args.has("save")) {
        const std::string path = args.getString("save", "");
        if (auto *lazy = dynamic_cast<LazyDpAlgorithm *>(algo.get())) {
            io::saveTraining(path, model, *lazy, iters + 1);
            inform("saved LazyDP training checkpoint to ", path);
        } else {
            io::saveModel(path, model);
            inform("saved model weights to ", path);
        }
    }
    return 0;
}
