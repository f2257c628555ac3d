/**
 * @file
 * Paper Figure 12: modeled energy consumption of SGD / LazyDP /
 * DP-SGD(F) across batch sizes, normalized to SGD at batch 2048.
 *
 * Energy = sum over stages of stage_time x stage_power (pcm-power
 * substitution; see README "Scale note"). Expected shape: LazyDP
 * within ~2-3x of SGD, DP-SGD(F) two orders of magnitude higher --
 * energy follows time because power varies far less than latency.
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "common/string_util.h"

using namespace lazydp;
using namespace lazydp::bench;

int
main()
{
    const std::uint64_t table_bytes = 960ull << 20;
    printPreamble("Figure 12", "energy: SGD / LazyDP / DP-SGD(F)");

    const EnergyModel energy(MachineSpec::paperXeon());
    const char *algos[] = {"sgd", "lazydp", "dpsgd-f"};
    const std::size_t batches[] = {1024, 2048, 4096};

    TablePrinter table("Figure 12: energy per iteration, " +
                       humanBytes(table_bytes) +
                       " tables (normalized to SGD@2048)");
    table.setHeader(
        {"algo", "batch", "joules/iter", "vs SGD@2048"});

    double ref = 0.0;
    struct Cell
    {
        std::string algo;
        std::size_t batch;
        double joules;
    };
    std::vector<Cell> cells;
    for (const char *algo : algos) {
        for (const std::size_t batch : batches) {
            RunSpec spec;
            spec.algo = algo;
            spec.model = ModelConfig::mlperfBench(table_bytes);
            spec.batch = batch;
            spec.iters = 3;
            spec.warmup = 1;
            const RunStats s = runMeasured(spec);
            const double joules =
                energy.joules(s.timer) / static_cast<double>(s.iters);
            if (std::string(algo) == "sgd" && batch == 2048)
                ref = joules;
            cells.push_back({algo, batch, joules});
        }
    }
    for (const auto &c : cells) {
        table.addRow({c.algo, std::to_string(c.batch),
                      TablePrinter::num(c.joules, 2),
                      TablePrinter::num(c.joules / ref, 2)});
    }
    table.print(std::cout);
    std::printf("\nPaper anchors: LazyDP 0.7-3.0x SGD energy; DP-SGD(F) "
                "~353x at this scale grows with table size (155x "
                "average saving for LazyDP).\n");
    return 0;
}
