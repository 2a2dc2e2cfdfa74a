/**
 * @file
 * Reproduces paper Table 3: full-program performance of F1 (simulated
 * cycles at 1 GHz) versus the CPU software baseline (the same
 * homomorphic-operation graph executed by the library's FHE layer on
 * this host). Absolute times differ from the paper's testbed; the
 * shape — three to four orders of magnitude, bootstrapping lowest —
 * is the reproduction target. Repeated end-to-end timings with their
 * spread come from perfbench (perfbench/README.md).
 *
 * Pass --fast to scale the workloads down (CI-friendly).
 */
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench_util.h"

using namespace f1;
using namespace f1::bench;

int
main(int argc, char **argv)
{
    bool fast = argc > 1 && std::strcmp(argv[1], "--fast") == 0;
    const double cifar_scale = fast ? 0.05 : 0.25;

    printf("=== Table 3: full FHE benchmarks, F1 vs CPU ===\n");
    printf("(CPU = this library's software FHE layer on this host; "
           "paper columns for shape comparison)\n\n");
    printf("%-22s %12s %10s %10s | %12s %10s\n", "Benchmark",
           "CPU [ms]", "F1 [ms]", "Speedup", "paperCPU[ms]",
           "paperF1[ms]");
    hr();

    F1Config cfg;
    double log_speedup_sum = 0;
    int count = 0;
    auto suite = makeTable3Suite(cifar_scale);
    for (auto &w : suite) {
        auto res = simulate(w, cfg);
        double f1_ms = res.schedule.timeMs(cfg);
        double cpu_ms = cpuBaselineMs(w);
        double speedup = cpu_ms / f1_ms;
        log_speedup_sum += std::log(speedup);
        ++count;
        printf("%-22s %12.1f %10.3f %9.0fx | %12s %10s\n",
               w.program.name().c_str(), cpu_ms, f1_ms, speedup,
               w.paperCpuMs, w.paperF1Ms);
    }
    hr();
    printf("%-22s %*sgmean %7.0fx | (paper gmean: 5,432x vs "
           "4-core Xeon)\n", "", 28, "",
           std::exp(log_speedup_sum / count));
    if (fast)
        printf("\n[--fast: reduced scales (LoLa-CIFAR at 0.05)]\n");
    return 0;
}
