/**
 * @file
 * The paper's benchmark programs (§7) as DSL builders, structurally
 * faithful to the published algorithms and parameterized so the CPU
 * baseline stays runnable (the default arguments below are the scales
 * used; perfbench/README.md describes the timed benchmark workloads):
 *
 *  - LoLa-CIFAR / LoLa-MNIST (unencrypted & encrypted weights):
 *    Brutzkus et al.'s low-latency networks as sequences of
 *    Halevi-Shoup diagonal matrix-vector products with square
 *    activations (CKKS, starting L = 8 / 4 / 6).
 *  - Logistic regression: HELR (Han et al.), one batch of 256 samples
 *    x 256 features, CKKS at L = 16.
 *  - DB Lookup: HElib's BGV country-db lookup: Fermat equality test
 *    (t-1 = 2^16: 16 squarings) + masked aggregation, BGV at L = 17.
 *  - BGV bootstrapping (Alperin-Sheriff-Peikert, non-packed) and CKKS
 *    bootstrapping (HEAAN, non-packed), L_max = 24: homomorphic
 *    inner product, trace (log2 N rotations), digit extraction /
 *    sine evaluation.
 */
#ifndef F1_WORKLOADS_WORKLOADS_H
#define F1_WORKLOADS_WORKLOADS_H

#include "compiler/program.h"

namespace f1 {

enum class WorkloadScheme { kBgv, kCkks };

struct Workload
{
    Program program;
    WorkloadScheme scheme;
    uint32_t n;
    uint32_t maxLevel;  //!< FheContext levels for reference execution
    uint32_t auxCount;  //!< aux primes for GHS (0 = digit only)
    const char *paperCpuMs;   //!< paper's CPU time (for reporting)
    const char *paperF1Ms;    //!< paper's F1 time
};

/** Listing 2: (rows x N-slot) matrix-vector multiply. */
Workload makeMatVec(uint32_t n = 16384, uint32_t level = 16,
                    uint32_t rows = 4);

/** LoLa-MNIST; encrypted_weights selects the two paper variants. */
Workload makeLolaMnist(bool encrypted_weights, double scale = 1.0);

/** LoLa-CIFAR (unencrypted weights). */
Workload makeLolaCifar(double scale = 0.25);

/** HELR logistic regression, one batch. */
Workload makeLogReg(uint32_t features = 256, double scale = 1.0);

/** BGV country-db lookup. */
Workload makeDbLookup(uint32_t entries = 4, double scale = 1.0);

/** Non-packed BGV bootstrapping (L_max = 24). */
Workload makeBgvBootstrap(uint32_t lmax = 24, uint32_t digits = 8);

/** Non-packed CKKS bootstrapping (L_max = 24). */
Workload makeCkksBootstrap(uint32_t lmax = 24);

/** All Table 3 benchmarks in paper order. */
std::vector<Workload> makeTable3Suite(double cifar_scale = 0.25);

} // namespace f1

#endif // F1_WORKLOADS_WORKLOADS_H
